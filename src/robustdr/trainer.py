"""Two-stage training orchestration.

Stage one pretrains the encoder contrastively on span pairs drawn from one or
more corpora; each batch draws its span pairs first, then featurizes them in
one call into a fresh feature block, whose rows 2p and 2p + 1 are pair p.
Stage two fine-tunes on labeled source data in episodes. Its input is a
`FeatureStore` (`training_store`): the texts featurized once, one feature
block over the training queries, then the corpus documents, with the qrels
the store was built from. A store is the one input of every dense ranking:
fine-tuning, self-negative mining (`mine_negatives`) and evaluation
(`retrieval_eval.evaluate`) all embed its rows. The store also keeps, for the
fine-tuners that share it, what an episode start computes from the store
alone or from the store and the weights, each made once: the BM25 ranking of
the queries, held at the deepest depth asked for (a top k is the prefix of a
deeper top K, bit for bit), each depth's BM25 top k minus the judged
positives, and the latest K-Means fit of the query embeddings per (k, seed,
max_iters), taken again for embeddings of the same bytes. The fine-tuner
works in row ids: each query's positives, and each episode's negative pools,
are lists of document positions held as one flat array plus bounds
(`DocLists`), and a batch is an array of store rows. A batch's random draws
are two generator calls: ``rng.choice`` for the queries, then one
``rng.integers`` over every draw of every item (`_draw_picks`), whose bounds
sit in one (items, 2 x negatives) array, an item's draws in its row, padded
with bounds of 0. That gives the picks, and leaves the generator as, one
``rng.integers`` and one ``rng.choice`` per item would, bit for bit, by
relying on how numpy draws: each bounded integer is a Lemire draw on the
generator's 32-bit stream whose consumption depends on its bound alone, and a
bound of 0 consumes nothing; ``choice`` without replacement is Floyd's
algorithm then a shuffle of the picks, or, for a population above 10,000 and
a sample above 1/50 of it, a shuffle of the tail of a full permutation.
`TestDrawPicks` in the tests checks that contract against the installed numpy.
The queries' positive counts are taken once per fine-tuner and the pool sizes
once per episode. Each episode re-embeds the training
queries from their rows, refreshes their K-Means clusters, refreshes the
negative pools (lexical BM25 negatives for episode 1, self-mined dense
negatives afterwards), then runs a minibatch loop. A pool is a query's top k
minus its judged positives, never refilled from below rank k: the top k of a
block of queries at a time from `retrieval_eval`'s block selector, then one
mask per block. A query left with an empty pool falls back to random negatives
drawn from the episode's generator, the one step of a BM25 pool that each
fine-tuner makes for itself. Each step is one forward and one backward over
the whole batch, each cluster scored as its own sub-batch, giving per-item
losses and one gradient row per present cluster on the feature columns the
batch touches. The step groups its items by cluster once (`idro.ClusterLayout`),
and the loss, the weighting and the backward all read that layout. The
per-cluster losses and rows are reweighted by the configured strategy and
combined into one row on those columns, which the optimizer steps on
directly; the robust-weight update over the present clusters follows. A step
keeps its log as arrays; the `LogRow` objects are made when ``log_rows`` is
read. Both stages know before their first step every feature
column a step can touch (the store's columns; the eligible documents'
vocabulary), and Adam keeps its moments over that set from the start. The
robust weights ``omega`` are the only weighting state carried between steps;
each cluster refresh resets them to uniform. Every run is fully determined by
(config, seed, data).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import logging
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import blobfile, clustering, idro, losses, retrieval_eval
from .corpus import Corpus, QrelSet, Query, QuerySet, sample_span_pair
from .encoder import (
    FeatureRows,
    Featurizer,
    Params,
    encode_many,
    load_checkpoint,
    save_checkpoint,
)
from .errors import BlobFileError, ConfigError, CorpusFormatError, InvariantError

logger = logging.getLogger(__name__)

# Tags for deriving independent, resumable random streams from the run seed.
_TAG_PRETRAIN = 1
_TAG_KMEANS = 2
_TAG_MINE = 3
_TAG_BATCH = 4

WEIGHTINGS = ("idro", "groupdro", "uniform")
OPTIMIZERS = ("adam", "sgd")
# Adam's moment decay rates and denominator floor, at their usual values.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Share of all steps over which the learning rate warms up linearly.
WARMUP_FRAC = 0.1
# The values each annotation admits; bool is an int but no int or float field takes one.
_FIELD_TYPES = {"int": int, "float": (int, float), "str": str}


@dataclass(frozen=True)
class RunConfig:
    """All run hyperparameters in one serializable record, checked when it is built
    (a ConfigError naming the first bad field) and never changed after."""

    seed: int = 0
    # encoder
    feature_dim: int = 2**15
    embed_dim: int = 64
    # contrastive pretraining
    span_len: int = 8
    pretrain_epochs: int = 4
    # fine-tuning schedule
    episodes: int = 3
    steps_per_episode: int = 100
    batch_size: int = 32
    negatives_per_query: int = 4
    mine_depth: int = 50
    # clustering
    k_clusters: int = 50
    kmeans_iters: int = 50
    # cluster weighting
    weighting: str = "idro"
    beta: float = 0.25
    tau: float = 1.0
    groupdro_step_size: float = 0.1
    # optimizer
    optimizer: str = "adam"
    learning_rate: float = 0.05

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        def bad(name, why):
            raise ConfigError(f"{name}: {why}")

        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not isinstance(value, _FIELD_TYPES[field.type]) or isinstance(value, bool):
                bad(field.name, f"must be a {field.type}, not {value!r}")
        if self.weighting not in WEIGHTINGS:
            bad("weighting", f"must be one of {WEIGHTINGS}")
        if self.optimizer not in OPTIMIZERS:
            bad("optimizer", f"must be one of {OPTIMIZERS}")
        for name in ("feature_dim", "embed_dim", "span_len", "batch_size",
                     "negatives_per_query", "mine_depth", "k_clusters", "kmeans_iters"):
            if getattr(self, name) < 1:
                bad(name, "must be >= 1")
        for name in ("seed", "pretrain_epochs", "episodes", "steps_per_episode"):
            if getattr(self, name) < 0:
                bad(name, "must be >= 0")
        for name in ("learning_rate", "beta", "groupdro_step_size"):
            if not abs(getattr(self, name)) <= sys.float_info.max:
                bad(name, f"must be finite, not {getattr(self, name)!r}")
        if not self.learning_rate > 0:
            bad("learning_rate", "must be > 0")
        if self.beta < 0:
            bad("beta", "must be >= 0")
        if not self.tau > 0:
            bad("tau", "must be > 0 (inf allowed)")
        try:
            float(self.tau)
        except OverflowError:
            bad("tau", "is an integer too large for a float")
        if self.groupdro_step_size < 0:
            bad("groupdro_step_size", "must be >= 0")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name: f for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, value in data.items():
            if key not in known:
                raise ConfigError(f"{key}: unknown config field")
            kwargs[key] = value
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)


class Optimizer:
    """Plain gradient descent or Adam, stepping on one `encoder.grouped_backward` row.

    A step's gradient is ``(cols, row)``: ``row`` holds dW on the feature
    columns ``cols``; every other column of dW is zero. Gradient descent
    moves only ``W[:, cols]``, which in the feature-major ``flat`` are the
    rows ``cols`` of ``flat.reshape(D, E)``.

    Adam keeps its moments over ``live``, the sorted feature columns the run
    can touch, given when it is built and fixed from then on, as L x E
    arrays, one row per live column; a step on a column outside them is an
    InvariantError. A column of ``live`` that no step has touched yet has zero
    moments and a zero gradient, so its textbook step is
    ``lr * 0 / (sqrt(0) + eps) = 0`` and the weight keeps its bytes, as it
    does outside ``live``. Each entry goes through the textbook operations in
    the textbook order, so ``flat`` and the moments equal those of dense Adam
    on the scattered gradient bit for bit.
    """

    def __init__(self, config: RunConfig, params: Params, cols: np.ndarray):
        self.kind = config.optimizer
        self.t = 0
        self.shape = (params.feature_dim, params.embed_dim)
        if self.kind == "adam":
            self.live = np.asarray(cols, dtype=np.int64)
            self.m_w = np.zeros((self.live.size, params.embed_dim))
            self.v_w = np.zeros_like(self.m_w)

    def step(self, flat: np.ndarray, cols: np.ndarray, row: np.ndarray, lr: float) -> None:
        self.t += 1
        w = flat.reshape(self.shape)
        grad_w = row.reshape(self.shape[1], cols.size).T
        if self.kind == "sgd":
            # ``take`` gathers the rows faster than ``w[cols]`` does, to the same values
            stepped = w.take(cols, axis=0)
            stepped -= lr * grad_w
            w[cols] = stepped
            return
        at = np.searchsorted(self.live, cols)
        if np.any(at == self.live.size) or np.any(self.live[at] != cols):
            raise InvariantError("an Adam step touched a feature column outside its live set")
        grad = np.zeros_like(self.m_w)
        grad[at] = grad_w
        live_w = w.take(self.live, axis=0)
        live_w -= self._adam_step(self.m_w, self.v_w, grad, lr)
        w[self.live] = live_w

    def _adam_step(
        self, m: np.ndarray, v: np.ndarray, grad: np.ndarray, lr: float
    ) -> np.ndarray:
        """Update ``m`` and ``v`` in place; return the step to subtract from the weights.

        Two temporaries, rounding as the textbook expression
        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;  step = lr*m_hat / (sqrt(v_hat) + eps).
        """
        tmp = np.multiply(grad, 1.0 - ADAM_BETA1)
        m *= ADAM_BETA1
        m += tmp
        np.multiply(grad, 1.0 - ADAM_BETA2, out=tmp)
        tmp *= grad
        v *= ADAM_BETA2
        v += tmp
        np.divide(v, 1.0 - ADAM_BETA2**self.t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        step = np.divide(m, 1.0 - ADAM_BETA1**self.t)
        step *= lr
        step /= tmp
        return step


def scheduled_lr(base: float, step_idx: int, total_steps: int) -> float:
    """Linear warmup over the first `WARMUP_FRAC` of steps, then linear decay."""
    if total_steps <= 0:
        return base
    warm = int(round(total_steps * WARMUP_FRAC))
    if warm > 0 and step_idx < warm:
        return base * (step_idx + 1) / warm
    return base * (total_steps - step_idx) / (total_steps - warm)


def _derived_rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag, index])))


@dataclass
class PretrainResult:
    params: Params
    epoch_losses: list[float]


def _eligible_docs(corpora: Iterable[Corpus], span_len: int) -> list:
    docs = []
    for corpus in corpora:
        docs.extend(doc for doc in corpus if len(doc.tokens) >= 2 * span_len)
    return docs


def pretrain_coco(config: RunConfig, corpora: Sequence[Corpus]) -> PretrainResult:
    """Contrastive span-pair pretraining over the union of the given corpora.

    Each span pair's negatives are the other pairs of its batch, so a batch needs
    at least two documents: a ``batch_size`` below 2 is a ConfigError.
    """
    if config.batch_size < 2:
        raise ConfigError("batch_size: span-pair pretraining needs at least 2 per batch")
    if not corpora:
        raise ValueError("pretraining needs at least one corpus")
    docs = _eligible_docs(corpora, config.span_len)
    if len(docs) < 2:
        raise ValueError(
            "pretraining needs at least two documents long enough for two disjoint spans"
        )
    featurizer = Featurizer(config.feature_dim)
    params = Params.init_random(config.feature_dim, config.embed_dim, seed=config.seed)
    # Every span is a window of an eligible document, so its columns are among
    # those of the documents' vocabulary, featurized as one row.
    vocab = featurizer([itertools.chain.from_iterable(doc.tokens for doc in docs)])
    optimizer = Optimizer(config, params, vocab.indices)

    n = len(docs)
    full, rem = divmod(n, config.batch_size)
    batches_per_epoch = full + (1 if rem >= 2 else 0)
    total_steps = config.pretrain_epochs * batches_per_epoch

    epoch_losses: list[float] = []
    step_idx = 0
    for epoch in range(config.pretrain_epochs):
        rng = _derived_rng(config.seed, _TAG_PRETRAIN, epoch)
        order = rng.permutation(n)
        losses_this_epoch: list[float] = []
        for start in range(0, batches_per_epoch * config.batch_size, config.batch_size):
            chunk = order[start : start + config.batch_size]
            batch = _span_pair_batch([docs[int(i)] for i in chunk], config.span_len,
                                     featurizer, rng)
            loss, cols, row = losses.coco_loss_grad(params, batch)
            lr = scheduled_lr(config.learning_rate, step_idx, total_steps)
            optimizer.step(params.flat, cols, row, lr)
            losses_this_epoch.append(loss)
            step_idx += 1
        epoch_losses.append(float(np.mean(losses_this_epoch)))
    return PretrainResult(params=params, epoch_losses=epoch_losses)


def _span_pair_batch(
    docs: Sequence, span_len: int, featurizer: Featurizer, rng: np.random.Generator
) -> FeatureRows:
    """One span pair per document, drawn in order, then featurized in one call:
    every row of a fresh block, whose rows 2p and 2p + 1 are document p's pair."""
    spans = [span for doc in docs for span in sample_span_pair(doc, span_len, rng)]
    return featurizer(spans).all_rows()


@dataclass(frozen=True, eq=False)
class DocLists:
    """One list of document positions per query, held as one flat array: list
    i is ``docs[bounds[i]:bounds[i + 1]]``. ``len`` counts the lists."""

    docs: np.ndarray
    bounds: np.ndarray

    def __len__(self) -> int:
        return self.bounds.size - 1

    def __getitem__(self, i: int) -> np.ndarray:
        return self.docs[self.bounds[i] : self.bounds[i + 1]]

    def __iter__(self):
        bounds = self.bounds.tolist()
        return (self.docs[a:b] for a, b in zip(bounds, bounds[1:]))

    def sizes(self) -> np.ndarray:
        return np.diff(self.bounds)


def _bounds(sizes: np.ndarray) -> np.ndarray:
    bounds = np.zeros(sizes.size + 1, dtype=np.intp)
    np.cumsum(sizes, out=bounds[1:])
    return bounds


class FeatureStore:
    """A task's texts featurized once, as rows of one `encoder.FeatureBlock`,
    and what episode starts compute from them alone or from them and the weights.

    The store serves fine-tuning, self-negative mining and evaluation: every
    dense ranking of the task embeds its rows (`retrieval_eval.dense_picks`).
    Query i of ``queries`` is row i and document j of ``corpus`` (corpus
    order) is row ``n_queries + j``. ``qrels`` is the `QrelSet` the store was
    built from, by which `retrieval_eval.evaluate` judges its rankings.
    ``positives`` lists each query's judged positives as document positions
    j, in qrels file order; a positive that is not in the corpus is a
    CorpusFormatError. The negative pools of `mine_negatives` and
    `bm25_negative_pools` are `DocLists` too, one list per query. Nothing of
    that changes after the store is built.

    The store also computes, each on first use, and keeps for the fine-tuners
    that share it:

    * the corpus's BM25 index (`bm25`);
    * the queries' BM25 top k per depth (`bm25_picks`). Only the deepest
      ranking is held: a query's top k is the prefix of its top K for k <= K,
      with the same ties at the boundary and the same score floats (see
      `retrieval_eval`), so a shallower depth is sliced from it and a query
      is ranked again only at a deeper depth;
    * each depth's top k minus the judged positives (`bm25_unjudged`), so
      that a warmup pool takes only its fallback draws per fine-tuner;
    * the latest K-Means fit of the query embeddings per (k, seed, max_iters)
      (`cluster_fit`). `clustering.kmeans_fit` is a pure function of the
      embeddings and those three, so a fine-tuner whose weights embed the
      queries to the same bytes takes the fit made for another.
    """

    def __init__(self, featurizer: Featurizer, queries: Iterable[Query], corpus: Corpus,
                 qrels: QrelSet):
        self.featurizer = featurizer
        self.queries = list(queries)
        self.corpus = corpus
        self.qrels = qrels
        self.n_queries = len(self.queries)
        self.block = featurizer(itertools.chain(
            (query.tokens for query in self.queries), (doc.tokens for doc in corpus)))
        position = {doc_id: j for j, doc_id in enumerate(corpus.ids)}
        pos_ids = [qrels.positives(query.id) for query in self.queries]
        for query, ids in zip(self.queries, pos_ids):
            missing = [doc_id for doc_id in ids if doc_id not in position]
            if missing:
                raise CorpusFormatError(
                    f"query {query.id!r} has a positive {missing[0]!r} missing from the corpus"
                )
        bounds = _bounds(np.fromiter(map(len, pos_ids), np.intp, self.n_queries))
        self.positives = DocLists(
            np.fromiter((position[d] for ids in pos_ids for d in ids), np.intp, bounds[-1]),
            bounds,
        )
        self._bm25_depth = 0
        self._bm25_ranking: list[retrieval_eval.Picks] = []
        self._bm25_unjudged: dict[int, DocLists] = {}
        # (k, seed, max_iters) -> ((shape, bytes) of the embeddings, their fit)
        self._fits: dict[tuple, tuple[tuple, clustering.ClusterModel]] = {}

    @functools.cached_property
    def bm25(self) -> retrieval_eval.Bm25Index:
        """The corpus's BM25 index, built on first use."""
        return retrieval_eval.Bm25Index(self.corpus)

    def bm25_picks(self, k: int) -> list[retrieval_eval.Picks]:
        """The queries' BM25 top k, one `retrieval_eval.Picks` per block: the first
        k picks of each query in the deepest ranking held, ranked at k first
        when that ranking is shallower."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if k > self._bm25_depth:
            tokens = [query.tokens for query in self.queries]
            self._bm25_ranking = list(retrieval_eval.block_picks(self.bm25, tokens, k))
            self._bm25_depth = k
        if k == self._bm25_depth:
            return self._bm25_ranking
        return [_prefix(picks, k) for picks in self._bm25_ranking]

    def bm25_unjudged(self, k: int) -> DocLists:
        """Each query's BM25 top k minus its judged positives, best first, made on
        first use of each depth and kept; an empty list is not refilled."""
        lists = self._bm25_unjudged.get(k)
        if lists is None:
            lists = self._bm25_unjudged[k] = _unjudged(self, self.bm25_picks(k))
            lists.docs.flags.writeable = lists.bounds.flags.writeable = False
        return lists

    def cluster_fit(self, embeddings: np.ndarray, k: int, seed: int,
                    max_iters: int) -> clustering.ClusterModel:
        """``clustering.kmeans_fit`` of the queries' embeddings (one row per query),
        made unless the latest fit with these ``k``, ``seed`` and ``max_iters``
        was of embeddings with the same bytes, which is then returned. The model
        may be shared by several fine-tuners, so its labels are read-only."""
        key, data = (k, seed, max_iters), (embeddings.shape, embeddings.tobytes())
        held = self._fits.get(key)
        if held is not None and held[0] == data:
            return held[1]
        model = clustering.kmeans_fit(embeddings, k, seed=seed, max_iters=max_iters)
        self._fits[key] = (data, model)
        return model

    def query_rows(self) -> FeatureRows:
        return FeatureRows(self.block, np.arange(self.n_queries))

    def doc_rows(self) -> FeatureRows:
        return FeatureRows(self.block, np.arange(self.n_queries, len(self.block)))

    def pool_ids(self, pools: DocLists) -> dict[str, list[str]]:
        """Pools of document positions as document ids, keyed by query id."""
        doc_ids = self.corpus.ids
        return {query.id: [doc_ids[j] for j in pool.tolist()]
                for query, pool in zip(self.queries, pools)}


def training_store(config: RunConfig, corpus: Corpus, queries: QuerySet,
                   qrels: QrelSet) -> FeatureStore:
    """The `FeatureStore` a `Finetuner` trains on: the queries with a positive
    judgment (each other query is dropped with a warning), then the corpus,
    featurized as ``config`` sets. ValueError when no query is left."""
    kept = []
    for query in queries:
        if qrels.positives(query.id):
            kept.append(query)
        else:
            logger.warning("query %r has no positive judgments; dropped", query.id)
    if not kept:
        raise ValueError("no training queries with positive judgments")
    return FeatureStore(Featurizer(config.feature_dim), kept, corpus, qrels)


def _fallback_pool(
    qid: str, positives: np.ndarray, n_docs: int, depth: int, rng: np.random.Generator
) -> np.ndarray:
    candidates = np.setdiff1d(np.arange(n_docs), positives)
    if not candidates.size:
        logger.warning("query %r: corpus has no non-positive documents; empty pool", qid)
        return candidates
    take = min(depth, candidates.size)
    return candidates[rng.choice(candidates.size, size=take, replace=False)]


def _prefix(picks: retrieval_eval.Picks, k: int) -> retrieval_eval.Picks:
    """Each query's first k picks of a block's deeper `retrieval_eval.Picks`."""
    sizes = np.minimum(np.diff(picks.bounds), k)
    bounds = _bounds(sizes)
    take = np.repeat(picks.bounds[:-1] - bounds[:-1], sizes) + np.arange(bounds[-1])
    return retrieval_eval.Picks(picks.start, bounds, picks.cols[take], picks.scores[take])


def _unjudged(store: FeatureStore, blocks: Iterable[retrieval_eval.Picks]) -> DocLists:
    """Each query's picks minus its judged positives, through one mask per block."""
    n_docs = len(store.corpus)
    positives = store.positives
    pooled, sizes = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for picks in blocks:
        m = picks.bounds.size - 1
        pos_bounds = positives.bounds[picks.start : picks.start + m + 1]
        mask = np.zeros((m, n_docs), dtype=bool)
        mask[np.repeat(np.arange(m), np.diff(pos_bounds)),
             positives.docs[pos_bounds[0] : pos_bounds[-1]]] = True
        rows = picks.rows()
        kept = ~mask[rows, picks.cols]
        pooled.append(picks.cols[kept])
        sizes.append(np.bincount(rows[kept], minlength=m))
    return DocLists(np.concatenate(pooled), _bounds(np.concatenate(sizes)))


def _with_fallbacks(
    store: FeatureStore, lists: DocLists, k: int, rng: np.random.Generator, source: str
) -> tuple[DocLists, int]:
    """The pools of `_unjudged` lists: an empty list (the query's top k are all
    positives) falls back to seeded random non-positive corpus documents
    (logged), drawn from ``rng`` in query order. ``lists`` is left as it is."""
    sizes = lists.sizes()
    empty = np.flatnonzero(sizes == 0)
    if not empty.size:
        return lists, 0
    fallbacks = []
    for i in empty.tolist():
        qid = store.queries[i].id
        logger.warning("query %r: %s top-%d all positive; random negatives", qid, source, k)
        fallbacks.append(_fallback_pool(qid, store.positives[i], len(store.corpus), k, rng))
    fallback_sizes = [pool.size for pool in fallbacks]
    docs = np.insert(lists.docs, np.repeat(lists.bounds[empty], fallback_sizes),
                     np.concatenate(fallbacks))
    sizes[empty] = fallback_sizes
    return DocLists(docs, _bounds(sizes)), len(fallbacks)


def mine_negatives(
    params: Params, store: FeatureStore, k: int, rng: np.random.Generator
) -> tuple[DocLists, int]:
    """Self-negative pools: top-k dense retrievals minus judged positives.

    The store's queries are ranked by `retrieval_eval.dense_picks`, which
    embeds their rows and the documents' rows. A query whose retrievals are
    all positives falls back to seeded random non-positive corpus documents
    (logged). Returns (the pools, one list of document positions per query,
    and the fallback count).
    """
    blocks = retrieval_eval.dense_picks(params, store, k)
    return _with_fallbacks(store, _unjudged(store, blocks), k, rng, "dense")


def bm25_negative_pools(
    store: FeatureStore, k: int, rng: np.random.Generator
) -> tuple[DocLists, int]:
    """Warmup pools: BM25 top-k minus judged positives, with the same fallback.

    The top k minus the positives come from the store
    (`FeatureStore.bm25_unjudged`), made once per depth; each call makes only
    the fallback draws, which take ``rng``.
    """
    return _with_fallbacks(store, store.bm25_unjudged(k), k, rng, "BM25")


# numpy's `Generator.choice` without replacement shuffles the tail of a full
# permutation, not Floyd's algorithm, for a population above _TAIL_POPULATION
# and a sample above 1/_TAIL_CUTOFF of it.
_TAIL_POPULATION = 10000
_TAIL_CUTOFF = 50


def _draw_picks(
    rng: np.random.Generator, n_pos: np.ndarray, n_pool: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """One batch's picks from one ``rng.integers`` call, bit for bit those of a
    per-item loop.

    Item i picks a position below ``n_pos[i]`` (>= 1) and, unless its pool is
    empty (``n_pool[i] == 0``), k positions below ``n_pool[i]``. Returns (one
    positive pick per item, a (items with a pool, k) array of pool picks);
    the picks, and ``rng``'s state after, equal those of
    ``rng.integers(n_pos[i])`` then ``rng.choice(n_pool[i], k, replace=n_pool[i] < k)``
    per item, in item order, skipping the ``choice`` of an empty pool.

    Each of those calls is a sequence of numpy's bounded draws, and the
    sequence's inclusive bounds depend on the sizes only: ``n_pos - 1`` for the
    positive; ``L - 1`` k times for a pool of L < k (with replacement); for L >=
    k, Floyd's algorithm, one draw below each ``j = L - k .. L - 1`` inclusive,
    then a shuffle of its k picks, one draw below each ``i = k - 1 .. 1``; and
    for numpy's tail branch, one draw below each ``i = L - 1 .. max(L - k, 1)``
    while shuffling ``arange(L)``, whose last k entries are the picks. That is
    at most 2k draws per item, so item i's bounds fill row i of an (items, 2k)
    array, padded with bounds of 0. A draw consumes the generator's 32-bit
    stream by its bound alone (Lemire's method; a bound of 0 consumes nothing
    and draws 0), so one ``rng.integers`` over that array, row after row,
    draws the same values. Floyd's repeat rule, the shuffles' swaps and the
    tail shuffle then run on the drawn values.
    """
    n_pos, n_pool = np.asarray(n_pos, dtype=np.intp), np.asarray(n_pool, dtype=np.intp)
    tail = (n_pool >= k) & (n_pool > _TAIL_POPULATION) & (k > n_pool // _TAIL_CUTOFF)
    f = np.flatnonzero((n_pool >= k) & ~tail)
    r = np.flatnonzero((n_pool > 0) & (n_pool < k))
    bounds = np.zeros((n_pool.size, 2 * k), dtype=np.int64)
    bounds[:, 0] = n_pos - 1
    j = n_pool[f, None] - k + np.arange(k)
    bounds[f, 1:k + 1] = j
    bounds[f, k + 1:] = np.arange(k - 1, 0, -1)
    bounds[r, 1:k + 1] = n_pool[r, None] - 1
    # each tail-branch item's shuffle positions, one draw below each
    tail_at = {i: range(n_pool[i] - 1, max(n_pool[i] - k, 1) - 1, -1)
               for i in np.flatnonzero(tail).tolist()}
    for i, at in tail_at.items():
        bounds[i, 1:1 + len(at)] = at

    drawn = rng.integers(0, bounds, endpoint=True)

    neg = np.empty((n_pool.size, k), dtype=np.int64)
    neg[r] = drawn[r, 1:k + 1]
    # Floyd: a draw that repeats an earlier pick of its item takes its j instead.
    picks = drawn[f, 1:k + 1]
    for c in range(1, k):
        np.copyto(picks[:, c], j[:, c], where=(picks[:, :c] == picks[:, c, None]).any(axis=1))
    # Then the shuffle: draw c swaps pick k - 1 - c with the pick it names.
    flat, first = picks.reshape(-1), np.arange(0, picks.size, k)
    for c, swap in enumerate(drawn[f, k + 1:].T):
        at, to = first + (k - 1 - c), first + swap
        held = flat[to]
        flat[to] = flat[at]
        flat[at] = held
    neg[f] = picks
    for i, positions in tail_at.items():
        perm = np.arange(n_pool[i])
        for at, swap in zip(positions, drawn[i, 1:1 + len(positions)].tolist()):
            perm[at], perm[swap] = perm[swap], perm[at]
        neg[i] = perm[n_pool[i] - k :]
    return drawn[:, 0], neg[n_pool > 0]


@dataclass
class EpisodeRecord:
    episode: int
    negative_source: str
    kmeans_objective: float
    mean_loss: float
    n_steps: int
    n_fallback: int


@dataclass
class LogRow:
    step: int
    episode: int
    cluster: int
    loss: float
    alpha: float
    omega: float
    total_loss: float


STATE_FORMAT = "robustdr-trainer-state"
STATE_VERSION = 9
_STATE_FIELDS = {
    "episodes_done": int, "optimizer_kind": str, "optimizer_t": int,
    "blocks": list, "checkpoint": str, "weights_crc32": int,
}


def write_training_log(rows: Iterable[LogRow], path: str | Path) -> None:
    """One line per log row, its fields in `LogRow` order under their names."""
    blobfile.write_records(path, LogRow, rows)


class Finetuner:
    """Episode-based fine-tuning on labeled source data.

    It trains on ``store``, a `FeatureStore` made with the config's
    ``feature_dim`` (a ConfigError otherwise) whose queries
    each have a positive judgment, as `training_store` makes it; positives,
    negative pools and batches are row ids of it. The fine-tuner changes
    nothing the store was built with, so several may share one; what the
    store computes for one of them (its BM25 ranking and pools, its cluster
    fits) it keeps for the others. `omega` holds the robust
    weights, one per cluster of the current cluster model. Adam's live
    columns are the store's feature columns, every column a step can touch.
    State at an episode boundary fully determines the continuation, so saving
    and reloading it resumes bit-identically. That state is the weights, kept
    in an encoder checkpoint, and the trainer state paired with it: the
    optimizer's step count, Adam's moments over its live columns, and the
    episode counter. The next episode refits the clusters from the weights and
    resets `omega` to uniform, so neither is saved.
    """

    def __init__(self, config: RunConfig, params: Params, store: FeatureStore):
        for name in ("feature_dim", "embed_dim"):
            if getattr(params, name) != getattr(config, name):
                raise ConfigError(f"{name}: the encoder does not match the config")
        if store.featurizer.dim != config.feature_dim:
            raise ConfigError(f"feature_dim: the feature store was featurized with "
                              f"{store.featurizer.dim}, the config has {config.feature_dim}")
        if not store.n_queries or not store.positives.sizes().all():
            raise ValueError("the feature store needs queries that each have a positive "
                             "judgment; see training_store")
        self.config = config
        self.params = params
        self.store = store
        self.queries = store.queries

        self.omega = np.full(config.k_clusters, 1.0 / config.k_clusters)
        self.optimizer = Optimizer(config, params, np.unique(store.block.indices))
        self.episodes_done = 0
        # (step, episode, present ids, cluster losses, alpha, omega used, scalar) per step
        self._log: list[tuple] = []
        self._pos_sizes = store.positives.sizes()
        self.episode_records: list[EpisodeRecord] = []
        self.cluster_model: clustering.ClusterModel | None = None

    # -- episode machinery -------------------------------------------------

    def _refresh_clusters(self, episode: int) -> None:
        k = min(self.config.k_clusters, len(self.queries))
        self.cluster_model = self.store.cluster_fit(
            encode_many(self.params, self.store.query_rows()),
            k,
            seed=int(_derived_rng(self.config.seed, _TAG_KMEANS, episode).integers(2**31)),
            max_iters=self.config.kmeans_iters,
        )
        self.query_clusters = self.cluster_model.labels
        self.omega = np.full(k, 1.0 / k)

    def _refresh_negatives(self, episode: int) -> tuple[str, int]:
        rng = _derived_rng(self.config.seed, _TAG_MINE, episode)
        if episode == 1:
            self.pools, n_fallback = bm25_negative_pools(self.store, self.config.mine_depth, rng)
            source = "bm25"
        else:
            self.pools, n_fallback = mine_negatives(
                self.params, self.store, self.config.mine_depth, rng
            )
            source = "self"
        self._pool_sizes = self.pools.sizes()
        return source, n_fallback

    def _build_batch(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """An (items, 2 + negatives) array of store rows, each row one item's
        query, positive and negatives, and the items' clusters.

        Per chosen query it draws a positive, then (unless its pool is empty,
        which skips the item) its negatives from its pool, with replacement
        only when the pool is shorter than ``negatives_per_query``. The queries
        come from one ``rng.choice`` and every item's draws from one
        ``rng.integers`` (`_draw_picks`), which give the picks of, and leave
        ``rng`` as, one ``rng.integers(pos.size)`` and one ``rng.choice(pool.size,
        negatives_per_query, replace=pool.size < negatives_per_query)`` per item.
        The positive and pool sizes are those taken when the run and the
        episode's pools were made.
        """
        cfg = self.config
        n = len(self.queries)
        chosen = rng.choice(n, size=cfg.batch_size, replace=cfg.batch_size > n)
        positives, pools = self.store.positives, self.pools
        pool_sizes = self._pool_sizes[chosen]
        pos_picks, neg_picks = _draw_picks(rng, self._pos_sizes[chosen], pool_sizes,
                                           cfg.negatives_per_query)
        has_pool = pool_sizes > 0
        items = chosen[has_pool]
        rows = np.empty((items.size, 2 + cfg.negatives_per_query), dtype=np.intp)
        rows[:, 0] = items
        rows[:, 1] = positives.docs[positives.bounds[items] + pos_picks[has_pool]]
        rows[:, 2:] = pools.docs[pools.bounds[items, None] + neg_picks]
        rows[:, 1:] += self.store.n_queries  # document positions -> store rows
        return rows, self.query_clusters[items]

    def _train_step(self, rows: np.ndarray, clusters: np.ndarray, total_steps: int) -> float:
        cfg = self.config
        step = self.optimizer.t
        # The uniform and groupdro strategies keep difficulty weights uniform.
        beta = cfg.beta if cfg.weighting == "idro" else 0.0

        layout = idro.ClusterLayout.of(clusters)
        item_losses, cols, grads = losses.retrieval_cluster_grads(
            self.params, losses.TripletRows(self.store.block, rows), layout
        )
        scalar, present, cluster_losses, alpha = idro.idro_loss(
            item_losses, layout, self.omega, beta
        )
        omega_used = self.omega[present]
        combined = idro.combine_cluster_grads(grads, alpha, omega_used)
        lr = scheduled_lr(cfg.learning_rate, step, total_steps)
        self.optimizer.step(self.params.flat, cols, combined, lr)

        if cfg.weighting == "idro":
            r = idro.r_matrix(cluster_losses, grads, beta)
            self.omega = idro.omega_update(self.omega, r, cfg.tau, present)
        elif cfg.weighting == "groupdro":
            self.omega = idro.groupdro_update(
                self.omega, cluster_losses, cfg.groupdro_step_size, present
            )
        self._log_step(step, present, cluster_losses, alpha, omega_used, scalar)
        return scalar

    def _log_step(self, step: int, present: np.ndarray, cluster_losses: np.ndarray,
                  alpha: np.ndarray, omega_used: np.ndarray, scalar: float) -> None:
        """Keep a step's log as its arrays; `log_rows` makes the rows from them."""
        self._log.append((step, self.episodes_done + 1, present, cluster_losses, alpha,
                          omega_used, scalar))

    @property
    def log_rows(self) -> list[LogRow]:
        """One `LogRow` per present cluster of every step run, step by step, each
        step's clusters in ascending id order; built on each read."""
        return [LogRow(step, episode, c, loss, a, w, scalar)
                for step, episode, *arrays, scalar in self._log
                for c, loss, a, w in zip(*(arr.tolist() for arr in arrays))]

    def run_episode(self) -> EpisodeRecord:
        cfg = self.config
        episode = self.episodes_done + 1
        self._refresh_clusters(episode)
        source, n_fallback = self._refresh_negatives(episode)
        rng = _derived_rng(cfg.seed, _TAG_BATCH, episode)
        total_steps = cfg.episodes * cfg.steps_per_episode
        step_losses: list[float] = []
        for _ in range(cfg.steps_per_episode):
            rows, clusters = self._build_batch(rng)
            if not len(rows):
                logger.warning("episode %d: empty batch skipped", episode)
                continue
            step_losses.append(self._train_step(rows, clusters, total_steps))
        record = EpisodeRecord(
            episode=episode,
            negative_source=source,
            kmeans_objective=self.cluster_model.objective,
            mean_loss=float(np.mean(step_losses)) if step_losses else float("nan"),
            n_steps=len(step_losses),
            n_fallback=n_fallback,
        )
        self.episode_records.append(record)
        self.episodes_done = episode
        return record

    def run(self) -> None:
        """Run the remaining episodes; the results are this object's attributes."""
        while self.episodes_done < self.config.episodes:
            self.run_episode()

    # -- persistence ---------------------------------------------------------

    def save_state(self, path: str | Path, checkpoint: str | Path) -> None:
        """Episode-boundary snapshot for bit-identical resumption under the same config.

        The weights go to ``checkpoint``, an encoder checkpoint in the
        directory of ``path``, and the rest of the state to ``path``, a
        `blobfile` file whose header names its blocks. The header also names
        the checkpoint by its file name and holds ``weights_crc32``, the
        CRC-32 of the weights' bytes, so `load_state` finds the pair and can
        tell a checkpoint of other weights (a guard against a mismatched pair,
        not against tampering). With Adam the blocks are ``live`` (its L
        ascending column ids, exact as float64, which `load_state` requires to
        equal the loading run's), ``adam_m`` and ``adam_v`` (L x E each, one
        row per live column, zero on a column no step has touched); with
        gradient descent there are none. Each block is written from the array
        that holds it, without a dense or joined copy. Bytes are reproducible.
        """
        path, checkpoint = Path(path), Path(checkpoint)
        if checkpoint.resolve().parent != path.resolve().parent:
            raise ValueError(f"{checkpoint}: the checkpoint must sit next to the state {path}")
        save_checkpoint(self.params, checkpoint)
        opt = self.optimizer
        blocks = {}
        if opt.kind == "adam":
            blocks.update(live=opt.live, adam_m=opt.m_w, adam_v=opt.v_w)
        fields = {
            "episodes_done": self.episodes_done,
            "optimizer_kind": opt.kind,
            "optimizer_t": opt.t,
            "blocks": [[name, int(arr.size)] for name, arr in blocks.items()],
            "checkpoint": checkpoint.name,
            "weights_crc32": _weights_crc32(self.params.flat),
        }
        blobfile.write(path, STATE_FORMAT, STATE_VERSION, fields, blocks.values())

    def _state_lengths(self, meta: dict) -> list[int]:
        """The blocks this run expects of a state file, checked against its header."""
        if meta["optimizer_kind"] != self.optimizer.kind:
            raise ConfigError("optimizer: state file was written by a different optimizer kind")
        if meta["optimizer_t"] < 0:
            raise ValueError(f"optimizer_t is {meta['optimizer_t']}, not >= 0")
        if not 0 <= meta["episodes_done"] <= self.config.episodes:
            raise ValueError(f"episodes_done is {meta['episodes_done']}, this run allows "
                             f"0 to {self.config.episodes}")
        name = meta["checkpoint"]
        if name in ("", "..") or Path(name).name != name:
            raise ValueError(f"checkpoint {name!r} is not a bare file name")
        expected = []
        if self.optimizer.kind == "adam":
            live, moments = self.optimizer.live.size, self.optimizer.m_w.size
            expected += [["live", live], ["adam_m", moments], ["adam_v", moments]]
        if meta["blocks"] != expected:
            raise ValueError(f"blocks {meta['blocks']} do not match this run's {expected}")
        return [length for _, length in expected]

    def _paired_weights(self, path: Path, meta: dict) -> np.ndarray:
        """The weights of the checkpoint a state names, checked against this run and
        the state's digest; a BlobFileError naming both files otherwise."""
        checkpoint = path.parent / meta["checkpoint"]
        prefix = f"{path}: paired checkpoint"
        if not checkpoint.is_file():
            raise BlobFileError(f"{prefix} {checkpoint} is missing")
        try:
            params = load_checkpoint(checkpoint)
        except BlobFileError as exc:
            raise BlobFileError(f"{prefix} {exc}") from None
        for name in ("feature_dim", "embed_dim"):
            if getattr(params, name) != getattr(self.config, name):
                raise BlobFileError(f"{prefix} {checkpoint} has {name} "
                                    f"{getattr(params, name)}, this run "
                                    f"{getattr(self.config, name)}")
        if _weights_crc32(params.flat) != meta["weights_crc32"]:
            raise BlobFileError(f"{prefix} {checkpoint} holds other weights than the state's "
                                f"weights_crc32")
        return params.flat

    def load_state(self, path: str | Path) -> None:
        """Adopt a `save_state` file and its paired checkpoint, all or nothing: every
        check of both files runs before any state changes, so a rejected pair
        leaves this `Finetuner` as it was. A state of Adam must hold this run's
        live columns."""
        path = Path(path)
        meta, arrays = blobfile.read(
            path, STATE_FORMAT, STATE_VERSION, _STATE_FIELDS, self._state_lengths
        )
        blocks = {name: arr for (name, _), arr in zip(meta["blocks"], arrays)}
        opt = self.optimizer
        if opt.kind == "adam":
            if not np.array_equal(blocks["live"], opt.live):
                raise BlobFileError(f"{path}: block live is not this run's feature columns")
            if np.any(blocks["adam_v"] < 0):
                raise BlobFileError(f"{path}: block adam_v holds a negative second moment")
        flat = self._paired_weights(path, meta)

        self.params.flat[:] = flat
        if opt.kind == "adam":
            opt.m_w[:] = blocks["adam_m"].reshape(opt.m_w.shape)
            opt.v_w[:] = blocks["adam_v"].reshape(opt.v_w.shape)
        opt.t = meta["optimizer_t"]
        self.episodes_done = meta["episodes_done"]


def _weights_crc32(flat: np.ndarray) -> int:
    """CRC-32 of a weight vector's float64 bytes, computed in place without a copy."""
    return zlib.crc32(memoryview(flat))
