"""Two-stage training orchestration.

Stage one pretrains the encoder contrastively on span pairs drawn from one or
more corpora; each batch draws its span pairs first, then featurizes them in
one call. Stage two fine-tunes on labeled source data in episodes: each
episode re-embeds the training queries, refreshes their K-Means clusters,
refreshes the negative pools (lexical BM25 negatives for episode 1,
self-mined dense negatives afterwards), then runs a minibatch loop. A pool
refresh works on a block of queries at a time: it takes each query's top k
from `retrieval_eval`'s block selector, then drops the query's judged
positives through one mask per block, so a pool is the top k minus the
positives, never refilled from below rank k. Each step is one forward and one
backward over the whole batch, each cluster scored as its own sub-batch,
giving per-item losses and one gradient row per present cluster on the
feature columns the batch touches. The per-cluster losses and rows are
reweighted by the configured strategy and combined into one row on those
columns, which the optimizer steps on directly; the robust-weight update over
the present clusters follows. The robust weights ``omega`` are the only
weighting state carried between steps; each cluster refresh resets them to
uniform or carries them over to the new clusters. Every run is
fully determined by (config, seed, data).
"""

from __future__ import annotations

import dataclasses
import logging
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import blobfile, clustering, idro, losses, retrieval_eval
from .corpus import Corpus, QrelSet, QuerySet, sample_span_pair
from .encoder import (
    EmbeddingMatrix,
    FeatureVector,
    Featurizer,
    Params,
    embed_items,
    encode_many,
)
from .errors import BlobFileError, ConfigError, CorpusFormatError

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
_FIELD_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str}


@dataclass
class RunConfig:
    """All run hyperparameters in one serializable record."""

    seed: int = 0
    hash_seed: int = 0
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
    omega_carryover: bool = False
    in_batch_negatives: bool = False
    # optimizer
    optimizer: str = "adam"
    learning_rate: float = 0.05

    def validate(self) -> "RunConfig":
        def bad(name, why):
            raise ConfigError(f"{name}: {why}")

        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not isinstance(value, _FIELD_TYPES[field.type]) or (
                isinstance(value, bool) and field.type != "bool"
            ):
                bad(field.name, f"must be a {field.type}, not {value!r}")
        if self.weighting not in WEIGHTINGS:
            bad("weighting", f"must be one of {WEIGHTINGS}")
        if self.optimizer not in OPTIMIZERS:
            bad("optimizer", f"must be one of {OPTIMIZERS}")
        for name in ("feature_dim", "embed_dim", "span_len", "batch_size",
                     "negatives_per_query", "mine_depth", "k_clusters", "kmeans_iters"):
            if getattr(self, name) < 1:
                bad(name, "must be >= 1")
        for name in ("pretrain_epochs", "episodes", "steps_per_episode"):
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
        if self.groupdro_step_size < 0:
            bad("groupdro_step_size", "must be >= 0")
        return self

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
            config = cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
        return config.validate()

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes).validate()


class Optimizer:
    """Plain gradient descent or Adam, stepping on one `encoder.grouped_backward` row.

    A step's gradient is ``(cols, row)``: ``row`` holds dW on the feature
    columns ``cols``; every other column of dW is zero. Gradient descent
    moves only ``W[:, cols]``.

    Adam keeps its moments over ``live``, the sorted feature columns that have
    ever had a gradient (a set that only grows). Outside ``live`` the moments
    and the gradient are zero, so the textbook step there is
    ``lr * 0 / (sqrt(0) + eps) = 0`` and the weight keeps its bytes. Inside,
    each entry goes through the textbook operations in the textbook order, so
    ``flat`` and the moments equal those of dense Adam on the scattered
    gradient bit for bit.
    """

    def __init__(self, config: RunConfig, params: Params):
        self.kind = config.optimizer
        self.t = 0
        self.shape = (params.embed_dim, params.feature_dim)
        if self.kind == "adam":
            self.live = np.empty(0, dtype=np.int64)
            self.m_w, self.v_w = np.zeros((params.embed_dim, 0)), np.zeros((params.embed_dim, 0))

    def step(self, flat: np.ndarray, cols: np.ndarray, row: np.ndarray, lr: float) -> None:
        self.t += 1
        w = flat.reshape(self.shape)
        grad_w = row.reshape(self.shape[0], cols.size)
        if self.kind == "sgd":
            w[:, cols] -= lr * grad_w
            return
        at = np.searchsorted(self.live, cols)
        new = at == self.live.size
        new[~new] = self.live[at[~new]] != cols[~new]
        if new.any():
            self.live = np.insert(self.live, at[new], cols[new])
            self.m_w = np.insert(self.m_w, at[new], 0.0, axis=1)
            self.v_w = np.insert(self.v_w, at[new], 0.0, axis=1)
            at = np.searchsorted(self.live, cols)
        grad = np.zeros_like(self.m_w)
        grad[:, at] = grad_w
        live_w = w[:, self.live]
        live_w -= self._adam_step(self.m_w, self.v_w, grad, lr)
        w[:, self.live] = live_w

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


def scheduled_lr(base: float, step_idx: int, total_steps: int, warmup_frac: float) -> float:
    """Linear warmup over the first `warmup_frac` of steps, then linear decay."""
    if total_steps <= 0:
        return base
    warm = int(round(total_steps * warmup_frac))
    if warm > 0 and step_idx < warm:
        return base * (step_idx + 1) / warm
    remaining = total_steps - warm
    if remaining <= 0:
        return base
    return base * (total_steps - step_idx) / remaining


def _derived_rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag, index])))


@dataclass
class PretrainResult:
    params: Params
    epoch_losses: list[float]
    n_documents: int


def _eligible_docs(corpora: Iterable[Corpus], span_len: int) -> list:
    docs = []
    for corpus in corpora:
        docs.extend(doc for doc in corpus if len(doc.tokens) >= 2 * span_len)
    return docs


def pretrain_coco(config: RunConfig, corpora: Sequence[Corpus]) -> PretrainResult:
    """Contrastive span-pair pretraining over the union of the given corpora."""
    config.validate()
    if not corpora:
        raise ValueError("pretraining needs at least one corpus")
    docs = _eligible_docs(corpora, config.span_len)
    if len(docs) < 2:
        raise ValueError(
            "pretraining needs at least two documents long enough for two disjoint spans"
        )
    featurizer = Featurizer(config.feature_dim, config.hash_seed)
    params = Params.init_random(config.feature_dim, config.embed_dim, seed=config.seed)
    optimizer = Optimizer(config, params)

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
            if chunk.shape[0] < 2:
                break
            batch = _span_pair_batch([docs[int(i)] for i in chunk], config.span_len,
                                     featurizer, rng)
            loss, cols, row = losses.coco_loss_grad(params, batch)
            lr = scheduled_lr(config.learning_rate, step_idx, total_steps, WARMUP_FRAC)
            optimizer.step(params.flat, cols, row, lr)
            losses_this_epoch.append(loss)
            step_idx += 1
        epoch_losses.append(float(np.mean(losses_this_epoch)))
    return PretrainResult(params=params, epoch_losses=epoch_losses, n_documents=n)


def _span_pair_batch(
    docs: Sequence, span_len: int, featurizer: Featurizer, rng: np.random.Generator
) -> list[tuple[FeatureVector, FeatureVector]]:
    """One span pair per document, drawn in order, then featurized in one call."""
    spans = [span for doc in docs for span in sample_span_pair(doc, span_len, rng)]
    fvs = featurizer.many(spans)
    return list(zip(fvs[0::2], fvs[1::2]))


def _fallback_pool(
    qid: str, positives: set[str], corpus: Corpus, depth: int, rng: np.random.Generator
) -> list[str]:
    candidates = [did for did in corpus.ids if did not in positives]
    if not candidates:
        logger.warning("query %r: corpus has no non-positive documents; empty pool", qid)
        return []
    take = min(depth, len(candidates))
    chosen = rng.choice(len(candidates), size=take, replace=False)
    return [candidates[int(i)] for i in chosen]


def _negative_pools(
    query_ids: Sequence[str], doc_ids: Sequence[str], blocks: Iterable[retrieval_eval.Picks],
    corpus: Corpus, qrels: QrelSet, k: int, rng: np.random.Generator | None, source: str,
) -> tuple[dict[str, list[str]], int]:
    """Each query's top k minus its judged positives, one block of queries at a time.

    A query whose top k are all positives falls back to seeded random
    non-positive corpus documents (logged), drawn from ``rng`` in query order.
    """
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(0))
    row_of = {doc_id: row for row, doc_id in enumerate(doc_ids)}
    names = np.array(doc_ids, dtype=object)
    pools: dict[str, list[str]] = {}
    n_fallback = 0
    for picks in blocks:
        block = query_ids[picks.start : picks.start + picks.bounds.size - 1]
        positives = [set(qrels.positives(qid)) for qid in block]
        mask = np.zeros((len(block), len(doc_ids)), dtype=bool)
        mask.ravel()[[i * mask.shape[1] + row_of[d]
                      for i, pos in enumerate(positives) for d in pos if d in row_of]] = True
        rows = picks.rows()
        kept = ~mask[rows, picks.cols]
        pooled = names[picks.cols[kept]].tolist()
        bounds = np.searchsorted(rows[kept], np.arange(len(block) + 1)).tolist()
        for i, qid in enumerate(block):
            pool = pooled[bounds[i] : bounds[i + 1]]
            if not pool:
                logger.warning("query %r: %s top-%d all positive; random negatives",
                               qid, source, k)
                pool = _fallback_pool(qid, positives[i], corpus, k, rng)
                n_fallback += 1
            pools[qid] = pool
    return pools, n_fallback


def mine_negatives(
    params: Params,
    featurizer: Featurizer,
    queries: QuerySet,
    corpus: Corpus,
    qrels: QrelSet,
    k: int,
    rng: np.random.Generator | None = None,
) -> tuple[dict[str, list[str]], int]:
    """Self-negative pools: top-k dense retrievals minus judged positives.

    A query whose retrievals are all positives falls back to seeded random
    non-positive corpus documents (logged). Returns (pools, fallback count).
    """
    index = retrieval_eval.DenseIndex(embed_items(params, featurizer, corpus))
    query_emb = embed_items(params, featurizer, queries)
    blocks = retrieval_eval.block_picks(index, query_emb.matrix, k)
    return _negative_pools(query_emb.ids, index.embeddings.ids, blocks, corpus, qrels, k, rng,
                           "dense")


def bm25_negative_pools(
    queries: QuerySet,
    corpus: Corpus,
    qrels: QrelSet,
    k: int,
    rng: np.random.Generator | None = None,
    index: retrieval_eval.Bm25Index | None = None,
) -> tuple[dict[str, list[str]], int]:
    """Warmup pools: BM25 top-k minus judged positives, with the same fallback."""
    if index is None:
        index = retrieval_eval.Bm25Index(corpus)
    queries = list(queries)
    blocks = retrieval_eval.block_picks(index, [q.tokens for q in queries], k)
    return _negative_pools([q.id for q in queries], index.ids, blocks, corpus, qrels, k, rng,
                           "BM25")


@dataclass
class EpisodeRecord:
    index: int
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
STATE_VERSION = 5
_STATE_FIELDS = {
    "episodes_done": int, "optimizer_kind": str, "optimizer_t": int, "n_live": int,
    "n_clusters": int, "cluster_model": (dict, type(None)), "blocks": list,
}

TRAINING_LOG_HEADER = "step\tepisode\tcluster\tloss\talpha\tomega\ttotal_loss"


def write_training_log(rows: Iterable[LogRow], path: str | Path) -> None:
    with blobfile.atomic_open(path, "w") as fh:
        fh.write(TRAINING_LOG_HEADER + "\n")
        for r in rows:
            fh.write(
                f"{r.step}\t{r.episode}\t{r.cluster}\t{r.loss!r}\t{r.alpha!r}"
                f"\t{r.omega!r}\t{r.total_loss!r}\n"
            )


@dataclass
class FinetuneResult:
    params: Params
    episodes: list[EpisodeRecord]
    log_rows: list[LogRow]
    omega: np.ndarray
    cluster_model: clustering.ClusterModel | None


class Finetuner:
    """Episode-based fine-tuning on labeled source data.

    `omega` holds the robust weights, one per cluster of the current cluster
    model. State at an episode boundary fully determines the continuation, so
    saving and reloading it resumes bit-identically. That state is the
    weights, the optimizer's step count, Adam's live columns with its moments
    over them, `omega`, the cluster model and the episode counter.
    """

    def __init__(
        self,
        config: RunConfig,
        params: Params,
        corpus: Corpus,
        queries: QuerySet,
        qrels: QrelSet,
    ):
        config.validate()
        for name in ("feature_dim", "embed_dim"):
            if getattr(params, name) != getattr(config, name):
                raise ConfigError(f"{name}: the encoder does not match the config")
        self.config = config
        self.params = params
        self.corpus = corpus
        self.qrels = qrels
        self.featurizer = Featurizer(config.feature_dim, config.hash_seed)

        kept = []
        for query in queries:
            if qrels.positives(query.id):
                kept.append(query)
            else:
                logger.warning("query %r has no positive judgments; dropped", query.id)
        if not kept:
            raise ValueError("no training queries with positive judgments")
        self.positives = {q.id: qrels.positives(q.id) for q in kept}
        for qid, pos_ids in self.positives.items():
            for doc_id in pos_ids:
                if doc_id not in corpus:
                    raise CorpusFormatError(
                        f"query {qid!r} has a positive {doc_id!r} missing from the corpus"
                    )
        self.queries = kept
        self.query_fvs = self.featurizer.many(q.tokens for q in kept)
        self.doc_fvs = dict(zip(corpus.ids, self.featurizer.many(doc.tokens for doc in corpus)))
        self.bm25 = retrieval_eval.Bm25Index(corpus)

        self.omega = np.full(config.k_clusters, 1.0 / config.k_clusters)
        self.optimizer = Optimizer(config, params)
        self.episodes_done = 0
        self.log_rows: list[LogRow] = []
        self.episode_records: list[EpisodeRecord] = []
        self.cluster_model: clustering.ClusterModel | None = None

    # -- episode machinery -------------------------------------------------

    def _refresh_clusters(self, episode: int) -> None:
        ids = tuple(q.id for q in self.queries)
        emb = EmbeddingMatrix(ids=ids, matrix=encode_many(self.params, self.query_fvs))
        k = min(self.config.k_clusters, len(self.queries))
        model = clustering.kmeans_fit(
            emb,
            k,
            seed=int(_derived_rng(self.config.seed, _TAG_KMEANS, episode).integers(2**31)),
            max_iters=self.config.kmeans_iters,
        )
        if self.config.omega_carryover and self.cluster_model is not None:
            self.omega = _carryover_omega(self.cluster_model, model, self.omega)
        else:
            self.omega = np.full(k, 1.0 / k)
        self.cluster_model = model

    def _refresh_negatives(self, episode: int) -> tuple[str, int]:
        rng = _derived_rng(self.config.seed, _TAG_MINE, episode)
        queries = QuerySet(self.queries)
        if episode == 1:
            self.pools, n_fallback = bm25_negative_pools(
                queries, self.corpus, self.qrels, self.config.mine_depth, rng, self.bm25
            )
            return "bm25", n_fallback
        self.pools, n_fallback = mine_negatives(
            self.params, self.featurizer, queries, self.corpus, self.qrels,
            self.config.mine_depth, rng,
        )
        return "self", n_fallback

    def _build_batch(self, rng: np.random.Generator):
        cfg = self.config
        n = len(self.queries)
        replace = cfg.batch_size > n
        chosen = rng.choice(n, size=cfg.batch_size, replace=replace)
        triplets: list[losses.Triplet] = []
        clusters: list[int] = []
        for qi in chosen:
            query = self.queries[int(qi)]
            pos_ids = self.positives[query.id]
            pos_id = pos_ids[int(rng.integers(len(pos_ids)))]
            pool = self.pools[query.id]
            if not pool:
                continue  # corpus offers no negatives for this query
            negs_idx = rng.choice(
                len(pool),
                size=cfg.negatives_per_query,
                replace=len(pool) < cfg.negatives_per_query,
            )
            negatives = tuple(self.doc_fvs[pool[int(j)]] for j in negs_idx)
            triplets.append(
                losses.Triplet(self.query_fvs[int(qi)], self.doc_fvs[pos_id], negatives)
            )
            clusters.append(self.cluster_model.assignment[query.id])
        return triplets, np.array(clusters, dtype=np.int64)

    def _train_step(self, triplets, clusters, total_steps: int) -> float:
        cfg = self.config
        step = self.optimizer.t
        # The uniform and groupdro strategies keep difficulty weights uniform.
        beta = cfg.beta if cfg.weighting == "idro" else 0.0

        item_losses, cols, grads = losses.retrieval_cluster_grads(
            self.params, triplets, clusters, cfg.in_batch_negatives
        )
        scalar, present, cluster_losses, alpha = idro.idro_loss(
            item_losses, clusters, self.omega, beta
        )
        omega_used = self.omega[present]
        combined = idro.combine_cluster_grads(grads, alpha, omega_used)
        lr = scheduled_lr(cfg.learning_rate, step, total_steps, WARMUP_FRAC)
        self.optimizer.step(self.params.flat, cols, combined, lr)

        if cfg.weighting == "idro":
            r = idro.r_matrix(cluster_losses, grads, beta)
            self.omega = idro.omega_update(self.omega, r, cfg.tau, present)
        elif cfg.weighting == "groupdro":
            self.omega = idro.groupdro_update(
                self.omega, cluster_losses, cfg.groupdro_step_size, present
            )

        episode = self.episodes_done + 1
        for c, loss, a, w in zip(present.tolist(), cluster_losses.tolist(), alpha.tolist(),
                                 omega_used.tolist()):
            self.log_rows.append(
                LogRow(
                    step=step,
                    episode=episode,
                    cluster=c,
                    loss=loss,
                    alpha=a,
                    omega=w,
                    total_loss=scalar,
                )
            )
        return scalar

    def run_episode(self) -> EpisodeRecord:
        cfg = self.config
        episode = self.episodes_done + 1
        self._refresh_clusters(episode)
        source, n_fallback = self._refresh_negatives(episode)
        rng = _derived_rng(cfg.seed, _TAG_BATCH, episode)
        total_steps = cfg.episodes * cfg.steps_per_episode
        step_losses: list[float] = []
        for _ in range(cfg.steps_per_episode):
            triplets, clusters = self._build_batch(rng)
            if not triplets:
                logger.warning("episode %d: empty batch skipped", episode)
                continue
            step_losses.append(self._train_step(triplets, clusters, total_steps))
        record = EpisodeRecord(
            index=episode,
            negative_source=source,
            kmeans_objective=self.cluster_model.objective,
            mean_loss=float(np.mean(step_losses)) if step_losses else float("nan"),
            n_steps=len(step_losses),
            n_fallback=n_fallback,
        )
        self.episode_records.append(record)
        self.episodes_done = episode
        return record

    def run(self) -> FinetuneResult:
        while self.episodes_done < self.config.episodes:
            self.run_episode()
        return FinetuneResult(
            params=self.params,
            episodes=self.episode_records,
            log_rows=self.log_rows,
            omega=self.omega,
            cluster_model=self.cluster_model,
        )

    # -- persistence ---------------------------------------------------------

    def save_state(self, path: str | Path) -> None:
        """Episode-boundary snapshot for bit-identical resumption under the same config.

        A `blobfile` file; the header names its blocks. Bytes are reproducible.
        The blocks are ``flat``; with Adam, ``live`` (its L ascending column
        ids, exact as float64), ``adam_m`` and ``adam_v`` (E x L each, over
        those columns); then ``omega`` and the ``centroids`` of the cluster
        model. Each block is written from the array that holds it, without a
        dense or joined copy.
        """
        model, opt = self.cluster_model, self.optimizer
        blocks = {"flat": self.params.flat}
        if opt.kind == "adam":
            blocks.update(live=opt.live, adam_m=opt.m_w, adam_v=opt.v_w)
        blocks["omega"] = self.omega
        if model is not None:
            blocks["centroids"] = model.centroids
        fields = {
            "episodes_done": self.episodes_done,
            "optimizer_kind": opt.kind,
            "optimizer_t": opt.t,
            "n_live": int(opt.live.size) if opt.kind == "adam" else 0,
            "n_clusters": len(self.omega),
            "cluster_model": None if model is None else clustering.cluster_fields(model),
            "blocks": [[name, int(arr.size)] for name, arr in blocks.items()],
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
        adam = self.optimizer.kind == "adam"
        n_live, most_live = meta["n_live"], self.params.feature_dim if adam else 0
        if not 0 <= n_live <= most_live:
            raise ValueError(f"n_live is {n_live}, this run allows 0 to {most_live} live columns")
        k, n, model = meta["n_clusters"], len(self.params), meta["cluster_model"]
        if not 1 <= k <= self.config.k_clusters:
            raise ValueError(f"{k} clusters, this run allows 1 to {self.config.k_clusters}")
        expected = [["flat", n]]
        if adam:
            moments = self.params.embed_dim * n_live
            expected += [["live", n_live], ["adam_m", moments], ["adam_v", moments]]
        expected.append(["omega", k])
        if model is not None:
            blobfile.check_fields(model, clustering.CLUSTER_FIELDS)
            if model["n_clusters"] != k or model["width"] != self.params.embed_dim:
                raise ValueError("the cluster model does not fit the clusters and encoder")
            expected.append(["centroids", clustering.centroid_length(model)])
        if meta["blocks"] != expected:
            raise ValueError(f"blocks {meta['blocks']} do not match this run's {expected}")
        return [length for _, length in expected]

    def load_state(self, path: str | Path) -> None:
        """Adopt a `save_state` file, all or nothing: every check runs before any
        state changes, so a rejected file leaves this `Finetuner` as it was."""
        meta, arrays = blobfile.read(
            path, STATE_FORMAT, STATE_VERSION, _STATE_FIELDS, self._state_lengths
        )
        blocks = {name: arr for (name, _), arr in zip(meta["blocks"], arrays)}
        opt = self.optimizer
        if opt.kind == "adam":
            live = blocks["live"]
            if live.size and not (
                live[0] >= 0 and live[-1] < self.params.feature_dim
                and np.all(np.diff(live) > 0) and np.all(live == np.floor(live))
            ):
                raise BlobFileError(
                    f"{path}: block live is not ascending column ids "
                    f"in [0, {self.params.feature_dim})"
                )
            if np.any(blocks["adam_v"] < 0):
                raise BlobFileError(f"{path}: block adam_v holds a negative second moment")
        omega = blocks["omega"]
        if np.any(omega <= 0.0) or abs(float(omega.sum()) - 1.0) > idro._SIMPLEX_ATOL:
            raise BlobFileError(f"{path}: block omega is not positive with sum 1")
        model = meta["cluster_model"]
        if model is not None:
            model = clustering.cluster_model_from(model, blocks["centroids"])

        self.params.flat[:] = blocks["flat"]
        if opt.kind == "adam":
            opt.live = live.astype(np.int64)
            opt.m_w = blocks["adam_m"].reshape(self.params.embed_dim, -1)
            opt.v_w = blocks["adam_v"].reshape(self.params.embed_dim, -1)
        opt.t = meta["optimizer_t"]
        self.omega = omega
        self.cluster_model = model
        self.episodes_done = meta["episodes_done"]


def _carryover_omega(
    old_model: clustering.ClusterModel,
    new_model: clustering.ClusterModel,
    old_omega: np.ndarray,
) -> np.ndarray:
    """Transfer robust weights across a cluster refit by nearest-centroid match."""
    d = (
        np.sum(new_model.centroids**2, axis=1)[:, None]
        - 2.0 * new_model.centroids @ old_model.centroids.T
        + np.sum(old_model.centroids**2, axis=1)[None, :]
    )
    nearest = np.argmin(d, axis=1)
    w = np.maximum(old_omega[nearest], 1e-300)
    return w / w.sum()
