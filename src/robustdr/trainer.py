"""Two-stage training orchestration.

Stage one pretrains the encoder contrastively on span pairs drawn from one or
more corpora. Stage two fine-tunes on labeled source data in episodes: each
episode re-embeds the training queries, refreshes their K-Means clusters,
refreshes the negative pools (lexical BM25 negatives for episode 1,
self-mined dense negatives afterwards), then runs a minibatch loop where
per-item losses are aggregated per cluster, reweighted by the configured
strategy, applied as one parameter update, and followed by the robust-weight
update. Every run is fully determined by (config, seed, data).
"""

from __future__ import annotations

import dataclasses
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import blobfile, clustering, idro, losses, retrieval_eval
from .corpus import Corpus, QrelSet, QuerySet, sample_span_pair
from .encoder import EmbeddingMatrix, Featurizer, Params, encode_many
from .errors import ConfigError
from .idro import GroupState

logger = logging.getLogger(__name__)

# Tags for deriving independent, resumable random streams from the run seed.
_TAG_PRETRAIN = 1
_TAG_KMEANS = 2
_TAG_MINE = 3
_TAG_BATCH = 4

WEIGHTINGS = ("idro", "groupdro", "uniform")
OPTIMIZERS = ("adam", "sgd")
STAGES = ("pretrain", "finetune")


@dataclass
class RunConfig:
    """All run hyperparameters in one serializable record."""

    stage: str = "finetune"
    seed: int = 0
    hash_seed: int = 0
    # encoder
    feature_dim: int = 2**15
    embed_dim: int = 64
    hidden: bool = False
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
    kmeans_normalize: bool = True
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
    warmup_frac: float = 0.1
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def validate(self) -> "RunConfig":
        def bad(name, why):
            raise ConfigError(f"{name}: {why}")

        if self.stage not in STAGES:
            bad("stage", f"must be one of {STAGES}")
        if self.weighting not in WEIGHTINGS:
            bad("weighting", f"must be one of {WEIGHTINGS}")
        if self.optimizer not in OPTIMIZERS:
            bad("optimizer", f"must be one of {OPTIMIZERS}")
        for name in ("feature_dim", "embed_dim", "span_len", "batch_size",
                     "negatives_per_query", "mine_depth", "k_clusters", "kmeans_iters"):
            if int(getattr(self, name)) < 1:
                bad(name, "must be >= 1")
        for name in ("pretrain_epochs", "episodes", "steps_per_episode"):
            if int(getattr(self, name)) < 0:
                bad(name, "must be >= 0")
        if not self.learning_rate > 0:
            bad("learning_rate", "must be > 0")
        if self.beta < 0:
            bad("beta", "must be >= 0")
        if not self.tau > 0:
            bad("tau", "must be > 0 (inf allowed)")
        if self.groupdro_step_size < 0:
            bad("groupdro_step_size", "must be >= 0")
        if not 0.0 <= self.warmup_frac < 1.0:
            bad("warmup_frac", "must be in [0, 1)")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 < getattr(self, name) < 1.0:
                bad(name, "must be in (0, 1)")
        if not self.adam_eps > 0:
            bad("adam_eps", "must be > 0")
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls.from_dict(json.loads(text))

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes).validate()


class Optimizer:
    """Plain gradient descent or the adaptive-moment variant, on the flat vector."""

    def __init__(self, config: RunConfig, n_params: int):
        self.kind = config.optimizer
        self.beta1 = config.adam_beta1
        self.beta2 = config.adam_beta2
        self.eps = config.adam_eps
        self.t = 0
        if self.kind == "adam":
            self.m = np.zeros(n_params)
            self.v = np.zeros(n_params)

    def step(self, flat: np.ndarray, grad: np.ndarray, lr: float) -> None:
        self.t += 1
        if self.kind == "sgd":
            flat -= lr * grad
            return
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        flat -= lr * m_hat / (np.sqrt(v_hat) + self.eps)


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
    params = Params.init_random(
        config.feature_dim, config.embed_dim, config.hidden, seed=config.seed
    )
    optimizer = Optimizer(config, len(params))

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
            batch = []
            for doc_idx in chunk:
                pair = _sample_pair_features(docs[int(doc_idx)], config.span_len, featurizer, rng)
                batch.append(pair)
            loss, grad = losses.coco_loss_grad(params, batch)
            lr = scheduled_lr(config.learning_rate, step_idx, total_steps, config.warmup_frac)
            optimizer.step(params.flat, grad, lr)
            losses_this_epoch.append(loss)
            step_idx += 1
        epoch_losses.append(float(np.mean(losses_this_epoch)))
    return PretrainResult(params=params, epoch_losses=epoch_losses, n_documents=n)


def _sample_pair_features(doc, span_len, featurizer, rng):
    pair = sample_span_pair(doc, span_len, rng)
    return featurizer(pair[0]), featurizer(pair[1])


def _filter_pool(ranked_ids: Iterable[str], qid: str, qrels: QrelSet, depth: int) -> list[str]:
    pool = []
    for did in ranked_ids:
        if qrels.grade(qid, did) <= 0:
            pool.append(did)
            if len(pool) >= depth:
                break
    return pool


def _fallback_pool(
    qid: str, corpus: Corpus, qrels: QrelSet, depth: int, rng: np.random.Generator
) -> list[str]:
    candidates = [did for did in corpus.ids if qrels.grade(qid, did) <= 0]
    if not candidates:
        logger.warning("query %r: corpus has no non-positive documents; empty pool", qid)
        return []
    take = min(depth, len(candidates))
    chosen = rng.choice(len(candidates), size=take, replace=False)
    return [candidates[int(i)] for i in chosen]


def _pools(
    rankings: Iterable[tuple[str, retrieval_eval.RankedList]], corpus: Corpus, qrels: QrelSet,
    k: int, rng: np.random.Generator | None, source: str,
) -> tuple[dict[str, list[str]], int]:
    """Pools from (query id, ranked list) pairs, with the fallback of `mine_negatives`."""
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(0))
    pools: dict[str, list[str]] = {}
    n_fallback = 0
    for qid, ranked in rankings:
        pool = _filter_pool(ranked.doc_ids(), qid, qrels, k)
        if not pool:
            logger.warning("query %r: %s top-%d all positive; random negatives", qid, source, k)
            pool = _fallback_pool(qid, corpus, qrels, k, rng)
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
    rankings = retrieval_eval.rank_all(params, featurizer, corpus, queries, k)
    return _pools(((r.query_id, r) for r in rankings), corpus, qrels, k, rng, "dense")


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
    rankings = ((q.id, retrieval_eval.search_bm25(index, q.tokens, k)) for q in queries)
    return _pools(rankings, corpus, qrels, k, rng, "BM25")


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
STATE_VERSION = 2
_STATE_FIELDS = {
    "episodes_done": int, "global_step": int, "optimizer_kind": str, "optimizer_t": int,
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
    group_state: GroupState
    cluster_model: clustering.ClusterModel | None


class Finetuner:
    """Episode-based fine-tuning on labeled source data.

    State at an episode boundary (weights, optimizer moments, robust weights,
    cluster model, episode counter) fully determines the continuation, so
    saving and reloading it resumes bit-identically.
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
        if params.feature_dim != config.feature_dim or params.embed_dim != config.embed_dim:
            raise ConfigError("feature_dim/embed_dim: checkpoint does not match config")
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
        self.queries = kept
        self.query_fvs = [self.featurizer(q.tokens) for q in kept]
        self.positives = {q.id: qrels.positives(q.id) for q in kept}
        self.doc_fvs = {doc.id: self.featurizer(doc.tokens) for doc in corpus}
        self.bm25 = retrieval_eval.Bm25Index(corpus)

        # The uniform and groupdro strategies keep difficulty weights uniform.
        state_beta = config.beta if config.weighting == "idro" else 0.0
        self.group_state = GroupState.initial(config.k_clusters, state_beta, config.tau)
        self.optimizer = Optimizer(config, len(params))
        self.episodes_done = 0
        self.global_step = 0
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
            normalize=self.config.kmeans_normalize,
        )
        old_model = self.cluster_model
        old_omega = self.group_state.omega
        state_beta = self.group_state.beta
        self.group_state = GroupState.initial(k, state_beta, self.config.tau)
        if self.config.omega_carryover and old_model is not None:
            self.group_state.omega = _carryover_omega(old_model, model, old_omega)
        self.group_state.step = self.global_step
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
        state = self.group_state
        k = state.n_clusters

        present_list = sorted(set(int(c) for c in clusters))
        item_losses = np.empty(len(triplets))
        grads = np.empty((len(present_list), len(self.params)))
        for row, c in enumerate(present_list):
            positions = [i for i, ci in enumerate(clusters) if ci == c]
            sub = [triplets[i] for i in positions]
            _, per_item, grad_c = losses.retrieval_loss_grad(
                self.params, sub, cfg.in_batch_negatives
            )
            item_losses[positions] = per_item
            grads[row] = grad_c

        scalar, new_state = idro.idro_loss(item_losses, clusters, state)
        present = np.zeros(k, dtype=bool)
        present[present_list] = True

        combined = idro.combine_cluster_grads(
            grads,
            new_state.alpha[present_list],
            state.omega[present_list],
            np.ones(len(present_list), dtype=bool),
        )
        lr = scheduled_lr(cfg.learning_rate, self.global_step, total_steps, cfg.warmup_frac)
        self.optimizer.step(self.params.flat, combined, lr)

        omega_used = state.omega
        if cfg.weighting == "idro":
            r_sub = idro.r_matrix(new_state.losses[present_list], grads, cfg.beta)
            r_full = np.zeros((k, k))
            r_full[np.ix_(present_list, present_list)] = r_sub
            new_omega = idro.omega_update_masked(state.omega, r_full, cfg.tau, present)
        elif cfg.weighting == "groupdro":
            new_omega = idro.groupdro_update_masked(
                state.omega, new_state.losses, cfg.groupdro_step_size, present
            )
        else:
            new_omega = state.omega
        new_state.omega = new_omega
        new_state.step = self.global_step + 1
        self.group_state = new_state

        episode = self.episodes_done + 1
        for c in present_list:
            self.log_rows.append(
                LogRow(
                    step=self.global_step,
                    episode=episode,
                    cluster=c,
                    loss=float(new_state.losses[c]),
                    alpha=float(new_state.alpha[c]),
                    omega=float(omega_used[c]),
                    total_loss=scalar,
                )
            )
        self.global_step += 1
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
            group_state=self.group_state,
            cluster_model=self.cluster_model,
        )

    # -- persistence ---------------------------------------------------------

    def save_state(self, path: str | Path) -> None:
        """Episode-boundary snapshot for bit-identical resumption under the same config.

        A `blobfile` file; the header names its blocks. Bytes are reproducible.
        """
        groups = self.group_state
        model = self.cluster_model
        blocks = {"flat": self.params.flat}
        if self.optimizer.kind == "adam":
            blocks.update(adam_m=self.optimizer.m, adam_v=self.optimizer.v)
        blocks.update(losses=groups.losses, alpha=groups.alpha, omega=groups.omega)
        if model is not None:
            blocks["centroids"] = model.centroids
        fields = {
            "episodes_done": self.episodes_done,
            "global_step": self.global_step,
            "optimizer_kind": self.optimizer.kind,
            "optimizer_t": self.optimizer.t,
            "n_clusters": groups.n_clusters,
            "cluster_model": None if model is None else clustering.cluster_fields(model),
            "blocks": [[name, int(arr.size)] for name, arr in blocks.items()],
        }
        blobfile.write(path, STATE_FORMAT, STATE_VERSION, fields, blocks.values())

    def _state_lengths(self, meta: dict) -> list[int]:
        """The blocks this run expects of a state file, checked against its header."""
        if meta["optimizer_kind"] != self.optimizer.kind:
            raise ConfigError("optimizer: state file was written by a different optimizer kind")
        k, n, model = meta["n_clusters"], len(self.params), meta["cluster_model"]
        if not 1 <= k <= self.config.k_clusters:
            raise ValueError(f"{k} clusters, this run allows 1 to {self.config.k_clusters}")
        expected = [["flat", n]]
        if self.optimizer.kind == "adam":
            expected += [["adam_m", n], ["adam_v", n]]
        expected += [["losses", k], ["alpha", k], ["omega", k]]
        if model is not None:
            blobfile.check_fields(model, clustering.CLUSTER_FIELDS)
            if model["n_clusters"] != k or model["width"] != self.params.embed_dim:
                raise ValueError("the cluster model does not fit the clusters and encoder")
            expected.append(["centroids", clustering.centroid_length(model)])
        if meta["blocks"] != expected:
            raise ValueError(f"blocks {meta['blocks']} do not match this run's {expected}")
        return [length for _, length in expected]

    def load_state(self, path: str | Path) -> None:
        meta, arrays = blobfile.read(
            path, STATE_FORMAT, STATE_VERSION, _STATE_FIELDS, self._state_lengths
        )
        blocks = {name: arr for (name, _), arr in zip(meta["blocks"], arrays)}
        self.params.flat[:] = blocks["flat"]
        if self.optimizer.kind == "adam":
            self.optimizer.m, self.optimizer.v = blocks["adam_m"], blocks["adam_v"]
        self.optimizer.t = meta["optimizer_t"]
        self.group_state = dataclasses.replace(
            self.group_state, n_clusters=meta["n_clusters"], losses=blocks["losses"],
            alpha=blocks["alpha"], omega=blocks["omega"], step=meta["global_step"],
        )
        model = meta["cluster_model"]
        self.cluster_model = (
            None if model is None else clustering.cluster_model_from(model, blocks["centroids"])
        )
        self.episodes_done = meta["episodes_done"]
        self.global_step = meta["global_step"]


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
