"""Independent reference implementations the tests compare the package against."""

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from robustdr import clustering, encoder, idro, retrieval_eval, trainer
from robustdr.corpus import Document, Query, QuerySet
from robustdr.encoder import FeatureBlock, FeatureRows, Params
from robustdr.errors import InvariantError
from robustdr.idro import r_matrix
from robustdr.losses import TripletRows
from robustdr.retrieval_eval import DenseIndex, RankedList
from robustdr.synthetic import DOC_LEN, FW_RATE, QUERY_LEN_RANGE, VOCAB_PER_TOPIC, _topic_vocab


@dataclass(frozen=True, slots=True)
class FeatureVector:
    """One text's sparse hashed feature counts, the references' item form: sorted
    unique indices in [0, dim) and their counts."""

    indices: np.ndarray
    counts: np.ndarray
    dim: int


class Triplet(NamedTuple):
    """One retrieval item of the references: query, positive and negatives."""

    query: FeatureVector
    positive: FeatureVector
    negatives: tuple[FeatureVector, ...]


def vectors(block: FeatureBlock) -> list[FeatureVector]:
    """One `FeatureVector` per row of ``block``, viewing its arrays."""
    bounds = block.bounds.tolist()
    return [FeatureVector(block.indices[a:b], block.counts[a:b], block.dim)
            for a, b in zip(bounds, bounds[1:])]


def item_vectors(items: FeatureRows) -> list[FeatureVector]:
    """The `FeatureVector` of each item of ``items``, repeats included."""
    rows = vectors(items.block)
    return [rows[r] for r in items.rows.tolist()]


def triplets(batch: TripletRows) -> list[Triplet]:
    """The items of a `TripletRows` as `Triplet`s of `FeatureVector` views."""
    rows = vectors(batch.block)
    return [Triplet(rows[q], rows[p], tuple(rows[d] for d in negs))
            for q, p, *negs in batch.rows.tolist()]


def stack(fvs, dim: int) -> FeatureBlock:
    """The feature vectors as one block, one row each, in order."""
    bounds = np.zeros(len(fvs) + 1, dtype=np.intp)
    np.cumsum([fv.indices.size for fv in fvs], out=bounds[1:])
    return FeatureBlock(np.concatenate([fv.indices for fv in fvs] or [np.empty(0, np.int64)]),
                        np.concatenate([fv.counts for fv in fvs] or [np.empty(0)]), bounds, dim)


class OracleConvergenceError(RuntimeError):
    """A numerical reference optimizer failed to converge within its iteration cap."""


def omega_oracle(
    omega_prev: np.ndarray,
    losses: np.ndarray,
    grads: np.ndarray,
    tau: float,
    beta: float,
    eta: float = 1.0,
    tol: float = 1e-8,
    max_iters: int = 10_000,
) -> np.ndarray:
    """Numerically minimize the robust-weight objective on the simplex.

    Minimizes  -eta * sum_i omega_i * s_i  +  tau * KL(omega || omega_prev)
    with s_i = sum_j r[i, j], via exponentiated-gradient descent, independent
    of the closed form in `omega_update` (which it matches for eta = 1;
    other eta values only rescale the effective tau).
    """
    omega_prev = np.asarray(omega_prev, dtype=np.float64)
    if not tau > 0:
        raise ValueError("tau must be > 0")
    if np.any(omega_prev <= 0.0) or abs(float(omega_prev.sum()) - 1.0) > 1e-9:
        raise ValueError("omega_prev must be strictly positive and sum to 1")
    k = omega_prev.shape[0]
    if k == 1:
        return np.ones(1)
    if math.isinf(tau):
        return omega_prev.copy()

    s = r_matrix(losses, grads, beta).sum(axis=1)
    w = omega_prev.copy()
    lr = 0.5 / tau
    for _ in range(max_iters):
        grad_obj = -eta * s + tau * (np.log(w / omega_prev) + 1.0)
        z = -lr * grad_obj
        z -= z.max()
        w_new = w * np.exp(z)
        w_new = np.maximum(w_new / w_new.sum(), 1e-300)
        if float(np.max(np.abs(w_new - w))) < tol:
            return w_new
        w = w_new
    raise OracleConvergenceError(
        f"simplex minimization did not converge within {max_iters} iterations"
    )


def search_dense_heap(
    index: DenseIndex, query_emb: np.ndarray, k: int, query_id: str = ""
) -> RankedList:
    """Same contract as `search_dense`, selected with a bounded heap instead."""
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = index.matrix @ np.asarray(query_emb, dtype=np.float64)
    ids = index.ids
    top = heapq.nsmallest(k, range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    return RankedList(query_id, tuple((ids[i], float(scores[i])) for i in top))


def search_bm25_reference(corpus, query_tokens, k, k1=0.9, b=0.4):
    """Same contract as `search_bm25`, from dict postings of (row, tf) pairs scored one
    posting at a time and a full sort; scores come back as numpy floats."""
    ids = tuple(doc.id for doc in corpus)
    postings: dict[str, list[tuple[int, int]]] = {}
    doc_len = np.zeros(len(ids), dtype=np.float64)
    for row, doc in enumerate(corpus):
        doc_len[row] = len(doc.tokens)
        for token, tf in Counter(doc.tokens).items():
            postings.setdefault(token, []).append((row, tf))
    avgdl = float(doc_len.mean()) if ids else 0.0
    scores: dict[int, float] = {}
    for token, qtf in Counter(query_tokens).items():
        token_postings = postings.get(token)
        if not token_postings:
            continue
        df = len(token_postings)
        idf = math.log(1.0 + (len(ids) - df + 0.5) / (df + 0.5))
        for row, tf in token_postings:
            norm = k1 * (1.0 - b + b * doc_len[row] / avgdl)
            scores[row] = scores.get(row, 0.0) + qtf * idf * tf * (k1 + 1.0) / (tf + norm)
    order = sorted(scores, key=lambda row: (-scores[row], ids[row]))[:k]
    return RankedList("", tuple((ids[row], scores[row]) for row in order))


def featurize_reference(featurizer, tokens) -> FeatureVector:
    """One row of `Featurizer.__call__`, one token at a time: a dict tally of float
    counts, then a sort."""
    counts: dict[int, float] = {}
    for token in tokens:
        idx = featurizer.bucket(token)
        counts[idx] = counts.get(idx, 0.0) + 1.0
    order = sorted(counts)
    return FeatureVector(
        indices=np.array(order, dtype=np.int64),
        counts=np.array([counts[i] for i in order], dtype=np.float64),
        dim=featurizer.dim,
    )


def _filter_pool(ranked_ids, positives, depth):
    pool = []
    for did in ranked_ids:
        if did not in positives:
            pool.append(did)
            if len(pool) >= depth:
                break
    return pool


def fallback_pool_reference(qid, positives, corpus, depth, rng):
    """The fallback pool of `trainer.mine_negatives` over document ids: ``depth``
    seeded random corpus documents (fewer if the corpus has fewer) outside the set
    ``positives``."""
    candidates = [did for did in corpus.ids if did not in positives]
    if not candidates:
        trainer.logger.warning("query %r: corpus has no non-positive documents; empty pool", qid)
        return []
    take = min(depth, len(candidates))
    chosen = rng.choice(len(candidates), size=take, replace=False)
    return [candidates[int(i)] for i in chosen]


def pools_reference(rankings, corpus, qrels, k, rng, source):
    """Negative pools one query at a time from (query id, ranked list) pairs, with the
    fallback of `trainer.mine_negatives`, as lists of document ids keyed by query id."""
    pools: dict[str, list[str]] = {}
    n_fallback = 0
    for qid, ranked in rankings:
        positives = set(qrels.positives(qid))
        pool = _filter_pool([doc_id for doc_id, _ in ranked.results], positives, k)
        if not pool:
            trainer.logger.warning("query %r: %s top-%d all positive; random negatives",
                                   qid, source, k)
            pool = fallback_pool_reference(qid, positives, corpus, k, rng)
            n_fallback += 1
        pools[qid] = pool
    return pools, n_fallback


def bm25_pools_reference(queries, corpus, qrels, k, rng):
    """`trainer.bm25_negative_pools` from per-query `search_bm25_reference` rankings."""
    rankings = ((q.id, search_bm25_reference(corpus, q.tokens, k)) for q in queries)
    return pools_reference(rankings, corpus, qrels, k, rng, "BM25")


def embed_reference(params, featurizer, items):
    """The ids of texts (anything with ``.id`` and ``.tokens``) and their
    `encode_loop` embeddings, each text featurized on its own."""
    items = list(items)
    fvs = [featurize_reference(featurizer, item.tokens) for item in items]
    return tuple(item.id for item in items), encode_loop(params, fvs)


def mined_pools_reference(params, featurizer, queries, corpus, qrels, k, rng):
    """`trainer.mine_negatives` from per-query `search_dense_heap` rankings."""
    index = DenseIndex(*embed_reference(params, featurizer, corpus))
    rankings = ((qid, search_dense_heap(index, emb, k))
                for qid, emb in zip(*embed_reference(params, featurizer, queries)))
    return pools_reference(rankings, corpus, qrels, k, rng, "dense")


def encode_item(params: Params, fv: FeatureVector) -> np.ndarray:
    """One item of `encoder.encode_many` on its own: the gathered E x n weight block
    times the counts."""
    if fv.dim != params.feature_dim:
        raise ValueError("feature dim does not match the encoder")
    return params.W[:, fv.indices] @ fv.counts


def encode_loop(params: Params, fvs) -> np.ndarray:
    """`encoder.encode_many` one `encode_item` per feature vector, repeats included."""
    out = np.empty((len(fvs), params.embed_dim), dtype=np.float64)
    for i, fv in enumerate(fvs):
        out[i] = encode_item(params, fv)
    return out


def grouped_backward_loop(params: Params, fvs, emb_grads, groups, n_groups):
    """`encoder.grouped_backward` from an unsorted count matrix and one boolean mask
    and one copy of each group's rows per group."""
    emb_grads = np.asarray(emb_grads, dtype=np.float64)
    groups = np.asarray(groups)
    indices = np.concatenate([fv.indices for fv in fvs] or [np.empty(0, dtype=np.int64)])
    cols, where = np.unique(indices, return_inverse=True)
    items = np.repeat(np.arange(len(fvs)), [fv.indices.size for fv in fvs])
    x = np.zeros((len(fvs), cols.size))
    x[items, where] = np.concatenate([fv.counts for fv in fvs] or [np.empty(0)])
    rows = np.zeros((n_groups, params.embed_dim * cols.size))
    for g in range(n_groups):
        members = groups == g
        rows[g] = (emb_grads[members].T @ x[members]).ravel()
    return cols, rows


def dense_embedding_backward(params, fvs, emb_grads) -> np.ndarray:
    """Item-by-item dense backward: one outer product per item into a P-long vector."""
    grad = np.zeros_like(params.flat)
    grad_w = grad.reshape(params.feature_dim, params.embed_dim).T
    for fv, g_e in zip(fvs, emb_grads):
        if fv.indices.size:
            grad_w[:, fv.indices] += np.outer(g_e, fv.counts)
    return grad


def dense_retrieval_loss_grad(params, batch):
    """Per-item losses and the dense gradient of the batch mean, item by item."""
    n = len(batch)
    fvs, q_slots, cand_slots = [], [], []
    for item in batch:
        q_slots.append(len(fvs))
        fvs.append(item.query)
        cand_slots.append(list(range(len(fvs), len(fvs) + 1 + len(item.negatives))))
        fvs.extend([item.positive, *item.negatives])
    emb = encode_loop(params, fvs)
    emb_grads = np.zeros_like(emb)
    per_item = np.empty(n)
    for i in range(n):
        cand = cand_slots[i]
        scores = emb[cand] @ emb[q_slots[i]]
        m = float(np.max(scores))
        exps = np.exp(scores - m)
        denom = float(np.sum(exps))
        per_item[i] = m + np.log(denom) - scores[0]
        coeff = exps / denom
        coeff[0] -= 1.0
        coeff /= n
        emb_grads[q_slots[i]] += coeff @ emb[cand]
        emb_grads[cand] += np.outer(coeff, emb[q_slots[i]])
    return per_item, dense_embedding_backward(params, fvs, emb_grads)


def per_cluster_reference(params, batch, clusters):
    """One dense loss and backward per present cluster, stacked K x P.

    Returns (per-item losses, present cluster ids ascending, dense gradient
    stack with one row per present cluster).
    """
    clusters = np.asarray(clusters)
    present = sorted(set(int(c) for c in clusters))
    item_losses = np.empty(len(batch))
    grads = np.empty((len(present), len(params)))
    for row, c in enumerate(present):
        positions = [i for i, ci in enumerate(clusters) if ci == c]
        per_item, grads[row] = dense_retrieval_loss_grad(params, [batch[i] for i in positions])
        item_losses[positions] = per_item
    return item_losses, np.array(present), grads


def adam_reference(flat, m, v, grad, lr, t, beta1, beta2, eps):
    """The textbook Adam step t (1-based); returns new (flat, m, v)."""
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return flat - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def dense_moments(opt) -> tuple[np.ndarray, np.ndarray]:
    """Adam's ``m`` and ``v`` of a `trainer.Optimizer` as vectors aligned with
    ``params.flat``: the L x E ``m_w``/``v_w`` scattered to the rows ``live``
    of the D x E feature-major layout, zero elsewhere."""
    out = []
    for block in (opt.m_w, opt.v_w):
        dense = np.zeros(opt.shape)
        dense[opt.live] = block
        out.append(dense.ravel())
    return out[0], out[1]


class DenseOptimizer:
    """`trainer.Optimizer` on dense vectors: each step scatters its row into a
    gradient as long as ``params.flat`` and takes the textbook step on every
    parameter, with moments over all of them, whatever the run's ``cols``."""

    def __init__(self, config, params: Params, cols):
        self.kind, self.t, self.params = config.optimizer, 0, params
        self.m, self.v = np.zeros(len(params)), np.zeros(len(params))

    def step(self, flat, cols, row, lr):
        self.t += 1
        grad = encoder.scatter_grad(self.params, cols, row)
        if self.kind == "sgd":
            flat -= lr * grad
            return
        hp = (trainer.ADAM_BETA1, trainer.ADAM_BETA2, trainer.ADAM_EPS)
        flat[:], self.m, self.v = adam_reference(flat, self.m, self.v, grad, lr, self.t, *hp)


def loop_retrieval(params: Params, batch: list[Triplet], clusters: np.ndarray, with_grad: bool):
    """`losses.retrieval_cluster_grads` (and, without `with_grad`, the per-item
    losses alone) item by item: one Python loop with its own softmax per item,
    on `encode_loop` embeddings and a `grouped_backward_loop` backward."""
    n = len(batch)
    present, group = np.unique(np.asarray(clusters, dtype=np.int64), return_inverse=True)
    if group.shape != (n,):
        raise ValueError("clusters must hold one cluster id per item")
    members = [np.flatnonzero(group == g) for g in range(present.size)]

    fvs: list[FeatureVector] = []
    slot_group: list[int] = []
    q_slots: list[int] = []
    p_slots: list[int] = []
    neg_slots: list[list[int]] = []
    for item, g in zip(batch, group):
        q_slots.append(len(fvs))
        fvs.append(item.query)
        p_slots.append(len(fvs))
        fvs.append(item.positive)
        slots = []
        for neg in item.negatives:
            slots.append(len(fvs))
            fvs.append(neg)
        neg_slots.append(slots)
        slot_group.extend([g] * (2 + len(slots)))

    emb = encode_loop(params, fvs)
    emb_grads = np.zeros_like(emb) if with_grad else None

    per_item = np.empty(n, dtype=np.float64)
    for i in range(n):
        cand = np.array([p_slots[i], *neg_slots[i]], dtype=np.intp)
        scores = emb[cand] @ emb[q_slots[i]]
        if not np.all(np.isfinite(scores)):
            raise InvariantError("non-finite relevance score in retrieval loss")
        m = float(np.max(scores))
        exps = np.exp(scores - m)
        denom = float(np.sum(exps))
        per_item[i] = m + np.log(denom) - scores[0]
        if with_grad:
            coeff = exps / denom
            coeff[0] -= 1.0
            coeff /= members[group[i]].size  # gradient of the cluster mean
            emb_grads[q_slots[i]] += coeff @ emb[cand]
            emb_grads[cand] += np.outer(coeff, emb[q_slots[i]])

    if not with_grad:
        return per_item, None, None
    cols, rows = grouped_backward_loop(
        params, fvs, emb_grads, np.array(slot_group, dtype=np.intp), present.size
    )
    return per_item, cols, rows


def span_matrix(params: Params, spans: list[FeatureVector]):
    """The similarities of a span-pair batch, spans 2p and 2p + 1 pair p."""
    if len(spans) % 2 or len(spans) < 4:
        raise ValueError("span-pair batches need n >= 2 pairs so in-batch negatives exist")
    emb = encode_loop(params, spans)
    sims = emb @ emb.T
    if not np.all(np.isfinite(sims)):
        raise InvariantError("non-finite similarity in span-pair loss")
    return emb, sims


def loop_coco(params: Params, spans: list[FeatureVector], with_grad: bool):
    """`losses.coco_loss_grad` (with `with_grad`) anchor by anchor, with `np.delete`,
    on `encode_loop` embeddings and a `grouped_backward_loop` backward."""
    emb, sims = span_matrix(params, spans)
    n = len(spans) // 2
    total = 0.0
    coeffs = np.zeros_like(sims) if with_grad else None
    for a in range(2 * n):
        partner = a ^ 1
        row = np.delete(sims[a], a)
        m = float(np.max(row))
        exps = np.exp(row - m)
        denom = float(np.sum(exps))
        total += m + np.log(denom) - sims[a, partner]
        if with_grad:
            soft = exps / denom
            coeffs[a, :a] = soft[:a]
            coeffs[a, a + 1 :] = soft[a:]
            coeffs[a, partner] -= 1.0
    total /= n
    if not with_grad:
        return total, None
    coeffs /= n
    emb_grads = (coeffs + coeffs.T) @ emb
    cols, rows = grouped_backward_loop(params, spans, emb_grads, np.zeros(len(spans), np.intp), 1)
    return total, encoder.scatter_grad(params, cols, rows[0])


def coco_top1_accuracy(params: Params, spans: list[FeatureVector]) -> float:
    """Fraction of anchors whose partner scores strictly above every other span."""
    _, sims = span_matrix(params, spans)
    n2 = sims.shape[0]
    hits = 0
    for a in range(n2):
        partner = a ^ 1
        others = [sims[a, j] for j in range(n2) if j != a and j != partner]
        if sims[a, partner] > max(others):
            hits += 1
    return hits / n2


def _sq_dists_reference(x, centroids):
    d = (
        np.sum(x * x, axis=1)[:, None]
        - 2.0 * (x @ centroids.T)
        + np.sum(centroids * centroids, axis=1)[None, :]
    )
    return np.maximum(d, 0.0)


def assign(model, x):
    """The nearest centroid of a `clustering.ClusterModel` to each L2-normalized
    row of ``x``, as the fit assigns them; ties break to the lowest index."""
    if x.shape[1] != model.centroids.shape[1]:
        raise ValueError(
            f"embedding width {x.shape[1]} does not match centroid width "
            f"{model.centroids.shape[1]}"
        )
    x = clustering.normalize_rows(np.asarray(x, dtype=np.float64))
    return np.argmin(_sq_dists_reference(x, model.centroids), axis=1)


def kmeans_fit_reference(x, n_clusters, seed=0, max_iters=100, repairs=None):
    """`clustering.kmeans_fit` with the points' squared norms recomputed on every
    distance call and the centroid sums gathered by ``np.add.at``. Each empty
    cluster it repairs is appended to ``repairs`` when a list is given."""
    n = len(x)
    x = clustering.normalize_rows(np.asarray(x, dtype=np.float64))
    rng = np.random.Generator(np.random.PCG64(seed))
    centroids = np.empty((n_clusters, x.shape[1]), dtype=np.float64)
    centroids[0] = x[int(rng.integers(n))]
    closest = _sq_dists_reference(x, centroids[:1]).ravel()
    for j in range(1, n_clusters):
        total = float(closest.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            r = rng.random() * total
            idx = min(int(np.searchsorted(np.cumsum(closest), r, side="right")), n - 1)
        centroids[j] = x[idx]
        closest = np.minimum(closest, _sq_dists_reference(x, centroids[j : j + 1]).ravel())

    labels = np.full(n, -1, dtype=np.int64)
    history = []
    for _ in range(max_iters):
        dists = _sq_dists_reference(x, centroids)
        new_labels = np.argmin(dists, axis=1)
        point_d = dists[np.arange(n), new_labels]
        while True:
            counts = np.bincount(new_labels, minlength=n_clusters)
            empty = np.flatnonzero(counts == 0)
            if empty.size == 0:
                break
            k = int(empty[0])
            if repairs is not None:
                repairs.append(k)
            movable = counts[new_labels] >= 2
            far = int(np.argmax(np.where(movable, point_d, -1.0)))
            centroids[k] = x[far]
            new_labels[far] = k
            point_d[far] = 0.0
        objective = float(point_d.sum())
        if history and objective > history[-1] * (1.0 + 1e-12) + 1e-12:
            raise InvariantError("k-means objective increased between iterations")
        history.append(objective)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        sums = np.zeros_like(centroids)
        np.add.at(sums, labels, x)
        centroids = sums / np.bincount(labels, minlength=n_clusters)[:, None]
    return clustering.ClusterModel(centroids, labels, history[-1], tuple(history))


def draw_picks_reference(rng, n_pos, n_pool, k):
    """`trainer._draw_picks` one numpy call at a time: per item, ``rng.integers``
    for the positive, then, unless the pool is empty, ``rng.choice`` for its k
    negatives, with replacement only when the pool is shorter than k."""
    pos_picks, neg_picks = [], []
    for n_p, size in zip(np.asarray(n_pos).tolist(), np.asarray(n_pool).tolist()):
        pos_picks.append(int(rng.integers(n_p)))
        if size:
            neg_picks.append(rng.choice(size, size=k, replace=size < k))
    return (np.array(pos_picks, dtype=np.int64),
            np.array(neg_picks, dtype=np.int64).reshape(len(neg_picks), k))


class ObjectFinetuner(trainer.Finetuner):
    """`trainer.Finetuner` on feature vector objects, as it ran before its feature
    store: a list of query vectors, a dict of document vectors, pools of document
    ids from the per-query pool references, and `Triplet` batches drawn with
    the same random calls in the same order. Cluster refits encode item by item
    (`encode_loop`) and each step's losses and cluster gradients come from
    `loop_retrieval`; the episode loop, the optimizer and the weighting rules are
    the package's."""

    def __init__(self, config, params, corpus, queries, qrels):
        super().__init__(config, params, trainer.training_store(config, corpus, queries, qrels))
        self.corpus, self.qrels = corpus, qrels
        self.featurizer = encoder.Featurizer(config.feature_dim)
        self.positives = {q.id: list(qrels.positives(q.id)) for q in self.queries}
        featurize = self.featurizer
        self.query_fvs = vectors(featurize(q.tokens for q in self.queries))
        self.doc_fvs = dict(zip(corpus.ids, vectors(featurize(doc.tokens for doc in corpus))))

    def _refresh_clusters(self, episode):
        k = min(self.config.k_clusters, len(self.queries))
        seed = int(trainer._derived_rng(self.config.seed, trainer._TAG_KMEANS, episode)
                   .integers(2**31))
        self.cluster_model = clustering.kmeans_fit(encode_loop(self.params, self.query_fvs), k,
                                                   seed=seed, max_iters=self.config.kmeans_iters)
        self.omega = np.full(k, 1.0 / k)

    def _refresh_negatives(self, episode):
        rng = trainer._derived_rng(self.config.seed, trainer._TAG_MINE, episode)
        queries, depth = QuerySet(self.queries), self.config.mine_depth
        if episode == 1:
            self.pools, n_fallback = bm25_pools_reference(queries, self.corpus, self.qrels,
                                                          depth, rng)
            return "bm25", n_fallback
        self.pools, n_fallback = mined_pools_reference(self.params, self.featurizer, queries,
                                                       self.corpus, self.qrels, depth, rng)
        return "self", n_fallback

    def _build_batch(self, rng):
        cfg = self.config
        n = len(self.queries)
        replace = cfg.batch_size > n
        chosen = rng.choice(n, size=cfg.batch_size, replace=replace)
        items, clusters = [], []
        for qi in chosen:
            query = self.queries[int(qi)]
            pos_ids = self.positives[query.id]
            pos_id = pos_ids[int(rng.integers(len(pos_ids)))]
            pool = self.pools[query.id]
            if not pool:
                continue
            negs_idx = rng.choice(len(pool), size=cfg.negatives_per_query,
                                  replace=len(pool) < cfg.negatives_per_query)
            negatives = tuple(self.doc_fvs[pool[int(j)]] for j in negs_idx)
            items.append(Triplet(self.query_fvs[int(qi)], self.doc_fvs[pos_id], negatives))
            clusters.append(self.cluster_model.labels[int(qi)])
        return items, np.array(clusters, dtype=np.int64)

    def _train_step(self, items, clusters, total_steps):
        cfg = self.config
        step = self.optimizer.t
        beta = cfg.beta if cfg.weighting == "idro" else 0.0
        item_losses, cols, grads = loop_retrieval(self.params, items, clusters, True)
        scalar, present, cluster_losses, alpha = idro.idro_loss(
            item_losses, idro.ClusterLayout.of(clusters), self.omega, beta)
        omega_used = self.omega[present]
        combined = idro.combine_cluster_grads(grads, alpha, omega_used)
        lr = trainer.scheduled_lr(cfg.learning_rate, step, total_steps)
        self.optimizer.step(self.params.flat, cols, combined, lr)
        if cfg.weighting == "idro":
            r = idro.r_matrix(cluster_losses, grads, beta)
            self.omega = idro.omega_update(self.omega, r, cfg.tau, present)
        elif cfg.weighting == "groupdro":
            self.omega = idro.groupdro_update(self.omega, cluster_losses,
                                              cfg.groupdro_step_size, present)
        self._log_step(step, present, cluster_losses, alpha, omega_used, scalar)
        return scalar


def fixed_eval_batch_reference(task, featurizer, n_negatives=8):
    """`experiments._fixed_eval_batch` with one judgment lookup per BM25
    candidate and the distractor list rebuilt per query."""
    index = retrieval_eval.Bm25Index(task.corpus)
    queries = list(task.queries)
    doc_fvs = dict(zip(index.ids, vectors(featurizer(doc.tokens for doc in task.corpus))))
    query_fvs = vectors(featurizer(query.tokens for query in queries))
    qids = [query.id for query in queries]
    first_doc_of_topic = {}
    for doc in task.corpus:
        first_doc_of_topic.setdefault(doc.id.rsplit("-", 1)[0], doc.id)
    items = []
    for query, query_fv in zip(queries, query_fvs):
        ranking = retrieval_eval.search_bm25(index, query.tokens, k=50)
        positives = task.qrels.positives(query.id)
        own_topic = query.id.rsplit("-", 1)[0]
        distractors = [d for t, d in first_doc_of_topic.items() if t != own_topic]
        judged = task.qrels.judged(query.id)
        bm25_pool = [d for d, _ in ranking.results if judged.get(d, 0) <= 0]
        pool: list[str] = []
        for a, b in zip(distractors, bm25_pool + [None] * len(distractors)):
            pool.append(a)
            if b is not None and b not in pool:
                pool.append(b)
        negs = tuple(doc_fvs[d] for d in pool[:n_negatives])
        items.append(Triplet(query_fv, doc_fvs[positives[0]], negs))
    return items, qids


def token_draws_reference(rng, n, fw_rate, n_fw, n_vocab):
    """`synthetic._token_draws` one token at a time: ``rng.random()``, then
    ``rng.integers`` below ``n_fw`` if it fell below ``fw_rate``, else below
    ``n_vocab``."""
    is_fw, picks = [], []
    for _ in range(n):
        u = rng.random()
        is_fw.append(u < fw_rate)
        picks.append(int(rng.integers(n_fw if u < fw_rate else n_vocab)))
    return np.array(is_fw, dtype=bool), np.array(picks, dtype=np.int64)


def query_draws_reference(rng, n, n_vocab, tail):
    """`synthetic._query_draws` one draw at a time: each query's length in
    `QUERY_LEN_RANGE`, that many draws below ``n_vocab``, then one below each
    bound of ``tail``."""
    lengths, picks = [], []
    for _ in range(n):
        length = int(rng.integers(QUERY_LEN_RANGE[0], QUERY_LEN_RANGE[1] + 1))
        lengths.append(length)
        picks.extend(int(rng.integers(n_vocab)) for _ in range(length))
        picks.extend(int(rng.integers(b)) for b in tail)
    return np.array(lengths, dtype=np.intp), np.array(picks, dtype=np.int64)


def make_doc_tokens_reference(vocab, function_words, doc_len, fw_rate, rng):
    """One document's tokens, two scalar draws per token: ``rng.random()``, then a
    function word with probability ``fw_rate``, else a word of ``vocab``."""
    tokens = []
    for _ in range(doc_len):
        if rng.random() < fw_rate:
            tokens.append(function_words[int(rng.integers(len(function_words)))])
        else:
            tokens.append(vocab[int(rng.integers(len(vocab)))])
    return tokens


def make_task_reference(
    name, prefix, n_topics, docs_per_topic, queries_per_topic, function_words, rng,
    query_vocab_per_topic=None,
):
    """`synthetic._make_task` drawing each document's tokens in a per-token loop
    (`make_doc_tokens_reference`), topic by topic, then the queries, and
    tokenizing each joined text again (`Document.from_fields`,
    `Query.from_fields`); the same parts: name, documents, queries, judgments
    (each query's topic documents, graded 1, one pair at a time)."""
    docs = []
    queries = []
    judgments = {}
    topic_doc_ids = []
    for topic in range(n_topics):
        vocab = _topic_vocab(prefix, topic, VOCAB_PER_TOPIC)
        ids = []
        for d in range(docs_per_topic):
            doc_id = f"{prefix}-t{topic}-d{d}"
            tokens = make_doc_tokens_reference(vocab, function_words, DOC_LEN, FW_RATE, rng)
            docs.append(Document.from_fields(doc_id, " ".join(tokens)))
            ids.append(doc_id)
        topic_doc_ids.append(ids)
    for topic in range(n_topics):
        doc_vocab = _topic_vocab(prefix, topic, VOCAB_PER_TOPIC)
        if query_vocab_per_topic is None:
            vocab = doc_vocab
        else:
            vocab = _topic_vocab(f"{prefix}qry", topic, query_vocab_per_topic)
        for q in range(queries_per_topic):
            qid = f"{prefix}-t{topic}-q{q}"
            qlen = int(rng.integers(QUERY_LEN_RANGE[0], QUERY_LEN_RANGE[1] + 1))
            tokens = [vocab[int(rng.integers(len(vocab)))] for _ in range(qlen)]
            if query_vocab_per_topic is not None:
                tokens.append(doc_vocab[int(rng.integers(len(doc_vocab)))])
            tokens.append(function_words[int(rng.integers(len(function_words)))])
            queries.append(Query.from_fields(qid, " ".join(tokens)))
            judged = judgments.setdefault(qid, {})
            for doc_id in topic_doc_ids[topic]:
                judged[doc_id] = 1
    return name, docs, queries, judgments
