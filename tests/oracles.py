"""Independent reference implementations the tests compare the package against."""

import heapq
import math
from collections import Counter

import numpy as np

from robustdr import encoder, trainer
from robustdr.encoder import FeatureVector, Params, embed_items, encode_many
from robustdr.errors import InvariantError
from robustdr.idro import r_matrix
from robustdr.losses import SpanPairBatch, TripletBatch
from robustdr.retrieval_eval import DenseIndex, RankedList


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
    scores = index.embeddings.matrix @ np.asarray(query_emb, dtype=np.float64)
    ids = index.embeddings.ids
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
    """`Featurizer.__call__` one token at a time: a dict tally of float counts, then a sort."""
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


def pools_reference(rankings, corpus, qrels, k, rng, source):
    """Negative pools one query at a time from (query id, ranked list) pairs, with the
    fallback of `trainer.mine_negatives`."""
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(0))
    pools: dict[str, list[str]] = {}
    n_fallback = 0
    for qid, ranked in rankings:
        positives = set(qrels.positives(qid))
        pool = _filter_pool(ranked.doc_ids(), positives, k)
        if not pool:
            trainer.logger.warning("query %r: %s top-%d all positive; random negatives",
                                   qid, source, k)
            pool = trainer._fallback_pool(qid, positives, corpus, k, rng)
            n_fallback += 1
        pools[qid] = pool
    return pools, n_fallback


def bm25_pools_reference(queries, corpus, qrels, k, rng=None):
    """`trainer.bm25_negative_pools` from per-query `search_bm25_reference` rankings."""
    rankings = ((q.id, search_bm25_reference(corpus, q.tokens, k)) for q in queries)
    return pools_reference(rankings, corpus, qrels, k, rng, "BM25")


def mined_pools_reference(params, featurizer, queries, corpus, qrels, k, rng=None):
    """`trainer.mine_negatives` from per-query `search_dense_heap` rankings."""
    index = DenseIndex(embed_items(params, featurizer, corpus))
    query_emb = embed_items(params, featurizer, queries)
    rankings = ((qid, search_dense_heap(index, emb, k)) for qid, emb in
                zip(query_emb.ids, query_emb.matrix))
    return pools_reference(rankings, corpus, qrels, k, rng, "dense")


def dense_embedding_backward(params, fvs, emb_grads) -> np.ndarray:
    """Item-by-item dense backward: one outer product per item into a P-long vector."""
    grad = np.zeros_like(params.flat)
    grad_w = grad.reshape(params.embed_dim, params.feature_dim)
    for fv, g_e in zip(fvs, emb_grads):
        if fv.indices.size:
            grad_w[:, fv.indices] += np.outer(g_e, fv.counts)
    return grad


def dense_retrieval_loss_grad(params, batch, in_batch_negatives=False):
    """Per-item losses and the dense gradient of the batch mean, item by item."""
    n = len(batch)
    fvs, q_slots, cand_slots = [], [], []
    for item in batch:
        q_slots.append(len(fvs))
        fvs.append(item.query)
        cand_slots.append(list(range(len(fvs), len(fvs) + 1 + len(item.negatives))))
        fvs.extend([item.positive, *item.negatives])
    emb = encode_many(params, fvs)
    emb_grads = np.zeros_like(emb)
    per_item = np.empty(n)
    for i in range(n):
        cand = list(cand_slots[i])
        if in_batch_negatives:
            cand.extend(cand_slots[j][0] for j in range(n) if j != i)
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


def per_cluster_reference(params, batch, clusters, in_batch_negatives=False):
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
        per_item, grads[row] = dense_retrieval_loss_grad(
            params, [batch[i] for i in positions], in_batch_negatives
        )
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
    ``params.flat``: ``m_w``/``v_w`` scattered to the ``live`` columns, zero
    elsewhere."""
    out = []
    for block in (opt.m_w, opt.v_w):
        dense = np.zeros(opt.shape)
        dense[:, opt.live] = block
        out.append(dense.ravel())
    return out[0], out[1]


class DenseOptimizer:
    """`trainer.Optimizer` on dense vectors: each step scatters its row into a
    gradient as long as ``params.flat`` and takes the textbook step on every
    parameter, with moments over all of them."""

    def __init__(self, config, params: Params):
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


def loop_retrieval(
    params: Params,
    batch: TripletBatch,
    in_batch_negatives: bool,
    clusters: np.ndarray,
    with_grad: bool,
):
    """`losses.retrieval_cluster_grads` (and, without `with_grad`, the per-item
    losses alone) item by item: one Python loop with its own softmax per item."""
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

    emb = encoder.encode_many(params, fvs)
    emb_grads = np.zeros_like(emb) if with_grad else None

    per_item = np.empty(n, dtype=np.float64)
    for i in range(n):
        cand = [p_slots[i], *neg_slots[i]]
        if in_batch_negatives:
            cand.extend(p_slots[j] for j in members[group[i]] if j != i)
        cand = np.array(cand, dtype=np.intp)
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
    cols, rows = encoder.grouped_backward(
        params, fvs, emb_grads, np.array(slot_group, dtype=np.intp), present.size
    )
    return per_item, cols, rows


def span_matrix(params: Params, batch: SpanPairBatch):
    if len(batch) < 2:
        raise ValueError("span-pair batches need n >= 2 so in-batch negatives exist")
    spans = [fv for pair in batch for fv in pair]
    emb = encoder.encode_many(params, spans)
    sims = emb @ emb.T
    if not np.all(np.isfinite(sims)):
        raise InvariantError("non-finite similarity in span-pair loss")
    return spans, emb, sims


def loop_coco(params: Params, batch: SpanPairBatch, with_grad: bool):
    """`losses.coco_loss_grad` (with `with_grad`) anchor by anchor, with `np.delete`."""
    spans, emb, sims = span_matrix(params, batch)
    n = len(batch)
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
    return total, encoder.embedding_backward(params, spans, emb_grads)


def coco_top1_accuracy(params: Params, batch: SpanPairBatch) -> float:
    """Fraction of anchors whose partner scores strictly above every other span."""
    _, _, sims = span_matrix(params, batch)
    n2 = sims.shape[0]
    hits = 0
    for a in range(n2):
        partner = a ^ 1
        others = [sims[a, j] for j in range(n2) if j != a and j != partner]
        if sims[a, partner] > max(others):
            hits += 1
    return hits / n2
