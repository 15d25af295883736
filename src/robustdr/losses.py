"""Training objectives: pairwise retrieval loss and span-pair contrastive loss.

Both losses are computed from raw dot products of encoder embeddings, guarded
by max-subtraction, and come with exact hand-derived parameter gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import encoder
from .encoder import FeatureVector, Params
from .errors import InvariantError


@dataclass(frozen=True)
class Triplet:
    """One training item: query, its positive document, and >= 1 negatives."""

    query: FeatureVector
    positive: FeatureVector
    negatives: tuple[FeatureVector, ...]

    def __post_init__(self):
        if len(self.negatives) < 1:
            raise ValueError("a triplet needs at least one negative")


TripletBatch = Sequence[Triplet]
SpanPairBatch = Sequence[tuple[FeatureVector, FeatureVector]]


def _retrieval(
    params: Params,
    batch: TripletBatch,
    in_batch_negatives: bool,
    clusters: np.ndarray,
    with_grad: bool,
):
    """Per-item losses and, with `with_grad`, per-cluster gradients; see
    `retrieval_cluster_grads`."""
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


def retrieval_loss(
    params: Params, batch: TripletBatch, in_batch_negatives: bool = False
) -> tuple[float, np.ndarray]:
    """Mean softmax loss of ranking each positive above its listed negatives.

    Per item the loss is -log( exp(s+) / (exp(s+) + sum_k exp(s-_k)) ); with
    `in_batch_negatives` the other items' positives join the denominator.
    Returns (mean loss, per-item losses).
    """
    one_cluster = np.zeros(len(batch), dtype=np.int64)
    per_item, _, _ = _retrieval(params, batch, in_batch_negatives, one_cluster, False)
    return (float(np.mean(per_item)) if len(batch) else 0.0), per_item


def retrieval_loss_grad(
    params: Params, batch: TripletBatch, in_batch_negatives: bool = False
) -> tuple[float, np.ndarray, np.ndarray]:
    """Like `retrieval_loss`, plus the exact gradient of the batch mean."""
    if not len(batch):
        return 0.0, np.empty(0, dtype=np.float64), np.zeros_like(params.flat)
    one_cluster = np.zeros(len(batch), dtype=np.int64)
    per_item, cols, rows = _retrieval(params, batch, in_batch_negatives, one_cluster, True)
    return float(np.mean(per_item)), per_item, encoder.scatter_grad(params, cols, rows[0])


def retrieval_cluster_grads(
    params: Params,
    batch: TripletBatch,
    clusters: np.ndarray,
    in_batch_negatives: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-item losses and the gradient of each present cluster's mean loss.

    ``clusters[i]`` is item i's cluster. Each cluster is its own sub-batch: an
    item's in-batch negatives are the positives of the other items of its
    cluster, and its gradient coefficients are divided by its cluster's size.
    Returns (per-item losses, the feature columns the batch touches, one
    gradient row per present cluster in ascending id order); see
    `encoder.grouped_backward` for the row layout and `encoder.scatter_grad`
    for the dense vector of a row.
    """
    return _retrieval(params, batch, in_batch_negatives, clusters, True)


def _span_matrix(params: Params, batch: SpanPairBatch):
    if len(batch) < 2:
        raise ValueError("span-pair batches need n >= 2 so in-batch negatives exist")
    spans = [fv for pair in batch for fv in pair]
    emb = encoder.encode_many(params, spans)
    sims = emb @ emb.T
    if not np.all(np.isfinite(sims)):
        raise InvariantError("non-finite similarity in span-pair loss")
    return spans, emb, sims


def _coco(params: Params, batch: SpanPairBatch, with_grad: bool):
    spans, emb, sims = _span_matrix(params, batch)
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


def coco_loss(params: Params, batch: SpanPairBatch) -> float:
    """Span-pair contrastive loss with in-batch negatives.

    Each of the 2n spans acts as an anchor whose positive is its partner span;
    the denominator sums exp-similarities to every other span in the batch
    (partner included, anchor's own self-similarity excluded). The anchor
    terms are summed and divided by the number of pairs n.
    """
    total, _ = _coco(params, batch, with_grad=False)
    return total


def coco_loss_grad(params: Params, batch: SpanPairBatch) -> tuple[float, np.ndarray]:
    """Like `coco_loss`, plus the exact parameter gradient."""
    return _coco(params, batch, with_grad=True)


def coco_top1_accuracy(params: Params, batch: SpanPairBatch) -> float:
    """Fraction of anchors whose partner scores strictly above every other span."""
    _, _, sims = _span_matrix(params, batch)
    n2 = sims.shape[0]
    hits = 0
    for a in range(n2):
        partner = a ^ 1
        others = [sims[a, j] for j in range(n2) if j != a and j != partner]
        if sims[a, partner] > max(others):
            hits += 1
    return hits / n2
