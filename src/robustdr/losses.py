"""Training objectives: pairwise retrieval loss and span-pair contrastive loss.

Both losses are a softmax cross-entropy of one anchor against one positive
and a set of negatives (InfoNCE), computed from raw dot products of encoder
embeddings, and come with exact hand-derived parameter gradients. Both gather
their candidate scores into rows and call one row-wise kernel,
`_softmax_xent`, which max-subtracts each row and returns the row losses and
the softmax minus the one-hot of the positive; each loss then chains those
coefficients back to the embeddings and parameters.

The results equal, bit for bit, those of a loop with one 1-D softmax per item
or per anchor (kept in the tests as the reference). That rests on these
conditions, each checked against the loop on OpenBLAS:

- a retrieval row's scores come from a stacked ``np.matmul`` of its candidate
  embeddings with its query embedding, and a query's gradient from a stacked
  ``np.matmul`` of its coefficients with the candidates (``np.einsum`` or
  multiply-then-sum differ in the last bits);
- row-wise ``max``, ``exp`` and ``sum`` run over C-contiguous rows holding
  exactly the row's scores, so each row sum keeps the 1-D pairwise blocking:
  a span-pair row drops the anchor's self-similarity rather than padding it;
- each embedding slot sums its gradient terms in item order, through one
  unbuffered ``np.add.at`` over all candidates, also when the items have
  different candidate counts;
- the span-pair anchor terms are summed one after another (``np.cumsum``):
  ``np.sum`` is pairwise from 8 terms.
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


def _softmax_xent(scores: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise softmax cross-entropy of each row's ``pos`` column against the rest.

    Returns (row losses, softmax minus the one-hot of ``pos``), each row
    max-subtracted; ``scores`` holds exactly the candidates (no padding).
    """
    if not np.all(np.isfinite(scores)):
        raise InvariantError("non-finite relevance score in a contrastive loss")
    rows = np.arange(scores.shape[0])
    m = np.max(scores, axis=1)
    exps = np.exp(scores - m[:, None])
    denom = np.sum(exps, axis=1)
    coeff = exps / denom[:, None]
    coeff[rows, pos] -= 1.0
    return m + np.log(denom) - scores[rows, pos], coeff


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
    size = np.bincount(group)[group]

    # Slots [query, positive, negatives...] per item; the candidates are every
    # non-query slot of the item, then the positives of its cluster mates.
    fvs = [fv for item in batch for fv in (item.query, item.positive, *item.negatives)]
    width = np.array([2 + len(item.negatives) for item in batch], dtype=np.intp)
    q = np.cumsum(width) - width
    slot, owner = np.setdiff1d(np.arange(len(fvs)), q), np.repeat(np.arange(n), width - 1)
    if in_batch_negatives:
        item, mate = np.nonzero((group[:, None] == group) & ~np.eye(n, dtype=bool))
        slot, owner = np.concatenate([slot, q[mate] + 1]), np.concatenate([owner, item])
    order = np.argsort(owner, kind="stable")
    cand, count = slot[order], np.bincount(owner)
    start = np.cumsum(count) - count

    emb = encoder.encode_many(params, fvs)
    emb_grads = np.zeros_like(emb)
    terms = np.empty((cand.size, emb.shape[1]))
    per_item = np.empty(n)
    for c in np.unique(count):
        items = np.flatnonzero(count == c)
        flat = start[items, None] + np.arange(c)
        cand_emb, q_emb = emb[cand[flat]], emb[q[items]]
        scores = np.matmul(cand_emb, q_emb[:, :, None])[:, :, 0]
        per_item[items], coeff = _softmax_xent(scores, np.zeros(items.size, dtype=np.intp))
        coeff /= size[items, None]  # gradient of the cluster mean
        emb_grads[q[items]] += np.matmul(coeff[:, None, :], cand_emb)[:, 0]
        terms[flat] = coeff[:, :, None] * q_emb[:, None, :]

    if not with_grad:
        return per_item, None, None
    # One unbuffered add over all candidates, so each slot sums its terms in item
    # order also when the items have different candidate counts.
    np.add.at(emb_grads, cand, terms)
    cols, rows = encoder.grouped_backward(
        params, fvs, emb_grads, np.repeat(group, width), present.size
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


def _coco(params: Params, batch: SpanPairBatch, with_grad: bool):
    n = len(batch)
    if n < 2:
        raise ValueError("span-pair batches need n >= 2 so in-batch negatives exist")
    spans = [fv for pair in batch for fv in pair]
    emb = encoder.encode_many(params, spans)
    # Row a holds span a's similarities to every other span, in `np.delete`
    # order; dropping column a puts either span of pair p's partner in column 2p.
    off = ~np.eye(2 * n, dtype=bool)
    terms, coeff = _softmax_xent((emb @ emb.T)[off].reshape(2 * n, -1), np.arange(2 * n) & ~1)
    # A sequential sum, as a running total: np.sum is pairwise from 8 terms.
    total = np.cumsum(terms)[-1] / n
    if not with_grad:
        return total, None
    coeffs = np.zeros((2 * n, 2 * n))
    coeffs[off] = coeff.ravel() / n
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
