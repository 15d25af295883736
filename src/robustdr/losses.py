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
- every retrieval item has the same number of candidates, its positive and
  its negatives, so one stacked pass scores all items; each embedding slot
  takes exactly one gradient term, added to a zero-filled buffer as the loop
  adds it;
- the span-pair anchor terms are summed one after another (``np.cumsum``):
  ``np.sum`` is pairwise from 8 terms;
- the embeddings and the per-group backward come from `encoder.encode_many`
  and `encoder.grouped_backward`, which keep each item's gathered weight block
  F-ordered and each group's rows contiguous and in item order (see
  `encoder`).

Both take their texts as rows of one feature block. A retrieval batch is a
`TripletRows`: the block and an (items, 2 + negatives) array of its row ids,
each row of the array one item's query, positive and negatives. A span-pair
batch is an `encoder.FeatureRows` whose items 2p and 2p + 1 are pair p. The
kernels gather from the block directly and encode each distinct row once.

The per-cluster retrieval gradients take the batch's `idro.ClusterLayout`,
the one grouping of its items by cluster that the step's weighting reads
too: its group sizes scale each item's coefficients to its cluster's mean,
and its item order, each item's slots kept together, is the slot order the
backward takes, with the group bounds scaled by the row width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoder
from .encoder import FeatureBlock, FeatureRows, Params
from .errors import InvariantError
from .idro import ClusterLayout


@dataclass(frozen=True, eq=False)
class TripletRows:
    """A batch of retrieval items as rows of one feature block: row i of
    ``rows``, an (items, 2 + negatives) array, lists item i's query, positive
    and negatives (at least one)."""

    block: FeatureBlock
    rows: np.ndarray

    def __post_init__(self):
        if self.rows.ndim != 2 or self.rows.shape[1] < 3:
            raise ValueError("a triplet row needs a query, a positive and at least one negative")

    def __len__(self) -> int:
        return self.rows.shape[0]


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


def _retrieval(params: Params, batch: TripletRows, clusters: ClusterLayout, with_grad: bool):
    """Per-item losses and, with `with_grad`, per-cluster gradients; see
    `retrieval_cluster_grads`."""
    n, width = batch.rows.shape
    if len(clusters) != n:
        raise ValueError("the cluster layout must hold one cluster per item")

    # Slots [query, positive, negatives...] per item; its candidates are every
    # slot but the query, the positive first.
    emb = encoder.encode_many(params, FeatureRows(batch.block, batch.rows.ravel()))
    item_emb = emb.reshape(n, width, emb.shape[1])
    cand_emb, q_emb = item_emb[:, 1:], item_emb[:, 0]
    scores = np.matmul(cand_emb, q_emb[:, :, None])[:, :, 0]
    per_item, coeff = _softmax_xent(scores, np.zeros(n, dtype=np.intp))
    if not with_grad:
        return per_item, None, None

    coeff /= clusters.sizes[clusters.group, None]  # gradient of the cluster mean
    # Zero-filled, then added to: each slot holds 0.0 + its one term, as the loop has it.
    emb_grads = np.zeros_like(item_emb)
    emb_grads[:, 0] += np.matmul(coeff[:, None, :], cand_emb)[:, 0]
    emb_grads[:, 1:] += coeff[:, :, None] * q_emb[:, None, :]
    # The items' slots group by group, each group's in item order.
    order = clusters.order
    cols, rows = encoder.grouped_backward(
        params, FeatureRows(batch.block, batch.rows[order].ravel()),
        emb_grads[order].reshape(emb.shape), clusters.bounds * width,
    )
    return per_item, cols, rows


def _one_cluster(n: int) -> ClusterLayout:
    return ClusterLayout.of(np.zeros(n, dtype=np.int64))


def retrieval_loss(params: Params, batch: TripletRows) -> tuple[float, np.ndarray]:
    """Mean softmax loss of ranking each positive above its listed negatives.

    Per item the loss is -log( exp(s+) / (exp(s+) + sum_k exp(s-_k)) ).
    Returns (mean loss, per-item losses).
    """
    per_item, _, _ = _retrieval(params, batch, _one_cluster(len(batch)), False)
    return (float(np.mean(per_item)) if len(batch) else 0.0), per_item


def retrieval_loss_grad(
    params: Params, batch: TripletRows
) -> tuple[float, np.ndarray, np.ndarray]:
    """Like `retrieval_loss`, plus the exact gradient of the batch mean."""
    if not len(batch):
        return 0.0, np.empty(0, dtype=np.float64), np.zeros_like(params.flat)
    per_item, cols, rows = _retrieval(params, batch, _one_cluster(len(batch)), True)
    return float(np.mean(per_item)), per_item, encoder.scatter_grad(params, cols, rows[0])


def retrieval_cluster_grads(
    params: Params, batch: TripletRows, clusters: ClusterLayout
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-item losses and the gradient of each present cluster's mean loss.

    ``clusters`` is the batch's `idro.ClusterLayout`. Each cluster is its own
    sub-batch: an item's gradient coefficients are divided by its cluster's
    size. Returns (per-item losses, the feature columns the batch touches,
    one gradient row per present cluster in ascending id order); see
    `encoder.grouped_backward` for the row layout and `encoder.scatter_grad`
    for the dense vector of a row.
    """
    return _retrieval(params, batch, clusters, True)


def _coco(params: Params, spans: FeatureRows, with_grad: bool):
    if len(spans) % 2:
        raise ValueError(f"a span-pair batch needs an even item count, not {len(spans)}")
    n = len(spans) // 2
    if n < 2:
        raise ValueError("span-pair batches need n >= 2 pairs so in-batch negatives exist")
    emb = encoder.encode_many(params, spans)
    # Row a holds span a's similarities to every other span, in `np.delete`
    # order; dropping column a puts either span of pair p's partner in column 2p.
    off = ~np.eye(2 * n, dtype=bool)
    terms, coeff = _softmax_xent((emb @ emb.T)[off].reshape(2 * n, -1), np.arange(2 * n) & ~1)
    # A sequential sum, as a running total: np.sum is pairwise from 8 terms.
    total = np.cumsum(terms)[-1] / n
    if not with_grad:
        return total, None, None
    coeffs = np.zeros((2 * n, 2 * n))
    coeffs[off] = coeff.ravel() / n
    emb_grads = (coeffs + coeffs.T) @ emb
    cols, rows = encoder.grouped_backward(params, spans, emb_grads, [0, 2 * n])
    return total, cols, rows[0]


def coco_loss(params: Params, spans: FeatureRows) -> float:
    """Span-pair contrastive loss with in-batch negatives.

    Items 2p and 2p + 1 of ``spans`` are pair p, and there are n >= 2 pairs (a
    ValueError otherwise). Each of the 2n spans acts as an anchor whose
    positive is its partner span; the denominator sums exp-similarities to
    every other span in the batch (partner included, anchor's own
    self-similarity excluded). The anchor terms are summed and divided by the
    number of pairs n.
    """
    total, _, _ = _coco(params, spans, with_grad=False)
    return total


def coco_loss_grad(params: Params, spans: FeatureRows) -> tuple[float, np.ndarray, np.ndarray]:
    """Like `coco_loss`, plus the exact parameter gradient on the columns the spans touch.

    Returns (loss, cols, row): the one-group case of `encoder.grouped_backward`,
    the sorted feature columns any span touches and the gradient row on them;
    `encoder.scatter_grad` gives its dense vector.
    """
    return _coco(params, spans, with_grad=True)
