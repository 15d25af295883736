"""Desk-scale dual encoder: hashed lexical features -> dense embedding.

One weight set serves both the query and the document tower: the embedding
of a text is the linear projection W x of its hashed feature counts x, and
the relevance score of a (query, document) pair is the plain dot product of
their embeddings, with no normalization. Forward and backward passes are
exact and hand-derived.

Texts are featurized into a `FeatureBlock`, one CSR block of feature ids and
counts with a row per text, by the one featurizing call, `Featurizer`'s
``__call__``. Every kernel works on `FeatureRows`, a block and the row id of
each item; a row may repeat. One forward kernel, `encode_many`, embeds the
items, each distinct row once. One backward kernel, `grouped_backward`,
returns the items' gradient per group of items (the robust weighting's
clusters) on only the feature columns the items touch, from one count block
per group. Its caller hands it the items group by group, with the group
bounds: a retrieval step takes them from the batch's one cluster layout
(`idro.ClusterLayout`), so the kernel sorts nothing. `embedding_backward` is
its one-group case scattered into a dense vector.

The weights are stored feature-major: feature d's E weights are one
contiguous row of ``W.T`` (`Params`), so every kernel and optimizer step that
works one feature column at a time reads and writes contiguous rows.

Both kernels equal, bit for bit, a loop with one ``W[:, indices] @ counts``
per item and one masked copy of each group's rows per group (kept in the
tests as the reference), whichever rows a batch names and however often.
That rests on these layout conditions, each checked against the loop on
OpenBLAS:

- each kernel gathers its rows' ids and counts from the block into fresh
  arrays in one fancy index, so an item's values do not depend on where its
  row sits in the block;
- each item's gathered E x n weight block stays F-ordered, as
  ``W[:, indices]`` is, so a stacked ``np.matmul`` over a run of at most
  `_ROWS` distinct rows with the same count of nonzeros n makes the same BLAS
  gemv call per item (a C-ordered stacked gather differs in the last bits),
  whether the run's weight rows are gathered on their own or, as they are,
  sliced from one gather per chunk of `_ROWS` rows, and whether the product
  is a fresh array or written in place;
- each group's rows of the embedding gradients are contiguous, C-ordered and
  in the items' order (the caller's group-by-group order keeps each group's
  items in item order), and its count block (its items x the touched
  columns) is C-ordered in the same order, filled into a zeroed buffer, so
  each group is the same gemm on operands of the same values, shape and
  strides as a masked copy of a full count matrix.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from . import blobfile
from .errors import InvariantError

CHECKPOINT_FORMAT = "robustdr-encoder"
CHECKPOINT_VERSION = 3

# The most items one stacked product of `encode_many` gathers weights for.
_ROWS = 256
# Embedding rows `Params.init_random` draws per chunk: eight float64 weights
# fill one 64-byte cache line of a feature's row.
_INIT_ROWS = 8


@dataclass(frozen=True, eq=False)
class FeatureBlock:
    """The hashed feature counts of a list of texts as one CSR block, one row per text.

    Row r's sorted unique feature ids in [0, dim) are
    ``indices[bounds[r]:bounds[r + 1]]``, and its counts sit at the same
    positions of ``counts`` (float64).
    """

    indices: np.ndarray
    counts: np.ndarray
    bounds: np.ndarray
    dim: int

    def __len__(self) -> int:
        return self.bounds.size - 1

    def all_rows(self) -> "FeatureRows":
        """Every row once, in order."""
        return FeatureRows(self, np.arange(len(self)))

    def entries(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The feature ids and counts of ``rows``, back to back in the order of
        ``rows`` (gathered into fresh arrays), and each row's count of nonzeros."""
        start = self.bounds[rows]
        nnz = self.bounds[rows + 1] - start
        first = np.cumsum(nnz) - nnz
        pos = np.repeat(start - first, nnz) + np.arange(int(nnz.sum()))
        return self.indices[pos], self.counts[pos], nnz


@dataclass(frozen=True, eq=False)
class FeatureRows:
    """The items of a kernel call as rows of one `FeatureBlock`: item i is row
    ``rows[i]``. A row may repeat; ``len`` counts items, repeats included."""

    block: FeatureBlock
    rows: np.ndarray

    def __len__(self) -> int:
        return self.rows.size


class Featurizer:
    """Feature hashing of tokens into `dim` count buckets: a token's bucket is its
    unsalted 8-byte BLAKE2b digest, read little-endian, modulo `dim`.

    Calling the featurizer on a list of token lists featurizes them at once
    into one `FeatureBlock`, one row per token list: one cached bucket lookup
    per token, one sort of the (item, bucket) keys. Counts are small integers,
    so they are exact in float64 and equal to a per-token tally bit for bit.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("feature dimension must be >= 1")
        self.dim = dim
        self._cache: dict[str, int] = {}

    def bucket(self, token: str) -> int:
        idx = self._cache.get(token)
        if idx is None:
            digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
            idx = int.from_bytes(digest, "little") % self.dim
            self._cache[token] = idx
        return idx

    def __call__(self, token_lists: Iterable[Iterable[str]]) -> FeatureBlock:
        """One `FeatureBlock` row per token list, in order; TypeError for a bare
        string, which is one text, not a token list."""
        tokens: list[str] = []
        lengths: list[int] = []
        for item in token_lists:
            if isinstance(item, str):
                raise TypeError("the featurizer takes a list of token lists, not of strings")
            start = len(tokens)
            tokens.extend(item)
            lengths.append(len(tokens) - start)
        for token in set(tokens).difference(self._cache):
            self.bucket(token)
        buckets = np.fromiter(map(self._cache.__getitem__, tokens), np.int64, len(tokens))
        items = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
        keys, counts = np.unique(items * self.dim + buckets, return_counts=True)
        owner = keys // self.dim
        indices = keys - owner * self.dim
        bounds = np.searchsorted(owner, np.arange(len(lengths) + 1))
        return FeatureBlock(indices, counts.astype(np.float64), bounds, self.dim)


class Params:
    """Encoder weights, shared by both towers.

    The flat float64 vector is the single source of truth, stored
    feature-major: feature d's E weights are ``flat[d * E:(d + 1) * E]``.
    ``W`` (projection, E x D) is the view ``flat.reshape(D, E).T`` into it,
    so ``W.T`` is C-contiguous, a column ``W[:, d]`` is one contiguous row of
    it, and in-place updates on ``flat`` are visible everywhere. A checkpoint
    holds ``flat`` in this order.
    """

    __slots__ = ("feature_dim", "embed_dim", "flat", "W")

    def __init__(self, feature_dim: int, embed_dim: int, flat: np.ndarray):
        n = self.n_params(feature_dim, embed_dim)
        self.feature_dim = feature_dim
        self.embed_dim = embed_dim
        flat = np.ascontiguousarray(flat, dtype=np.float64)
        if flat.shape != (n,):
            raise ValueError(f"flat parameter vector must have length {n}")
        if not np.all(np.isfinite(flat)):
            raise InvariantError("encoder parameters must be finite")
        self.flat = flat
        self.W = self.flat.reshape(feature_dim, embed_dim).T

    @staticmethod
    def n_params(feature_dim: int, embed_dim: int) -> int:
        if feature_dim < 1 or embed_dim < 1:
            raise ValueError("dimensions must be >= 1")
        return embed_dim * feature_dim

    @classmethod
    def init_random(cls, feature_dim: int, embed_dim: int, seed: int = 0) -> "Params":
        """Seeded uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)]: ``W`` equals
        ``rng.uniform(-1, 1, E * D).reshape(E, D) / sqrt(D)`` bit for bit, drawn
        `_INIT_ROWS` rows of ``W`` at a time, so no second full-size array is made."""
        rng = np.random.Generator(np.random.PCG64(seed))
        flat = np.empty(cls.n_params(feature_dim, embed_dim))
        w_t = flat.reshape(feature_dim, embed_dim)
        scale = np.sqrt(feature_dim)
        for e in range(0, embed_dim, _INIT_ROWS):
            rows = rng.uniform(-1.0, 1.0, size=(min(_INIT_ROWS, embed_dim - e), feature_dim))
            rows /= scale
            w_t[:, e:e + rows.shape[0]] = rows.T
        return cls(feature_dim, embed_dim, flat=flat)

    def copy(self) -> "Params":
        return Params(self.feature_dim, self.embed_dim, flat=self.flat.copy())

    def __len__(self) -> int:
        return self.flat.shape[0]


def encode_many(params: Params, items: FeatureRows) -> np.ndarray:
    """One embedding row W @ x per item of ``items``; ValueError unless its block
    has the encoder's feature dimension.

    Each distinct row is encoded once and its embedding copied to every item
    that names it. One sort of the items by (count of nonzeros n, row id)
    lists the distinct rows sorted stably by n. They are taken in chunks of
    at most `_ROWS`: the weight rows of a chunk's features are gathered in
    one ``take``, and each run of rows with the same n in the chunk is one
    stacked ``np.matmul`` of their E x n weight blocks with their counts,
    written in place.
    """
    _check_dim(params, items)
    dim, block_rows = params.embed_dim, items.block.bounds
    order = np.argsort((block_rows[items.rows + 1] - block_rows[items.rows]) * len(items.block)
                       + items.rows)
    ranked = items.rows[order]
    new = np.ones(ranked.size, dtype=bool)  # an item opening its row's run
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    distinct = ranked[new]
    m = distinct.size
    idx, counts, nnz = items.block.entries(distinct)
    first = [0, *np.cumsum(nnz).tolist()]  # each row's first entry, and the end
    cuts = np.ones(m, dtype=bool)  # a row opening a run of its n, or a chunk
    np.not_equal(nnz[1:], nnz[:-1], out=cuts[1:])
    cuts[::_ROWS] = True
    cuts = np.append(np.flatnonzero(cuts), m).tolist()
    emb = np.empty((m, dim), dtype=np.float64)
    w_t = params.W.T
    for a, b in zip(cuts, cuts[1:]):
        if a % _ROWS == 0:
            chunk = first[a]
            gathered = w_t.take(idx[chunk:first[min(a + _ROWS, m)]], axis=0)
        n = int(nnz[a])
        at = first[a] - chunk
        # Contiguous rows of W.T as (items, n, E), C-ordered, so each item's E x n
        # block of the transpose is F-ordered like W[:, indices], and np.matmul
        # runs the same BLAS gemv per item as W[:, indices] @ counts.
        blocks = gathered[at:at + (b - a) * n].reshape(b - a, n, dim).transpose(0, 2, 1)
        np.matmul(blocks, counts[first[a]:first[b]].reshape(b - a, n, 1),
                  out=emb[a:b].reshape(b - a, dim, 1))
    slot = np.empty(ranked.size, dtype=np.intp)  # each item's distinct row
    slot[order] = np.cumsum(new) - 1
    return emb.take(slot, axis=0)


def _check_dim(params: Params, items: FeatureRows) -> None:
    if items.block.dim != params.feature_dim:
        raise ValueError(f"feature dim {items.block.dim} does not match encoder feature dim "
                         f"{params.feature_dim}")


def grouped_backward(
    params: Params,
    items: FeatureRows,
    emb_grads: np.ndarray,
    bounds: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-group parameter gradients on the feature columns the items touch.

    The items come group by group: group g is items ``bounds[g]:bounds[g + 1]``
    (``bounds`` ascends from 0 to the item count), and `emb_grads[i]` is
    d(loss)/d(embedding of item i). Returns (cols, rows): the sorted feature
    columns any item touches, and row g = vec dW[:, cols], the gradient of
    group g's items. Every other column of dW is zero, so inner products and
    weighted sums of rows equal those of the dense gradients.

    A group's gradient is one product, written straight into its row, of its
    embedding gradients with its (items x columns) count block; the blocks
    are filled in turn into one zeroed buffer sized to the largest group,
    whose written entries are zeroed again after each product. Only the rows
    of empty groups are zeroed.
    """
    _check_dim(params, items)
    n = len(items)
    emb_grads = np.ascontiguousarray(emb_grads, dtype=np.float64)
    if emb_grads.shape != (n, params.embed_dim):
        raise ValueError("emb_grads must be (n_items, embed_dim)")
    bounds = np.asarray(bounds)
    edges = bounds.tolist()
    if (bounds.ndim != 1 or not edges or edges[0] != 0 or edges[-1] != n
            or any(a > b for a, b in zip(edges, edges[1:]))):
        raise ValueError("bounds must ascend from 0 to the item count")
    idx, counts, nnz = items.block.entries(items.rows)
    mark = np.zeros(params.feature_dim, dtype=bool)
    mark[idx] = True
    cols = np.flatnonzero(mark)
    where = np.empty(params.feature_dim, dtype=np.intp)
    where[cols] = np.arange(cols.size)
    sizes = np.diff(bounds)
    # Each entry's offset in its group's count block: its item's row, then its column.
    rank = np.arange(n) - np.repeat(bounds[:-1], sizes)
    at = np.repeat(rank * cols.size, nnz) + where[idx]
    offsets = np.zeros(n + 1, dtype=np.intp)  # each item's first entry, and the end
    np.cumsum(nnz, out=offsets[1:])
    entry_edges = offsets[bounds].tolist()
    x = np.zeros(int(sizes.max(initial=0)) * cols.size)
    rows = np.empty((sizes.size, params.embed_dim * cols.size))
    for g, (a, b, first, last) in enumerate(zip(edges, edges[1:], entry_edges,
                                                 entry_edges[1:])):
        if a < b:
            x[at[first:last]] = counts[first:last]
            np.matmul(emb_grads[a:b].T, x[: (b - a) * cols.size].reshape(b - a, cols.size),
                      out=rows[g].reshape(params.embed_dim, cols.size))
            x[at[first:last]] = 0.0
        else:
            rows[g] = 0.0
    return cols, rows


def scatter_grad(params: Params, cols: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The dense vector, aligned with ``params.flat``, of one `grouped_backward` row."""
    grad = np.zeros_like(params.flat)
    grad.reshape(params.feature_dim, params.embed_dim)[cols] = row.reshape(
        params.embed_dim, cols.size
    ).T
    return grad


def embedding_backward(params: Params, items: FeatureRows, emb_grads: np.ndarray) -> np.ndarray:
    """Chain per-item embedding gradients back to a flat parameter gradient.

    `emb_grads[i]` is d(loss)/d(embedding of item i); items sharing buckets
    accumulate. The one-group case of `grouped_backward`, returned as a dense
    vector aligned with ``params.flat``.
    """
    cols, rows = grouped_backward(params, items, emb_grads, [0, len(items)])
    return scatter_grad(params, cols, rows[0])


_CHECKPOINT_FIELDS = {"feature_dim": int, "embed_dim": int}


def save_checkpoint(params: Params, path: str | Path) -> None:
    """Write a checkpoint (see `blobfile`): a header of the encoder's shape,
    ``feature_dim`` and ``embed_dim``, then its flat weights as held,
    feature-major (version 3; an earlier version is rejected)."""
    fields = {"feature_dim": params.feature_dim, "embed_dim": params.embed_dim}
    blobfile.write(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, fields, [params.flat])


def load_checkpoint(path: str | Path) -> Params:
    """Bit-exact reload of a checkpoint; its one block holds
    ``feature_dim * embed_dim`` weights."""
    header, (flat,) = blobfile.read(
        path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, _CHECKPOINT_FIELDS,
        lambda h: [Params.n_params(h["feature_dim"], h["embed_dim"])],
    )
    return Params(header["feature_dim"], header["embed_dim"], flat=flat)
