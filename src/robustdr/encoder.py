"""Desk-scale dual encoder: hashed lexical features -> dense embedding.

One weight set serves both the query and the document tower; the relevance
score of a (query, document) pair is the plain dot product of their
embeddings, with no normalization. Forward and backward passes are exact and
hand-derived. One backward kernel, `grouped_backward`, returns a batch's
gradient per group of items (the robust weighting's clusters) on only the
feature columns the batch touches, from one count matrix of the batch;
`embedding_backward` is its one-group case scattered into a dense vector.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import blobfile
from .errors import InvariantError

CHECKPOINT_FORMAT = "robustdr-encoder"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True, slots=True)
class FeatureVector:
    """Sparse hashed feature counts: sorted unique indices in [0, dim)."""

    indices: np.ndarray
    counts: np.ndarray
    dim: int


class Featurizer:
    """Deterministic seeded hashing of tokens into `dim` count buckets.

    `many` featurizes a list of token lists at once: one cached bucket lookup
    per token, one sort of the (item, bucket) keys, then one slice per item.
    Calling the featurizer on one token list is its one-item case. Counts are
    small integers, so they are exact in float64 and equal to a per-token
    tally bit for bit.
    """

    def __init__(self, dim: int, seed: int = 0):
        if dim < 1:
            raise ValueError("feature dimension must be >= 1")
        self.dim = dim
        self.seed = seed
        self._salt = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
        self._cache: dict[str, int] = {}

    def bucket(self, token: str) -> int:
        idx = self._cache.get(token)
        if idx is None:
            digest = hashlib.blake2b(
                token.encode("utf-8"), digest_size=8, salt=self._salt
            ).digest()
            idx = int.from_bytes(digest, "little") % self.dim
            self._cache[token] = idx
        return idx

    def __call__(self, tokens: Iterable[str]) -> FeatureVector:
        return self.many([tokens])[0]

    def many(self, token_lists: Iterable[Iterable[str]]) -> list[FeatureVector]:
        """One `FeatureVector` per token list, in order."""
        tokens: list[str] = []
        lengths: list[int] = []
        for item in token_lists:
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
        counts = counts.astype(np.float64)
        bounds = np.searchsorted(owner, np.arange(len(lengths) + 1)).tolist()
        return [
            FeatureVector(indices=indices[a:b], counts=counts[a:b], dim=self.dim)
            for a, b in zip(bounds, bounds[1:])
        ]


class Params:
    """Encoder weights, shared by both towers.

    The flat float64 vector is the single source of truth; ``W`` (projection,
    E x D) and ``H`` (optional hidden layer, E x E, applied as tanh(H @ (W @ x)))
    are reshaped views into it, so in-place updates on ``flat`` are visible
    everywhere.
    """

    __slots__ = ("feature_dim", "embed_dim", "hidden", "flat", "W", "H")

    def __init__(
        self,
        feature_dim: int,
        embed_dim: int,
        hidden: bool = False,
        flat: np.ndarray | None = None,
    ):
        n = self.n_params(feature_dim, embed_dim, hidden)
        self.feature_dim = feature_dim
        self.embed_dim = embed_dim
        self.hidden = hidden
        if flat is None:
            flat = np.zeros(n, dtype=np.float64)
        else:
            flat = np.ascontiguousarray(flat, dtype=np.float64)
            if flat.shape != (n,):
                raise ValueError(f"flat parameter vector must have length {n}")
        if not np.all(np.isfinite(flat)):
            raise InvariantError("encoder parameters must be finite")
        self.flat = flat
        w_size = embed_dim * feature_dim
        self.W = self.flat[:w_size].reshape(embed_dim, feature_dim)
        self.H = self.flat[w_size:].reshape(embed_dim, embed_dim) if hidden else None

    @staticmethod
    def n_params(feature_dim: int, embed_dim: int, hidden: bool) -> int:
        if feature_dim < 1 or embed_dim < 1:
            raise ValueError("dimensions must be >= 1")
        return embed_dim * feature_dim + (embed_dim * embed_dim if hidden else 0)

    @classmethod
    def init_random(
        cls, feature_dim: int, embed_dim: int, hidden: bool = False, seed: int = 0
    ) -> "Params":
        """Seeded uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer."""
        rng = np.random.Generator(np.random.PCG64(seed))
        w = rng.uniform(-1.0, 1.0, size=embed_dim * feature_dim) / np.sqrt(feature_dim)
        parts = [w]
        if hidden:
            h = rng.uniform(-1.0, 1.0, size=embed_dim * embed_dim) / np.sqrt(embed_dim)
            parts.append(h)
        return cls(feature_dim, embed_dim, hidden, flat=np.concatenate(parts))

    def copy(self) -> "Params":
        return Params(self.feature_dim, self.embed_dim, self.hidden, flat=self.flat.copy())

    def __len__(self) -> int:
        return self.flat.shape[0]


def _check_features(params: Params, fv: FeatureVector) -> None:
    if fv.dim != params.feature_dim:
        raise ValueError(
            f"feature dim {fv.dim} does not match encoder feature dim {params.feature_dim}"
        )


def encode(params: Params, fv: FeatureVector) -> np.ndarray:
    """Embed one feature vector: W @ x, then tanh(H @ .) when the hidden layer is on."""
    _check_features(params, fv)
    z = params.W[:, fv.indices] @ fv.counts
    if params.H is None:
        return z
    return np.tanh(params.H @ z)


def encode_many(params: Params, fvs: Sequence[FeatureVector]) -> np.ndarray:
    """One `encode` row per feature vector.

    A `FeatureVector` object that repeats in `fvs` is encoded once and its
    row copied (keyed on object identity; `fvs` keeps the objects alive for
    the call). `encode` is a pure function of (params, fv), so the rows equal
    those of per-item `encode` bit for bit.
    """
    out = np.empty((len(fvs), params.embed_dim), dtype=np.float64)
    first: dict[int, int] = {}
    for i, fv in enumerate(fvs):
        j = first.setdefault(id(fv), i)
        out[i] = encode(params, fv) if j == i else out[j]
    return out


def score(params: Params, q_features: FeatureVector, d_features: FeatureVector) -> float:
    """Relevance score: dot product of the two embeddings."""
    return float(encode(params, q_features) @ encode(params, d_features))


def _count_matrix(fvs: Sequence[FeatureVector]) -> tuple[np.ndarray, np.ndarray]:
    """The sorted columns the items touch, and the items' counts on them (items x columns)."""
    indices = np.concatenate([fv.indices for fv in fvs] or [np.empty(0, dtype=np.int64)])
    cols, where = np.unique(indices, return_inverse=True)
    rows = np.repeat(np.arange(len(fvs)), [fv.indices.size for fv in fvs])
    x = np.zeros((len(fvs), cols.size))
    x[rows, where] = np.concatenate([fv.counts for fv in fvs] or [np.empty(0)])
    return cols, x


def grouped_backward(
    params: Params,
    fvs: Sequence[FeatureVector],
    emb_grads: np.ndarray,
    groups: np.ndarray,
    n_groups: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-group parameter gradients on the feature columns the items touch.

    `emb_grads[i]` is d(loss)/d(embedding of fvs[i]) and `groups[i]` in
    [0, n_groups) is item i's group. Returns (cols, rows): the sorted feature
    columns any item touches, and row g = [vec dW[:, cols] | vec dH], the
    gradient of group g's items (dH only with the hidden layer). Every other
    column of dW is zero, so inner products and weighted sums of rows equal
    those of the dense gradients.
    """
    emb_grads = np.asarray(emb_grads, dtype=np.float64)
    if emb_grads.shape != (len(fvs), params.embed_dim):
        raise ValueError("emb_grads must be (n_items, embed_dim)")
    groups = np.asarray(groups)
    if groups.shape != (len(fvs),):
        raise ValueError("groups must hold one group per item")
    for fv in fvs:
        _check_features(params, fv)
    cols, x = _count_matrix(fvs)
    w_grads = emb_grads
    if params.H is not None:
        z = x @ params.W[:, cols].T
        e = np.tanh(z @ params.H.T)
        t = emb_grads * (1.0 - e * e)
        w_grads = t @ params.H
    w_size = params.embed_dim * cols.size
    h_size = 0 if params.H is None else params.H.size
    rows = np.zeros((n_groups, w_size + h_size))
    for g in range(n_groups):
        members = groups == g
        rows[g, :w_size] = (w_grads[members].T @ x[members]).ravel()
        if params.H is not None:
            rows[g, w_size:] = (t[members].T @ z[members]).ravel()
    return cols, rows


def scatter_grad(params: Params, cols: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The dense vector, aligned with ``params.flat``, of one `grouped_backward` row."""
    grad = np.zeros_like(params.flat)
    w_size = params.embed_dim * params.feature_dim
    grad[:w_size].reshape(params.embed_dim, params.feature_dim)[:, cols] = (
        row[: params.embed_dim * cols.size].reshape(params.embed_dim, cols.size)
    )
    grad[w_size:] = row[params.embed_dim * cols.size :]
    return grad


def embedding_backward(
    params: Params, fvs: Sequence[FeatureVector], emb_grads: np.ndarray
) -> np.ndarray:
    """Chain per-item embedding gradients back to a flat parameter gradient.

    `emb_grads[i]` is d(loss)/d(embedding of fvs[i]); items sharing buckets
    accumulate. The one-group case of `grouped_backward`, returned as a dense
    vector aligned with ``params.flat``.
    """
    cols, rows = grouped_backward(params, fvs, emb_grads, np.zeros(len(fvs), dtype=np.intp), 1)
    return scatter_grad(params, cols, rows[0])


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Dense row-per-item embeddings with aligned item ids."""

    ids: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        if self.matrix.ndim != 2 or self.matrix.shape[0] != len(self.ids):
            raise ValueError("embedding matrix must have one row per id")
        if not np.all(np.isfinite(self.matrix)):
            raise InvariantError("embeddings must be finite")

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def width(self) -> int:
        return self.matrix.shape[1]


def embed_items(params: Params, featurizer: Featurizer, items: Iterable) -> EmbeddingMatrix:
    """Embed anything carrying ``.id`` and ``.tokens`` (documents or queries)."""
    items = list(items)
    fvs = featurizer.many(item.tokens for item in items)
    return EmbeddingMatrix(
        ids=tuple(item.id for item in items), matrix=encode_many(params, fvs)
    )


_CHECKPOINT_FIELDS = {"feature_dim": int, "embed_dim": int, "hidden": bool, "hash_seed": int,
                      "dtype": str, "n_params": int}


def save_checkpoint(params: Params, path: str | Path, hash_seed: int = 0) -> None:
    """Write a checkpoint (see `blobfile`): the encoder's shape, then its flat weights."""
    fields = {"feature_dim": params.feature_dim, "embed_dim": params.embed_dim,
              "hidden": params.hidden, "hash_seed": hash_seed, "dtype": "<f8",
              "n_params": len(params)}
    blobfile.write(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, fields, [params.flat])


def _checkpoint_lengths(header: dict) -> list[int]:
    n = Params.n_params(header["feature_dim"], header["embed_dim"], header["hidden"])
    if header["dtype"] != "<f8" or header["n_params"] != n:
        raise ValueError(f"dtype and n_params must be '<f8' and {n} for these dimensions")
    return [n]


def load_checkpoint(path: str | Path) -> tuple[Params, dict]:
    """Bit-exact reload of a checkpoint. Returns (params, header)."""
    header, (flat,) = blobfile.read(
        path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, _CHECKPOINT_FIELDS, _checkpoint_lengths
    )
    return Params(header["feature_dim"], header["embed_dim"], header["hidden"], flat=flat), header
