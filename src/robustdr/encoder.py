"""Desk-scale dual encoder: hashed lexical features -> dense embedding.

One weight set serves both the query and the document tower; the relevance
score of a (query, document) pair is the plain dot product of their
embeddings, with no normalization. Forward and backward passes are exact and
hand-derived so per-group gradients stay available to the robust-weighting
machinery.
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
    """Deterministic seeded hashing of tokens into `dim` count buckets."""

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
        counts: dict[int, float] = {}
        for token in tokens:
            idx = self.bucket(token)
            counts[idx] = counts.get(idx, 0.0) + 1.0
        if not counts:
            return FeatureVector(
                indices=np.empty(0, dtype=np.int64),
                counts=np.empty(0, dtype=np.float64),
                dim=self.dim,
            )
        order = sorted(counts)
        return FeatureVector(
            indices=np.array(order, dtype=np.int64),
            counts=np.array([counts[i] for i in order], dtype=np.float64),
            dim=self.dim,
        )


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
    out = np.empty((len(fvs), params.embed_dim), dtype=np.float64)
    for i, fv in enumerate(fvs):
        out[i] = encode(params, fv)
    return out


def score(params: Params, q_features: FeatureVector, d_features: FeatureVector) -> float:
    """Relevance score: dot product of the two embeddings."""
    return float(encode(params, q_features) @ encode(params, d_features))


def embedding_backward(
    params: Params, fvs: Sequence[FeatureVector], emb_grads: np.ndarray
) -> np.ndarray:
    """Chain per-item embedding gradients back to a flat parameter gradient.

    `emb_grads[i]` is d(loss)/d(embedding of fvs[i]); items sharing buckets
    accumulate. Returns a dense vector aligned with ``params.flat``.
    """
    emb_grads = np.asarray(emb_grads, dtype=np.float64)
    if emb_grads.shape != (len(fvs), params.embed_dim):
        raise ValueError("emb_grads must be (n_items, embed_dim)")
    grad = np.zeros_like(params.flat)
    w_size = params.embed_dim * params.feature_dim
    grad_w = grad[:w_size].reshape(params.embed_dim, params.feature_dim)
    grad_h = None if params.H is None else grad[w_size:].reshape(params.embed_dim, params.embed_dim)
    for fv, g_e in zip(fvs, emb_grads):
        _check_features(params, fv)
        if fv.indices.size == 0:
            continue
        if params.H is None:
            grad_w[:, fv.indices] += np.outer(g_e, fv.counts)
        else:
            z = params.W[:, fv.indices] @ fv.counts
            e = np.tanh(params.H @ z)
            t = g_e * (1.0 - e * e)
            grad_h += np.outer(t, z)
            grad_w[:, fv.indices] += np.outer(params.H.T @ t, fv.counts)
    return grad


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
    fvs = [featurizer(item.tokens) for item in items]
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
