"""Spherical K-Means over query embeddings, refreshed at episode boundaries.

Embeddings are L2-normalized before clustering (dot-product similarity is
unbounded under centroid updates, so clustering runs as squared Euclidean on
the unit sphere); retrieval scoring elsewhere stays unnormalized. A fit is
arrays from end to end: the centroids, and each point's cluster in row order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import blobfile
from .errors import BlobFileError, InvariantError

CLUSTER_FORMAT = "robustdr-clusters"
CLUSTER_VERSION = 2


@dataclass(frozen=True)
class ClusterModel:
    centroids: np.ndarray  # [K, E]
    labels: np.ndarray  # [N] int64, row i's cluster; read-only
    objective: float
    objective_history: tuple[float, ...]


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """Each row of a 2-d float64 array over its L2 norm; zero rows stay zero."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(norms > 0.0, norms, 1.0)


def _sq_dists(x: np.ndarray, xx: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # ||x - c||^2 expanded, with xx = sum(x * x, axis=1); clamp tiny negatives
    # from cancellation.
    d = xx[:, None] - 2.0 * (x @ centroids.T) + np.sum(centroids * centroids, axis=1)[None, :]
    return np.maximum(d, 0.0)


def _kmeanspp_seed(x: np.ndarray, xx: np.ndarray, k: int,
                   rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = x[first]
    closest = _sq_dists(x, xx, centroids[:1]).ravel()
    for j in range(1, k):
        total = float(closest.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))  # all points coincide with a centroid
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(closest), r, side="right"))
            idx = min(idx, n - 1)
        centroids[j] = x[idx]
        closest = np.minimum(closest, _sq_dists(x, xx, centroids[j : j + 1]).ravel())
    return centroids


def kmeans_fit(x: np.ndarray, n_clusters: int, seed: int = 0,
               max_iters: int = 100) -> ClusterModel:
    """Lloyd iterations on the L2-normalized rows of ``x`` (one point per row),
    from k-means++ seeding; deterministic given the seed.

    The objective (sum of squared distances to assigned centroids) is checked to
    be non-increasing every iteration; empty clusters are repaired by reseeding
    to the point farthest from its centroid. The points' squared norms are
    computed once per fit, and each centroid sum adds its points in index order,
    one ``bincount`` per column. A non-finite point is an InvariantError.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("k-means needs a 2-d array, one row per point")
    if not np.all(np.isfinite(x)):
        raise InvariantError("embeddings must be finite")
    n = len(x)
    if n == 0:
        raise ValueError("cannot cluster an empty embedding matrix")
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    if n < n_clusters:
        raise ValueError(f"need at least {n_clusters} points for {n_clusters} clusters, got {n}")

    x = normalize_rows(x)
    xx = np.sum(x * x, axis=1)
    rng = np.random.Generator(np.random.PCG64(seed))
    centroids = _kmeanspp_seed(x, xx, n_clusters, rng)

    labels = np.full(n, -1, dtype=np.int64)
    history: list[float] = []
    for _ in range(max_iters):
        dists = _sq_dists(x, xx, centroids)
        new_labels = np.argmin(dists, axis=1)  # ties -> lowest cluster index
        point_d = dists[np.arange(n), new_labels]

        # Repair empty clusters one at a time by reseeding to the farthest
        # point whose source cluster keeps >= 1 member after the steal.
        while True:
            counts = np.bincount(new_labels, minlength=n_clusters)
            empty = np.flatnonzero(counts == 0)
            if empty.size == 0:
                break
            k = int(empty[0])
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

        sums = np.empty_like(centroids)
        for d in range(x.shape[1]):
            sums[:, d] = np.bincount(labels, weights=x[:, d], minlength=n_clusters)
        counts = np.bincount(labels, minlength=n_clusters)
        centroids = sums / counts[:, None]

    labels.flags.writeable = False
    return ClusterModel(centroids, labels, history[-1], tuple(history))


def save_cluster_model(model: ClusterModel, path: str | Path) -> None:
    """Write the model's scalars in the header, then two blocks: its centroids,
    and its labels as float64, which holds every label exactly."""
    k, width = model.centroids.shape
    fields = {"n_clusters": k, "width": width, "n_points": len(model.labels),
              "objective": model.objective}
    blobfile.write(path, CLUSTER_FORMAT, CLUSTER_VERSION, fields,
                   [model.centroids, model.labels])


def load_cluster_model(path: str | Path) -> ClusterModel:
    """Read a `save_cluster_model` file, whose labels must each be a cluster id in
    ``[0, n_clusters)``; the file holds no objective history, so it loads empty."""
    def block_lengths(fields: dict) -> list[int]:
        k, width, n = fields["n_clusters"], fields["width"], fields["n_points"]
        if k < 1 or width < 1 or n < k:
            raise ValueError("n_clusters and width must be >= 1, and n_points >= n_clusters")
        return [k * width, n]

    fields, (centroids, labels) = blobfile.read(
        path, CLUSTER_FORMAT, CLUSTER_VERSION,
        {"n_clusters": int, "width": int, "n_points": int, "objective": (int, float)},
        block_lengths,
    )
    k = fields["n_clusters"]
    if not np.all((labels >= 0) & (labels < k) & (labels == np.floor(labels))):
        raise BlobFileError(f"{path}: block 1 holds a label that is not a cluster id "
                            f"in [0, {k})")
    labels = labels.astype(np.int64)
    labels.flags.writeable = False
    return ClusterModel(centroids.reshape(k, fields["width"]), labels,
                        float(fields["objective"]), ())
