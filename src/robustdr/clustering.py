"""K-Means over query embeddings, refreshed at episode boundaries.

Embeddings are L2-normalized before clustering by default (dot-product
similarity is unbounded under centroid updates, so clustering runs as squared
Euclidean on the unit sphere); retrieval scoring elsewhere stays unnormalized.
``kmeans_fit(normalize=False)`` runs raw-Euclidean K-Means instead, for
sensitivity checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import blobfile
from .encoder import EmbeddingMatrix
from .errors import InvariantError

CLUSTER_FORMAT = "robustdr-clusters"
CLUSTER_VERSION = 1


@dataclass
class ClusterModel:
    n_clusters: int
    centroids: np.ndarray  # [K, E]
    assignment: dict[str, int]
    objective: float
    normalized: bool
    objective_history: list[float] = field(default_factory=list)


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


def kmeans_fit(
    embeddings: EmbeddingMatrix,
    n_clusters: int,
    seed: int = 0,
    max_iters: int = 100,
    normalize: bool = True,
) -> ClusterModel:
    """Lloyd iterations from k-means++ seeding; deterministic given the seed.

    The objective (sum of squared distances to assigned centroids, under the
    configured metric) is checked to be non-increasing every iteration; empty
    clusters are repaired by reseeding to the point farthest from its centroid.
    The points' squared norms are computed once per fit, and each centroid
    sum adds its points in index order, one ``bincount`` per column.
    """
    n = len(embeddings)
    if n == 0:
        raise ValueError("cannot cluster an empty embedding matrix")
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    if n < n_clusters:
        raise ValueError(f"need at least {n_clusters} points for {n_clusters} clusters, got {n}")

    x = embeddings.matrix.astype(np.float64, copy=True)
    if normalize:
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

    assignment = {doc_id: int(label) for doc_id, label in zip(embeddings.ids, labels)}
    return ClusterModel(
        n_clusters=n_clusters,
        centroids=centroids,
        assignment=assignment,
        objective=history[-1],
        normalized=normalize,
        objective_history=history,
    )


def save_cluster_model(model: ClusterModel, path: str | Path) -> None:
    """Write the model's scalars and assignment in the header, its centroids as the one block."""
    fields = {"n_clusters": model.n_clusters, "width": int(model.centroids.shape[1]),
              "normalized": model.normalized, "objective": model.objective,
              "assignment": model.assignment}
    blobfile.write(path, CLUSTER_FORMAT, CLUSTER_VERSION, fields, [model.centroids])


def load_cluster_model(path: str | Path) -> ClusterModel:
    def centroid_length(fields: dict) -> list[int]:
        k = fields["n_clusters"]
        if k < 1 or fields["width"] < 1:
            raise ValueError("n_clusters and width must be >= 1")
        if not all(type(c) is int and 0 <= c < k for c in fields["assignment"].values()):
            raise ValueError(f"assignment names a cluster outside [0, {k})")
        return [k * fields["width"]]

    fields, (centroids,) = blobfile.read(
        path, CLUSTER_FORMAT, CLUSTER_VERSION,
        {"n_clusters": int, "width": int, "normalized": bool, "objective": (int, float),
         "assignment": dict},
        centroid_length,
    )
    k = fields["n_clusters"]
    return ClusterModel(k, centroids.reshape(k, fields["width"]), fields["assignment"],
                        float(fields["objective"]), fields["normalized"])
