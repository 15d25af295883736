"""Cluster-robust loss weighting.

Per-cluster losses are combined with two weight vectors: difficulty weights
``alpha_i = loss_i**beta / sum_j loss_j**beta`` and robust weights ``omega``
living on the simplex. ``omega`` follows a closed-form multiplicative update
driven by the loss/gradient similarity matrix

    r[i, j] = (loss_i * loss_j)**beta * dot(grad_i, grad_j)

so clusters whose gradients agree with the others gain weight, anchored to the
previous step by a KL term of strength ``tau``. A baseline that simply
upweights high-loss groups is also provided. Both updates share one
mass-preserving exponentiated step.

``omega`` is the only state carried from step to step. Everything else is
recomputed from each batch in present-cluster coordinates. A batch's
`ClusterLayout`, made once per step from one stable sort of its items'
cluster ids, holds the ascending ids of the clusters present in the batch,
each item's group (its cluster's position among them), the group sizes and
the items group by group; the loss (`losses.retrieval_cluster_grads`), the
weighting (`idro_loss`) and the backward all read that one layout. The
cluster losses, ``alpha``, the gradient rows and ``r`` are given over the
present ids in ascending order. The updates change the weights of the present
clusters only; absent clusters keep theirs exactly.

The per-cluster gradients reach `r_matrix` and `combine_cluster_grads` as one
row per present cluster restricted to the feature columns the batch touches
(`encoder.grouped_backward`): the gradients are zero elsewhere, so their inner
products and weighted sums are those of the dense gradients, at the size of
the batch rather than of the encoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError

_SIMPLEX_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class ClusterLayout:
    """A batch's items grouped by cluster, from one stable sort of their cluster ids.

    ``present`` holds the ascending ids of the clusters with an item in the
    batch, ``group[i]`` the position in ``present`` of item i's cluster, and
    ``sizes`` each present cluster's item count. ``order`` lists the items
    group by group, each group in item order, so group g is
    ``order[bounds[g]:bounds[g + 1]]``. ``len`` counts the items.
    """

    present: np.ndarray
    group: np.ndarray
    sizes: np.ndarray
    order: np.ndarray
    bounds: np.ndarray

    @classmethod
    def of(cls, item_clusters: np.ndarray) -> "ClusterLayout":
        """The layout of a batch whose item i is in cluster ``item_clusters[i]``."""
        ids = np.asarray(item_clusters, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError("item clusters must be a 1-D array of cluster ids")
        order = np.argsort(ids, kind="stable")
        ranked = ids[order]
        new = np.ones(ids.size, dtype=bool)  # an item opening its group, in group order
        np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
        group = np.empty(ids.size, dtype=np.intp)
        group[order] = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        bounds = np.empty(starts.size + 1, dtype=np.intp)
        bounds[:-1], bounds[-1] = starts, ids.size
        return cls(ranked[new], group, bounds[1:] - bounds[:-1], order, bounds)

    def __len__(self) -> int:
        return self.group.size


def alpha_weights(losses: np.ndarray, beta: float) -> np.ndarray:
    """Difficulty weights proportional to loss**beta, normalized to sum to 1.

    beta = 0 or an all-zero loss vector gives uniform weights.
    """
    losses = np.asarray(losses, dtype=np.float64)
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if np.any(losses < 0):
        raise ValueError("per-cluster losses must be >= 0")
    powered = losses**beta
    total = float(powered.sum())
    if total == 0.0:
        return np.full(losses.shape[0], 1.0 / losses.shape[0])
    return powered / total


def r_matrix(losses: np.ndarray, grads: np.ndarray, beta: float) -> np.ndarray:
    """Pairwise loss/gradient similarity: (loss_i*loss_j)**beta * dot(g_i, g_j).

    `grads` has one row per cluster, dense or on the batch's touched columns.
    """
    losses = np.asarray(losses, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if grads.ndim != 2 or grads.shape[0] != losses.shape[0]:
        raise ValueError("grads must be a [n_clusters, n_params] matrix")
    return np.outer(losses, losses) ** beta * (grads @ grads.T)


def _checked_ids(omega_prev: np.ndarray, present: np.ndarray) -> np.ndarray:
    """The cluster ids in `present`, after checking them and the simplex `omega_prev`."""
    if np.any(omega_prev <= 0.0) or abs(float(omega_prev.sum()) - 1.0) > _SIMPLEX_ATOL:
        raise ValueError("omega_prev must be strictly positive and sum to 1")
    ids = np.asarray(present)
    if ids.ndim != 1 or ids.dtype.kind not in "iu":
        raise ValueError("present must be a 1-D array of cluster ids, not a mask")
    k = omega_prev.shape[0]
    if ids.size and (ids[0] < 0 or ids[-1] >= k or np.any(np.diff(ids) <= 0)):
        raise ValueError(f"present must hold ascending distinct ids in [0, {k})")
    return ids


def _exp_update(omega_prev: np.ndarray, z: np.ndarray, present: np.ndarray) -> np.ndarray:
    """omega_i ~ omega_prev_i * exp(z_i) over the present clusters (z is given over
    them), with max-subtraction, rescaled to keep their total mass; absent
    clusters keep their weight exactly."""
    idx = _checked_ids(omega_prev, present)
    if idx.size == 0:
        return omega_prev.copy()
    e = np.exp(z - z.max())
    mass = omega_prev[idx].sum()
    scale = mass / float((omega_prev[idx] * e).sum())
    out = omega_prev.copy()
    # The 1e-300 floor keeps weights strictly positive under extreme
    # concentration; it is far below any tolerance used downstream.
    out[idx] = np.maximum(omega_prev[idx] * e * scale, 1e-300)
    return out


def omega_update(
    omega_prev: np.ndarray, r: np.ndarray, tau: float, present: np.ndarray
) -> np.ndarray:
    """Closed-form robust-weight update, exponents sum_j r[i, j] / tau; tau = inf freezes.

    `present` holds ascending cluster ids and `r` is their P x P similarity
    matrix (`r_matrix`); clusters not in `present` keep their weight exactly.
    """
    omega_prev = np.asarray(omega_prev, dtype=np.float64)
    if not tau > 0:
        raise ValueError("tau must be > 0")
    if math.isinf(tau):
        _checked_ids(omega_prev, present)
        return omega_prev.copy()
    return _exp_update(omega_prev, np.asarray(r).sum(axis=1) / tau, present)


def groupdro_update(
    omega_prev: np.ndarray, losses: np.ndarray, step_size: float, present: np.ndarray
) -> np.ndarray:
    """Baseline weighting that upweights high-loss clusters: exponents step_size * loss_i.

    `losses` are given over the ascending cluster ids in `present`; clusters
    not in `present` keep their weight exactly.
    """
    return _exp_update(
        np.asarray(omega_prev, dtype=np.float64),
        step_size * np.asarray(losses, dtype=np.float64),
        present,
    )


def idro_loss(
    item_losses: np.ndarray, clusters: ClusterLayout, omega: np.ndarray, beta: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Combine per-item losses into the cluster-weighted scalar objective.

    ``clusters`` is the batch's `ClusterLayout`. Cluster losses are means over
    the cluster's batch members; clusters absent from the batch take no part.
    Difficulty weights alpha are computed from the present clusters' losses,
    and the scalar is
    sum_i alpha_i*omega_i*loss_i / sum_i alpha_i*omega_i  over the present
    clusters, so its scale does not depend on batch composition. Returns
    (scalar, present cluster ids ascending, their mean losses, their alpha).
    """
    item_losses = np.asarray(item_losses, dtype=np.float64)
    omega = np.asarray(omega, dtype=np.float64)
    present = clusters.present
    if item_losses.shape != clusters.group.shape:
        raise ValueError("item_losses and the cluster layout must align")
    if item_losses.size == 0:
        raise ValueError("cannot weight an empty batch")
    if present[0] < 0 or present[-1] >= omega.shape[0]:
        raise InvariantError("batch item mapped to an unknown cluster")

    means = np.bincount(clusters.group, weights=item_losses) / clusters.sizes
    alpha = alpha_weights(means, beta)
    weights = alpha * omega[present]
    scalar = float((weights * means).sum() / weights.sum())
    return scalar, present, means, alpha


def combine_cluster_grads(grads: np.ndarray, alpha: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Gradient of the weighted scalar objective with the weights held fixed.

    Returns  sum_i alpha_i*omega_i*g_i / sum_i alpha_i*omega_i  over the rows
    of `grads`, one per present cluster, in their layout (dense, or on the
    batch's touched columns for `encoder.scatter_grad`).
    """
    weights = np.asarray(alpha, dtype=np.float64) * np.asarray(omega, dtype=np.float64)
    if weights.size == 0:
        raise ValueError("no present clusters to combine")
    combined = weights @ np.asarray(grads, dtype=np.float64)
    return combined / float(weights.sum())
