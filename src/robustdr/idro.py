"""Cluster-robust loss weighting.

Per-cluster losses are combined with two weight vectors: difficulty weights
``alpha_i = loss_i**beta / sum_j loss_j**beta`` and robust weights ``omega``
living on the simplex. ``omega`` follows a closed-form multiplicative update
driven by the loss/gradient similarity matrix

    r[i, j] = (loss_i * loss_j)**beta * dot(grad_i, grad_j)

so clusters whose gradients agree with the others gain weight, anchored to the
previous step by a KL term of strength ``tau``. A baseline that simply
upweights high-loss groups is also provided. Both updates touch only the
clusters present in the batch and share one mass-preserving exponentiated
step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvariantError

_SIMPLEX_ATOL = 1e-9


def _check_simplex(omega: np.ndarray, name: str = "omega") -> None:
    if np.any(omega <= 0.0) or abs(float(omega.sum()) - 1.0) > _SIMPLEX_ATOL:
        raise ValueError(f"{name} must be strictly positive and sum to 1")


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
    """Pairwise loss/gradient similarity: (loss_i*loss_j)**beta * dot(g_i, g_j)."""
    losses = np.asarray(losses, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if grads.ndim != 2 or grads.shape[0] != losses.shape[0]:
        raise ValueError("grads must be a [n_clusters, n_params] matrix")
    return np.outer(losses, losses) ** beta * (grads @ grads.T)


def _exp_update(omega_prev: np.ndarray, z: np.ndarray, present: np.ndarray) -> np.ndarray:
    """omega_i ~ omega_prev_i * exp(z_i) over the present clusters, with max-subtraction,
    rescaled to keep their total mass; absent clusters keep their weight exactly."""
    _check_simplex(omega_prev, "omega_prev")
    present = np.asarray(present, dtype=bool)
    if not present.any():
        return omega_prev.copy()
    idx = np.flatnonzero(present)
    z = z[idx] - z[idx].max()
    e = np.exp(z)
    mass = omega_prev[idx].sum()
    scale = mass / float((omega_prev[idx] * e).sum())
    out = omega_prev.copy()
    # The 1e-300 floor keeps weights strictly positive under extreme
    # concentration; it is far below any tolerance used downstream.
    out[idx] = np.maximum(omega_prev[idx] * e * scale, 1e-300)
    return out


def omega_update_masked(
    omega_prev: np.ndarray, r: np.ndarray, tau: float, present: np.ndarray
) -> np.ndarray:
    """Closed-form robust-weight update, exponents sum_j r[i, j] / tau; tau = inf freezes."""
    omega_prev = np.asarray(omega_prev, dtype=np.float64)
    if not tau > 0:
        raise ValueError("tau must be > 0")
    if math.isinf(tau):
        _check_simplex(omega_prev, "omega_prev")
        return omega_prev.copy()
    return _exp_update(omega_prev, np.asarray(r).sum(axis=1) / tau, present)


def groupdro_update_masked(
    omega_prev: np.ndarray, losses: np.ndarray, step_size: float, present: np.ndarray
) -> np.ndarray:
    """Baseline weighting that upweights high-loss clusters: exponents step_size * loss_i."""
    return _exp_update(
        np.asarray(omega_prev, dtype=np.float64),
        step_size * np.asarray(losses, dtype=np.float64),
        present,
    )


@dataclass
class GroupState:
    """Per-cluster bookkeeping: losses, difficulty weights, robust weights."""

    n_clusters: int
    beta: float
    tau: float
    losses: np.ndarray
    alpha: np.ndarray
    omega: np.ndarray
    step: int = 0

    @classmethod
    def initial(cls, n_clusters: int, beta: float, tau: float) -> "GroupState":
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        uniform = np.full(n_clusters, 1.0 / n_clusters)
        return cls(
            n_clusters=n_clusters,
            beta=beta,
            tau=tau,
            losses=np.zeros(n_clusters),
            alpha=uniform.copy(),
            omega=uniform.copy(),
            step=0,
        )


def idro_loss(
    item_losses: np.ndarray, item_clusters: np.ndarray, state: GroupState
) -> tuple[float, GroupState]:
    """Combine per-item losses into the cluster-weighted scalar objective.

    Cluster losses are means over the cluster's batch members. Clusters absent
    from the batch contribute nothing and keep their previous bookkeeping.
    Difficulty weights alpha are recomputed from the present clusters, and the
    scalar is  sum_i alpha_i*omega_i*loss_i / sum_i alpha_i*omega_i  over the
    present clusters, so its scale does not depend on batch composition.
    """
    item_losses = np.asarray(item_losses, dtype=np.float64)
    item_clusters = np.asarray(item_clusters, dtype=np.int64)
    if item_losses.shape != item_clusters.shape:
        raise ValueError("item_losses and item_clusters must align")
    if item_losses.size == 0:
        raise ValueError("cannot weight an empty batch")
    if np.any(item_clusters < 0) or np.any(item_clusters >= state.n_clusters):
        raise InvariantError("batch item mapped to an unknown cluster")

    counts = np.bincount(item_clusters, minlength=state.n_clusters)
    sums = np.bincount(item_clusters, weights=item_losses, minlength=state.n_clusters)
    present = counts > 0
    means = np.zeros(state.n_clusters)
    means[present] = sums[present] / counts[present]

    alpha_present = alpha_weights(means[present], state.beta)
    alpha = np.zeros(state.n_clusters)
    alpha[present] = alpha_present

    weights = alpha[present] * state.omega[present]
    scalar = float((weights * means[present]).sum() / weights.sum())

    new_losses = state.losses.copy()
    new_losses[present] = means[present]
    new_state = replace(state, losses=new_losses, alpha=alpha)
    return scalar, new_state


def combine_cluster_grads(
    grads: np.ndarray, alpha: np.ndarray, omega: np.ndarray, present: np.ndarray
) -> np.ndarray:
    """Gradient of the weighted scalar objective with the weights held fixed.

    Returns  sum_i alpha_i*omega_i*g_i / sum_i alpha_i*omega_i  over present
    clusters.
    """
    present = np.asarray(present, dtype=bool)
    idx = np.flatnonzero(present)
    if idx.size == 0:
        raise ValueError("no present clusters to combine")
    weights = (np.asarray(alpha, dtype=np.float64) * np.asarray(omega, dtype=np.float64))[idx]
    combined = weights @ np.asarray(grads, dtype=np.float64)[idx]
    return combined / float(weights.sum())
