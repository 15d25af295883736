"""Independent reference implementations the tests compare the package against."""

import heapq
import math

import numpy as np

from robustdr.idro import r_matrix
from robustdr.retrieval_eval import DenseIndex, RankedList


class OracleConvergenceError(RuntimeError):
    """A numerical reference optimizer failed to converge within its iteration cap."""


def omega_oracle(
    omega_prev: np.ndarray,
    losses: np.ndarray,
    grads: np.ndarray,
    tau: float,
    beta: float,
    eta: float = 1.0,
    tol: float = 1e-8,
    max_iters: int = 10_000,
) -> np.ndarray:
    """Numerically minimize the robust-weight objective on the simplex.

    Minimizes  -eta * sum_i omega_i * s_i  +  tau * KL(omega || omega_prev)
    with s_i = sum_j r[i, j], via exponentiated-gradient descent, independent
    of the closed form in `omega_update_masked` (which it matches for eta = 1;
    other eta values only rescale the effective tau).
    """
    omega_prev = np.asarray(omega_prev, dtype=np.float64)
    if not tau > 0:
        raise ValueError("tau must be > 0")
    if np.any(omega_prev <= 0.0) or abs(float(omega_prev.sum()) - 1.0) > 1e-9:
        raise ValueError("omega_prev must be strictly positive and sum to 1")
    k = omega_prev.shape[0]
    if k == 1:
        return np.ones(1)
    if math.isinf(tau):
        return omega_prev.copy()

    s = r_matrix(losses, grads, beta).sum(axis=1)
    w = omega_prev.copy()
    lr = 0.5 / tau
    for _ in range(max_iters):
        grad_obj = -eta * s + tau * (np.log(w / omega_prev) + 1.0)
        z = -lr * grad_obj
        z -= z.max()
        w_new = w * np.exp(z)
        w_new = np.maximum(w_new / w_new.sum(), 1e-300)
        if float(np.max(np.abs(w_new - w))) < tol:
            return w_new
        w = w_new
    raise OracleConvergenceError(
        f"simplex minimization did not converge within {max_iters} iterations"
    )


def search_dense_heap(
    index: DenseIndex, query_emb: np.ndarray, k: int, query_id: str = ""
) -> RankedList:
    """Same contract as `search_dense`, selected with a bounded heap instead."""
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = index.embeddings.matrix @ np.asarray(query_emb, dtype=np.float64)
    ids = index.embeddings.ids
    top = heapq.nsmallest(k, range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    return RankedList(query_id, tuple((ids[i], float(scores[i])) for i in top))
