import math

import numpy as np
import pytest

from robustdr.errors import InvariantError
from robustdr.idro import (
    alpha_weights,
    combine_cluster_grads,
    groupdro_update,
    idro_loss,
    omega_update,
    r_matrix,
)
from tests.oracles import OracleConvergenceError, omega_oracle


def omega_update_all(omega_prev, r, tau):
    """The update with every cluster present."""
    return omega_update(omega_prev, r, tau, np.arange(len(omega_prev)))


def groupdro_update_all(omega_prev, losses, step_size):
    """The baseline update with every cluster present."""
    return groupdro_update(omega_prev, losses, step_size, np.arange(len(omega_prev)))


def diag_r(s):
    """An r matrix whose row sums are exactly the given values."""
    return np.diag(np.asarray(s, dtype=np.float64))


def random_instance(rng, k=None, p=None):
    k = k or int(rng.integers(2, 9))
    p = p or int(rng.integers(2, 33))
    losses = rng.uniform(0.0, 2.0, size=k)
    grads = rng.normal(size=(k, p)) / np.sqrt(p)
    omega_prev = rng.dirichlet(np.ones(k) * 2.0)
    omega_prev = np.maximum(omega_prev, 1e-6)
    omega_prev /= omega_prev.sum()
    tau = float(rng.uniform(0.5, 5.0))
    beta = float(rng.uniform(0.0, 1.0))
    return losses, grads, omega_prev, tau, beta


class TestAlphaWeights:
    def test_beta_zero_uniform(self):
        np.testing.assert_array_equal(alpha_weights(np.array([3.0, 0.1, 7.0]), 0.0), np.full(3, 1 / 3))

    def test_hand_value(self):
        alpha = alpha_weights(np.array([1.0, 4.0]), 0.25)
        root2 = math.sqrt(2.0)
        np.testing.assert_allclose(alpha, [1 / (1 + root2), root2 / (1 + root2)], atol=1e-12)
        assert alpha[0] == pytest.approx(0.41421, abs=1e-5)
        assert alpha[1] == pytest.approx(0.58579, abs=1e-5)

    def test_equal_losses_uniform(self):
        np.testing.assert_allclose(alpha_weights(np.full(5, 0.37), 0.8), np.full(5, 0.2), atol=1e-15)

    def test_all_zero_losses_uniform(self):
        np.testing.assert_array_equal(alpha_weights(np.zeros(4), 0.25), np.full(4, 0.25))

    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError):
            alpha_weights(np.array([-0.1, 1.0]), 0.25)


class TestRMatrix:
    def test_zero_gradient_row_zeroes_row_and_col(self, rng):
        grads = rng.normal(size=(3, 8))
        grads[1] = 0.0
        r = r_matrix(np.array([1.0, 2.0, 3.0]), grads, 0.25)
        np.testing.assert_array_equal(r[1], np.zeros(3))
        np.testing.assert_array_equal(r[:, 1], np.zeros(3))

    def test_beta_zero_gram_matrix(self, rng):
        grads = rng.normal(size=(4, 6))
        np.testing.assert_allclose(
            r_matrix(rng.uniform(0.1, 2.0, 4), grads, 0.0), grads @ grads.T, atol=1e-12
        )

    def test_elementwise_brute_force(self, rng):
        losses, grads = rng.uniform(0.1, 2.0, 3), rng.normal(size=(3, 5))
        beta = 0.25
        r = r_matrix(losses, grads, beta)
        for i in range(3):
            for j in range(3):
                expected = (losses[i] * losses[j]) ** beta * float(grads[i] @ grads[j])
                assert r[i, j] == pytest.approx(expected, rel=1e-12)

    def test_symmetric(self, rng):
        losses, grads = rng.uniform(0.0, 2.0, 5), rng.normal(size=(5, 7))
        r = r_matrix(losses, grads, 0.5)
        np.testing.assert_allclose(r, r.T, atol=1e-12)


class TestOmegaUpdate:
    def test_zero_r_keeps_omega(self):
        omega = np.array([0.5, 0.25, 0.25])
        np.testing.assert_array_equal(omega_update_all(omega, np.zeros((3, 3)), 1.0), omega)

    def test_tau_infinite_freezes(self):
        omega = np.array([0.7, 0.3])
        out = omega_update_all(omega, diag_r([5.0, -3.0]), math.inf)
        np.testing.assert_array_equal(out, omega)

    def test_hand_value(self):
        out = omega_update_all(np.array([0.5, 0.5]), diag_r([1.0, 0.0]), 1.0)
        e = math.e
        np.testing.assert_allclose(out, [e / (e + 1), 1 / (e + 1)], atol=1e-12)
        assert out[0] == pytest.approx(0.731059, abs=1e-6)
        assert out[1] == pytest.approx(0.268941, abs=1e-6)

    def test_simplex_preserved(self, rng):
        for _ in range(50):
            losses, grads, omega_prev, tau, beta = random_instance(rng)
            out = omega_update_all(omega_prev, r_matrix(losses, grads, beta), tau)
            assert np.all(out > 0)
            assert abs(out.sum() - 1.0) < 1e-12

    def test_shift_invariance_of_row_sums(self, rng):
        omega_prev = np.array([0.2, 0.3, 0.5])
        s = rng.normal(size=3)
        base = omega_update_all(omega_prev, diag_r(s), 0.7)
        shifted = omega_update_all(omega_prev, diag_r(s + 11.3), 0.7)
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_monotone_influence(self):
        omega_prev = np.full(4, 0.25)
        s = np.array([0.1, 0.2, 0.3, 0.4])
        base = omega_update_all(omega_prev, diag_r(s), 1.0)
        s_up = s.copy()
        s_up[2] += 0.5
        bumped = omega_update_all(omega_prev, diag_r(s_up), 1.0)
        assert bumped[2] > base[2]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            omega_update_all(np.array([0.5, 0.5]), np.zeros((2, 2)), 0.0)
        with pytest.raises(ValueError):
            omega_update_all(np.array([0.9, 0.2]), np.zeros((2, 2)), 1.0)


class TestOmegaOracle:
    def test_matches_closed_form_on_random_instances(self, rng):
        for _ in range(30):
            losses, grads, omega_prev, tau, beta = random_instance(rng)
            closed = omega_update_all(omega_prev, r_matrix(losses, grads, beta), tau)
            numeric = omega_oracle(omega_prev, losses, grads, tau, beta, tol=1e-8)
            assert float(np.max(np.abs(closed - numeric))) < 1e-5

    def test_huge_tau_returns_previous(self, rng):
        losses, grads, omega_prev, _, beta = random_instance(rng, k=4)
        out = omega_oracle(omega_prev, losses, grads, tau=1e9, beta=beta)
        np.testing.assert_allclose(out, omega_prev, atol=1e-6)

    def test_k1_trivial(self):
        out = omega_oracle(np.ones(1), np.array([1.0]), np.ones((1, 3)), tau=1.0, beta=0.25)
        np.testing.assert_array_equal(out, np.ones(1))

    def test_eta_rescales_tau(self, rng):
        losses, grads, omega_prev, tau, beta = random_instance(rng, k=3)
        doubled_eta = omega_oracle(omega_prev, losses, grads, tau, beta, eta=2.0)
        halved_tau = omega_update_all(omega_prev, r_matrix(losses, grads, beta), tau / 2.0)
        np.testing.assert_allclose(doubled_eta, halved_tau, atol=1e-6)

    def test_nonconvergence_flagged(self, rng):
        losses, grads, omega_prev, tau, beta = random_instance(rng, k=4)
        with pytest.raises(OracleConvergenceError):
            omega_oracle(omega_prev, losses, grads, tau, beta, tol=0.0, max_iters=5)


class TestGroupdroUpdate:
    def test_equal_losses_unchanged(self):
        omega = np.array([0.25, 0.75])
        np.testing.assert_allclose(groupdro_update_all(omega, np.full(2, 1.3), 0.5), omega, atol=1e-15)

    def test_zero_step_unchanged(self):
        omega = np.array([0.4, 0.6])
        np.testing.assert_allclose(groupdro_update_all(omega, np.array([9.0, 0.1]), 0.0), omega, atol=1e-15)

    def test_hand_value(self):
        out = groupdro_update_all(np.array([0.5, 0.5]), np.array([1.0, 0.0]), 1.0)
        e = math.e
        np.testing.assert_allclose(out, [e / (e + 1), 1 / (e + 1)], atol=1e-12)

    def test_simplex_preserved(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 7))
            omega = rng.dirichlet(np.ones(k))
            omega = np.maximum(omega, 1e-9)
            omega /= omega.sum()
            out = groupdro_update_all(omega, rng.uniform(0, 3, k), 0.7)
            assert np.all(out > 0)
            assert abs(out.sum() - 1.0) < 1e-12


class TestMaskedUpdates:
    """Updates over the present clusters: `r` and the losses are given over the ids in `present`."""

    def test_absent_clusters_frozen_exactly(self, rng):
        losses, grads, omega_prev, tau, beta = random_instance(rng, k=5)
        present = np.array([0, 2, 4])
        r = r_matrix(losses[present], grads[present], beta)
        out = omega_update(omega_prev, r, tau, present)
        assert out[1] == omega_prev[1]
        assert out[3] == omega_prev[3]
        assert abs(out.sum() - omega_prev.sum()) < 1e-12
        assert out[present].sum() == pytest.approx(omega_prev[present].sum(), abs=1e-12)

    def test_all_equal_exponents_bitwise_frozen(self):
        omega_prev = np.array([0.15, 0.25, 0.6])
        out = omega_update(omega_prev, np.zeros((2, 2)), 2.0, np.array([0, 1]))
        np.testing.assert_array_equal(out, omega_prev)

    def test_groupdro_masked_freezes_absent(self):
        omega_prev = np.array([0.2, 0.3, 0.5])
        out = groupdro_update(omega_prev, np.array([2.0, 0.5]), 1.0, np.array([0, 2]))
        assert out[1] == omega_prev[1]
        assert out[0] > omega_prev[0] * 0.99  # high-loss present cluster gains within its mass
        assert abs(out.sum() - 1.0) < 1e-12

    def test_omega_update_rejects_mask_and_bad_ids(self):
        omega_prev = np.array([0.2, 0.3, 0.5])
        # a leftover boolean mask would otherwise be read as the ids 0 and 1
        for present in (np.array([True, False, True]), np.array([True, True]),
                        np.array([0, 3]), np.array([-1, 2]), np.array([2, 0])):
            for tau in (2.0, math.inf):
                with pytest.raises(ValueError, match="present"):
                    omega_update(omega_prev, np.ones((2, 2)), tau, present)

    def test_groupdro_update_rejects_mask_and_bad_ids(self):
        omega_prev = np.array([0.2, 0.3, 0.5])
        for present in (np.array([True, False, True]), np.array([True, True]),
                        np.array([0, 3]), np.array([-1, 2]), np.array([2, 0])):
            with pytest.raises(ValueError, match="present"):
                groupdro_update(omega_prev, np.array([2.0, 0.5]), 1.0, present)


class TestIdroLoss:
    def test_k1_reduces_to_plain_mean(self):
        item_losses = np.array([0.5, 1.5, 1.0])
        scalar, present, means, alpha = idro_loss(
            item_losses, np.zeros(3, dtype=np.int64), np.ones(1), 0.25
        )
        assert scalar == float(item_losses.mean())
        np.testing.assert_array_equal(present, [0])
        assert alpha[0] == 1.0

    def test_uniform_weights_mean_of_cluster_means(self):
        item_losses = np.array([1.0, 3.0, 5.0])
        clusters = np.array([0, 0, 1])
        scalar, *_ = idro_loss(item_losses, clusters, np.full(2, 0.5), 0.0)
        assert scalar == pytest.approx((2.0 + 5.0) / 2.0, abs=1e-12)

    def test_hand_computed_weighting(self):
        item_losses = np.array([1.0, 3.0, 4.0])
        clusters = np.array([0, 0, 1])
        scalar, present, means, alpha = idro_loss(item_losses, clusters, np.array([0.3, 0.7]), 0.25)
        l0, l1 = 2.0, 4.0
        a0 = l0**0.25 / (l0**0.25 + l1**0.25)
        a1 = l1**0.25 / (l0**0.25 + l1**0.25)
        expected = (a0 * 0.3 * l0 + a1 * 0.7 * l1) / (a0 * 0.3 + a1 * 0.7)
        assert scalar == pytest.approx(expected, rel=1e-12)
        np.testing.assert_array_equal(present, [0, 1])
        np.testing.assert_allclose(means, [l0, l1], atol=1e-15)
        np.testing.assert_allclose(alpha, [a0, a1], rtol=1e-12)

    def test_absent_clusters_take_no_part(self):
        """Only the present clusters are returned, and the absent clusters'
        weights do not change a bit of the result."""
        item_losses = np.array([3.0, 1.0, 2.0, 5.0])
        clusters = np.array([4, 1, 4, 1])
        omega = np.array([0.05, 0.2, 0.3, 0.05, 0.4])
        scalar, present, means, alpha = idro_loss(item_losses, clusters, omega, 0.25)
        np.testing.assert_array_equal(present, [1, 4])
        np.testing.assert_array_equal(means, [3.0, 2.5])
        assert alpha.tobytes() == alpha_weights(means, 0.25).tobytes()
        moved = np.array([0.3, 0.2, 0.02, 0.08, 0.4])  # same weights on clusters 1 and 4
        again = idro_loss(item_losses, clusters, moved, 0.25)
        assert again[0] == scalar
        for got, want in zip(again[1:], (present, means, alpha)):
            assert got.tobytes() == want.tobytes()
        # the same items relabelled as the only clusters give the same scalar
        compact, *_ = idro_loss(item_losses, np.array([1, 0, 1, 0]), omega[[1, 4]] / 0.6, 0.25)
        assert compact == pytest.approx(scalar, rel=1e-12)

    def test_unknown_cluster_rejected(self):
        with pytest.raises(InvariantError):
            idro_loss(np.array([1.0]), np.array([5]), np.full(2, 0.5), 0.25)

    def test_batch_scale_independence(self):
        """The same cluster losses give the same scalar at any batch composition."""
        omega = np.array([0.6, 0.4])
        skewed, *_ = idro_loss(np.array([2.0, 2.0, 2.0, 4.0]), np.array([0, 0, 0, 1]), omega, 0.25)
        balanced, *_ = idro_loss(np.array([2.0, 4.0]), np.array([0, 1]), omega, 0.25)
        assert skewed == pytest.approx(balanced, rel=1e-12)


class TestCombineClusterGrads:
    def test_matches_manual_weighting(self, rng):
        grads = rng.normal(size=(3, 7))
        alpha = np.array([0.2, 0.3, 0.5])
        omega = np.array([0.5, 0.25, 0.25])
        present = np.array([0, 2])
        out = combine_cluster_grads(grads[present], alpha[present], omega[present])
        w0, w2 = 0.2 * 0.5, 0.5 * 0.25
        expected = (w0 * grads[0] + w2 * grads[2]) / (w0 + w2)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_single_cluster_identity_bitwise(self, rng):
        grads = rng.normal(size=(1, 9))
        out = combine_cluster_grads(grads, np.ones(1), np.ones(1))
        assert out.tobytes() == grads[0].tobytes()


class TestTaylorApproximation:
    def test_quadratic_loss_reduction_matches_first_order(self, rng):
        """One gradient step on quadratic cluster losses: the measured
        difficulty-weighted loss reduction matches the first-order estimate
        -eta * sum_ij alpha_i alpha_j omega_i <g_j, g_i> to O(eta)."""
        k, p = 4, 6
        a_mats = [np.diag(rng.uniform(0.5, 2.0, p)) for _ in range(k)]
        centers = [rng.normal(size=p) for _ in range(k)]
        theta = rng.normal(size=p)

        def cluster_loss(i, th):
            d = th - centers[i]
            return 0.5 * float(d @ a_mats[i] @ d)

        def cluster_grad(i, th):
            return a_mats[i] @ (th - centers[i])

        losses = np.array([cluster_loss(i, theta) for i in range(k)])
        grads = np.vstack([cluster_grad(i, theta) for i in range(k)])
        alpha = alpha_weights(losses, 0.25)
        omega = rng.dirichlet(np.ones(k))

        direction = (alpha * omega) @ grads  # gradient of the weighted objective
        for eta in (1e-3, 1e-4):
            theta_new = theta - eta * direction
            measured = sum(
                alpha[i] * (cluster_loss(i, theta_new) - cluster_loss(i, theta))
                for i in range(k)
            )
            approx = -eta * float(alpha @ (grads @ direction))
            assert measured == pytest.approx(approx, rel=50 * eta)
