import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from robustdr.clustering import kmeans_fit, load_cluster_model, save_cluster_model
from robustdr.encoder import EmbeddingMatrix
from robustdr.errors import InvariantError
from tests.oracles import assign, kmeans_fit_reference


def embeddings_from(matrix, prefix="p"):
    matrix = np.asarray(matrix, dtype=np.float64)
    return EmbeddingMatrix(
        ids=tuple(f"{prefix}{i}" for i in range(matrix.shape[0])), matrix=matrix
    )


def lloyd_oracle(x, centroids, iters=100):
    """Plain-loop Lloyd reimplementation used as an independent reference."""
    labels = None
    for _ in range(iters):
        d = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = d.argmin(axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for k in range(centroids.shape[0]):
            members = x[labels == k]
            if len(members):
                centroids[k] = members.mean(axis=0)
    d = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return labels, float(d.min(axis=1).sum())


class TestKmeansFit:
    def test_k1_centroid_is_mean(self, rng):
        x = rng.normal(size=(12, 3))
        emb = embeddings_from(x)
        model = kmeans_fit(emb, 1, seed=0, normalize=False)
        np.testing.assert_allclose(model.centroids[0], x.mean(axis=0), atol=1e-12)

    def test_k_equals_n_zero_objective(self, rng):
        x = rng.normal(size=(6, 2))
        model = kmeans_fit(embeddings_from(x), 6, seed=1, normalize=False)
        assert model.objective == pytest.approx(0.0, abs=1e-20)
        assert sorted(model.assignment.values()) == list(range(6))

    def test_two_blobs_recovered_and_match_oracle(self, rng):
        a = rng.normal(size=(20, 4)) * 0.05 + np.array([5.0, 0, 0, 0])
        b = rng.normal(size=(20, 4)) * 0.05 + np.array([-5.0, 0, 0, 0])
        x = np.vstack([a, b])
        emb = embeddings_from(x)
        model = kmeans_fit(emb, 2, seed=3, normalize=False)
        labels = np.array([model.assignment[i] for i in emb.ids])
        assert len(set(labels[:20])) == 1
        assert len(set(labels[20:])) == 1
        assert labels[0] != labels[20]
        # same seeding, independent Lloyd loop
        from robustdr.clustering import _kmeanspp_seed

        seeding = np.random.Generator(np.random.PCG64(3))
        seeds = _kmeanspp_seed(x, np.sum(x * x, axis=1), 2, seeding)
        _, oracle_objective = lloyd_oracle(x, seeds.copy())
        assert model.objective == pytest.approx(oracle_objective, rel=1e-10)

    def test_monotone_objective_history(self, rng):
        for trial in range(20):
            x = rng.normal(size=(40, 3))
            model = kmeans_fit(embeddings_from(x), 5, seed=trial, normalize=False)
            history = np.array(model.objective_history)
            assert np.all(np.diff(history) <= 1e-9 * np.maximum(history[:-1], 1.0))

    def test_deterministic_given_seed(self, rng):
        x = rng.normal(size=(30, 4))
        emb = embeddings_from(x)
        a = kmeans_fit(emb, 4, seed=9)
        b = kmeans_fit(emb, 4, seed=9)
        assert a.assignment == b.assignment
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_errors(self, rng):
        emb = embeddings_from(rng.normal(size=(3, 2)))
        with pytest.raises(ValueError):
            kmeans_fit(emb, 4, seed=0)
        with pytest.raises(ValueError):
            kmeans_fit(emb, 0, seed=0)

    def test_duplicate_points_no_empty_clusters(self):
        x = np.zeros((5, 2))
        model = kmeans_fit(embeddings_from(x), 3, seed=0, normalize=False)
        counts = np.bincount(list(model.assignment.values()), minlength=3)
        assert np.all(counts >= 1)


class TestAssign:
    def test_point_on_centroid(self, rng):
        x = rng.normal(size=(10, 3))
        model = kmeans_fit(embeddings_from(x), 3, seed=2, normalize=False)
        probe = embeddings_from(model.centroids[1][None, :], prefix="probe")
        assert assign(model, probe)["probe0"] == 1

    def test_equidistant_tie_breaks_low_index(self):
        centroids = np.array([[5.0, 9.0], [1.0, 0.0], [-1.0, 0.0], [4.0, 4.0], [0.0, 1.0], [0.0, -1.0]])
        model = kmeans_fit(embeddings_from(centroids), 6, seed=0, normalize=False)
        # re-index the model so centroid order is known
        model.centroids = centroids
        probe = embeddings_from(np.array([[0.0, 0.0]]), prefix="tie")
        # equidistant from centroids 1, 2, 4, 5 -> lowest index wins
        assert assign(model, probe)["tie0"] == 1

    def test_matches_exhaustive_scan(self, rng):
        x = rng.normal(size=(25, 3))
        model = kmeans_fit(embeddings_from(x), 4, seed=5, normalize=False)
        probes = rng.normal(size=(40, 3))
        emb = embeddings_from(probes, prefix="probe")
        got = assign(model, emb)
        for i, point in enumerate(probes):
            dists = [float(((point - c) ** 2).sum()) for c in model.centroids]
            assert got[f"probe{i}"] == int(np.argmin(dists))

    def test_width_mismatch(self, rng):
        model = kmeans_fit(embeddings_from(rng.normal(size=(6, 3))), 2, seed=0)
        with pytest.raises(ValueError):
            assign(model, embeddings_from(rng.normal(size=(2, 5))))


class TestNormalization:
    def test_spherical_default_ignores_magnitude(self, rng):
        directions = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]])
        scales = np.array([1.0, 100.0, 1.0, 100.0])[:, None]
        model = kmeans_fit(embeddings_from(directions * scales), 2, seed=4, normalize=True)
        a = model.assignment
        assert a["p0"] == a["p1"] and a["p2"] == a["p3"] and a["p0"] != a["p2"]

    def test_raw_flag_respects_magnitude(self):
        x = np.array([[1.0, 0.0], [100.0, 0.0], [0.0, 1.0], [0.0, 100.0]])
        model = kmeans_fit(embeddings_from(x), 2, seed=4, normalize=False)
        a = model.assignment
        assert a["p1"] != a["p0"] or a["p3"] != a["p2"]


class TestSerialization:
    def test_roundtrip(self, rng, tmp_path):
        model = kmeans_fit(embeddings_from(rng.normal(size=(10, 3))), 3, seed=7)
        path = tmp_path / "clusters.bin"
        save_cluster_model(model, path)
        loaded = load_cluster_model(path)
        assert loaded.assignment == model.assignment
        assert loaded.normalized == model.normalized
        np.testing.assert_array_equal(loaded.centroids, model.centroids)
        assert loaded.objective == model.objective


def fit_or_error(fit, *args, **kwargs):
    try:
        return fit(*args, **kwargs)
    except InvariantError as exc:
        return exc


def assert_same_fit(emb, k, seed, max_iters, normalize):
    """`kmeans_fit` and its reference give the same bytes, or both refuse; returns
    the empty clusters the reference repaired."""
    repairs = []
    got = fit_or_error(kmeans_fit, emb, k, seed=seed, max_iters=max_iters, normalize=normalize)
    want = fit_or_error(kmeans_fit_reference, emb, k, seed=seed, max_iters=max_iters,
                        normalize=normalize, repairs=repairs)
    if isinstance(want, InvariantError):
        assert isinstance(got, InvariantError)
        return repairs
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.assignment == want.assignment
    assert [v.hex() for v in got.objective_history] == [v.hex() for v in want.objective_history]
    assert got.objective.hex() == want.objective.hex() and got.normalized == normalize
    return repairs


@st.composite
def fit_cases(draw):
    """Small point sets, often with repeated points (which leave k-means++ seeds
    coinciding, so clusters go empty), in 1-4 dimensions."""
    n = draw(st.integers(1, 24))
    width = draw(st.integers(1, 4))
    coarse = draw(st.booleans())
    values = st.integers(-2, 2).map(float) if coarse else st.floats(-3.0, 3.0, width=32)
    x = np.array(draw(st.lists(values, min_size=n * width, max_size=n * width))).reshape(n, width)
    return x, draw(st.integers(1, n)), draw(st.integers(0, 2**31 - 1)), draw(st.integers(1, 12))


class TestReference:
    """`kmeans_fit` byte for byte against the reference that recomputes the
    squared norms per distance call and sums the centroids with ``np.add.at``."""

    @given(fit_cases(), st.booleans())
    def test_matches_reference(self, case, normalize):
        x, k, seed, max_iters = case
        assert_same_fit(embeddings_from(x), k, seed, max_iters, normalize)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_empty_cluster_repairs_match(self, normalize):
        """Repeated points: k-means++ seeds coinciding centroids, whose clusters
        start empty and are repaired."""
        x = np.repeat(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]), [5, 3, 1], axis=0)
        assert assert_same_fit(embeddings_from(x), 5, 0, 10, normalize)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_task_sized_refit_matches(self, rng, normalize):
        """A refit of the size of the imbalance study's: 1,059 queries of width 6, k = 20."""
        assert_same_fit(embeddings_from(rng.normal(size=(1059, 6))), 20, 3, 24, normalize)
