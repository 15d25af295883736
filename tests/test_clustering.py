import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from robustdr import blobfile
from robustdr.clustering import (
    CLUSTER_FORMAT,
    kmeans_fit,
    load_cluster_model,
    normalize_rows,
    save_cluster_model,
)
from robustdr.errors import BlobFileError, InvariantError
from tests.oracles import assign, kmeans_fit_reference


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
        x = normalize_rows(rng.normal(size=(12, 3)))
        model = kmeans_fit(x, 1, seed=0)
        np.testing.assert_allclose(model.centroids[0], x.mean(axis=0), atol=1e-12)

    def test_k_equals_n_zero_objective(self, rng):
        x = normalize_rows(rng.normal(size=(6, 2)))
        model = kmeans_fit(x, 6, seed=1)
        assert model.objective == pytest.approx(0.0, abs=1e-20)
        assert sorted(model.labels.tolist()) == list(range(6))

    def test_two_blobs_recovered_and_match_oracle(self, rng):
        a = rng.normal(size=(20, 4)) * 0.05 + np.array([5.0, 0, 0, 0])
        b = rng.normal(size=(20, 4)) * 0.05 + np.array([-5.0, 0, 0, 0])
        x = normalize_rows(np.vstack([a, b]))
        model = kmeans_fit(x, 2, seed=3)
        labels = model.labels
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
            x = normalize_rows(rng.normal(size=(40, 3)))
            model = kmeans_fit(x, 5, seed=trial)
            history = np.array(model.objective_history)
            assert np.all(np.diff(history) <= 1e-9 * np.maximum(history[:-1], 1.0))

    def test_deterministic_given_seed(self, rng):
        x = rng.normal(size=(30, 4))
        a = kmeans_fit(x, 4, seed=9)
        b = kmeans_fit(x, 4, seed=9)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_errors(self, rng):
        x = rng.normal(size=(3, 2))
        with pytest.raises(ValueError):
            kmeans_fit(x, 4, seed=0)
        with pytest.raises(ValueError):
            kmeans_fit(x, 0, seed=0)
        with pytest.raises(ValueError, match="2-d"):
            kmeans_fit(x[0], 1, seed=0)
        with pytest.raises(InvariantError, match="finite"):
            kmeans_fit(np.array([[np.inf, 0.0], [1.0, 0.0]]), 1, seed=0)

    def test_duplicate_points_no_empty_clusters(self):
        x = np.zeros((5, 2))
        model = kmeans_fit(x, 3, seed=0)
        counts = np.bincount(model.labels, minlength=3)
        assert np.all(counts >= 1)

    def test_model_is_frozen_with_read_only_labels(self, rng):
        """A fit may be shared by several fine-tuners, so none can change it."""
        x = rng.normal(size=(10, 3))
        model = kmeans_fit(x, 3, seed=2)
        assert [f.name for f in dataclasses.fields(model)] == [
            "centroids", "labels", "objective", "objective_history"]
        assert model.labels.dtype == np.int64 and model.labels.shape == (10,)
        with pytest.raises(ValueError, match="read-only"):
            model.labels[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.labels = np.zeros(10, dtype=np.int64)


class TestAssign:
    def test_point_on_centroid(self, rng):
        x = normalize_rows(rng.normal(size=(10, 3)))
        model = kmeans_fit(x, 3, seed=2)
        assert assign(model, model.centroids[1][None, :]).tolist() == [1]

    def test_equidistant_tie_breaks_low_index(self):
        centroids = np.array([[5.0, 9.0], [1.0, 0.0], [-1.0, 0.0], [4.0, 4.0], [0.0, 1.0], [0.0, -1.0]])
        model = kmeans_fit(centroids, 6, seed=0)
        # re-index the model so centroid order is known
        model = dataclasses.replace(model, centroids=centroids)
        # equidistant from centroids 1, 2, 4, 5 -> lowest index wins
        assert assign(model, np.array([[0.0, 0.0]])).tolist() == [1]

    def test_matches_exhaustive_scan(self, rng):
        model = kmeans_fit(normalize_rows(rng.normal(size=(25, 3))), 4, seed=5)
        probes = normalize_rows(rng.normal(size=(40, 3)))
        got = assign(model, probes)
        for i, point in enumerate(probes):
            dists = [float(((point - c) ** 2).sum()) for c in model.centroids]
            assert got[i] == int(np.argmin(dists))

    def test_width_mismatch(self, rng):
        model = kmeans_fit(rng.normal(size=(6, 3)), 2, seed=0)
        with pytest.raises(ValueError):
            assign(model, rng.normal(size=(2, 5)))


class TestNormalization:
    def test_spherical_default_ignores_magnitude(self, rng):
        directions = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]])
        scales = np.array([1.0, 100.0, 1.0, 100.0])[:, None]
        a = kmeans_fit(directions * scales, 2, seed=4).labels
        assert a[0] == a[1] and a[2] == a[3] and a[0] != a[2]


class TestSerialization:
    def test_roundtrip(self, rng, tmp_path):
        model = kmeans_fit(rng.normal(size=(10, 3)), 3, seed=7)
        path = tmp_path / "clusters.bin"
        save_cluster_model(model, path)
        loaded = load_cluster_model(path)
        assert loaded.labels.tobytes() == model.labels.tobytes()
        assert not loaded.labels.flags.writeable
        np.testing.assert_array_equal(loaded.centroids, model.centroids)
        assert loaded.objective == model.objective

    @pytest.mark.parametrize("n", [10, 2000])
    def test_header_holds_scalars_only(self, rng, tmp_path, n):
        """The header's size does not grow with the number of points."""
        path = tmp_path / "clusters.bin"
        save_cluster_model(kmeans_fit(rng.normal(size=(n, 3)), 3, seed=7), path)
        line = path.read_bytes().partition(b"\n")[0]
        assert sorted(json.loads(line)) == sorted(
            ["format", "version", "n_clusters", "width", "n_points", "objective"])
        assert len(line) < 200

    @pytest.mark.parametrize("label", [-1.0, 3.0, 0.5, 1e300])
    def test_label_outside_the_clusters_rejected(self, rng, tmp_path, label):
        model = kmeans_fit(rng.normal(size=(10, 3)), 3, seed=7)
        path = tmp_path / "clusters.bin"
        fields = {"n_clusters": 3, "width": 3, "n_points": 10, "objective": model.objective}
        labels = model.labels.astype(np.float64)
        labels[4] = label
        blobfile.write(path, CLUSTER_FORMAT, 2, fields, [model.centroids, labels])
        with pytest.raises(BlobFileError, match=f"{path}: block 1 .* not a cluster id"):
            load_cluster_model(path)

    def test_version_1_rejected(self, rng, tmp_path):
        """Version 1 held no labels block and a dict of labels by query id in its header."""
        model = kmeans_fit(rng.normal(size=(10, 3)), 3, seed=7)
        path = tmp_path / "clusters.bin"
        fields = {"n_clusters": 3, "width": 3, "normalized": True, "objective": model.objective,
                  "assignment": {f"q{i}": int(c) for i, c in enumerate(model.labels)}}
        blobfile.write(path, CLUSTER_FORMAT, 1, fields, [model.centroids])
        with pytest.raises(BlobFileError, match=f"{path}: unsupported {CLUSTER_FORMAT} version 1"):
            load_cluster_model(path)


def fit_or_error(fit, *args, **kwargs):
    try:
        return fit(*args, **kwargs)
    except InvariantError as exc:
        return exc


def assert_same_fit(x, k, seed, max_iters):
    """`kmeans_fit` and its reference give the same bytes, or both refuse; returns
    the empty clusters the reference repaired."""
    repairs = []
    got = fit_or_error(kmeans_fit, x, k, seed=seed, max_iters=max_iters)
    want = fit_or_error(kmeans_fit_reference, x, k, seed=seed, max_iters=max_iters,
                        repairs=repairs)
    if isinstance(want, InvariantError):
        assert isinstance(got, InvariantError)
        return repairs
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()
    assert [v.hex() for v in got.objective_history] == [v.hex() for v in want.objective_history]
    assert got.objective.hex() == want.objective.hex()
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

    @given(fit_cases())
    def test_matches_reference(self, case):
        x, k, seed, max_iters = case
        assert_same_fit(x, k, seed, max_iters)

    def test_empty_cluster_repairs_match(self):
        """Repeated points: k-means++ seeds coinciding centroids, whose clusters
        start empty and are repaired."""
        x = np.repeat(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]), [5, 3, 1], axis=0)
        assert assert_same_fit(x, 5, 0, 10)

    def test_task_sized_refit_matches(self, rng):
        """A refit of the size of the imbalance study's: 1,059 queries of width 6, k = 20."""
        assert_same_fit(rng.normal(size=(1059, 6)), 20, 3, 24)
