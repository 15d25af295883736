import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from robustdr.encoder import (
    EmbeddingMatrix,
    Featurizer,
    Params,
    embedding_backward,
    encode,
    encode_many,
    load_checkpoint,
    save_checkpoint,
    score,
)
from robustdr.errors import InvariantError
from tests.conftest import random_feature_vector
from tests.oracles import featurize_reference


def dense_vector(fv):
    x = np.zeros(fv.dim)
    x[fv.indices] = fv.counts
    return x


class TestFeaturizer:
    def test_empty_tokens(self):
        fv = Featurizer(dim=16, seed=0)([])
        assert fv.indices.size == 0

    def test_repeated_token_single_bucket(self):
        fv = Featurizer(dim=16, seed=0)(["a", "a"])
        assert fv.indices.size == 1
        assert fv.counts[0] == 2.0

    def test_deterministic_across_instances(self):
        a = Featurizer(dim=1024, seed=5)(["alpha", "beta", "gamma"])
        b = Featurizer(dim=1024, seed=5)(["alpha", "beta", "gamma"])
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.counts, b.counts)

    @given(
        st.lists(st.lists(st.sampled_from(["a", "b", "c", "dd", "é", "f g"]), max_size=7),
                 max_size=6),
        st.integers(min_value=1, max_value=3) | st.just(4096),
        st.integers(min_value=0, max_value=3),
    )
    def test_many_matches_per_token_reference(self, token_lists, dim, seed):
        """Empty lists, bucket collisions at dim 1-3, and a cold then a warm cache."""
        featurizer = Featurizer(dim=dim, seed=seed)
        for _ in range(2):
            got = featurizer.many(iter(token_lists))
            assert len(got) == len(token_lists)
            for fv, tokens in zip(got, token_lists):
                expected = featurize_reference(Featurizer(dim=dim, seed=seed), tokens)
                for candidate in (fv, featurizer(iter(tokens))):
                    assert candidate.dim == dim
                    for name in ("indices", "counts"):
                        a, b = getattr(candidate, name), getattr(expected, name)
                        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_seed_changes_buckets(self):
        tokens = [f"tok{i}" for i in range(64)]
        a = Featurizer(dim=4096, seed=0)(tokens)
        b = Featurizer(dim=4096, seed=1)(tokens)
        assert not np.array_equal(a.indices, b.indices)


class TestEncode:
    def test_zero_features_zero_embedding(self):
        params = Params.init_random(32, 4, seed=0)
        fv = Featurizer(dim=32, seed=0)([])
        np.testing.assert_array_equal(encode(params, fv), np.zeros(4))

    def test_identity_projection(self):
        params = Params(feature_dim=4, embed_dim=4, flat=np.eye(4).ravel())
        featurizer = Featurizer(dim=4, seed=0)
        fv = featurizer(["k"])
        expected = np.zeros(4)
        expected[fv.indices[0]] = 1.0
        np.testing.assert_array_equal(encode(params, fv), expected)

    def test_matches_independent_matrix_multiply(self, rng):
        """Oracle: dense matrix product reimplementation, to 1e-12."""
        featurizer = Featurizer(dim=40, seed=2)
        for hidden in (False, True):
            params = Params.init_random(40, 5, hidden=hidden, seed=9)
            for _ in range(20):
                fv = random_feature_vector(featurizer, rng)
                x = dense_vector(fv)
                expected = params.W @ x
                if hidden:
                    expected = np.tanh(params.H @ expected)
                np.testing.assert_allclose(encode(params, fv), expected, atol=1e-12)

    @pytest.mark.parametrize("hidden", [False, True])
    def test_encode_many_with_repeats_equals_per_item_encode(self, hidden, rng):
        featurizer = Featurizer(dim=40, seed=2)
        params = Params.init_random(40, 5, hidden=hidden, seed=9)
        distinct = [random_feature_vector(featurizer, rng) for _ in range(6)]
        fvs = [distinct[int(i)] for i in rng.integers(6, size=30)]
        fvs += [featurizer(["tok1", "tok2"]), featurizer(["tok3"])]  # equal content, new objects
        expected = np.stack([encode(params, fv) for fv in fvs])
        assert encode_many(params, fvs).tobytes() == expected.tobytes()

    def test_homogeneous_in_w_linear_config(self, rng):
        featurizer = Featurizer(dim=30, seed=1)
        params = Params.init_random(30, 4, seed=4)
        fv = random_feature_vector(featurizer, rng)
        scaled = Params(30, 4, flat=3.5 * params.flat)
        np.testing.assert_allclose(encode(scaled, fv), 3.5 * encode(params, fv), rtol=1e-12)

    def test_dimension_mismatch(self):
        params = Params.init_random(32, 4, seed=0)
        fv = Featurizer(dim=16, seed=0)(["a"])
        with pytest.raises(ValueError):
            encode(params, fv)


class TestScore:
    def test_self_score_is_squared_norm(self, small_encoder, rng):
        params, featurizer = small_encoder
        fv = random_feature_vector(featurizer, rng)
        emb = encode(params, fv)
        assert score(params, fv, fv) == pytest.approx(float(emb @ emb), abs=1e-12)

    def test_orthogonal_embeddings(self):
        params = Params(feature_dim=4, embed_dim=4, flat=np.eye(4).ravel())
        featurizer = Featurizer(dim=4, seed=0)
        a, b = featurizer(["x"]), featurizer(["queue"])
        if a.indices[0] != b.indices[0]:
            assert score(params, a, b) == 0.0

    def test_symmetry(self, small_encoder, rng):
        params, featurizer = small_encoder
        for _ in range(10):
            a = random_feature_vector(featurizer, rng)
            b = random_feature_vector(featurizer, rng)
            assert score(params, a, b) == score(params, b, a)

    def test_compositional_oracle(self, small_encoder, rng):
        params, featurizer = small_encoder
        a = random_feature_vector(featurizer, rng)
        b = random_feature_vector(featurizer, rng)
        assert score(params, a, b) == pytest.approx(
            float(encode(params, a) @ encode(params, b)), abs=1e-12
        )


class TestEmbeddingBackward:
    def finite_difference(self, params, fvs, weights, step=1e-6):
        """Numeric gradient of sum_i weights_i . encode(fvs_i)."""

        def value(flat):
            p = Params(params.feature_dim, params.embed_dim, params.hidden, flat=flat)
            return sum(float(w @ encode(p, fv)) for w, fv in zip(weights, fvs))

        grad = np.zeros_like(params.flat)
        for j in range(len(params.flat)):
            up = params.flat.copy()
            up[j] += step
            down = params.flat.copy()
            down[j] -= step
            grad[j] = (value(up) - value(down)) / (2 * step)
        return grad

    @pytest.mark.parametrize("hidden", [False, True])
    def test_matches_finite_differences(self, hidden, rng):
        featurizer = Featurizer(dim=10, seed=3)
        params = Params.init_random(10, 3, hidden=hidden, seed=11)
        fvs = [random_feature_vector(featurizer, rng) for _ in range(4)]
        weights = [rng.normal(size=3) for _ in fvs]
        analytic = embedding_backward(params, fvs, np.vstack(weights))
        numeric = self.finite_difference(params, fvs, weights)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)

    def test_empty_everything_zero(self, small_encoder):
        params, _ = small_encoder
        grad = embedding_backward(params, [], np.zeros((0, params.embed_dim)))
        np.testing.assert_array_equal(grad, np.zeros_like(params.flat))


class TestEmbeddingMatrix:
    def test_row_id_mismatch(self):
        with pytest.raises(ValueError):
            EmbeddingMatrix(ids=("a",), matrix=np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(InvariantError):
            EmbeddingMatrix(ids=("a",), matrix=np.array([[np.inf, 0.0]]))


class TestCheckpoint:
    @pytest.mark.parametrize("hidden", [False, True])
    def test_bit_exact_roundtrip(self, hidden, tmp_path):
        params = Params.init_random(20, 4, hidden=hidden, seed=6)
        path = tmp_path / "enc.ckpt"
        save_checkpoint(params, path, hash_seed=42)
        loaded, header = load_checkpoint(path)
        assert header["hash_seed"] == 42
        assert loaded.hidden == hidden
        np.testing.assert_array_equal(loaded.flat, params.flat)
        assert loaded.flat.tobytes() == params.flat.tobytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b'{"format": "something-else"}\n')
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_identical_bytes_on_rewrite(self, tmp_path):
        params = Params.init_random(20, 4, seed=6)
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        save_checkpoint(params, a)
        save_checkpoint(params, b)
        assert a.read_bytes() == b.read_bytes()
