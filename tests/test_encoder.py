import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from robustdr import blobfile, encoder
from robustdr.encoder import (
    CHECKPOINT_FORMAT,
    FeatureBlock,
    FeatureRows,
    Featurizer,
    Params,
    embedding_backward,
    encode_many,
    grouped_backward,
    load_checkpoint,
    save_checkpoint,
)
from robustdr.errors import BlobFileError
from tests.conftest import random_rows, random_tokens, rows_of
from tests.oracles import (
    FeatureVector,
    encode_item,
    encode_loop,
    featurize_reference,
    grouped_backward_loop,
    item_vectors,
    stack,
    vectors,
)


def dense_vector(fv):
    x = np.zeros(fv.dim)
    x[fv.indices] = fv.counts
    return x


class TestFeaturizer:
    def test_empty_tokens(self):
        block = Featurizer(dim=16)([[]])
        assert len(block) == 1
        assert block.indices.size == 0

    def test_repeated_token_single_bucket(self):
        block = Featurizer(dim=16)([["a", "a"]])
        assert block.indices.size == 1
        assert block.counts[0] == 2.0

    def test_deterministic_across_instances(self):
        a = Featurizer(dim=1024)([["alpha", "beta", "gamma"]])
        b = Featurizer(dim=1024)([["alpha", "beta", "gamma"]])
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.counts, b.counts)
        np.testing.assert_array_equal(a.bounds, b.bounds)

    @given(
        st.lists(st.lists(st.sampled_from(["a", "b", "c", "dd", "é", "f g"]), max_size=7),
                 max_size=6),
        st.integers(min_value=1, max_value=3) | st.just(4096),
    )
    def test_many_matches_per_token_reference(self, token_lists, dim):
        """Empty lists, bucket collisions at dim 1-3, and a cold then a warm cache;
        every row of a block, and each text alone as a one-row block."""
        featurizer = Featurizer(dim=dim)
        for _ in range(2):
            block = featurizer(iter(token_lists))
            assert len(block) == len(token_lists)
            for fv, tokens in zip(vectors(block), token_lists):
                expected = featurize_reference(Featurizer(dim=dim), tokens)
                (alone,) = vectors(featurizer([iter(tokens)]))
                for candidate in (fv, alone):
                    assert candidate.dim == dim
                    for name in ("indices", "counts"):
                        a, b = getattr(candidate, name), getattr(expected, name)
                        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dim,buckets", [
        (4096, [2824, 1908, 50, 702, 2548, 1764]),
        (2**15, [19208, 18292, 24626, 29374, 6644, 9956]),
    ])
    def test_pinned_buckets(self, dim, buckets):
        """Literal buckets, as the salted hash of the earlier featurizer gave them
        with its only salt, eight zero bytes; any drift of the hash fails here."""
        tokens = ["fw0", "srct0w0", "majt3w7", "naïve", "日本語", ""]
        featurizer = Featurizer(dim=dim)
        assert [featurizer.bucket(token) for token in tokens] == buckets
        block = featurizer([[token] for token in tokens])
        assert block.indices.tolist() == buckets

    def test_bare_string_rejected(self):
        """A string is one text, not a token list; a list of them is refused, not
        featurized character by character."""
        with pytest.raises(TypeError, match="list of token lists"):
            Featurizer(dim=16)(["ab", "cd"])


class TestParams:
    @pytest.mark.parametrize("feature_dim,embed_dim", [(37, 13), (37, 1), (1, 9), (512, 64)])
    def test_init_random_bytes_equal_one_embedding_major_draw(self, feature_dim, embed_dim):
        """W is the seeded draw of all E x D weights in one call, W's rows in turn,
        whether or not E is a multiple of the rows drawn at a time."""
        rng = np.random.Generator(np.random.PCG64(11))
        want = rng.uniform(-1.0, 1.0, size=embed_dim * feature_dim).reshape(
            embed_dim, feature_dim) / np.sqrt(feature_dim)
        got = Params.init_random(feature_dim, embed_dim, seed=11).W
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_weights_feature_major(self):
        """Feature d's weights are one contiguous run of ``flat``, and W views it."""
        params = Params.init_random(37, 13, seed=2)
        assert params.W.T.flags.c_contiguous and np.shares_memory(params.W, params.flat)
        assert params.flat[5 * 13:6 * 13].tobytes() == params.W[:, 5].tobytes()
        params.flat[5 * 13] = 7.0
        assert params.W[0, 5] == 7.0

    def test_init_random_holds_one_weight_vector(self):
        """The draw is transposed a chunk at a time, never as a second full-size array."""
        Params.init_random(2, 2)  # numpy's first generator allocates for itself
        tracemalloc.start()
        try:
            params = Params.init_random(4096, 64, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * len(params)


class TestEncode:
    def test_zero_features_zero_embedding(self):
        params = Params.init_random(32, 4, seed=0)
        rows = Featurizer(dim=32)([[]]).all_rows()
        np.testing.assert_array_equal(encode_many(params, rows), np.zeros((1, 4)))

    def test_identity_projection(self):
        params = Params(feature_dim=4, embed_dim=4, flat=np.eye(4).ravel())
        block = Featurizer(dim=4)([["k"]])
        expected = np.zeros(4)
        expected[block.indices[0]] = 1.0
        np.testing.assert_array_equal(encode_many(params, block.all_rows())[0], expected)

    def test_matches_independent_matrix_multiply(self, rng):
        """Oracle: dense matrix product reimplementation, to 1e-12."""
        featurizer = Featurizer(dim=40)
        params = Params.init_random(40, 5, seed=9)
        for _ in range(20):
            rows = random_rows(featurizer, rng, 1)
            (fv,) = item_vectors(rows)
            np.testing.assert_allclose(encode_many(params, rows)[0], params.W @ dense_vector(fv),
                                       atol=1e-12)

    @pytest.mark.parametrize("with_empty", [False, True])
    def test_encode_many_with_repeats_equals_per_item_encode(self, with_empty, rng):
        featurizer = Featurizer(dim=40)
        params = Params.init_random(40, 5, seed=9)
        texts = [random_tokens(rng) for _ in range(6)]
        picks = rng.integers(6, size=30).tolist()
        # rows 6 and 7 are new texts; rows 8 and 9 two token-free texts, equal
        # content in distinct rows
        block = featurizer([*texts, ["tok1", "tok2"], ["tok3"], [], []])
        rows = [*picks, 6, 7]
        if with_empty:  # token-free texts, one of them repeated, among the rest
            rows = [8, *rows[:10], 9, *rows[10:], 8]
        items = FeatureRows(block, np.array(rows))
        expected = np.stack([encode_item(params, fv) for fv in item_vectors(items)])
        assert encode_many(params, items).tobytes() == expected.tobytes()

    def test_homogeneous_in_w_linear_config(self, rng):
        featurizer = Featurizer(dim=30)
        params = Params.init_random(30, 4, seed=4)
        rows = random_rows(featurizer, rng, 1)
        scaled = Params(30, 4, flat=3.5 * params.flat)
        np.testing.assert_allclose(encode_many(scaled, rows), 3.5 * encode_many(params, rows),
                                   rtol=1e-12)

    def test_dimension_mismatch(self):
        params = Params.init_random(32, 4, seed=0)
        rows = Featurizer(dim=16)([["a"]]).all_rows()
        with pytest.raises(ValueError):
            encode_many(params, rows)


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def feature_batches(draw):
    """An encoder and a `FeatureRows` of 0-14 items with 0-6 nonzeros each: new
    rows, repeated rows and new rows equal to earlier ones. The block holds an
    unused row first, then each distinct row in reverse order of first
    appearance, so an item's row is not its list position; its counts array is a
    slice of its own buffer, 0-7 floats in, so its address varies over 64 bytes."""
    dim = draw(st.integers(1, 40))
    embed_dim = draw(st.sampled_from([1, 2, 3, 6, 48, 64]))
    params = Params.init_random(dim, embed_dim, seed=draw(st.integers(0, 2**16)))
    offset = draw(st.integers(0, 7))
    counts = st.integers(1, 4).map(float) | st.floats(0.25, 8.0)
    stored: list[tuple[np.ndarray, list[float]]] = []
    items: list[int] = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["new", "repeat", "equal"])) if items else "new"
        if kind == "repeat":
            items.append(draw(st.sampled_from(items)))
            continue
        if kind == "equal":
            indices, values = stored[draw(st.sampled_from(items))]
            indices, values = indices.copy(), list(values)
        else:
            nnz = draw(st.integers(0, min(dim, 6)))
            indices = np.array(sorted(draw(st.sets(st.integers(0, dim - 1), min_size=nnz,
                                                   max_size=nnz))), dtype=np.int64)
            values = draw(st.lists(counts, min_size=nnz, max_size=nnz))
        stored.append((indices, values))
        items.append(len(stored) - 1)
    in_block = [(np.array([dim - 1]), [3.0]), *stored[::-1]]
    values = [value for _, row in in_block for value in row]
    buffer = np.zeros(offset + len(values))
    buffer[offset:] = values
    block = FeatureBlock(np.concatenate([indices for indices, _ in in_block]), buffer[offset:],
                         np.cumsum([0] + [indices.size for indices, _ in in_block]), dim)
    # stored row i sits at block row len(stored) - i
    return params, FeatureRows(block, len(stored) - np.array(items, dtype=np.intp))


class TestKernelsAgainstOracles:
    """`encode_many` and `grouped_backward` byte for byte against the per-item
    encode and the per-group mask-and-copy backward of `tests.oracles`, on the
    items as rows of a block."""

    @given(feature_batches(), st.sampled_from([1, 2, 3, encoder._ROWS]))
    def test_encode_many_bytes_equal_item_loop(self, batch, rows_cap):
        params, items = batch
        fvs = item_vectors(items)
        with mock.patch.object(encoder, "_ROWS", rows_cap):  # classes above the cap
            got = encode_many(params, items)
        assert same_bytes(got, encode_loop(params, fvs))
        for i, fv in enumerate(fvs):  # each item as a one-row call
            assert same_bytes(encode_many(params, rows_of(items, i))[0], encode_item(params, fv))
        if len(fvs) >= 2:  # a relevance score: the dot product of a two-row call
            q_emb, d_emb = encode_many(params, rows_of(items, 0, 1))
            want = encode_item(params, fvs[0]) @ encode_item(params, fvs[1])
            assert same_bytes(q_emb @ d_emb, want)

    def test_encode_many_class_above_the_row_cap(self, rng):
        params = Params.init_random(500, 64, seed=2)
        fvs = [FeatureVector(np.sort(rng.choice(500, 3, replace=False)),
                             rng.integers(1, 4, size=3).astype(np.float64), 500)
               for _ in range(2 * encoder._ROWS + 3)]
        assert same_bytes(encode_many(params, stack(fvs, 500).all_rows()),
                          encode_loop(params, fvs))

    @given(feature_batches(), st.data())
    def test_grouped_backward_bytes_equal_mask_loop(self, batch, data):
        """Items drawn in any group order, taken group by group in item order;
        empty groups, and groups above the largest id present."""
        params, items = batch
        n_groups = data.draw(st.integers(1, 5))
        groups = np.array(data.draw(st.lists(st.integers(0, n_groups - 1), min_size=len(items),
                                             max_size=len(items))), dtype=np.intp)
        n_groups += data.draw(st.integers(0, 2))
        rng = np.random.Generator(np.random.PCG64(data.draw(st.integers(0, 2**16))))
        emb_grads = rng.normal(size=(len(items), params.embed_dim))
        order = np.argsort(groups, kind="stable")
        bounds = np.searchsorted(groups[order], np.arange(n_groups + 1))
        got = grouped_backward(params, FeatureRows(items.block, items.rows[order]),
                               emb_grads[order], bounds)
        want = grouped_backward_loop(params, item_vectors(items), emb_grads, groups, n_groups)
        assert all(same_bytes(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("bounds", [[0], [1, 2], [0, 1], [0, 2, 1, 2], [[0, 2]]])
    def test_grouped_backward_bounds_checked(self, bounds):
        params = Params.init_random(16, 4, seed=0)
        rows = FeatureRows(Featurizer(dim=16)([["a"]]), np.array([0, 0]))
        with pytest.raises(ValueError, match="bounds must ascend"):
            grouped_backward(params, rows, np.zeros((2, 4)), np.array(bounds))

    def test_block_of_another_dimension_rejected(self):
        params = Params.init_random(32, 4, seed=0)
        rows = FeatureRows(Featurizer(dim=16)([["a"]]), np.array([0, 0]))
        for call in (lambda: encode_many(params, rows),
                     lambda: grouped_backward(params, rows, np.zeros((2, 4)), [0, 2])):
            with pytest.raises(ValueError, match="feature dim 16 does not match"):
                call()


class TestScore:
    """A relevance score is the dot product of the two embeddings of a two-row
    `encode_many` call."""

    def test_self_score_is_squared_norm(self, small_encoder, rng):
        params, featurizer = small_encoder
        rows = random_rows(featurizer, rng, 1)
        (emb,) = encode_many(params, rows)
        q_emb, d_emb = encode_many(params, rows_of(rows, 0, 0))
        assert float(q_emb @ d_emb) == pytest.approx(float(emb @ emb), abs=1e-12)

    def test_orthogonal_embeddings(self):
        params = Params(feature_dim=4, embed_dim=4, flat=np.eye(4).ravel())
        block = Featurizer(dim=4)([["x"], ["queue"]])
        if block.indices[0] != block.indices[1]:
            a, b = encode_many(params, block.all_rows())
            assert float(a @ b) == 0.0

    def test_symmetry(self, small_encoder, rng):
        params, featurizer = small_encoder
        for _ in range(10):
            rows = random_rows(featurizer, rng, 2)
            a, b = encode_many(params, rows)
            b_first, a_second = encode_many(params, rows_of(rows, 1, 0))
            assert float(a @ b) == float(b_first @ a_second)

    def test_compositional_oracle(self, small_encoder, rng):
        params, featurizer = small_encoder
        rows = random_rows(featurizer, rng, 2)
        a, b = encode_many(params, rows)
        (a_alone,), (b_alone,) = (encode_many(params, rows_of(rows, i)) for i in (0, 1))
        assert float(a @ b) == pytest.approx(float(a_alone @ b_alone), abs=1e-12)


class TestEmbeddingBackward:
    def finite_difference(self, params, items, weights, step=1e-6):
        """Numeric gradient of sum_i weights_i . (embedding of item i)."""

        def value(flat):
            p = Params(params.feature_dim, params.embed_dim, flat=flat)
            return sum(float(w @ emb) for w, emb in zip(weights, encode_many(p, items)))

        grad = np.zeros_like(params.flat)
        for j in range(len(params.flat)):
            up = params.flat.copy()
            up[j] += step
            down = params.flat.copy()
            down[j] -= step
            grad[j] = (value(up) - value(down)) / (2 * step)
        return grad

    @pytest.mark.parametrize("repeats", [False, True])
    def test_matches_finite_differences(self, repeats, rng):
        featurizer = Featurizer(dim=10)
        params = Params.init_random(10, 3, seed=11)
        items = random_rows(featurizer, rng, 4)
        if repeats:  # the same rows again, with their own weights
            items = rows_of(items, 0, 1, 2, 3, 2, 0, 2)
        weights = [rng.normal(size=3) for _ in range(len(items))]
        analytic = embedding_backward(params, items, np.vstack(weights))
        numeric = self.finite_difference(params, items, weights)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)

    def test_empty_everything_zero(self, small_encoder):
        params, featurizer = small_encoder
        items = featurizer([]).all_rows()
        grad = embedding_backward(params, items, np.zeros((0, params.embed_dim)))
        np.testing.assert_array_equal(grad, np.zeros_like(params.flat))


class TestCheckpoint:
    @pytest.mark.parametrize("edge_values", [False, True])
    def test_bit_exact_roundtrip(self, edge_values, tmp_path):
        params = Params.init_random(20, 4, seed=6)
        if edge_values:  # signed zero, subnormals and the float64 extremes
            params.flat[:6] = [-0.0, 5e-324, -2.2250738585072014e-308,
                               1.7976931348623157e308, -1.7976931348623157e308, 1.0 / 3.0]
        path = tmp_path / "enc.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert (loaded.feature_dim, loaded.embed_dim) == (20, 4)
        np.testing.assert_array_equal(loaded.flat, params.flat)
        assert loaded.flat.tobytes() == params.flat.tobytes()

    def test_header_is_the_encoder_shape(self, tmp_path):
        path = tmp_path / "enc.ckpt"
        save_checkpoint(Params.init_random(20, 4, seed=6), path)
        header = path.read_bytes().split(b"\n", 1)[0]
        assert header == (b'{"embed_dim": 4, "feature_dim": 20, "format": "robustdr-encoder", '
                          b'"version": 3}')

    def test_hidden_layer_checkpoint_rejected(self, tmp_path):
        """A checkpoint of the removed hidden layer (W, then an E x E matrix) could
        only be of version 2 or earlier, and is rejected by its version."""
        path = tmp_path / "enc.ckpt"
        fields = {"feature_dim": 20, "embed_dim": 4, "hidden": True, "hash_seed": 0,
                  "dtype": "<f8", "n_params": 96}
        blobfile.write(path, CHECKPOINT_FORMAT, 2, fields, [np.zeros(96)])
        with pytest.raises(BlobFileError, match=re.escape(f"{path}: unsupported "
                                                          f"{CHECKPOINT_FORMAT} version 2")):
            load_checkpoint(path)

    def test_embedding_major_version_1_rejected(self, tmp_path):
        """Version 1 held the weights embedding-major; no reader of that order is kept."""
        params = Params.init_random(20, 4, seed=6)
        fields = {"feature_dim": 20, "embed_dim": 4, "hidden": False, "hash_seed": 0,
                  "dtype": "<f8", "n_params": 80}  # as version 1 held them
        path = tmp_path / "v1.ckpt"
        blobfile.write(path, CHECKPOINT_FORMAT, 1, fields, [params.W.ravel()])
        with pytest.raises(BlobFileError, match=re.escape(f"{path}: unsupported "
                                                          f"{CHECKPOINT_FORMAT} version 1")):
            load_checkpoint(path)

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
