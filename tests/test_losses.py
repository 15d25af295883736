import math

import numpy as np
import pytest

from robustdr.encoder import FeatureBlock, FeatureRows, Featurizer, Params, scatter_grad
from robustdr.errors import InvariantError
from robustdr.idro import ClusterLayout, combine_cluster_grads, r_matrix
from robustdr.losses import (
    TripletRows,
    _retrieval,
    coco_loss,
    coco_loss_grad,
    retrieval_cluster_grads,
    retrieval_loss,
    retrieval_loss_grad,
)
from tests.conftest import random_rows, random_tokens, rows_of
from tests.oracles import (
    FeatureVector,
    coco_top1_accuracy,
    dense_retrieval_loss_grad,
    encode_item,
    item_vectors,
    loop_coco,
    loop_retrieval,
    per_cluster_reference,
    triplets,
)


def triplet_rows(featurizer, rng, n_items, n_neg=2) -> TripletRows:
    """``n_items`` random items of ``n_neg`` negatives, each text its own row of one
    block, drawn item by item: the query, the positive, then the negatives."""
    items = random_rows(featurizer, rng, n_items * (2 + n_neg))
    return TripletRows(items.block, items.rows.reshape(n_items, 2 + n_neg))


def pick(batch: TripletRows, items) -> TripletRows:
    """The items of ``batch`` at ``items``, as rows of the same block."""
    return TripletRows(batch.block, batch.rows[items])


def empty_batch(featurizer) -> TripletRows:
    return TripletRows(featurizer([]), np.empty((0, 3), dtype=np.intp))


def scalar_retrieval_oracle(params, batch):
    """Independent per-item evaluation with plain math.exp on floats."""
    per_item = []
    for item in triplets(batch):
        q = encode_item(params, item.query)
        s_pos = float(q @ encode_item(params, item.positive))
        s_negs = [float(q @ encode_item(params, neg)) for neg in item.negatives]
        denom = math.exp(s_pos) + sum(math.exp(s) for s in s_negs)
        per_item.append(-math.log(math.exp(s_pos) / denom))
    return sum(per_item) / len(per_item), per_item


def brute_force_coco_oracle(params, spans):
    """Enumerate every anchor and every denominator term directly."""
    embs = [encode_item(params, fv) for fv in item_vectors(spans)]
    total = 0.0
    for a in range(len(embs)):
        partner = a ^ 1
        num = math.exp(float(embs[a] @ embs[partner]))
        den = sum(math.exp(float(embs[a] @ embs[j])) for j in range(len(embs)) if j != a)
        total += -math.log(num / den)
    return total / (len(embs) // 2)


def central_differences(params, value_fn, step=1e-5):
    grad = np.zeros_like(params.flat)
    for j in range(len(params.flat)):
        up = params.flat.copy()
        up[j] += step
        down = params.flat.copy()
        down[j] -= step
        p_up = Params(params.feature_dim, params.embed_dim, flat=up)
        p_down = Params(params.feature_dim, params.embed_dim, flat=down)
        grad[j] = (value_fn(p_up) - value_fn(p_down)) / (2 * step)
    return grad


def relative_error(analytic, numeric):
    return np.max(np.abs(analytic - numeric) / (np.abs(numeric) + 1e-8))


class TestRetrievalLoss:
    def test_equal_scores_single_negative_is_ln2(self):
        params = Params(feature_dim=4, embed_dim=2, flat=np.zeros(8))
        block = Featurizer(dim=4)([["a"], ["b"], ["c"]])
        total, per_item = retrieval_loss(params, TripletRows(block, np.array([[0, 1, 2]])))
        assert total == pytest.approx(math.log(2.0), abs=1e-12)
        assert per_item[0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_large_margin_drives_loss_to_zero(self):
        # A positive sharing the query's bucket scores ~||e||^2 >> 0 while the
        # negative stays orthogonal, so the loss collapses toward 0.
        block = Featurizer(dim=8)([["shared"] * 8, ["elsewhere"], ["different"]])
        neg = 2 if block.indices[1] == block.indices[0] else 1  # one bucket per row
        params = Params(feature_dim=8, embed_dim=1, flat=np.ones(8))
        total, _ = retrieval_loss(params, TripletRows(block, np.array([[0, 0, neg]])))
        assert total < 1e-8

    def test_matches_independent_scalar_oracle(self, small_encoder, rng):
        params, featurizer = small_encoder
        for n_neg in (1, 2, 3):
            batch = triplet_rows(featurizer, rng, 5, n_neg)
            total, per_item = retrieval_loss(params, batch)
            oracle_total, oracle_items = scalar_retrieval_oracle(params, batch)
            assert total == pytest.approx(oracle_total, abs=1e-10)
            np.testing.assert_allclose(per_item, oracle_items, atol=1e-10)

    def test_empty_batch(self, small_encoder):
        params, featurizer = small_encoder
        total, per_item, grad = retrieval_loss_grad(params, empty_batch(featurizer))
        assert total == 0.0
        assert per_item.size == 0
        np.testing.assert_array_equal(grad, np.zeros_like(params.flat))

    def test_permutation_invariance(self, small_encoder, rng):
        params, featurizer = small_encoder
        batch = triplet_rows(featurizer, rng, 4)
        total, _ = retrieval_loss(params, batch)
        shuffled = pick(batch, [2, 0, 3, 1])
        assert retrieval_loss(params, shuffled)[0] == pytest.approx(total, abs=1e-12)

    def test_duplicate_negative_strictly_increases_loss(self, small_encoder, rng):
        params, featurizer = small_encoder
        item = triplet_rows(featurizer, rng, 1)
        bigger = TripletRows(item.block, item.rows[:, [0, 1, 2, 3, 2]])
        assert retrieval_loss(params, bigger)[0] > retrieval_loss(params, item)[0]

    def test_monotone_in_positive_score(self):
        # Inject scores directly through a 1-d encoder with hand-built buckets:
        # row r of the block is bucket r alone.
        block = FeatureBlock(np.arange(3), np.ones(3), np.arange(4), 8)
        batch = TripletRows(block, np.array([[0, 1, 2]]))
        losses = []
        for w_pos in (0.5, 1.0, 2.0):
            flat = np.zeros(8)
            flat[0] = 1.0
            flat[1] = w_pos
            flat[2] = 0.7
            params = Params(feature_dim=8, embed_dim=1, flat=flat)
            losses.append(retrieval_loss(params, batch)[0])
        assert losses[0] > losses[1] > losses[2]

    def test_nan_scores_rejected(self, small_encoder, rng):
        params, featurizer = small_encoder
        batch = triplet_rows(featurizer, rng, 1)
        params.W[:, triplets(batch)[0].query.indices[0]] = np.nan  # planted after the finite check
        with pytest.raises(InvariantError, match="non-finite relevance score"):
            retrieval_loss(params, batch)


class TestCocoLoss:
    def test_identical_spans_symmetric_case(self):
        block = Featurizer(dim=4)([["same"]])
        params = Params(feature_dim=4, embed_dim=2, flat=np.full(8, 0.3))
        spans = FeatureRows(block, np.zeros(4, dtype=np.intp))  # two pairs of one row
        # every anchor sees 3 identical non-anchor spans -> each term -log(1/3)
        assert coco_loss(params, spans) == pytest.approx(4 * math.log(3.0) / 2, abs=1e-12)

    def test_dominant_partner_drives_term_to_zero(self):
        block = Featurizer(dim=8)([["aa"] * 6, ["bb"]])
        flat = np.zeros(8)
        flat[block.indices[0]] = 1.5
        params = Params(feature_dim=8, embed_dim=1, flat=flat)
        total = coco_loss(params, FeatureRows(block, np.array([0, 0, 1, 1])))
        # the (a, a) anchors contribute ~0; the (b, b) anchors see 3 equal scores
        assert total == pytest.approx(2 * math.log(3.0) / 2, abs=1e-6)

    def test_matches_brute_force(self, small_encoder, rng):
        params, featurizer = small_encoder
        spans = random_rows(featurizer, rng, 6)
        assert coco_loss(params, spans) == pytest.approx(
            brute_force_coco_oracle(params, spans), abs=1e-10
        )

    def test_batch_of_one_rejected(self, small_encoder, rng):
        params, featurizer = small_encoder
        with pytest.raises(ValueError):
            coco_loss(params, random_rows(featurizer, rng, 2))

    @pytest.mark.parametrize("loss", [coco_loss, coco_loss_grad])
    def test_odd_short_and_foreign_batches_rejected(self, loss, small_encoder, rng):
        """An odd item count, fewer than two pairs, and a block of another feature
        dimension are each a ValueError."""
        params, featurizer = small_encoder
        spans = random_rows(featurizer, rng, 6)
        for n, why in ((5, "even item count"), (3, "even item count"),
                       (2, "n >= 2 pairs"), (0, "n >= 2 pairs")):
            with pytest.raises(ValueError, match=why):
                loss(params, rows_of(spans, *range(n)))
        other = Featurizer(dim=params.feature_dim + 1)
        foreign = other([random_tokens(rng) for _ in range(4)]).all_rows()
        with pytest.raises(ValueError, match="does not match encoder feature dim"):
            loss(params, foreign)

    def test_permutation_invariance(self, small_encoder, rng):
        params, featurizer = small_encoder
        spans = random_rows(featurizer, rng, 8)
        total = coco_loss(params, spans)
        shuffled = rows_of(spans, *(s for p in (3, 1, 0, 2) for s in (2 * p, 2 * p + 1)))
        assert coco_loss(params, shuffled) == pytest.approx(total, abs=1e-12)

    def test_nonnegative(self, small_encoder, rng):
        params, featurizer = small_encoder
        for _ in range(5):
            assert coco_loss(params, random_rows(featurizer, rng, 6)) >= 0.0

    def test_top1_accuracy_on_separable_batch(self):
        # Identity projection: each pair lives on its own axis, so every
        # anchor's partner scores 1 while all other spans score 0.
        spans = []
        for i in range(4):
            fv = FeatureVector(
                indices=np.array([i], dtype=np.int64), counts=np.array([1.0]), dim=8
            )
            spans += [fv, fv]
        params = Params(feature_dim=8, embed_dim=8, flat=np.eye(8).ravel())
        assert coco_top1_accuracy(params, spans) == 1.0


class TestGradients:
    @pytest.mark.parametrize("wide", [False, True])
    def test_retrieval_gradient_matches_central_differences(self, wide, rng):
        featurizer = Featurizer(dim=12)
        params = Params.init_random(12, 3, seed=21)
        # wide rows hold 10 candidates, past the 8 terms where row sums turn pairwise
        batch = triplet_rows(featurizer, rng, 3, n_neg=9 if wide else 2)
        _, _, analytic = retrieval_loss_grad(params, batch)
        numeric = central_differences(params, lambda p: retrieval_loss(p, batch)[0])
        assert relative_error(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("shared_docs", [False, True])
    def test_coco_gradient_matches_central_differences(self, shared_docs, rng):
        featurizer = Featurizer(dim=12)
        params = Params.init_random(12, 3, seed=22)
        spans = random_rows(featurizer, rng, 6 + 2 * shared_docs)
        if shared_docs:  # a later pair reuses an earlier pair's rows
            spans = rows_of(spans, 0, 1, 2, 3, 4, 5, 6, 1, 2, 7)
        _, cols, row = coco_loss_grad(params, spans)
        analytic = scatter_grad(params, cols, row)
        numeric = central_differences(params, lambda p: coco_loss(p, spans))
        assert relative_error(analytic, numeric) < 1e-4

    def test_gradient_scales_linearly(self, small_encoder, rng):
        params, featurizer = small_encoder
        batch = triplet_rows(featurizer, rng, 2)
        _, _, grad = retrieval_loss_grad(params, batch)
        # scaling the loss by c scales its gradient by c; with the batch mean
        # this is equivalent to duplicating the batch c times
        doubled = pick(batch, [0, 1, 0, 1])
        _, _, grad2 = retrieval_loss_grad(params, doubled)
        np.testing.assert_allclose(grad2, grad, atol=1e-12)


def max_rel(a, b):
    """Largest absolute difference relative to the largest magnitude of the reference."""
    return float(np.max(np.abs(a - b)) / max(float(np.max(np.abs(b))), 1e-300))


def draw_doc(texts, rng, n_pool, fresh):
    """The row of a new random text appended to ``texts``, or of one of its first
    ``n_pool`` texts (the document pool)."""
    if fresh:
        texts.append(random_tokens(rng))
        return len(texts) - 1
    return int(rng.integers(n_pool))


def draw_docs(texts, rng, n_pool, size, fresh):
    """``size`` rows of new random texts appended to ``texts``, or of pool texts."""
    if fresh:
        return [draw_doc(texts, rng, n_pool, True) for _ in range(size)]
    return rng.integers(n_pool, size=size).tolist()


def pooled_batch(featurizer, rng, pool, n, n_neg, fresh):
    """``n`` items of ``n_neg`` negatives over one block that starts with the pool's
    texts: each query a new text, each document a pool row (so rows repeat within
    the batch) or, with ``fresh``, a new text."""
    texts = list(pool)
    rows = [[draw_doc(texts, rng, len(pool), True), draw_doc(texts, rng, len(pool), fresh),
             *draw_docs(texts, rng, len(pool), n_neg, fresh)] for _ in range(n)]
    return TripletRows(featurizer(texts), np.array(rows, dtype=np.intp).reshape(n, 2 + n_neg))


class TestClusterGrads:
    """The one-pass per-cluster gradients against one dense loss+backward per cluster."""

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("fresh_docs", [False, True])
    def test_matches_dense_per_cluster_reference(self, fresh_docs, wide):
        rng = np.random.Generator(np.random.PCG64(31 + 2 * fresh_docs + wide))
        featurizer = Featurizer(dim=64)
        pool = [random_tokens(rng) for _ in range(12)]
        for trial in range(10):
            params = Params.init_random(64, 5, seed=trial)
            k = trial % 5 + 1
            ids = rng.choice(9, size=k, replace=False)
            n = int(rng.integers(k, 13))
            # 1-3 negatives per trial, or 8-12 in wide rows; documents drawn from a
            # small pool, so they repeat within the batch, or with fresh_docs each a new text
            n_neg = int(rng.integers(8, 13) if wide else rng.integers(1, 4))
            batch = pooled_batch(featurizer, rng, pool, n, n_neg, fresh_docs)
            clusters = np.concatenate([ids, rng.choice(ids, size=n - k)])
            rng.shuffle(clusters)

            losses, cols, rows = retrieval_cluster_grads(params, batch, ClusterLayout.of(clusters))
            ref_losses, present, dense = per_cluster_reference(params, triplets(batch), clusters)
            assert losses.tobytes() == ref_losses.tobytes()
            assert rows.shape[0] == present.size == k
            # relative to the whole stack: a cluster whose terms cancel has a zero gradient
            assert max_rel(np.array([scatter_grad(params, cols, row) for row in rows]), dense) < 1e-10

            cluster_losses = rng.uniform(0.1, 2.0, size=k)
            assert max_rel(r_matrix(cluster_losses, rows, 0.25),
                           r_matrix(cluster_losses, dense, 0.25)) < 1e-10
            alpha, omega = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
            combined = scatter_grad(params, cols, combine_cluster_grads(rows, alpha, omega))
            assert max_rel(combined, combine_cluster_grads(dense, alpha, omega)) < 1e-10

    @pytest.mark.parametrize("shared_docs", [False, True])
    def test_one_cluster_is_retrieval_loss_grad(self, shared_docs, rng):
        featurizer = Featurizer(dim=40)
        params = Params.init_random(40, 4, seed=8)
        batch = triplet_rows(featurizer, rng, 5)
        if shared_docs:  # one item's positive is another's negative, and a query repeats
            rows = batch.rows
            extra = [rows[0, 0], rows[1, 2], rows[2, 1], rows[3, 3]]
            batch = TripletRows(batch.block, np.vstack([rows, extra]))
        total, per_item, grad = retrieval_loss_grad(params, batch)
        ref_items, ref_grad = dense_retrieval_loss_grad(params, triplets(batch))
        assert per_item.tobytes() == ref_items.tobytes()
        assert total == float(np.mean(ref_items))
        assert max_rel(grad, ref_grad) < 1e-10

    def test_cluster_losses_equal_each_cluster_alone(self, small_encoder, rng):
        params, featurizer = small_encoder
        batch = triplet_rows(featurizer, rng, 4)
        clusters = np.array([3, 1, 3, 1])
        losses, _, _ = retrieval_cluster_grads(params, batch, ClusterLayout.of(clusters))
        for c in (1, 3):
            members = np.flatnonzero(clusters == c)
            _, alone = retrieval_loss(params, pick(batch, members))
            assert losses[members].tobytes() == alone.tobytes()


def same_bytes(a, b):
    """Equal dtype, shape and bytes, or both None."""
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# The vocabulary `random_tokens` draws from.
_TOKENS = [f"tok{i}" for i in range(40)]


def colliding_featurizer(embed_dim, words):
    """A featurizer whose dimension, 96 + ``embed_dim``, differs per embedding
    width, so each width meets its own bucket collisions; at least two of
    ``words`` share a bucket."""
    featurizer = Featurizer(dim=96 + embed_dim)
    assert len({featurizer.bucket(word) for word in words}) < len(words)
    return featurizer


class TestAgainstLoops:
    """The array losses against the item-by-item and anchor-by-anchor loops, byte for
    byte; the loops encode item by item and backpropagate group by group."""

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("fresh_docs", [False, True])
    @pytest.mark.parametrize("embed_dim", [1, 3, 6, 48, 64])
    def test_retrieval_matches_item_loop(self, embed_dim, fresh_docs, wide):
        rng = np.random.Generator(np.random.PCG64([embed_dim, fresh_docs, wide]))
        featurizer = colliding_featurizer(embed_dim, _TOKENS)
        pool = [random_tokens(rng) for _ in range(10)]
        for trial in range(25):
            params = Params.init_random(featurizer.dim, embed_dim, seed=trial)
            n = int(rng.integers(1, 15))
            # 1-8 negatives per trial, or in wide rows 8-40 (rows of 8 terms and
            # more sum pairwise), drawn from a small pool, so rows repeat, or with
            # fresh_docs each a new text
            n_neg = int(rng.integers(8, 41) if wide else rng.integers(1, 9))
            batch = pooled_batch(featurizer, rng, pool, n, n_neg, fresh_docs)
            clusters = rng.integers(5, 8, size=n)
            for with_grad in (False, True):
                got = _retrieval(params, batch, ClusterLayout.of(clusters), with_grad)
                want = loop_retrieval(params, triplets(batch), clusters, with_grad)
                for name, a, b in zip(("losses", "cols", "rows"), got, want):
                    assert same_bytes(a, b), (trial, with_grad, name)
            got = retrieval_cluster_grads(params, batch, ClusterLayout.of(clusters))
            assert all(same_bytes(a, b) for a, b in zip(got, want)), trial

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("embed_dim", [1, 6, 64])
    def test_row_batch_matches_item_loop(self, embed_dim, wide):
        """A `TripletRows` batch of a featurized block, queries and documents repeating
        within a batch, against the item loop on the block's feature vectors; wide
        rows hold 10-21 candidates."""
        rng = np.random.Generator(np.random.PCG64([embed_dim, wide, 11]))
        words = [f"w{i}" for i in range(40)]
        texts = [rng.choice(words, size=int(rng.integers(0, 9))).tolist() for _ in range(30)]
        block = colliding_featurizer(embed_dim, words)(texts)
        for trial in range(12):
            params = Params.init_random(block.dim, embed_dim, seed=trial)
            n = int(rng.integers(1, 15))
            n_neg = int(rng.integers(9, 21) if wide else rng.integers(1, 5))
            rows = rng.integers(0, 8 if trial % 2 else 30, size=(n, 2 + n_neg))
            batch = TripletRows(block, rows)
            clusters = rng.integers(5, 8, size=n)
            for with_grad in (False, True):
                got = _retrieval(params, batch, ClusterLayout.of(clusters), with_grad)
                want = loop_retrieval(params, triplets(batch), clusters, with_grad)
                for name, a, b in zip(("losses", "cols", "rows"), got, want):
                    assert same_bytes(a, b), (trial, with_grad, name)

    def test_row_batch_needs_a_negative(self):
        block = Featurizer(dim=8)([["a"], ["b"]])
        with pytest.raises(ValueError, match="at least one negative"):
            TripletRows(block, np.array([[0, 1]]))

    def test_retrieval_empty_batch_matches_item_loop(self, small_encoder):
        params, featurizer = small_encoder
        for with_grad in (False, True):
            got = _retrieval(params, empty_batch(featurizer),
                             ClusterLayout.of(np.empty(0, dtype=np.int64)), with_grad)
            want = loop_retrieval(params, [], np.empty(0, dtype=np.int64), with_grad)
            assert all(same_bytes(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("fresh_docs", [False, True])
    @pytest.mark.parametrize("embed_dim", [1, 3, 6, 48, 64])
    def test_coco_matches_anchor_loop(self, embed_dim, fresh_docs):
        rng = np.random.Generator(np.random.PCG64([embed_dim, fresh_docs, 7]))
        featurizer = colliding_featurizer(embed_dim, _TOKENS)
        pool = [random_tokens(rng) for _ in range(10)]
        # rows of 2n - 1 >= 8 terms and sums of 2n >= 16 anchor terms are
        # where pairwise and sequential summation part
        for trial, n in enumerate([2, 3, 4, 8, 9, 16, 33, 40, *rng.integers(2, 41, size=8)]):
            params = Params.init_random(featurizer.dim, embed_dim, seed=trial)
            # each pair a new text and a pool text (rows repeat) or a new one
            texts = list(pool)
            rows = [row for _ in range(int(n)) for row in (draw_doc(texts, rng, 10, True),
                                                          draw_doc(texts, rng, 10, fresh_docs))]
            spans = FeatureRows(featurizer(texts), np.array(rows))
            fvs = item_vectors(spans)
            assert same_bytes(coco_loss(params, spans), loop_coco(params, fvs, False)[0])
            total, cols, row = coco_loss_grad(params, spans)
            grad = scatter_grad(params, cols, row)
            ref_total, ref_grad = loop_coco(params, fvs, True)
            assert same_bytes(total, ref_total), trial
            assert same_bytes(grad, ref_grad), trial

    def test_coco_nan_similarity_rejected(self, small_encoder, rng):
        params, featurizer = small_encoder
        spans = random_rows(featurizer, rng, 6)
        params.W[:, item_vectors(spans)[2].indices[0]] = np.nan
        with pytest.raises(InvariantError, match="non-finite relevance score"):
            coco_loss(params, spans)
