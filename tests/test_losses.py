import math

import numpy as np
import pytest

from robustdr.encoder import Featurizer, Params, encode, scatter_grad
from robustdr.errors import InvariantError
from robustdr.idro import combine_cluster_grads, r_matrix
from robustdr.losses import (
    Triplet,
    _retrieval,
    coco_loss,
    coco_loss_grad,
    retrieval_cluster_grads,
    retrieval_loss,
    retrieval_loss_grad,
)
from tests.conftest import random_feature_vector
from tests.oracles import (
    coco_top1_accuracy,
    dense_retrieval_loss_grad,
    loop_coco,
    loop_retrieval,
    per_cluster_reference,
)


def make_triplet(featurizer, rng, n_neg=2):
    return Triplet(
        query=random_feature_vector(featurizer, rng),
        positive=random_feature_vector(featurizer, rng),
        negatives=tuple(random_feature_vector(featurizer, rng) for _ in range(n_neg)),
    )


def scalar_retrieval_oracle(params, batch):
    """Independent per-item evaluation with plain math.exp on floats."""
    per_item = []
    for item in batch:
        q = encode(params, item.query)
        s_pos = float(q @ encode(params, item.positive))
        s_negs = [float(q @ encode(params, neg)) for neg in item.negatives]
        denom = math.exp(s_pos) + sum(math.exp(s) for s in s_negs)
        per_item.append(-math.log(math.exp(s_pos) / denom))
    return sum(per_item) / len(per_item), per_item


def brute_force_coco_oracle(params, batch):
    """Enumerate every anchor and every denominator term directly."""
    spans = [fv for pair in batch for fv in pair]
    embs = [encode(params, fv) for fv in spans]
    total = 0.0
    for a in range(len(spans)):
        partner = a ^ 1
        num = math.exp(float(embs[a] @ embs[partner]))
        den = sum(math.exp(float(embs[a] @ embs[j])) for j in range(len(spans)) if j != a)
        total += -math.log(num / den)
    return total / len(batch)


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
        featurizer = Featurizer(dim=4, seed=0)
        item = Triplet(featurizer(["a"]), featurizer(["b"]), (featurizer(["c"]),))
        total, per_item = retrieval_loss(params, [item])
        assert total == pytest.approx(math.log(2.0), abs=1e-12)
        assert per_item[0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_large_margin_drives_loss_to_zero(self):
        # A positive sharing the query's bucket scores ~||e||^2 >> 0 while the
        # negative stays orthogonal, so the loss collapses toward 0.
        featurizer = Featurizer(dim=8, seed=0)
        q = featurizer(["shared"] * 8)
        neg = featurizer(["elsewhere"])
        if neg.indices[0] == q.indices[0]:
            neg = featurizer(["different"])
        params = Params(feature_dim=8, embed_dim=1, flat=np.ones(8))
        total, _ = retrieval_loss(params, [Triplet(q, q, (neg,))])
        assert total < 1e-8

    def test_matches_independent_scalar_oracle(self, small_encoder, rng):
        params, featurizer = small_encoder
        batch = [make_triplet(featurizer, rng, n_neg=int(rng.integers(1, 4))) for _ in range(5)]
        total, per_item = retrieval_loss(params, batch)
        oracle_total, oracle_items = scalar_retrieval_oracle(params, batch)
        assert total == pytest.approx(oracle_total, abs=1e-10)
        np.testing.assert_allclose(per_item, oracle_items, atol=1e-10)

    def test_empty_batch(self, small_encoder):
        params, _ = small_encoder
        total, per_item, grad = retrieval_loss_grad(params, [])
        assert total == 0.0
        assert per_item.size == 0
        np.testing.assert_array_equal(grad, np.zeros_like(params.flat))

    def test_permutation_invariance(self, small_encoder, rng):
        params, featurizer = small_encoder
        batch = [make_triplet(featurizer, rng) for _ in range(4)]
        total, _ = retrieval_loss(params, batch)
        shuffled = [batch[i] for i in (2, 0, 3, 1)]
        assert retrieval_loss(params, shuffled)[0] == pytest.approx(total, abs=1e-12)

    def test_duplicate_negative_strictly_increases_loss(self, small_encoder, rng):
        params, featurizer = small_encoder
        item = make_triplet(featurizer, rng)
        bigger = Triplet(item.query, item.positive, item.negatives + (item.negatives[0],))
        assert retrieval_loss(params, [bigger])[0] > retrieval_loss(params, [item])[0]

    def test_monotone_in_positive_score(self):
        # Inject scores directly through a 1-d encoder with hand-built buckets.
        def unit_fv(bucket):
            from robustdr.encoder import FeatureVector

            return FeatureVector(
                indices=np.array([bucket], dtype=np.int64),
                counts=np.array([1.0]),
                dim=8,
            )

        q, pos, neg = unit_fv(0), unit_fv(1), unit_fv(2)
        losses = []
        for w_pos in (0.5, 1.0, 2.0):
            flat = np.zeros(8)
            flat[0] = 1.0
            flat[1] = w_pos
            flat[2] = 0.7
            params = Params(feature_dim=8, embed_dim=1, flat=flat)
            losses.append(retrieval_loss(params, [Triplet(q, pos, (neg,))])[0])
        assert losses[0] > losses[1] > losses[2]

    def test_nan_scores_rejected(self, small_encoder, rng):
        params, featurizer = small_encoder
        batch = [make_triplet(featurizer, rng)]
        params.W[:, batch[0].query.indices[0]] = np.nan  # planted after the finite check
        with pytest.raises(InvariantError, match="non-finite relevance score"):
            retrieval_loss(params, batch)

    def test_in_batch_negatives_add_terms(self, small_encoder, rng):
        params, featurizer = small_encoder
        batch = [make_triplet(featurizer, rng) for _ in range(3)]
        plain, _ = retrieval_loss(params, batch, in_batch_negatives=False)
        with_ib, per_item = retrieval_loss(params, batch, in_batch_negatives=True)
        assert with_ib > plain
        # oracle: extend each denominator with the other items' positives
        for i, item in enumerate(batch):
            q = encode(params, item.query)
            s_pos = float(q @ encode(params, item.positive))
            cands = [s_pos]
            cands += [float(q @ encode(params, n)) for n in item.negatives]
            cands += [
                float(q @ encode(params, other.positive))
                for j, other in enumerate(batch)
                if j != i
            ]
            denom = sum(math.exp(s) for s in cands)
            assert per_item[i] == pytest.approx(-math.log(math.exp(s_pos) / denom), abs=1e-10)


class TestCocoLoss:
    def test_identical_spans_symmetric_case(self):
        featurizer = Featurizer(dim=4, seed=0)
        fv = featurizer(["same"])
        params = Params(feature_dim=4, embed_dim=2, flat=np.full(8, 0.3))
        batch = [(fv, fv), (fv, fv)]
        # every anchor sees 3 identical non-anchor spans -> each term -log(1/3)
        assert coco_loss(params, batch) == pytest.approx(4 * math.log(3.0) / 2, abs=1e-12)

    def test_dominant_partner_drives_term_to_zero(self):
        featurizer = Featurizer(dim=8, seed=0)
        a = featurizer(["aa"] * 6)
        b = featurizer(["bb"])
        flat = np.zeros(8)
        flat[a.indices[0]] = 1.5
        params = Params(feature_dim=8, embed_dim=1, flat=flat)
        batch = [(a, a), (b, b)]
        total = coco_loss(params, batch)
        # the (a, a) anchors contribute ~0; the (b, b) anchors see 3 equal scores
        assert total == pytest.approx(2 * math.log(3.0) / 2, abs=1e-6)

    def test_matches_brute_force(self, small_encoder, rng):
        params, featurizer = small_encoder
        batch = [
            (random_feature_vector(featurizer, rng), random_feature_vector(featurizer, rng))
            for _ in range(3)
        ]
        assert coco_loss(params, batch) == pytest.approx(
            brute_force_coco_oracle(params, batch), abs=1e-10
        )

    def test_batch_of_one_rejected(self, small_encoder, rng):
        params, featurizer = small_encoder
        pair = (random_feature_vector(featurizer, rng), random_feature_vector(featurizer, rng))
        with pytest.raises(ValueError):
            coco_loss(params, [pair])

    def test_permutation_invariance(self, small_encoder, rng):
        params, featurizer = small_encoder
        batch = [
            (random_feature_vector(featurizer, rng), random_feature_vector(featurizer, rng))
            for _ in range(4)
        ]
        total = coco_loss(params, batch)
        shuffled = [batch[i] for i in (3, 1, 0, 2)]
        assert coco_loss(params, shuffled) == pytest.approx(total, abs=1e-12)

    def test_nonnegative(self, small_encoder, rng):
        params, featurizer = small_encoder
        for _ in range(5):
            batch = [
                (random_feature_vector(featurizer, rng), random_feature_vector(featurizer, rng))
                for _ in range(3)
            ]
            assert coco_loss(params, batch) >= 0.0

    def test_top1_accuracy_on_separable_batch(self):
        from robustdr.encoder import FeatureVector

        # Identity projection: each pair lives on its own axis, so every
        # anchor's partner scores 1 while all other spans score 0.
        pairs = []
        for i in range(4):
            fv = FeatureVector(
                indices=np.array([i], dtype=np.int64), counts=np.array([1.0]), dim=8
            )
            pairs.append((fv, fv))
        params = Params(feature_dim=8, embed_dim=8, flat=np.eye(8).ravel())
        assert coco_top1_accuracy(params, pairs) == 1.0


class TestGradients:
    @pytest.mark.parametrize("in_batch", [False, True])
    def test_retrieval_gradient_matches_central_differences(self, in_batch, rng):
        featurizer = Featurizer(dim=12, seed=3)
        params = Params.init_random(12, 3, seed=21)
        batch = [make_triplet(featurizer, rng) for _ in range(3)]
        _, _, analytic = retrieval_loss_grad(params, batch, in_batch)
        numeric = central_differences(params, lambda p: retrieval_loss(p, batch, in_batch)[0])
        assert relative_error(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("shared_docs", [False, True])
    def test_coco_gradient_matches_central_differences(self, shared_docs, rng):
        featurizer = Featurizer(dim=12, seed=4)
        params = Params.init_random(12, 3, seed=22)
        batch = [
            (random_feature_vector(featurizer, rng), random_feature_vector(featurizer, rng))
            for _ in range(3)
        ]
        if shared_docs:  # a later pair reuses an earlier pair's objects
            batch.append((random_feature_vector(featurizer, rng), batch[0][1]))
            batch.append((batch[1][0], random_feature_vector(featurizer, rng)))
        _, cols, row = coco_loss_grad(params, batch)
        analytic = scatter_grad(params, cols, row)
        numeric = central_differences(params, lambda p: coco_loss(p, batch))
        assert relative_error(analytic, numeric) < 1e-4

    def test_gradient_scales_linearly(self, small_encoder, rng):
        params, featurizer = small_encoder
        batch = [make_triplet(featurizer, rng) for _ in range(2)]
        _, _, grad = retrieval_loss_grad(params, batch)
        # scaling the loss by c scales its gradient by c; with the batch mean
        # this is equivalent to duplicating the batch c times
        doubled = batch + batch
        _, _, grad2 = retrieval_loss_grad(params, doubled)
        np.testing.assert_allclose(grad2, grad, atol=1e-12)


def max_rel(a, b):
    """Largest absolute difference relative to the largest magnitude of the reference."""
    return float(np.max(np.abs(a - b)) / max(float(np.max(np.abs(b))), 1e-300))


def draw_doc(featurizer, rng, pool, fresh):
    """A new random document vector, or an object drawn from ``pool``."""
    if fresh:
        return random_feature_vector(featurizer, rng)
    return pool[int(rng.integers(len(pool)))]


def draw_docs(featurizer, rng, pool, size, fresh):
    """``size`` new random document vectors, or ``size`` objects drawn from ``pool``."""
    if fresh:
        return tuple(random_feature_vector(featurizer, rng) for _ in range(size))
    return tuple(pool[int(j)] for j in rng.integers(len(pool), size=size))


class TestClusterGrads:
    """The one-pass per-cluster gradients against one dense loss+backward per cluster."""

    @pytest.mark.parametrize("in_batch", [False, True])
    @pytest.mark.parametrize("fresh_docs", [False, True])
    def test_matches_dense_per_cluster_reference(self, fresh_docs, in_batch):
        rng = np.random.Generator(np.random.PCG64(31 + 2 * fresh_docs + in_batch))
        featurizer = Featurizer(dim=64, seed=9)
        docs = [random_feature_vector(featurizer, rng) for _ in range(12)]
        for trial in range(10):
            params = Params.init_random(64, 5, seed=trial)
            k = trial % 5 + 1
            ids = rng.choice(9, size=k, replace=False)
            n = int(rng.integers(k, 13))
            # documents drawn from a small pool, so they repeat within the batch,
            # or with fresh_docs each a new vector
            batch = [
                Triplet(
                    random_feature_vector(featurizer, rng),
                    draw_doc(featurizer, rng, docs, fresh_docs),
                    draw_docs(featurizer, rng, docs, int(rng.integers(1, 4)), fresh_docs),
                )
                for _ in range(n)
            ]
            clusters = np.concatenate([ids, rng.choice(ids, size=n - k)])
            rng.shuffle(clusters)

            losses, cols, rows = retrieval_cluster_grads(params, batch, clusters, in_batch)
            ref_losses, present, dense = per_cluster_reference(params, batch, clusters, in_batch)
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
        featurizer = Featurizer(dim=40, seed=2)
        params = Params.init_random(40, 4, seed=8)
        batch = [make_triplet(featurizer, rng) for _ in range(5)]
        if shared_docs:  # one item's positive is another's negative, and a query repeats
            batch.append(Triplet(batch[0].query, batch[1].negatives[0], (batch[2].positive,)))
        total, per_item, grad = retrieval_loss_grad(params, batch, in_batch_negatives=True)
        ref_items, ref_grad = dense_retrieval_loss_grad(params, batch, in_batch_negatives=True)
        assert per_item.tobytes() == ref_items.tobytes()
        assert total == float(np.mean(ref_items))
        assert max_rel(grad, ref_grad) < 1e-10

    def test_in_batch_negatives_stay_within_cluster(self, small_encoder, rng):
        params, featurizer = small_encoder
        batch = [make_triplet(featurizer, rng) for _ in range(4)]
        clusters = np.array([3, 1, 3, 1])
        losses, _, _ = retrieval_cluster_grads(params, batch, clusters, in_batch_negatives=True)
        for c in (1, 3):
            members = np.flatnonzero(clusters == c)
            _, alone = retrieval_loss(params, [batch[i] for i in members], True)
            assert losses[members].tobytes() == alone.tobytes()


def same_bytes(a, b):
    """Equal dtype, shape and bytes, or both None."""
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestAgainstLoops:
    """The array losses against the item-by-item and anchor-by-anchor loops, byte for byte."""

    @pytest.mark.parametrize("in_batch", [False, True])
    @pytest.mark.parametrize("fresh_docs", [False, True])
    @pytest.mark.parametrize("embed_dim", [3, 6, 48, 64])
    def test_retrieval_matches_item_loop(self, embed_dim, fresh_docs, in_batch):
        rng = np.random.Generator(np.random.PCG64([embed_dim, fresh_docs, in_batch]))
        featurizer = Featurizer(dim=97, seed=embed_dim)
        docs = [random_feature_vector(featurizer, rng) for _ in range(10)]
        mixed_counts = 0
        for trial in range(25):
            params = Params.init_random(97, embed_dim, seed=trial)
            n = int(rng.integers(1, 15))
            # ragged 1-8 negatives drawn from a small pool, so objects repeat,
            # or with fresh_docs each a new vector
            batch = [
                Triplet(
                    random_feature_vector(featurizer, rng),
                    draw_doc(featurizer, rng, docs, fresh_docs),
                    draw_docs(featurizer, rng, docs, int(rng.integers(1, 9)), fresh_docs),
                )
                for _ in range(n)
            ]
            clusters = rng.integers(5, 8, size=n)
            for c in np.unique(clusters):
                counts = {len(batch[i].negatives) for i in np.flatnonzero(clusters == c)}
                mixed_counts += np.sum(clusters == c) >= 3 and len(counts) > 1
            for with_grad in (False, True):
                got = _retrieval(params, batch, in_batch, clusters, with_grad)
                want = loop_retrieval(params, batch, in_batch, clusters, with_grad)
                for name, a, b in zip(("losses", "cols", "rows"), got, want):
                    assert same_bytes(a, b), (trial, with_grad, name)
        # clusters of 3+ items with ragged negatives took part
        assert mixed_counts >= 10

    def test_retrieval_empty_batch_matches_item_loop(self, small_encoder):
        params, _ = small_encoder
        for with_grad in (False, True):
            got = _retrieval(params, [], True, np.empty(0, dtype=np.int64), with_grad)
            want = loop_retrieval(params, [], True, np.empty(0, dtype=np.int64), with_grad)
            assert all(same_bytes(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("fresh_docs", [False, True])
    @pytest.mark.parametrize("embed_dim", [3, 6, 48, 64])
    def test_coco_matches_anchor_loop(self, embed_dim, fresh_docs):
        rng = np.random.Generator(np.random.PCG64([embed_dim, fresh_docs, 7]))
        featurizer = Featurizer(dim=97, seed=embed_dim)
        docs = [random_feature_vector(featurizer, rng) for _ in range(10)]
        # rows of 2n - 1 >= 8 terms and sums of 2n >= 16 anchor terms are
        # where pairwise and sequential summation part
        for trial, n in enumerate([2, 3, 4, 8, 9, 16, 33, 40, *rng.integers(2, 41, size=8)]):
            params = Params.init_random(97, embed_dim, seed=trial)
            batch = [
                (random_feature_vector(featurizer, rng), draw_doc(featurizer, rng, docs, fresh_docs))
                for _ in range(int(n))
            ]
            assert same_bytes(coco_loss(params, batch), loop_coco(params, batch, False)[0])
            total, cols, row = coco_loss_grad(params, batch)
            grad = scatter_grad(params, cols, row)
            ref_total, ref_grad = loop_coco(params, batch, True)
            assert same_bytes(total, ref_total), trial
            assert same_bytes(grad, ref_grad), trial

    def test_coco_nan_similarity_rejected(self, small_encoder, rng):
        params, featurizer = small_encoder
        batch = [(random_feature_vector(featurizer, rng), random_feature_vector(featurizer, rng))
                 for _ in range(3)]
        params.W[:, batch[1][0].indices[0]] = np.nan
        with pytest.raises(InvariantError, match="non-finite relevance score"):
            coco_loss(params, batch)

