import dataclasses
import json
import logging
import math
import sys
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from robustdr import clustering, experiments, retrieval_eval, trainer
from robustdr.corpus import Corpus, Document, QrelSet, Query, QuerySet
from robustdr.encoder import Featurizer, Params, encode_many, scatter_grad
from robustdr.errors import ConfigError, CorpusFormatError, InvariantError
from robustdr.synthetic import make_imbalanced_source, make_two_domain_benchmark
from robustdr.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    OPTIMIZERS,
    WEIGHTINGS,
    FeatureStore,
    Finetuner,
    Optimizer,
    RunConfig,
    _derived_rng,
    _TAG_BATCH,
    _TAG_KMEANS,
    _draw_picks,
    bm25_negative_pools,
    mine_negatives,
    pretrain_coco,
    scheduled_lr,
    training_store,
)
from tests.oracles import (
    DenseOptimizer,
    ObjectFinetuner,
    adam_reference,
    bm25_pools_reference,
    dense_moments,
    draw_picks_reference,
    mined_pools_reference,
)


def tiny_task():
    task, _ = make_imbalanced_source(
        seed=1,
        n_major_topics=2,
        n_rare_topics=1,
        docs_per_topic=4,
        major_queries_per_topic=4,
        rare_queries_per_topic=2,
    )
    return task


def tiny_config(**overrides):
    base = dict(
        seed=11,
        feature_dim=512,
        embed_dim=8,
        span_len=3,
        pretrain_epochs=2,
        episodes=2,
        steps_per_episode=4,
        batch_size=6,
        negatives_per_query=2,
        mine_depth=5,
        k_clusters=3,
        kmeans_iters=10,
        weighting="idro",
        beta=0.25,
        tau=1.0,
        learning_rate=0.05,
    )
    base.update(overrides)
    return RunConfig(**base)


def mined_ids(params, featurizer, queries, corpus, qrels, k, rng):
    """`mine_negatives` on a store of the task, its pools as document ids."""
    store = FeatureStore(featurizer, queries, corpus, qrels)
    pools, n_fallback = mine_negatives(params, store, k, rng)
    return store.pool_ids(pools), n_fallback


def bm25_ids(queries, corpus, qrels, k, rng):
    """`bm25_negative_pools` on a store of the task, its pools as document ids."""
    store = FeatureStore(Featurizer(16), queries, corpus, qrels)
    pools, n_fallback = bm25_negative_pools(store, k, rng)
    return store.pool_ids(pools), n_fallback


def task_finetuner(config, task, init_seed=5, store=None):
    """A `Finetuner` of the task from seeded initial weights, on its own store
    unless one is given."""
    params = Params.init_random(config.feature_dim, config.embed_dim, seed=init_seed)
    if store is None:
        store = training_store(config, task.corpus, task.queries, task.qrels)
    return Finetuner(config, params, store)


def run_finetune(config, task, init_seed=5, store=None):
    """A `Finetuner` after all its episodes."""
    ft = task_finetuner(config, task, init_seed, store)
    ft.run()
    return ft


class TestRunConfig:
    def test_json_roundtrip(self):
        config = tiny_config(tau=math.inf)
        again = RunConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert again == config

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="mystery_knob"):
            RunConfig.from_dict({"mystery_knob": 3})

    def test_checked_when_built_and_never_changed(self):
        with pytest.raises(ConfigError, match="batch_size"):
            RunConfig(batch_size=0)
        config = RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.batch_size = 0
        with pytest.raises(ConfigError, match="k_clusters"):
            config.replace(k_clusters=0)
        assert config == RunConfig()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("weighting", "other"),
            ("learning_rate", 0.0),
            ("beta", -1.0),
            ("tau", 0.0),
            ("batch_size", 0),
            ("seed", -1),
            ("learning_rate", math.inf),
            ("beta", math.inf),
            ("beta", math.nan),
            ("groupdro_step_size", math.inf),
            # an integer beyond float64, as a JSON literal can give
            pytest.param("learning_rate", 10**400, id="learning_rate-huge-int"),
            pytest.param("tau", 10**400, id="tau-huge-int"),
        ],
    )
    def test_invalid_values_name_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            tiny_config(**{field: value})

    def test_values_checked_against_annotations(self):
        # an int is a float, but a bool is neither an int nor a float
        assert tiny_config(learning_rate=1, tau=2).learning_rate == 1
        for field, value in [("batch_size", True), ("tau", False), ("weighting", None),
                             ("seed", 3.0)]:
            with pytest.raises(ConfigError, match=field):
                tiny_config(**{field: value})
        # the removed carryover and in-batch negative switches and hash seed: any value
        # is an unknown field
        for field in ("omega_carryover", "in_batch_negatives", "hash_seed"):
            for value in (0, False, True):
                with pytest.raises(ConfigError, match=f"{field}: unknown config field"):
                    RunConfig.from_dict({field: value})


def growing_steps(params, rng, n_steps):
    """(cols, row) steps on 40 random columns of a vocabulary that grows each step
    but never reaches the top half of the columns; the first step touches none."""
    vocab = params.feature_dim // 2
    for t in range(n_steps):
        cols = np.sort(rng.choice(vocab * t // n_steps, size=40 if t else 0, replace=False))
        size = params.embed_dim * cols.size
        yield cols, rng.normal(size=size) * 10.0 ** rng.uniform(-6, 2, size=size)


class TestOptimizer:
    def test_adam_bytes_equal_textbook_steps(self, tmp_path):
        config = tiny_config(optimizer="adam")
        rng = np.random.Generator(np.random.PCG64(3))
        params = Params.init_random(512, 8, seed=3)
        init = params.copy()
        opt = Optimizer(config, params, np.arange(256))  # the columns growing_steps draws
        ref = (params.flat.copy(), np.zeros(len(params)), np.zeros(len(params)))
        hp = (ADAM_BETA1, ADAM_BETA2, ADAM_EPS)
        touched = set()
        for t, (cols, row) in enumerate(growing_steps(params, rng, 6), start=1):
            lr = 0.05 / t
            opt.step(params.flat, cols, row, lr)
            ref = adam_reference(*ref, scatter_grad(params, cols, row), lr, t, *hp)
            touched.update(cols.tolist())
            m, v = dense_moments(opt)
            assert params.flat.tobytes() == ref[0].tobytes()
            assert m.tobytes() == ref[1].tobytes()
            assert v.tobytes() == ref[2].tobytes()
        assert opt.live.tolist() == list(range(256))
        never = np.setdiff1d(np.arange(512), sorted(touched))
        assert never.size > 256 and np.isin(opt.live, never).any()
        assert params.W[:, never].tobytes() == init.W[:, never].tobytes()

        # one more step, on moments reloaded from a trainer state
        task = tiny_task()
        writer = task_finetuner(config, task)
        writer.run_episode()
        writer.save_state(tmp_path / "state.bin", tmp_path / "state.ckpt")
        ft = task_finetuner(config, task)
        ft.load_state(tmp_path / "state.bin")
        opt = ft.optimizer
        assert opt.live.tolist() == writer.optimizer.live.tolist()
        (tmp_path / "again").mkdir()
        ft.save_state(tmp_path / "again" / "state.bin", tmp_path / "again" / "state.ckpt")
        for name in ("state.bin", "state.ckpt"):
            assert (tmp_path / "again" / name).read_bytes() == (tmp_path / name).read_bytes()
        cols = np.sort(rng.choice(opt.live, size=opt.live.size // 2, replace=False))
        row = rng.normal(size=ft.params.embed_dim * cols.size)
        m, v = dense_moments(opt)
        ref = adam_reference(ft.params.flat.copy(), m, v, scatter_grad(ft.params, cols, row),
                             0.01, opt.t + 1, *hp)
        opt.step(ft.params.flat, cols, row, 0.01)
        m, v = dense_moments(opt)
        assert ft.params.flat.tobytes() == ref[0].tobytes()
        assert m.tobytes() == ref[1].tobytes()
        assert v.tobytes() == ref[2].tobytes()

    @pytest.mark.parametrize("every_column", [False, True])
    def test_sgd_bytes_equal_dense_steps(self, every_column):
        rng = np.random.Generator(np.random.PCG64(4))
        params = Params.init_random(512, 8, seed=3)
        # gradient descent keeps no columns, so none are given
        opt = Optimizer(tiny_config(optimizer="sgd"), params, np.empty(0, dtype=np.int64))
        ref = params.flat.copy()
        steps = list(growing_steps(params, rng, 6))
        if every_column:  # then rows over every column, so the steps span the width
            steps += [(np.arange(512), rng.normal(size=8 * 512)) for _ in range(2)]
        for t, (cols, row) in enumerate(steps, start=1):
            lr = 0.05 / t
            opt.step(params.flat, cols, row, lr)
            ref -= lr * scatter_grad(params, cols, row)
            assert params.flat.tobytes() == ref.tobytes()

    def test_finetuner_adam_starts_on_store_columns(self):
        ft = task_finetuner(tiny_config(optimizer="adam"), tiny_task())
        opt = ft.optimizer
        assert opt.live.tolist() == sorted(set(ft.store.block.indices.tolist()))
        assert opt.m_w.shape == opt.v_w.shape == (opt.live.size, 8)
        assert not opt.m_w.any() and not opt.v_w.any()

    def test_pretrain_adam_starts_on_eligible_vocabulary(self, monkeypatch):
        config = tiny_config(optimizer="adam", span_len=3, feature_dim=4096)
        eligible = [Document.from_fields(f"d{i}", f"w{i} x{i} y{i} z{i} v{i} u{i} t{i}")
                    for i in range(6)]
        short = Document.from_fields("short", "lonely word")  # under 2 * span_len tokens
        built = []

        class Recorded(Optimizer):
            def __init__(self, *args):
                super().__init__(*args)
                built.append((self.live.copy(), self.m_w.any() or self.v_w.any()))

        monkeypatch.setattr(trainer, "Optimizer", Recorded)
        pretrain_coco(config, [Corpus([*eligible[:3], short]), Corpus(eligible[3:])])
        featurizer = Featurizer(config.feature_dim)
        vocab = sorted(set(featurizer([doc.tokens for doc in eligible]).indices.tolist()))
        assert [(live.tolist(), moved) for live, moved in built] == [(vocab, False)]
        lonely = featurizer([short.tokens]).indices
        assert not np.isin(lonely, vocab).any()

    @pytest.mark.parametrize("cols", [[5, 6], [0], [10], [1, 5, 9, 11]])
    def test_adam_step_outside_live_rejected(self, cols):
        params = Params.init_random(16, 2, seed=1)
        opt = Optimizer(tiny_config(optimizer="adam"), params, np.array([1, 5, 9]))
        cols = np.array(cols)
        row = np.ones(2 * cols.size)
        before = params.flat.tobytes()
        with pytest.raises(InvariantError, match="outside its live set"):
            opt.step(params.flat, cols, row, 0.1)
        assert params.flat.tobytes() == before
        assert not opt.m_w.any() and not opt.v_w.any()
        with pytest.raises(InvariantError, match="outside its live set"):
            Optimizer(tiny_config(optimizer="adam"), params, np.empty(0, dtype=np.int64)).step(
                params.flat, cols, row, 0.1)

    @pytest.mark.parametrize("overrides", [
        dict(weighting="idro"), dict(weighting="groupdro"), dict(weighting="uniform"),
        dict(weighting="idro", optimizer="sgd"),
        dict(weighting="groupdro", optimizer="sgd"),
        dict(weighting="uniform", optimizer="sgd"),
    ], ids=lambda o: "-".join(str(v) for v in o.values()))
    def test_finetune_equals_dense_optimizer(self, monkeypatch, overrides):
        config, task = tiny_config(**overrides), tiny_task()
        live = run_finetune(config, task)
        monkeypatch.setattr(trainer, "Optimizer", DenseOptimizer)
        dense = run_finetune(config, task)
        assert live.params.flat.tobytes() == dense.params.flat.tobytes()
        assert live.log_rows == dense.log_rows

    @pytest.mark.parametrize("sgd", [False, True])
    def test_pretrain_equals_dense_optimizer(self, monkeypatch, sgd):
        config = tiny_config(pretrain_epochs=3, optimizer="sgd" if sgd else "adam")
        corpus = TestPretrain().separable_corpus(n_docs=20)
        live = pretrain_coco(config, [corpus])
        monkeypatch.setattr(trainer, "Optimizer", DenseOptimizer)
        dense = pretrain_coco(config, [corpus])
        assert live.params.flat.tobytes() == dense.params.flat.tobytes()
        assert live.epoch_losses == dense.epoch_losses


class TestScheduledLr:
    def test_warmup_then_decay(self):
        lrs = [scheduled_lr(1.0, s, 20) for s in range(20)]  # two warm-up steps
        assert lrs[0] == pytest.approx(0.5)
        assert lrs[1] == pytest.approx(1.0)
        assert all(a >= b for a, b in zip(lrs[1:], lrs[2:]))
        assert lrs[-1] > 0.0

    def test_no_warmup(self):
        lrs = [scheduled_lr(2.0, s, 4) for s in range(4)]  # a tenth of 4 rounds to 0
        assert lrs[0] == pytest.approx(2.0)
        assert lrs[-1] == pytest.approx(0.5)


class TestPretrain:
    def separable_corpus(self, n_docs=24, reps=12):
        return Corpus(
            [Document.from_fields(f"d{i}", " ".join([f"uniq{i}"] * reps)) for i in range(n_docs)]
        )

    def test_zero_epochs_equals_init(self):
        config = tiny_config(pretrain_epochs=0)
        result = pretrain_coco(config, [self.separable_corpus()])
        init = Params.init_random(config.feature_dim, config.embed_dim, seed=config.seed)
        assert result.params.flat.tobytes() == init.flat.tobytes()

    def test_separable_corpus_learns_partner_retrieval(self):
        from robustdr.trainer import _span_pair_batch
        from tests.oracles import coco_top1_accuracy, item_vectors

        config = tiny_config(
            pretrain_epochs=6, batch_size=8, learning_rate=0.2, span_len=3
        )
        corpus = self.separable_corpus()
        result = pretrain_coco(config, [corpus])
        losses = result.epoch_losses
        assert losses[1] < losses[0]
        assert losses[2] < losses[1]
        featurizer = Featurizer(config.feature_dim)
        rng = np.random.Generator(np.random.PCG64(99))
        batch = _span_pair_batch(list(corpus)[:12], 3, featurizer, rng)
        assert coco_top1_accuracy(result.params, item_vectors(batch)) > 0.9

    def test_span_pair_batch_rows_are_the_drawn_pairs(self):
        """Items 2p and 2p + 1 of a span batch are the two spans that
        `sample_span_pair` draws for document p from a generator of the same
        seed, each featurized one token at a time; the block holds them alone."""
        from robustdr.corpus import sample_span_pair
        from robustdr.trainer import _span_pair_batch
        from tests.oracles import featurize_reference, item_vectors

        docs = list(tiny_task().corpus)
        featurizer = Featurizer(64)  # few buckets, so spans collide within a row
        collisions = 0
        for seed in range(3):
            rng = np.random.Generator(np.random.PCG64(seed))
            batch = _span_pair_batch(docs, 4, featurizer, rng)
            rng = np.random.Generator(np.random.PCG64(seed))
            spans = [span for doc in docs for span in sample_span_pair(doc, 4, rng)]
            assert len(batch.block) == len(batch) == 2 * len(docs)
            for got, span in zip(item_vectors(batch), spans, strict=True):
                want = featurize_reference(Featurizer(64), span)
                assert got.dim == want.dim == 64
                assert got.indices.tobytes() == want.indices.tobytes()
                assert got.counts.tobytes() == want.counts.tobytes()
                collisions += got.indices.size < len(set(span))
        assert collisions > 0

    def test_deterministic_given_seed(self):
        config = tiny_config(pretrain_epochs=3)
        corpus = self.separable_corpus(n_docs=10)
        a = pretrain_coco(config, [corpus])
        b = pretrain_coco(config, [corpus])
        assert a.epoch_losses == b.epoch_losses
        assert a.params.flat.tobytes() == b.params.flat.tobytes()

    def test_batch_of_one_rejected(self):
        """A span pair's negatives are the other pairs of its batch, so a batch of one
        trains nothing; fine-tuning still takes one."""
        with pytest.raises(ConfigError, match="batch_size"):
            pretrain_coco(tiny_config(batch_size=1), [self.separable_corpus()])
        config = tiny_config(batch_size=1)
        assert [ep.n_steps for ep in run_finetune(config, tiny_task()).episode_records] == [4, 4]

    def test_no_eligible_documents(self):
        config = tiny_config(span_len=50)
        with pytest.raises(ValueError):
            pretrain_coco(config, [self.separable_corpus()])


class TestMineNegatives:
    def identity_setup(self):
        featurizer = Featurizer(dim=64)
        params = Params(feature_dim=64, embed_dim=64, flat=np.eye(64).ravel())
        return params, featurizer

    def test_pools_exclude_all_positives(self, rng):
        task = tiny_task()
        params = Params.init_random(512, 8, seed=0)
        featurizer = Featurizer(512)
        pools, _ = mined_ids(params, featurizer, task.queries, task.corpus, task.qrels, k=6,
                             rng=rng)
        for qid, pool in pools.items():
            for did in pool:
                assert task.qrels.judged(qid).get(did, 0) == 0

    def test_top_distractor_lands_in_pool(self, rng):
        params, featurizer = self.identity_setup()
        corpus = Corpus(
            [
                Document.from_fields("distractor", "apple apple apple"),
                Document.from_fields("positive", "pear"),
            ]
        )
        queries = QuerySet([Query.from_fields("q", "apple")])
        qrels = QrelSet({"q": {"positive": 1}})
        pools, n_fallback = mined_ids(params, featurizer, queries, corpus, qrels, k=2, rng=rng)
        assert pools["q"] == ["distractor"]
        assert n_fallback == 0

    def test_fallback_when_only_positives_retrieved(self, caplog, rng):
        params, featurizer = self.identity_setup()
        corpus = Corpus([Document.from_fields("only", "apple")])
        queries = QuerySet([Query.from_fields("q", "apple")])
        qrels = QrelSet({"q": {"only": 1}})
        with caplog.at_level(logging.WARNING, logger="robustdr.trainer"):
            pools, n_fallback = mined_ids(params, featurizer, queries, corpus, qrels, k=1,
                                          rng=rng)
        assert n_fallback == 1
        assert pools["q"] == []
        assert any("random negatives" in rec.message for rec in caplog.records)


def pool_task(data):
    """A tie-heavy corpus, queries and qrels; some queries have every doc positive."""
    words = st.sampled_from(["ant", "bee", "cat", "dog", "eel"])
    texts = data.draw(st.lists(st.lists(words, max_size=5), min_size=1, max_size=7))
    texts += data.draw(st.lists(st.sampled_from(texts), max_size=3))
    ids = data.draw(st.permutations([f"d{i}" for i in range(len(texts))]))
    corpus = Corpus([Document.from_fields(i, " ".join(t)) for i, t in zip(ids, texts)])
    n_queries = data.draw(st.integers(min_value=1, max_value=9))
    queries = QuerySet([
        Query.from_fields(f"q{i}", " ".join(data.draw(st.lists(
            st.one_of(words, st.just("yak")), max_size=5))))
        for i in range(n_queries)
    ])
    judgments = {}
    for q in range(n_queries):
        positives = ids if data.draw(st.booleans()) else data.draw(
            st.lists(st.sampled_from(ids), max_size=3))
        judgments[f"q{q}"] = dict.fromkeys(positives, 1)
    k = data.draw(st.integers(min_value=1, max_value=len(texts) + 2))
    block = data.draw(st.integers(min_value=1, max_value=4))
    return corpus, queries, QrelSet(judgments), k, block


class TestNegativePools:
    """Both pool functions against the per-query reference loop, fallback included."""

    @given(st.data())
    def test_bm25_pools_match_reference(self, data):
        corpus, queries, qrels, k, block = pool_task(data)
        rng_a, rng_b = (np.random.Generator(np.random.PCG64(5)) for _ in range(2))
        with mock.patch.object(retrieval_eval, "_BLOCK", block):
            got = bm25_ids(queries, corpus, qrels, k, rng_a)
        assert got == bm25_pools_reference(queries, corpus, qrels, k, rng_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @given(st.data())
    def test_mined_pools_match_reference(self, data):
        corpus, queries, qrels, k, block = pool_task(data)
        featurizer = Featurizer(dim=data.draw(st.integers(min_value=1, max_value=6)))
        # Small integer weights, so that scores tie, also across -0.0 and 0.0.
        weights = data.draw(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0]),
                                     min_size=2 * featurizer.dim, max_size=2 * featurizer.dim))
        params = Params(featurizer.dim, 2, flat=np.array(weights))
        rng_a, rng_b = (np.random.Generator(np.random.PCG64(5)) for _ in range(2))
        with mock.patch.object(retrieval_eval, "_BLOCK", block):
            got = mined_ids(params, featurizer, queries, corpus, qrels, k, rng_a)
        assert got == mined_pools_reference(params, featurizer, queries, corpus, qrels, k, rng_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_fallback_warns_in_query_order(self, caplog, rng):
        corpus = Corpus([Document.from_fields("a", "apple"), Document.from_fields("b", "pear")])
        queries = QuerySet([Query.from_fields(q, "apple") for q in ("q2", "q1", "q3")])
        qrels = QrelSet({"q2": {"a": 1}, "q1": {"a": 1}, "q3": {"b": 1}})
        with caplog.at_level(logging.WARNING, logger="robustdr.trainer"):
            pools, n_fallback = bm25_ids(queries, corpus, qrels, k=1, rng=rng)
        assert n_fallback == 2
        assert pools == {"q2": ["b"], "q1": ["b"], "q3": ["a"]}
        warned = [rec.getMessage() for rec in caplog.records if "random negatives" in rec.message]
        assert warned == [f"query {q!r}: BM25 top-1 all positive; random negatives"
                          for q in ("q2", "q1")]

    @pytest.mark.parametrize("mined", [False, True])
    def test_peak_allocation_below_one_score_matrix(self, mined):
        """Pools over Q queries and N docs allocate less than one Q x N float64 matrix."""
        n_docs, n_queries = 400, 1024
        corpus = Corpus([Document.from_fields(f"d{i}", f"w{i % 97} w{i % 89}")
                         for i in range(n_docs)])
        queries = QuerySet([Query.from_fields(f"q{i}", f"w{i % 97} w{i % 7}")
                            for i in range(n_queries)])
        qrels = QrelSet({f"q{i}": {f"d{i % n_docs}": 1} for i in range(n_queries)})
        params = Params.init_random(512, 4, seed=0)
        store = FeatureStore(Featurizer(512), queries, corpus, qrels)
        assert store.bm25.n_docs == n_docs  # the index is built before tracing
        rng = np.random.Generator(np.random.PCG64(0))
        tracemalloc.start()
        try:
            if mined:
                pools, _ = mine_negatives(params, store, 30, rng)
            else:
                pools, _ = bm25_negative_pools(store, 30, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pools) == n_queries
        assert peak < n_queries * n_docs * 8


class TestFinetune:
    def test_runs_episodes_with_correct_negative_sources(self):
        result = run_finetune(tiny_config(episodes=3), tiny_task())
        assert [ep.negative_source for ep in result.episode_records] == ["bm25", "self", "self"]
        assert result.episode_records[0].episode == 1
        assert len(result.log_rows) > 0

    def test_training_loss_trends_down(self):
        config = tiny_config(episodes=2, steps_per_episode=30, learning_rate=0.1)
        result = run_finetune(config, tiny_task())
        first = np.mean([r.total_loss for r in result.log_rows[:10]])
        last = np.mean([r.total_loss for r in result.log_rows[-10:]])
        assert last < first

    def test_deterministic_same_seed(self):
        config = tiny_config()
        task = tiny_task()
        a = run_finetune(config, task)
        b = run_finetune(config, task)
        assert a.params.flat.tobytes() == b.params.flat.tobytes()
        assert a.log_rows == b.log_rows

    def test_log_rows_built_on_read(self):
        """Training keeps each step's log as arrays; reading ``log_rows`` builds the
        rows, equal on every read."""
        ft = task_finetuner(tiny_config(), tiny_task())
        made = []
        with mock.patch.object(trainer, "LogRow", lambda *fields: made.append(fields)):
            ft.run()
        assert not made
        rows = ft.log_rows
        assert rows and all(type(row) is trainer.LogRow for row in rows)
        assert ft.log_rows == rows and ft.log_rows is not rows

    def test_queries_without_positives_dropped(self, caplog):
        task = tiny_task()
        queries = QuerySet(list(task.queries) + [Query.from_fields("orphan", "nothing here")])
        config = tiny_config(episodes=1, steps_per_episode=1)
        params = Params.init_random(config.feature_dim, config.embed_dim, seed=5)
        with caplog.at_level(logging.WARNING, logger="robustdr.trainer"):
            ft = Finetuner(config, params, training_store(config, task.corpus, queries,
                                                          task.qrels))
        assert all(q.id != "orphan" for q in ft.queries)
        assert any("orphan" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize("field", ["feature_dim"])
    def test_store_of_other_featurizer_rejected(self, field):
        task, config = tiny_task(), tiny_config()
        other = config.replace(**{field: getattr(config, field) + 1})
        store = training_store(other, task.corpus, task.queries, task.qrels)
        params = Params.init_random(config.feature_dim, config.embed_dim, seed=5)
        with pytest.raises(ConfigError, match=field):
            Finetuner(config, params, store)

    def test_store_query_without_positives_rejected(self):
        """A store of every query, as `robustdr mine` makes it, is not a training store."""
        task, config = tiny_task(), tiny_config()
        queries = QuerySet(list(task.queries) + [Query.from_fields("orphan", "nothing here")])
        store = FeatureStore(Featurizer(config.feature_dim), queries,
                             task.corpus, task.qrels)
        params = Params.init_random(config.feature_dim, config.embed_dim, seed=5)
        with pytest.raises(ValueError, match="positive judgment"):
            Finetuner(config, params, store)

    def test_no_training_queries_rejected(self, caplog):
        task, config = tiny_task(), tiny_config()
        with caplog.at_level(logging.WARNING, logger="robustdr.trainer"):
            with pytest.raises(ValueError, match="no training queries"):
                training_store(config, task.corpus, task.queries, QrelSet({}))
        assert sum("no positive judgments" in rec.message for rec in caplog.records) == len(
            task.queries)

    def test_arms_on_a_shared_store_match_arms_on_their_own(self):
        """The three weightings run one after another on one store, as the
        imbalance study runs them, give the weights, log rows and episode
        records of each run on a store of its own."""
        task = tiny_task()
        config = tiny_config(episodes=3)
        shared = training_store(config, task.corpus, task.queries, task.qrels)
        for weighting in WEIGHTINGS:
            arm = config.replace(weighting=weighting)
            got, want = run_finetune(arm, task, store=shared), run_finetune(arm, task)
            assert got.params.flat.tobytes() == want.params.flat.tobytes(), weighting
            assert got.log_rows == want.log_rows, weighting
            assert got.episode_records == want.episode_records, weighting
            assert [r.negative_source for r in got.episode_records] == ["bm25", "self", "self"]

    @pytest.mark.parametrize("field", ["feature_dim", "embed_dim"])
    def test_encoder_shape_mismatch_rejected(self, field):
        task, config = tiny_task(), tiny_config()
        shape = {"feature_dim": config.feature_dim, "embed_dim": config.embed_dim}
        shape[field] += 1
        with pytest.raises(ConfigError, match=field):
            Finetuner(config, Params.init_random(**shape, seed=5),
                      training_store(config, task.corpus, task.queries, task.qrels))

    def test_positive_missing_from_corpus_rejected_before_training(self):
        task = tiny_task()
        qid = next(q.id for q in task.queries if task.qrels.positives(q.id))
        judgments = {q: task.qrels.judged(q) for q in task.qrels.query_ids if q != qid}
        judgments[qid] = {"no-such-doc": 1}
        config = tiny_config()
        params = Params.init_random(config.feature_dim, config.embed_dim, seed=5)
        with pytest.raises(CorpusFormatError, match="no-such-doc"):
            Finetuner(config, params, training_store(config, task.corpus, task.queries,
                                                     QrelSet(judgments)))

    def test_default_size_step_peak_memory(self):
        """One default-size step allocates no parameter-sized vector: the gradient
        stays on the touched columns and Adam works on the live ones."""
        source, _ = make_two_domain_benchmark(seed=experiments._BENCHMARK_SEED)
        config = RunConfig()
        params = Params.init_random(config.feature_dim, config.embed_dim, seed=0)
        ft = Finetuner(config, params, training_store(config, source.corpus, source.queries,
                                                      source.qrels))
        ft._refresh_clusters(1)
        ft._refresh_negatives(1)
        rows, clusters = ft._build_batch(_derived_rng(config.seed, _TAG_BATCH, 1))
        assert rows.shape == (config.batch_size, 2 + config.negatives_per_query)
        assert len(set(clusters.tolist())) > 6
        tracemalloc.start()
        try:
            ft._train_step(rows, clusters, total_steps=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(params) * 8

    def test_features_held_once(self):
        """The fine-tuner holds its texts' features once, in its store: the store
        build plus the `Finetuner` keep under 32 KiB beyond the positives and one
        feature block of the same texts (with the featurizer's token cache),
        where one feature vector object per text would add about 250 bytes each.
        The store's BM25 index is built on first use, so none is held yet."""
        task, _ = make_imbalanced_source(seed=experiments._IMBALANCE_SEED)
        config = experiments.idro_experiment_config(0, "idro")
        params = Params.init_random(config.feature_dim, config.embed_dim, seed=0)
        for query in task.queries:  # the qrels keep what they compute; it is not the trainer's
            task.qrels.positives(query.id)

        def held(make):
            tracemalloc.start()
            try:
                made = make()
                return made, tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        ft, ft_bytes = held(lambda: Finetuner(
            config, params, training_store(config, task.corpus, task.queries, task.qrels)))
        texts = [q.tokens for q in ft.queries] + [doc.tokens for doc in task.corpus]

        def featurized():
            featurizer = Featurizer(config.feature_dim)
            return featurizer, featurizer(texts)

        (_, block), block_bytes = held(featurized)
        positives = sys.getsizeof(ft.store.positives.docs) + sys.getsizeof(
            ft.store.positives.bounds)
        assert ft.store.block.indices.tobytes() == block.indices.tobytes()
        assert "bm25" not in vars(ft.store)  # the index is built on first use
        assert len(texts) * 250 > 32 * 1024
        assert ft_bytes - (block_bytes + positives) < 32 * 1024

    def test_episode_boundary_cluster_contract(self):
        """Episode e's clusters are fit on embeddings from the params that ended e-1."""
        from robustdr.clustering import kmeans_fit
        from robustdr.encoder import encode_many

        config = tiny_config(episodes=2)
        task = tiny_task()
        params = Params.init_random(config.feature_dim, config.embed_dim, seed=5)
        ft = Finetuner(config, params, training_store(config, task.corpus, task.queries,
                                                      task.qrels))
        ft.run_episode()
        frozen = ft.params.copy()
        ft.run_episode()
        emb = encode_many(frozen, ft.store.featurizer(q.tokens for q in ft.queries).all_rows())
        expected = kmeans_fit(
            emb,
            min(config.k_clusters, len(ft.queries)),
            seed=int(_derived_rng(config.seed, _TAG_KMEANS, 2).integers(2**31)),
            max_iters=config.kmeans_iters,
        )
        assert ft.cluster_model.labels.tobytes() == expected.labels.tobytes()
        assert ft.query_clusters is ft.cluster_model.labels

    def test_resume_is_bit_identical(self, tmp_path):
        task = tiny_task()
        for config in (
            tiny_config(episodes=3),
            tiny_config(episodes=3, tau=0.05),
            tiny_config(episodes=3, weighting="groupdro"),
            tiny_config(episodes=3, weighting="uniform", optimizer="sgd"),
            tiny_config(episodes=3, weighting="idro", optimizer="sgd"),
        ):
            straight = run_finetune(config, task)

            ft = task_finetuner(config, task)
            ft.run_episode()
            ft.run_episode()
            state_path = tmp_path / "state.bin"
            ft.save_state(state_path, tmp_path / "encoder_ep2.ckpt")

            resumed = task_finetuner(config, task)
            resumed.load_state(state_path)
            assert resumed.episodes_done == 2
            resumed.run()
            assert resumed.params.flat.tobytes() == straight.params.flat.tobytes(), config
            assert resumed.omega.tobytes() == straight.omega.tobytes(), config
            assert resumed.log_rows == [r for r in straight.log_rows if r.episode == 3], config


def edge_task():
    """Six queries whose BM25 and dense top-1 hit ties; "qa", "qd" and "qe" rank a
    positive first, "qall" has every document positive, and "qb" and "qc" keep one
    negative."""
    docs = {"a0": "apple pear", "a1": "apple kiwi", "b0": "plum fig", "b1": "plum lime",
            "c0": "grape melon"}
    queries = {"qa": ("apple", ["a0"]), "qb": ("plum", ["b1"]), "qall": ("melon", list(docs)),
               "qc": ("grape fig", ["c0"]), "qd": ("kiwi lime", ["a1"]), "qe": ("pear", ["a0"])}
    corpus = Corpus([Document.from_fields(d, text) for d, text in docs.items()])
    query_set = QuerySet([Query.from_fields(q, text) for q, (text, _) in queries.items()])
    qrels = QrelSet({q: dict.fromkeys(pos, 1) for q, (_, pos) in queries.items()})
    return corpus, query_set, qrels


class TestObjectReference:
    """The row-batch fine-tuner byte for byte against the object-based one of
    `tests.oracles`: its pools, batches and steps over feature vector objects."""

    @staticmethod
    def assert_same_run(config, corpus, queries, qrels):
        runs = []
        for make in (lambda params: Finetuner(config, params, training_store(config, corpus,
                                                                              queries, qrels)),
                     lambda params: ObjectFinetuner(config, params, corpus, queries, qrels)):
            params = Params.init_random(config.feature_dim, config.embed_dim, seed=5)
            ft = make(params)
            ft.run()
            runs.append(ft)
        got, want = runs
        assert got.params.flat.tobytes() == want.params.flat.tobytes()
        assert got.omega.tobytes() == want.omega.tobytes()
        assert got.log_rows == want.log_rows
        assert got.episode_records == want.episode_records
        return got

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_matches_object_finetuner(self, weighting, optimizer, wide):
        """Wide rows hold 10 candidates, past the 8 terms where row sums turn pairwise."""
        task = tiny_task()
        config = tiny_config(episodes=3, weighting=weighting, optimizer=optimizer,
                             negatives_per_query=9 if wide else 2)
        ft = self.assert_same_run(config, task.corpus, task.queries, task.qrels)
        assert len(ft.log_rows) > 0

    @pytest.mark.parametrize("wide", [False, True])
    def test_edge_cases_match_object_finetuner(self, wide, caplog):
        """A batch larger than the query set, pools shorter than the negatives
        drawn, all-positive top-1s (fallback pools) and an empty pool (its items
        skipped); wide rows hold 10 candidates."""
        corpus, queries, qrels = edge_task()
        config = tiny_config(episodes=3, batch_size=16, negatives_per_query=9 if wide else 3,
                             mine_depth=1, k_clusters=2)
        with caplog.at_level(logging.WARNING, logger="robustdr.trainer"):
            ft = self.assert_same_run(config, corpus, queries, qrels)
        assert all(record.n_fallback >= 1 for record in ft.episode_records)
        assert any("no non-positive documents" in rec.message for rec in caplog.records)
        sizes = ft.pools.sizes().tolist()
        assert len(ft.pools) == len(ft.queries)
        assert sizes[[q.id for q in ft.queries].index("qall")] == 0
        assert any(0 < size < config.negatives_per_query for size in sizes)
        rows, _ = ft._build_batch(_derived_rng(config.seed, _TAG_BATCH, 1))
        assert 0 < len(rows) < config.batch_size

    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_imbalance_study_shape_matches_object_finetuner(self, weighting):
        """The imbalance study's model and batch (4096 x 6, K = 20, B = 64, four
        negatives, SGD) for 2 episodes x 3 steps, on a reduced imbalanced task:
        each batch holds many present clusters and several nnz classes."""
        task, _ = make_imbalanced_source(seed=experiments._IMBALANCE_SEED, n_major_topics=6,
                                         n_rare_topics=3, docs_per_topic=6,
                                         major_queries_per_topic=10, rare_queries_per_topic=10)
        config = experiments.idro_experiment_config(0, weighting).replace(episodes=2,
                                                                          steps_per_episode=3)
        ft = self.assert_same_run(config, task.corpus, task.queries, task.qrels)
        clusters_per_step = Counter(row.step for row in ft.log_rows)
        assert len(clusters_per_step) == 6 and min(clusters_per_step.values()) >= 12
        rows, _ = ft._build_batch(_derived_rng(config.seed, _TAG_BATCH, 1))
        bounds = ft.store.block.bounds
        assert len(rows) == 64 and np.unique(np.diff(bounds)[np.unique(rows)]).size >= 5


class TestStoreMemo:
    """What a `FeatureStore` computes once for the fine-tuners sharing it equals
    what each would compute on its own, bit for bit."""

    @staticmethod
    def same_bytes(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @staticmethod
    def counting(counts, key, func):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)
        return wrapper

    @pytest.mark.parametrize("block", [2, 64])
    def test_bm25_depths_sliced_from_the_deepest_ranking(self, block):
        """The edge task's "plum" scores its two documents equal, a tie at the
        boundary of its top 1, and "melon" and "pear" hit one document only."""
        corpus, queries, qrels = edge_task()
        counts = {"rankings": 0}
        with mock.patch.object(retrieval_eval, "_BLOCK", block):
            deep = FeatureStore(Featurizer(16), queries, corpus, qrels)
            with mock.patch.object(retrieval_eval, "block_picks", self.counting(
                    counts, "rankings", retrieval_eval.block_picks)):
                deep.bm25_picks(6)
                sliced = {k: deep.bm25_picks(k) for k in (6, 5, 4, 3, 2, 1)}
            assert counts == {"rankings": 1}
            for k, got in sliced.items():
                want = FeatureStore(Featurizer(16), queries, corpus, qrels).bm25_picks(k)
                assert len(got) == len(want) == -(-len(queries) // block)
                for a, b in zip(got, want):
                    assert a.start == b.start, k
                    for name in ("bounds", "cols", "scores"):
                        assert self.same_bytes(getattr(a, name), getattr(b, name)), (k, name)
        top2 = [(p.scores[a:b].tolist(), b - a) for p in sliced[2]
                for a, b in zip(p.bounds.tolist(), p.bounds[1:].tolist())]
        assert any(n == 2 and scores[0] == scores[1] for scores, n in top2)
        assert any(n == 1 for _, n in top2)

    def test_second_bm25_pools_build_no_mask_and_draw_the_same_fallbacks(self):
        """The queries "q2" and "q1" fall back; the second call on a store takes its
        top k minus positives from the first and makes only the fallback draws."""
        corpus = Corpus([Document.from_fields("a", "apple"), Document.from_fields("b", "pear")])
        queries = QuerySet([Query.from_fields(q, "apple") for q in ("q2", "q1", "q3")])
        qrels = QrelSet({"q2": {"a": 1}, "q1": {"a": 1}, "q3": {"b": 1}})
        shared = FeatureStore(Featurizer(16), queries, corpus, qrels)
        counts = {"masks": 0}
        with mock.patch.object(trainer, "_unjudged",
                               self.counting(counts, "masks", trainer._unjudged)):
            bm25_negative_pools(shared, 1, np.random.Generator(np.random.PCG64(3)))
            assert counts == {"masks": 1}
            rngs = [np.random.Generator(np.random.PCG64(seed)) for seed in (7, 7)]
            got, got_fallbacks = bm25_negative_pools(shared, 1, rngs[0])
            assert counts == {"masks": 1}
        want, want_fallbacks = bm25_negative_pools(
            FeatureStore(Featurizer(16), queries, corpus, qrels), 1, rngs[1])
        assert got_fallbacks == want_fallbacks == 2
        assert self.same_bytes(got.docs, want.docs) and self.same_bytes(got.bounds, want.bounds)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_arms_on_one_store_share_the_first_fit(self):
        """Two fine-tuners from equal weights fit episode 1's clusters once, and the
        shared model equals a fresh fit byte for byte."""
        task, config = tiny_task(), tiny_config()
        store = training_store(config, task.corpus, task.queries, task.qrels)
        counts = {"fits": 0}
        with mock.patch.object(clustering, "kmeans_fit",
                               self.counting(counts, "fits", clustering.kmeans_fit)):
            arms = [task_finetuner(config.replace(weighting=w), task, store=store)
                    for w in ("idro", "uniform")]
            for ft in arms:
                ft._refresh_clusters(1)
        assert counts == {"fits": 1}
        fresh = task_finetuner(config, task)
        fresh._refresh_clusters(1)
        for ft in arms:
            got, want = ft.cluster_model, fresh.cluster_model
            assert self.same_bytes(got.labels, want.labels)
            assert self.same_bytes(got.centroids, want.centroids)
            assert [got.objective, *got.objective_history] == [want.objective,
                                                                *want.objective_history]
            assert ft.query_clusters.tobytes() == fresh.query_clusters.tobytes()

    def test_other_weights_or_settings_get_their_own_fit(self):
        """Each (k, seed, max_iters) keeps only its latest fit: weights A, then B,
        then A again fit three times; a second seed keeps its own."""
        task, config = tiny_task(), tiny_config()
        store = training_store(config, task.corpus, task.queries, task.qrels)
        embed = {s: encode_many(Params.init_random(config.feature_dim, config.embed_dim, seed=s),
                                store.query_rows()) for s in (5, 6)}
        counts = {"fits": 0}
        with mock.patch.object(clustering, "kmeans_fit",
                               self.counting(counts, "fits", clustering.kmeans_fit)):
            first = store.cluster_fit(embed[5], 3, seed=1, max_iters=10)
            other = store.cluster_fit(embed[6], 3, seed=1, max_iters=10)
            assert counts == {"fits": 2} and other is not first
            assert store.cluster_fit(embed[6], 3, seed=1, max_iters=10) is other
            assert counts == {"fits": 2}
            again = store.cluster_fit(embed[5], 3, seed=1, max_iters=10)
            assert counts == {"fits": 3} and again is not first
            assert self.same_bytes(again.labels, first.labels)
            for k, seed, iters in ((2, 1, 10), (3, 2, 10), (3, 1, 11)):
                store.cluster_fit(embed[5], k, seed=seed, max_iters=iters)
            assert counts == {"fits": 6}
            for k, seed, iters in ((3, 1, 10), (2, 1, 10), (3, 2, 10), (3, 1, 11)):
                store.cluster_fit(embed[5], k, seed=seed, max_iters=iters)
            assert counts == {"fits": 6}


POOL_KINDS = ("empty", "one", "below", "equal", "above")


@st.composite
def draw_cases(draw):
    """(k, positive counts, pool sizes, seed, warm-up draws) for `_draw_picks`: pools
    of every size class against k, and 0-3 draws before that may leave the
    generator holding the second 32-bit half of a 64-bit output."""
    k = draw(st.sampled_from([1, 2, 4, 8]))
    items = draw(st.lists(st.tuples(st.integers(1, 4), st.sampled_from(POOL_KINDS),
                                    st.integers(0, 40)), min_size=1, max_size=24))
    sizes = {"empty": lambda extra: 0, "one": lambda extra: 1,
             "below": lambda extra: 1 + extra % (k - 1) if k > 1 else 0,
             "equal": lambda extra: k, "above": lambda extra: k + 1 + extra}
    n_pos = np.array([n for n, _, _ in items])
    n_pool = np.array([sizes[kind](extra) for _, kind, extra in items])
    return k, n_pos, n_pool, draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 3))


class TestDrawPicks:
    """`_draw_picks`, one `rng.integers` per batch, against `rng.integers` and
    `rng.choice` per item: the same picks and the same generator state after."""

    @staticmethod
    def assert_same_draws(k, n_pos, n_pool, rng):
        twin = np.random.Generator(np.random.PCG64())
        twin.bit_generator.state = rng.bit_generator.state
        got = _draw_picks(rng, n_pos, n_pool, k)
        want = draw_picks_reference(twin, n_pos, n_pool, k)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state

    @given(draw_cases())
    def test_matches_per_item_calls(self, case):
        k, n_pos, n_pool, seed, warm_up = case
        rng = np.random.Generator(np.random.PCG64(seed))
        for _ in range(warm_up):
            rng.integers(7)
        self.assert_same_draws(k, n_pos, n_pool, rng)

    def test_buffered_half_word(self):
        rng = np.random.Generator(np.random.PCG64(3))
        rng.integers(7)
        assert rng.bit_generator.state["has_uint32"] == 1
        self.assert_same_draws(4, np.array([1, 2, 3, 1]), np.array([4, 0, 9, 2]), rng)

    def test_pools_of_k_give_shuffled_permutations(self):
        """With pools of exactly k, Floyd's repeat rule makes each item's picks a
        permutation of its pool, and the shuffle leaves some of them unsorted."""
        k = 8
        rng = np.random.Generator(np.random.PCG64(0))
        n_pos, n_pool = np.ones(32, dtype=np.intp), np.full(32, k)
        _, picks = _draw_picks(rng, n_pos, n_pool, k)
        assert all(sorted(row) == list(range(k)) for row in picks.tolist())
        assert any(row != sorted(row) for row in picks.tolist())
        self.assert_same_draws(k, n_pos, n_pool, rng)

    def test_numpy_tail_shuffle_branch(self):
        """A pool above 10,000 with k above 1/50 of it takes numpy's tail shuffle."""
        rng = np.random.Generator(np.random.PCG64(5))
        rng.integers(7)
        self.assert_same_draws(201, np.array([2, 1, 3]), np.array([10001, 0, 300]), rng)

    def test_zero_bound_padding(self):
        """One (items, 2k) bound array holds every item's draws, each row padded
        with bounds of 0: a positive alone (empty pool), Floyd on a pool of k
        (its first bound is 0) and above, a pool below k (with replacement), and
        numpy's tail branch; drawn from a held 32-bit half."""
        k = 201
        n_pos = np.array([1, 3, 2, 1, 4, 2])
        n_pool = np.array([0, k, 300, 5, 10001, 0])
        rng = np.random.Generator(np.random.PCG64(17))
        rng.integers(7)
        assert rng.bit_generator.state["has_uint32"] == 1
        twin = np.random.Generator(np.random.PCG64())
        twin.bit_generator.state = rng.bit_generator.state

        class Recorder:
            """The generator, recording the inclusive bounds of each ``integers`` call."""

            def __init__(self):
                self.calls = []

            def integers(self, low, high, endpoint=False):
                self.calls.append(np.asarray(high) - (0 if endpoint else 1))
                return rng.integers(low, high, endpoint=endpoint)

        recorder = Recorder()
        got = _draw_picks(recorder, n_pos, n_pool, k)
        want = draw_picks_reference(twin, n_pos, n_pool, k)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state
        (bounds,) = recorder.calls
        assert bounds.shape == (n_pool.size, 2 * k)
        assert (bounds[:, 0] == n_pos - 1).all()
        def floyd(size):  # one draw below each j, then the shuffle's
            return [*range(size - k, size), *range(k - 1, 0, -1)]

        expected_draws = {0: [], 1: floyd(k), 2: floyd(300), 3: [4] * k,
                          4: list(range(10000, 10000 - k, -1)), 5: []}
        for i, draws in expected_draws.items():
            assert bounds[i, 1:].tolist() == draws + [0] * (2 * k - 1 - len(draws)), i


class TestDegeneracyReductions:
    def test_idro_k1_bitwise_equals_uniform_erm(self):
        task = tiny_task()
        erm = run_finetune(tiny_config(weighting="uniform", k_clusters=1), task)
        idro = run_finetune(tiny_config(weighting="idro", k_clusters=1, beta=0.25), task)
        assert idro.params.flat.tobytes() == erm.params.flat.tobytes()
        assert idro.log_rows == erm.log_rows

    def test_idro_beta0_tau_inf_bitwise_equals_uniform(self):
        task = tiny_task()
        uniform = run_finetune(tiny_config(weighting="uniform", k_clusters=3), task)
        degenerate = run_finetune(
            tiny_config(weighting="idro", k_clusters=3, beta=0.0, tau=math.inf), task
        )
        assert degenerate.params.flat.tobytes() == uniform.params.flat.tobytes()
        assert degenerate.log_rows == uniform.log_rows

    def test_tau_inf_freezes_omega_exactly(self):
        result = run_finetune(tiny_config(weighting="idro", tau=math.inf, k_clusters=3), tiny_task())
        k = len(result.omega)
        for row in result.log_rows:
            assert row.omega == 1.0 / k

    def test_beta0_gives_uniform_alpha_exactly(self):
        result = run_finetune(tiny_config(weighting="idro", beta=0.0, k_clusters=3), tiny_task())
        by_step: dict[int, list] = {}
        for row in result.log_rows:
            by_step.setdefault(row.step, []).append(row.alpha)
        for alphas in by_step.values():
            assert set(alphas) == {1.0 / len(alphas)}

    def test_scalar_matches_hand_wired_uniform_mean(self):
        """With beta=0 and tau=inf the per-step loss is the uniform-weighted
        mean of present-cluster means, reconstructed from the log."""
        result = run_finetune(
            tiny_config(weighting="idro", beta=0.0, tau=math.inf, k_clusters=3), tiny_task()
        )
        by_step: dict[int, list] = {}
        for row in result.log_rows:
            by_step.setdefault(row.step, []).append(row)
        for rows in by_step.values():
            omega = np.array([r.omega for r in rows])
            alpha = np.array([r.alpha for r in rows])
            losses = np.array([r.loss for r in rows])
            expected = float((alpha * omega * losses).sum() / (alpha * omega).sum())
            assert rows[0].total_loss == pytest.approx(expected, abs=1e-10)
            assert rows[0].total_loss == pytest.approx(float(losses.mean()), abs=1e-10)
