import json
import logging
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from robustdr import experiments, retrieval_eval, trainer
from robustdr.corpus import Corpus, Document, QrelSet, Query, QuerySet
from robustdr.encoder import Featurizer, Params, scatter_grad
from robustdr.errors import ConfigError, CorpusFormatError
from robustdr.synthetic import make_imbalanced_source, make_two_domain_benchmark
from robustdr.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Finetuner,
    Optimizer,
    RunConfig,
    _derived_rng,
    _TAG_BATCH,
    _TAG_KMEANS,
    bm25_negative_pools,
    mine_negatives,
    pretrain_coco,
    scheduled_lr,
)
from tests.oracles import (
    DenseOptimizer,
    adam_reference,
    bm25_pools_reference,
    dense_moments,
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
        hash_seed=0,
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
    return RunConfig(**base).validate()


def run_finetune(config, task, init_seed=5):
    params = Params.init_random(config.feature_dim, config.embed_dim, seed=init_seed)
    return Finetuner(config, params, task.corpus, task.queries, task.qrels).run()


class TestRunConfig:
    def test_json_roundtrip(self):
        config = tiny_config(tau=math.inf)
        again = RunConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert again == config

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="mystery_knob"):
            RunConfig.from_dict({"mystery_knob": 3})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("weighting", "other"),
            ("learning_rate", 0.0),
            ("beta", -1.0),
            ("tau", 0.0),
            ("batch_size", 0),
            ("learning_rate", math.inf),
            ("beta", math.inf),
            ("beta", math.nan),
            ("groupdro_step_size", math.inf),
            # an integer beyond float64, as a JSON literal can give
            pytest.param("learning_rate", 10**400, id="learning_rate-huge-int"),
        ],
    )
    def test_invalid_values_name_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            tiny_config(**{field: value})

    def test_values_checked_against_annotations(self):
        # an int is a float, but a bool is neither an int nor a float
        assert tiny_config(learning_rate=1, tau=2).learning_rate == 1
        for field, value in [("omega_carryover", 0), ("batch_size", True), ("tau", False),
                             ("weighting", None), ("seed", 3.0)]:
            with pytest.raises(ConfigError, match=field):
                tiny_config(**{field: value})


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
        opt = Optimizer(config, params)
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
        assert opt.live.tolist() == sorted(touched)
        never = np.setdiff1d(np.arange(512), opt.live)
        assert never.size > 256
        assert params.W[:, never].tobytes() == init.W[:, never].tobytes()

        # one more step, on moments reloaded from a trainer state
        task = tiny_task()
        writer = Finetuner(config, Params.init_random(512, 8, seed=5), task.corpus,
                           task.queries, task.qrels)
        writer.run_episode()
        writer.save_state(tmp_path / "state.bin")
        ft = Finetuner(config, Params.init_random(512, 8, seed=5), task.corpus,
                       task.queries, task.qrels)
        ft.load_state(tmp_path / "state.bin")
        opt = ft.optimizer
        assert opt.live.tolist() == writer.optimizer.live.tolist()
        ft.save_state(tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == (tmp_path / "state.bin").read_bytes()
        cols, row = list(growing_steps(ft.params, rng, 2))[-1]
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
        opt = Optimizer(tiny_config(optimizer="sgd"), params)
        ref = params.flat.copy()
        steps = list(growing_steps(params, rng, 6))
        if every_column:  # then rows over every column, so the live set spans the width
            steps += [(np.arange(512), rng.normal(size=8 * 512)) for _ in range(2)]
        for t, (cols, row) in enumerate(steps, start=1):
            lr = 0.05 / t
            opt.step(params.flat, cols, row, lr)
            ref -= lr * scatter_grad(params, cols, row)
            assert params.flat.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("overrides", [
        dict(weighting="idro"), dict(weighting="groupdro"), dict(weighting="uniform"),
        dict(weighting="idro", in_batch_negatives=True),
        dict(weighting="groupdro", in_batch_negatives=True),
        dict(weighting="uniform", in_batch_negatives=True),
        dict(weighting="groupdro", in_batch_negatives=True, optimizer="sgd",
             omega_carryover=True),
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
        lrs = [scheduled_lr(1.0, s, 10, 0.2) for s in range(10)]
        assert lrs[0] == pytest.approx(0.5)
        assert lrs[1] == pytest.approx(1.0)
        assert all(a >= b for a, b in zip(lrs[1:], lrs[2:]))
        assert lrs[-1] > 0.0

    def test_no_warmup(self):
        lrs = [scheduled_lr(2.0, s, 4, 0.0) for s in range(4)]
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
        from tests.oracles import coco_top1_accuracy

        config = tiny_config(
            pretrain_epochs=6, batch_size=8, learning_rate=0.2, span_len=3
        )
        corpus = self.separable_corpus()
        result = pretrain_coco(config, [corpus])
        losses = result.epoch_losses
        assert losses[1] < losses[0]
        assert losses[2] < losses[1]
        featurizer = Featurizer(config.feature_dim, config.hash_seed)
        rng = np.random.Generator(np.random.PCG64(99))
        batch = _span_pair_batch(list(corpus)[:12], 3, featurizer, rng)
        assert coco_top1_accuracy(result.params, batch) > 0.9

    def test_deterministic_given_seed(self):
        config = tiny_config(pretrain_epochs=3)
        corpus = self.separable_corpus(n_docs=10)
        a = pretrain_coco(config, [corpus])
        b = pretrain_coco(config, [corpus])
        assert a.epoch_losses == b.epoch_losses
        assert a.params.flat.tobytes() == b.params.flat.tobytes()

    def test_no_eligible_documents(self):
        config = tiny_config(span_len=50)
        with pytest.raises(ValueError):
            pretrain_coco(config, [self.separable_corpus()])


class TestMineNegatives:
    def identity_setup(self):
        featurizer = Featurizer(dim=64, seed=0)
        params = Params(feature_dim=64, embed_dim=64, flat=np.eye(64).ravel())
        return params, featurizer

    def test_pools_exclude_all_positives(self, rng):
        task = tiny_task()
        params = Params.init_random(512, 8, seed=0)
        featurizer = Featurizer(512, 0)
        pools, _ = mine_negatives(
            params, featurizer, task.queries, task.corpus, task.qrels, k=6, rng=rng
        )
        for qid, pool in pools.items():
            for did in pool:
                assert task.qrels.grade(qid, did) == 0

    def test_top_distractor_lands_in_pool(self):
        params, featurizer = self.identity_setup()
        corpus = Corpus(
            [
                Document.from_fields("distractor", "apple apple apple"),
                Document.from_fields("positive", "pear"),
            ]
        )
        queries = QuerySet([Query.from_fields("q", "apple")])
        qrels = QrelSet({("q", "positive"): 1})
        pools, n_fallback = mine_negatives(params, featurizer, queries, corpus, qrels, k=2)
        assert pools["q"] == ["distractor"]
        assert n_fallback == 0

    def test_fallback_when_only_positives_retrieved(self, caplog):
        params, featurizer = self.identity_setup()
        corpus = Corpus([Document.from_fields("only", "apple")])
        queries = QuerySet([Query.from_fields("q", "apple")])
        qrels = QrelSet({("q", "only"): 1})
        with caplog.at_level(logging.WARNING, logger="robustdr.trainer"):
            pools, n_fallback = mine_negatives(params, featurizer, queries, corpus, qrels, k=1)
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
    grades = {}
    for q in range(n_queries):
        positives = ids if data.draw(st.booleans()) else data.draw(
            st.lists(st.sampled_from(ids), max_size=3))
        grades.update({(f"q{q}", d): 1 for d in positives})
    k = data.draw(st.integers(min_value=1, max_value=len(texts) + 2))
    block = data.draw(st.integers(min_value=1, max_value=4))
    return corpus, queries, QrelSet(grades), k, block


class TestNegativePools:
    """Both pool functions against the per-query reference loop, fallback included."""

    @given(st.data())
    def test_bm25_pools_match_reference(self, data):
        corpus, queries, qrels, k, block = pool_task(data)
        rng_a, rng_b = (np.random.Generator(np.random.PCG64(5)) for _ in range(2))
        with mock.patch.object(retrieval_eval, "_BLOCK", block):
            got = bm25_negative_pools(queries, corpus, qrels, k, rng_a)
        assert got == bm25_pools_reference(queries, corpus, qrels, k, rng_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @given(st.data())
    def test_mined_pools_match_reference(self, data):
        corpus, queries, qrels, k, block = pool_task(data)
        featurizer = Featurizer(dim=data.draw(st.integers(min_value=1, max_value=6)), seed=0)
        # Small integer weights, so that scores tie, also across -0.0 and 0.0.
        weights = data.draw(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0]),
                                     min_size=2 * featurizer.dim, max_size=2 * featurizer.dim))
        params = Params(featurizer.dim, 2, flat=np.array(weights))
        rng_a, rng_b = (np.random.Generator(np.random.PCG64(5)) for _ in range(2))
        with mock.patch.object(retrieval_eval, "_BLOCK", block):
            got = mine_negatives(params, featurizer, queries, corpus, qrels, k, rng_a)
        assert got == mined_pools_reference(params, featurizer, queries, corpus, qrels, k, rng_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_fallback_warns_in_query_order(self, caplog):
        corpus = Corpus([Document.from_fields("a", "apple"), Document.from_fields("b", "pear")])
        queries = QuerySet([Query.from_fields(q, "apple") for q in ("q2", "q1", "q3")])
        qrels = QrelSet({("q2", "a"): 1, ("q1", "a"): 1, ("q3", "b"): 1})
        with caplog.at_level(logging.WARNING, logger="robustdr.trainer"):
            pools, n_fallback = bm25_negative_pools(queries, corpus, qrels, k=1)
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
        qrels = QrelSet({(f"q{i}", f"d{i % n_docs}"): 1 for i in range(n_queries)})
        index = retrieval_eval.Bm25Index(corpus)
        params = Params.init_random(512, 4, seed=0)
        featurizer = Featurizer(512, 0)
        tracemalloc.start()
        try:
            if mined:
                pools, _ = mine_negatives(params, featurizer, queries, corpus, qrels, k=30)
            else:
                pools, _ = bm25_negative_pools(queries, corpus, qrels, 30, index=index)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pools) == n_queries
        assert peak < n_queries * n_docs * 8


class TestFinetune:
    def test_runs_episodes_with_correct_negative_sources(self):
        result = run_finetune(tiny_config(episodes=3), tiny_task())
        assert [ep.negative_source for ep in result.episodes] == ["bm25", "self", "self"]
        assert result.episodes[0].index == 1
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

    def test_queries_without_positives_dropped(self, caplog):
        task = tiny_task()
        queries = QuerySet(list(task.queries) + [Query.from_fields("orphan", "nothing here")])
        config = tiny_config(episodes=1, steps_per_episode=1)
        params = Params.init_random(config.feature_dim, config.embed_dim, seed=5)
        with caplog.at_level(logging.WARNING, logger="robustdr.trainer"):
            ft = Finetuner(config, params, task.corpus, queries, task.qrels)
        assert all(q.id != "orphan" for q in ft.queries)
        assert any("orphan" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize("field", ["feature_dim", "embed_dim"])
    def test_encoder_shape_mismatch_rejected(self, field):
        task, config = tiny_task(), tiny_config()
        shape = {"feature_dim": config.feature_dim, "embed_dim": config.embed_dim}
        shape[field] += 1
        with pytest.raises(ConfigError, match=field):
            Finetuner(config, Params.init_random(**shape, seed=5), task.corpus, task.queries,
                      task.qrels)

    def test_positive_missing_from_corpus_rejected_before_training(self):
        task = tiny_task()
        qid = next(q.id for q in task.queries if task.qrels.positives(q.id))
        grades = {(q, d): g for q in task.qrels.query_ids if q != qid
                  for d, g in task.qrels.judged(q).items()}
        grades[(qid, "no-such-doc")] = 1
        config = tiny_config()
        params = Params.init_random(config.feature_dim, config.embed_dim, seed=5)
        with pytest.raises(CorpusFormatError, match="no-such-doc"):
            Finetuner(config, params, task.corpus, task.queries, QrelSet(grades))

    def test_default_size_step_peak_memory(self):
        """One default-size step allocates no parameter-sized vector: the gradient
        stays on the touched columns and Adam works on the live ones."""
        source, _ = make_two_domain_benchmark(seed=experiments._BENCHMARK_SEED)
        config = RunConfig()
        params = Params.init_random(config.feature_dim, config.embed_dim, seed=0)
        ft = Finetuner(config, params, source.corpus, source.queries, source.qrels)
        ft._refresh_clusters(1)
        ft._refresh_negatives(1)
        triplets, clusters = ft._build_batch(_derived_rng(config.seed, _TAG_BATCH, 1))
        assert len(set(clusters.tolist())) > 6
        tracemalloc.start()
        try:
            ft._train_step(triplets, clusters, total_steps=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(params) * 8

    def test_episode_boundary_cluster_contract(self):
        """Episode e's clusters are fit on embeddings from the params that ended e-1."""
        from robustdr.clustering import kmeans_fit
        from robustdr.encoder import EmbeddingMatrix, encode_many

        config = tiny_config(episodes=2)
        task = tiny_task()
        params = Params.init_random(config.feature_dim, config.embed_dim, seed=5)
        ft = Finetuner(config, params, task.corpus, task.queries, task.qrels)
        ft.run_episode()
        frozen = ft.params.copy()
        ft.run_episode()
        emb = EmbeddingMatrix(
            ids=tuple(q.id for q in ft.queries),
            matrix=encode_many(frozen, ft.query_fvs),
        )
        expected = kmeans_fit(
            emb,
            min(config.k_clusters, len(ft.queries)),
            seed=int(_derived_rng(config.seed, _TAG_KMEANS, 2).integers(2**31)),
            max_iters=config.kmeans_iters,
        )
        assert ft.cluster_model.assignment == expected.assignment

    def test_resume_is_bit_identical(self, tmp_path):
        task = tiny_task()
        for config in (
            tiny_config(episodes=3),
            tiny_config(episodes=3, omega_carryover=True, tau=0.05),
            tiny_config(episodes=3, weighting="groupdro", omega_carryover=True),
            tiny_config(episodes=3, weighting="uniform", optimizer="sgd"),
            tiny_config(episodes=3, weighting="idro", optimizer="sgd"),
        ):
            straight = run_finetune(config, task)

            params = Params.init_random(config.feature_dim, config.embed_dim, seed=5)
            ft = Finetuner(config, params, task.corpus, task.queries, task.qrels)
            ft.run_episode()
            ft.run_episode()
            state_path = tmp_path / "state.bin"
            ft.save_state(state_path)

            fresh_params = Params.init_random(config.feature_dim, config.embed_dim, seed=5)
            resumed = Finetuner(config, fresh_params, task.corpus, task.queries, task.qrels)
            resumed.load_state(state_path)
            assert resumed.episodes_done == 2
            result = resumed.run()
            assert result.params.flat.tobytes() == straight.params.flat.tobytes(), config
            assert result.omega.tobytes() == straight.omega.tobytes(), config
            assert result.log_rows == [r for r in straight.log_rows if r.episode == 3], config

    def test_omega_carryover_flag(self):
        config = tiny_config(episodes=1, steps_per_episode=8, omega_carryover=True, tau=0.05)
        task = tiny_task()
        params = Params.init_random(config.feature_dim, config.embed_dim, seed=5)
        ft = Finetuner(config, params, task.corpus, task.queries, task.qrels)
        ft.run_episode()
        drifted = ft.omega.copy()
        ft._refresh_clusters(2)
        k = len(ft.omega)
        if not np.allclose(drifted, np.full_like(drifted, 1.0 / len(drifted))):
            assert not np.allclose(ft.omega, np.full(k, 1.0 / k))


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
