import logging
import math
import tracemalloc

import numpy as np
import pytest

from robustdr import experiments
from robustdr.corpus import Corpus, Document, QrelSet, Query, QuerySet
from robustdr.encoder import Featurizer, Params
from robustdr.errors import ConfigError, CorpusFormatError
from robustdr.synthetic import make_imbalanced_source, make_two_domain_benchmark
from robustdr.trainer import (
    Finetuner,
    Optimizer,
    RunConfig,
    _derived_rng,
    _TAG_BATCH,
    _TAG_KMEANS,
    mine_negatives,
    pretrain_coco,
    scheduled_lr,
)
from tests.oracles import adam_reference


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
        warmup_frac=0.1,
    )
    base.update(overrides)
    return RunConfig(**base).validate()


def run_finetune(config, task, init_seed=5):
    params = Params.init_random(config.feature_dim, config.embed_dim, config.hidden, seed=init_seed)
    return Finetuner(config, params, task.corpus, task.queries, task.qrels).run()


class TestRunConfig:
    def test_json_roundtrip(self):
        config = tiny_config(tau=math.inf)
        again = RunConfig.from_json(config.to_json())
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
            ("warmup_frac", 1.0),
        ],
    )
    def test_invalid_values_name_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            tiny_config(**{field: value})

    def test_values_checked_against_annotations(self):
        # an int is a float, but a bool is neither an int nor a float
        assert tiny_config(learning_rate=1, tau=2).learning_rate == 1
        for field, value in [("hidden", 0), ("batch_size", True), ("tau", False),
                             ("weighting", None), ("seed", 3.0)]:
            with pytest.raises(ConfigError, match=field):
                tiny_config(**{field: value})


class TestOptimizer:
    def test_adam_bytes_equal_textbook_steps(self, tmp_path):
        config = tiny_config(optimizer="adam")
        rng = np.random.Generator(np.random.PCG64(3))
        n = 1000
        opt = Optimizer(config, n)
        flat = rng.normal(size=n)
        ref = (flat.copy(), np.zeros(n), np.zeros(n))
        hp = (config.adam_beta1, config.adam_beta2, config.adam_eps)
        for t in range(1, 5):
            grad = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 2, size=n)
            lr = 0.05 / t
            opt.step(flat, grad, lr)
            ref = adam_reference(*ref, grad, lr, t, *hp)
            assert flat.tobytes() == ref[0].tobytes()
            assert opt.m.tobytes() == ref[1].tobytes()
            assert opt.v.tobytes() == ref[2].tobytes()

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
        grad = rng.normal(size=len(ft.params))
        ref = adam_reference(ft.params.flat.copy(), opt.m.copy(), opt.v.copy(), grad, 0.01,
                             opt.t + 1, *hp)
        opt.step(ft.params.flat, grad, 0.01)
        assert ft.params.flat.tobytes() == ref[0].tobytes()
        assert opt.m.tobytes() == ref[1].tobytes()
        assert opt.v.tobytes() == ref[2].tobytes()


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
        init = Params.init_random(config.feature_dim, config.embed_dim, config.hidden, seed=config.seed)
        assert result.params.flat.tobytes() == init.flat.tobytes()

    def test_separable_corpus_learns_partner_retrieval(self):
        from robustdr.trainer import _sample_pair_features
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
        batch = [_sample_pair_features(doc, 3, featurizer, rng) for doc in list(corpus)[:12]]
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
        """One default-size step allocates a few parameter-sized vectors, not one per cluster."""
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
        assert peak < 6 * len(params) * 8

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
            normalize=config.kmeans_normalize,
        )
        assert ft.cluster_model.assignment == expected.assignment

    def test_resume_is_bit_identical(self, tmp_path):
        task = tiny_task()
        for config in (
            tiny_config(episodes=3),
            tiny_config(episodes=3, omega_carryover=True, tau=0.05),
            tiny_config(episodes=3, weighting="groupdro", omega_carryover=True),
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
