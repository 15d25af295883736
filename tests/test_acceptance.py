"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here. The directional experiments (criteria 6 and 7)
are deterministic given their fixed seeds, so their assertions are stable
across reruns.
"""

import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

import robustdr
from robustdr import idro, losses
from robustdr.clustering import kmeans_fit
from robustdr.corpus import Query
from robustdr.diagnostics import alignment, uniformity
from robustdr.encoder import Featurizer, Params, scatter_grad
from robustdr.retrieval_eval import Bm25Index, QrelSet, RankedList, ndcg_at_k, search_bm25
from robustdr.textstats import classify_intent, intent_similarity, weighted_jaccard
from tests.conftest import random_rows
from tests.oracles import omega_oracle


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


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


def rel_err(analytic, numeric):
    return float(np.max(np.abs(analytic - numeric) / (np.abs(numeric) + 1e-8)))


def test_criterion_1_closed_form_omega_update():
    """The omega update (all clusters present) matches the independent simplex
    minimizer on >= 100 instances."""
    with criterion("criterion 1 (closed-form omega update vs numerical oracle)"):
        start = time.monotonic()
        rng = np.random.Generator(np.random.PCG64(2024))
        worst = 0.0
        count = 0
        for k in range(2, 9):
            for _ in range(15):
                p = int(rng.integers(2, 33))
                cluster_losses = rng.uniform(0.0, 2.0, size=k)
                grads = rng.normal(size=(k, p)) / np.sqrt(p)
                omega_prev = np.maximum(rng.dirichlet(np.ones(k) * 2.0), 1e-6)
                omega_prev /= omega_prev.sum()
                tau = float(rng.uniform(0.5, 5.0))
                beta = float(rng.uniform(0.0, 1.0))
                closed = idro.omega_update(
                    omega_prev, idro.r_matrix(cluster_losses, grads, beta), tau, np.arange(k)
                )
                numeric = omega_oracle(
                    omega_prev, cluster_losses, grads, tau, beta, tol=1e-8
                )
                worst = max(worst, float(np.max(np.abs(closed - numeric))))
                count += 1
        elapsed = time.monotonic() - start
        assert count >= 100
        assert worst < 1e-5, f"worst L-inf disagreement {worst:.2e}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_2_gradient_exactness():
    """Analytic gradients match central finite differences to rel. error < 1e-4."""
    with criterion("criterion 2 (analytic gradients vs finite differences)"):
        start = time.monotonic()
        rng = np.random.Generator(np.random.PCG64(7))
        # 13 buckets for a 40-word vocabulary, so texts collide. At 14, 15 or 19
        # buckets some batch has a gradient entry of exactly zero, where central
        # differences read one rounding step of the loss over 2 * step (5.6e-12),
        # which rel_err's 1e-8 floor turns into 5.5e-4.
        featurizer = Featurizer(dim=13)

        worst_retrieval = worst_coco = worst_idro = 0.0
        for i in range(20):
            params = Params.init_random(13, 3, seed=100 + i)

            # 3 items of 1-3 negatives, each text its own row of one block
            n_neg = int(rng.integers(1, 4))
            items = random_rows(featurizer, rng, 3 * (2 + n_neg))
            batch = losses.TripletRows(items.block, items.rows.reshape(3, 2 + n_neg))
            _, _, analytic = losses.retrieval_loss_grad(params, batch)
            numeric = central_differences(
                params, lambda p: losses.retrieval_loss(p, batch)[0]
            )
            worst_retrieval = max(worst_retrieval, rel_err(analytic, numeric))

            pairs = random_rows(featurizer, rng, 6)  # rows 2p and 2p + 1 are pair p
            _, cols, row = losses.coco_loss_grad(params, pairs)
            analytic = scatter_grad(params, cols, row)
            numeric = central_differences(params, lambda p: losses.coco_loss(p, pairs))
            worst_coco = max(worst_coco, rel_err(analytic, numeric))

            # cluster-weighted composite with the weights held fixed
            cluster_batches = [losses.TripletRows(batch.block, batch.rows[part])
                               for part in (slice(0, 2), slice(2, 3))]
            alpha = idro.alpha_weights(np.array([1.0, 2.5]), 0.25)
            omega = np.array([0.4, 0.6])
            weights = alpha * omega

            def composite(p):
                vals = [losses.retrieval_loss(p, b)[0] for b in cluster_batches]
                return float((weights * vals).sum() / weights.sum())

            grads = np.vstack(
                [losses.retrieval_loss_grad(params, b)[2] for b in cluster_batches]
            )
            analytic = idro.combine_cluster_grads(grads, alpha, omega)
            numeric = central_differences(params, composite)
            worst_idro = max(worst_idro, rel_err(analytic, numeric))

            # the same composite from the one-pass per-cluster kernel
            _, cols, rows = losses.retrieval_cluster_grads(
                params, batch, idro.ClusterLayout.of(np.array([4, 4, 9])))
            batched = scatter_grad(
                params, cols, idro.combine_cluster_grads(rows, alpha, omega)
            )
            worst_idro = max(worst_idro, rel_err(batched, numeric))

        elapsed = time.monotonic() - start
        assert worst_retrieval < 1e-4, f"retrieval loss rel err {worst_retrieval:.2e}"
        assert worst_coco < 1e-4, f"span-contrastive loss rel err {worst_coco:.2e}"
        assert worst_idro < 1e-4, f"weighted composite rel err {worst_idro:.2e}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_3_degeneracy_reductions():
    """K=1 and (beta=0, tau=inf) reduce bitwise to uniform ERM; omega/alpha freeze."""
    from tests.test_trainer import run_finetune, tiny_config, tiny_task

    with criterion("criterion 3 (degeneracy reductions, exact equality)"):
        task = tiny_task()

        erm_k1 = run_finetune(tiny_config(weighting="uniform", k_clusters=1), task)
        idro_k1 = run_finetune(tiny_config(weighting="idro", k_clusters=1, beta=0.25), task)
        assert idro_k1.params.flat.tobytes() == erm_k1.params.flat.tobytes()
        assert idro_k1.log_rows == erm_k1.log_rows

        uniform_k3 = run_finetune(tiny_config(weighting="uniform", k_clusters=3), task)
        degenerate = run_finetune(
            tiny_config(weighting="idro", k_clusters=3, beta=0.0, tau=math.inf), task
        )
        assert degenerate.params.flat.tobytes() == uniform_k3.params.flat.tobytes()

        frozen = run_finetune(tiny_config(weighting="idro", k_clusters=3, tau=math.inf), task)
        k = len(frozen.omega)
        assert all(row.omega == 1.0 / k for row in frozen.log_rows)

        beta0 = run_finetune(tiny_config(weighting="idro", k_clusters=3, beta=0.0), task)
        by_step = {}
        for row in beta0.log_rows:
            by_step.setdefault(row.step, []).append(row.alpha)
        assert all(set(alphas) == {1.0 / len(alphas)} for alphas in by_step.values())


def test_criterion_4_formula_oracles():
    """Hand-computed fixtures for the analysis and evaluation formulas."""
    with criterion("criterion 4 (formula oracles to 1e-9)"):
        assert abs(weighted_jaccard({"a": 2, "b": 1}, {"a": 1, "c": 1}) - 0.25) < 1e-9
        assert abs(weighted_jaccard({"x": 3}, {"x": 3}) - 1.0) < 1e-9

        assert classify_intent(Query.from_fields("q", "what is bm25")) == "what"
        assert classify_intent(Query.from_fields("q", "is aspirin safe")) == "yes/no"
        assert classify_intent(Query.from_fields("q", "bm25 definition")) == "declarative"
        assert classify_intent(Query.from_fields("q", "small dogs allowed")) == "yes/no"
        from collections import Counter

        a = Counter({"what": 3, "yes/no": 1})
        b = Counter({"what": 1, "yes/no": 1})
        assert abs(intent_similarity(a, b) - 0.6) < 1e-9

        u = np.array([[0.6, 0.8]])
        assert abs(alignment(u, -u) - 4.0) < 1e-9
        antipodal = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert abs(uniformity(antipodal) - (-8.0)) < 1e-9

        qrels = QrelSet({"q": {"rel": 1}})
        ranked = RankedList("q", (("other", 9.0), ("rel", 8.0)))
        assert abs(ndcg_at_k(ranked, qrels, k=10) - 1.0 / math.log2(3.0)) < 1e-9

        from robustdr.corpus import Corpus, Document

        corpus = Corpus(
            [
                Document.from_fields("d1", "the cat sat on the mat"),
                Document.from_fields("d2", "the dog chased the cat"),
                Document.from_fields("d3", "fish swim in water"),
            ]
        )
        scores = dict(search_bm25(Bm25Index(corpus), ["cat", "water"], k=3).results)
        idf_cat = math.log(1 + (3 - 2 + 0.5) / 2.5)
        idf_water = math.log(1 + (3 - 1 + 0.5) / 1.5)
        assert abs(scores["d1"] - idf_cat * 1.9 / (1 + 0.9 * (0.6 + 0.4 * 6 / 5))) < 1e-9
        assert abs(scores["d2"] - idf_cat * 1.9 / (1 + 0.9 * (0.6 + 0.4 * 5 / 5))) < 1e-9
        assert abs(scores["d3"] - idf_water * 1.9 / (1 + 0.9 * (0.6 + 0.4 * 4 / 5))) < 1e-9


def test_criterion_5_kmeans():
    """Monotone objective on 50 random datasets; exact two-blob recovery."""
    with criterion("criterion 5 (k-means monotonicity and blob recovery)"):
        rng = np.random.Generator(np.random.PCG64(77))
        for trial in range(50):
            n = int(rng.integers(12, 60))
            width = int(rng.integers(2, 6))
            k = int(rng.integers(2, min(8, n)))
            model = kmeans_fit(rng.normal(size=(n, width)), k, seed=trial)
            history = np.array(model.objective_history)
            assert np.all(np.diff(history) <= 1e-9 * np.maximum(history[:-1], 1.0))

        blob_a = rng.normal(size=(25, 4)) * 0.05 + np.array([4.0, 0, 0, 0])
        blob_b = rng.normal(size=(25, 4)) * 0.05 - np.array([4.0, 0, 0, 0])
        labels = kmeans_fit(np.vstack([blob_a, blob_b]), 2, seed=0).labels
        truth = np.array([0] * 25 + [1] * 25)
        agreement = max(
            float(np.mean(labels == truth)), float(np.mean(labels == 1 - truth))
        )
        assert agreement == 1.0


@pytest.mark.slow
def test_criterion_6_directional_coco_experiment():
    """Pretraining on the corpora beats no pretraining on target nDCG@10,
    with non-overlapping min/max bands over 3 seeds."""
    from robustdr.experiments import run_coco_directional

    with criterion("criterion 6 (corpus pretraining transfers to the target task)"):
        start = time.monotonic()
        results = [run_coco_directional(seed) for seed in (0, 1, 2)]
        lo_with = min(r["with_coco"] for r in results)
        hi_without = max(r["without_coco"] for r in results)
        elapsed = time.monotonic() - start
        detail = f"min(with)={lo_with:.4f} max(without)={hi_without:.4f}"
        assert lo_with > hi_without, detail
        assert elapsed < 600.0, f"took {elapsed:.1f}s"


@pytest.mark.slow
def test_criterion_7_directional_idro_experiment():
    """Weighting strategies on the 85/15 task, seed-mean qualitative ordering:
    groupdro lowest on the rare group, idro below uniform on the rare group,
    idro better than groupdro on average."""
    from robustdr.experiments import run_idro_directional

    with criterion("criterion 7 (cluster reweighting helps the rare group)"):
        start = time.monotonic()
        runs = [run_idro_directional(seed) for seed in (0, 1, 2)]
        rare = {w: float(np.mean([r[w].rare for r in runs])) for w in runs[0]}
        avg = {w: float(np.mean([r[w].average for r in runs])) for w in runs[0]}
        elapsed = time.monotonic() - start
        detail = f"rare={rare} avg={avg}"
        assert rare["idro"] < rare["uniform"], detail
        assert rare["groupdro"] <= rare["idro"], detail
        assert avg["groupdro"] > avg["idro"], detail
        assert elapsed < 600.0, f"took {elapsed:.1f}s"


def _run_pipeline(workdir, task_dir, pythonhashseed):
    """pretrain -> finetune -> evaluate via the CLI in a fresh process."""
    src = os.path.dirname(os.path.dirname(robustdr.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=pythonhashseed, PYTHONPATH=pythonpath)
    def run(args):
        proc = subprocess.run(
            [sys.executable, "-m", "robustdr.cli", *args],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
    pre = workdir / "pre"
    ft = workdir / "ft"
    ev = workdir / "ev"
    run([
        "pretrain", "--corpus", str(task_dir / "corpus.jsonl"), "--out", str(pre),
        "--epochs", "2", "--span-len", "3", "--batch-size", "4",
        "--feature-dim", "256", "--embed-dim", "8", "--seed", "3",
    ])
    run([
        "finetune", "--corpus", str(task_dir / "corpus.jsonl"),
        "--queries", str(task_dir / "queries.jsonl"),
        "--qrels", str(task_dir / "qrels.tsv"),
        "--checkpoint", str(pre / "encoder.ckpt"), "--out", str(ft),
        "--episodes", "2", "--steps", "4", "--batch-size", "4",
        "--negatives", "2", "--k", "2", "--seed", "9",
    ])
    run([
        "evaluate", "--checkpoint", str(ft / "encoder.ckpt"),
        "--corpus", str(task_dir / "corpus.jsonl"),
        "--queries", str(task_dir / "queries.jsonl"),
        "--qrels", str(task_dir / "qrels.tsv"), "--out", str(ev),
    ])
    return {
        "training_log": (ft / "training_log.tsv").read_bytes(),
        "checkpoint": (ft / "encoder.ckpt").read_bytes(),
        "metrics": (ev / "metrics.json").read_bytes(),
        "pretrain_log": (pre / "pretrain_log.tsv").read_bytes(),
    }


def test_criterion_8_determinism_and_persistence(tmp_path):
    """Cross-process reruns are bit-identical; checkpoint resume continues identically."""
    from robustdr.encoder import encode_many
    from robustdr.synthetic import make_imbalanced_source, write_task_dir
    from robustdr.trainer import Finetuner, training_store
    from tests.test_trainer import tiny_config, tiny_task

    with criterion("criterion 8 (determinism and persistence)"):
        task, _ = make_imbalanced_source(
            seed=4, n_major_topics=2, n_rare_topics=1, docs_per_topic=4,
            major_queries_per_topic=4, rare_queries_per_topic=2,
            query_vocab_per_topic=6, rare_query_vocab_profile=(6,),
        )
        task_dir = tmp_path / "task"
        write_task_dir(task, task_dir)
        first = _run_pipeline(tmp_path / "run1", task_dir, pythonhashseed="1")
        second = _run_pipeline(tmp_path / "run2", task_dir, pythonhashseed="31337")
        for name in first:
            assert first[name] == second[name], f"{name} differs between reruns"

        # mid-training save/reload continues to bitwise-identical embeddings
        config = tiny_config(episodes=3)
        mini_task = tiny_task()
        straight = Finetuner(
            config,
            Params.init_random(config.feature_dim, config.embed_dim, seed=5),
            training_store(config, mini_task.corpus, mini_task.queries, mini_task.qrels),
        )
        straight.run()

        partial = Finetuner(
            config,
            Params.init_random(config.feature_dim, config.embed_dim, seed=5),
            training_store(config, mini_task.corpus, mini_task.queries, mini_task.qrels),
        )
        partial.run_episode()
        partial.run_episode()
        state_path = tmp_path / "mid.bin"
        partial.save_state(state_path, tmp_path / "mid.ckpt")
        resumed = Finetuner(
            config,
            Params.init_random(config.feature_dim, config.embed_dim, seed=5),
            training_store(config, mini_task.corpus, mini_task.queries, mini_task.qrels),
        )
        resumed.load_state(state_path)
        resumed.run()
        docs = resumed.store.featurizer(d.tokens for d in mini_task.corpus).all_rows()
        emb_straight = encode_many(straight.params, docs)
        emb_resumed = encode_many(resumed.params, docs)
        assert emb_straight.tobytes() == emb_resumed.tobytes()
