"""The benchmark's workloads, the library layers it traces, and the measuring loop.

A run repeats set-up and a timed pass on its output until the time budget is
spent; ``setup_s`` and ``wall_s`` are medians over the repeats. Every pass
runs with the same seed, so its outputs must equal those of the first pass
exactly; a pass whose outputs differ or fail a check counts as failed. In a
traced run the first pass runs untraced and gives only the reference outputs,
so the check shows that tracing does not perturb results. The caller imports
this module after putting the repository's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from pathlib import Path
from unittest import mock

from robustdr import (
    cli,
    clustering,
    corpus,
    encoder,
    experiments,
    idro,
    losses,
    retrieval_eval,
    synthetic,
    trainer,
)
from tracer import CountFn, Tracer


# -- counters ----------------------------------------------------------------
# Byte counters named *_bytes are computed from argument shapes (rows x
# parameters x 8 bytes), not measured; cli.persist.bytes is measured with stat.


def _add(key: str, value) -> CountFn:
    def count(counters, args, kwargs, result):
        counters[key] += value(args, result)

    return count


def _count_grad_stack(counters, args, kwargs, result):
    rows, n_params = args[0].shape
    counters["idro.grad_stack_rows"] += rows
    counters["idro.grad_stack_bytes"] += rows * n_params * 8


def _count_backward(counters, args, kwargs, result):
    counters["encoder.embedding_backward.rows"] += len(args[1])
    counters["encoder.embedding_backward.dense_bytes"] += len(args[0].flat) * 8


def _count_pools(counters, args, kwargs, result):
    pools, n_fallback = result
    counters["trainer.pooled_queries"] += len(pools)
    counters["trainer.fallbacks"] += n_fallback


def _count_file(counters, args, kwargs, result):
    counters["cli.persist.bytes"] += Path(args[1]).stat().st_size


# (span name, owner, attribute, counter). Module functions are traced at every
# module that imports them by name; class attributes on the class itself.
PHASES = [
    ("trainer.finetuner_init", trainer.Finetuner, "__init__", None),
    ("trainer.run_episode", trainer.Finetuner, "run_episode",
     _add("train.steps", lambda a, r: r.n_steps)),
]
LAYERS = [
    ("retrieval_eval.evaluate", retrieval_eval, "evaluate", None),
    ("losses.retrieval_loss", losses, "retrieval_loss", None),
    ("idro.r_matrix", idro, "r_matrix", None),
    ("idro.combine_cluster_grads", idro, "combine_cluster_grads", _count_grad_stack),
    ("encoder.embedding_backward", encoder, "embedding_backward", _count_backward),
    ("encoder.encode_many", encoder, "encode_many",
     _add("encoder.encode_many.rows", lambda a, r: len(a[1]))),
    ("encoder.featurize", encoder.Featurizer, "__call__", None),
    ("losses.retrieval_loss_grad", losses, "retrieval_loss_grad",
     _add("losses.retrieval_loss_grad.items", lambda a, r: len(a[1]))),
    ("losses.coco_loss_grad", losses, "coco_loss_grad", None),
    ("retrieval_eval.search_dense", retrieval_eval, "search_dense", None),
    ("retrieval_eval.search_bm25", retrieval_eval, "search_bm25", None),
    ("retrieval_eval.bm25_index", retrieval_eval.Bm25Index, "__init__", None),
    ("trainer.optimizer_step", trainer.Optimizer, "step", None),
    ("trainer.pretrain_coco", trainer, "pretrain_coco", None),
    ("trainer.mine_negatives", trainer, "mine_negatives", _count_pools),
    ("trainer.bm25_negative_pools", trainer, "bm25_negative_pools", _count_pools),
    ("clustering.kmeans_fit", clustering, "kmeans_fit",
     _add("clustering.kmeans_fit.iters", lambda a, r: len(r.objective_history))),
    ("cli.persist", encoder, "save_checkpoint", _count_file),
    ("cli.persist", trainer.Finetuner, "save_state", _count_file),
    ("cli.persist", clustering, "save_cluster_model", _count_file),
    ("cli.persist", trainer, "write_training_log", _count_file),
    ("corpus.load", corpus, "load_corpus", None),
    ("corpus.load", corpus, "load_queries", None),
    ("corpus.load", corpus, "load_qrels", None),
]

SELF_TIMES = [
    "idro.r_matrix", "idro.combine_cluster_grads", "encoder.embedding_backward",
    "encoder.encode_many", "encoder.featurize", "losses.retrieval_loss_grad",
    "losses.retrieval_loss", "losses.coco_loss_grad", "retrieval_eval.search_dense",
    "retrieval_eval.search_bm25", "retrieval_eval.bm25_index", "retrieval_eval.evaluate",
    "trainer.optimizer_step", "trainer.run_episode", "trainer.finetuner_init",
    "trainer.pretrain_coco", "trainer.mine_negatives", "trainer.bm25_negative_pools",
    "clustering.kmeans_fit", "cli.persist", "corpus.load",
]
CALLS = [
    "encoder.featurize", "retrieval_eval.search_dense", "retrieval_eval.search_bm25",
    "trainer.optimizer_step",
]
COUNTS = [
    "encoder.embedding_backward.rows", "encoder.embedding_backward.dense_bytes",
    "encoder.encode_many.rows", "losses.retrieval_loss_grad.items",
    "clustering.kmeans_fit.iters", "cli.persist.bytes",
]


def install(tracer: Tracer, layers) -> None:
    for name, owner, attr, count in layers:
        if isinstance(owner, type):
            tracer.wrap(owner, attr, name, count)
        else:
            tracer.wrap_everywhere(owner, attr, name, count)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass; layers the pass never entered read 0."""
    out = {f"{n}.self_s": summary.get(n, {}).get("self_s", 0.0) for n in SELF_TIMES}
    out.update({f"{n}.calls": summary.get(n, {}).get("calls", 0) for n in CALLS})
    out.update({n: counters.get(n, 0.0) for n in COUNTS})
    steps = summary.get("idro.combine_cluster_grads", {}).get("calls", 0)
    out["idro.present_clusters"] = _ratio(counters.get("idro.grad_stack_rows", 0.0), steps)
    out["idro.grad_stack_bytes"] = _ratio(counters.get("idro.grad_stack_bytes", 0.0), steps)
    out["trainer.negative_fallbacks"] = _ratio(
        counters.get("trainer.fallbacks", 0.0), counters.get("trainer.pooled_queries", 0.0)
    )
    return out


# -- workloads ----------------------------------------------------------------


def _finite(quality: dict) -> list[str]:
    return [f"{k} is not finite: {v!r}" for k, v in quality.items() if not math.isfinite(v)]


class FinetuneDefault:
    """``robustdr finetune`` then ``robustdr evaluate``, in process, default RunConfig."""

    name = "finetune-default"
    sizes = {"episodes": 2, "steps_per_episode": 3}
    train_spans = ("cli.finetune",)
    FILES = ("finetune/encoder.ckpt", "finetune/episodes.tsv",
             "evaluate/metrics.json", "evaluate/run.trec")

    def setup(self, work: Path, sizes: dict) -> dict:
        source, target = synthetic.make_two_domain_benchmark(seed=experiments._BENCHMARK_SEED)
        synthetic.write_task_dir(source, work / "source")
        synthetic.write_task_dir(target, work / "target")
        (work / "config.json").write_text(json.dumps(sizes), encoding="utf-8")
        return {"dir": work, "inputs": {
            "source_docs": len(source.corpus), "source_queries": len(source.queries),
            "target_docs": len(target.corpus), "target_queries": len(target.queries)}}

    def run_pass(self, ctx: dict, seed: int, tracer: Tracer, out: Path):
        work = ctx["dir"]

        def task(side):
            return [f"--{kind}={work / side / name}" for kind, name in
                    (("corpus", "corpus.jsonl"), ("queries", "queries.jsonl"),
                     ("qrels", "qrels.tsv"))]

        with tracer.span("cli.finetune"):
            rc_finetune = cli.main(["finetune", *task("source"), f"--config={work / 'config.json'}",
                                    f"--seed={seed}", f"--out={out / 'finetune'}"])
        rc_evaluate = cli.main(["evaluate", f"--checkpoint={out / 'finetune' / 'encoder.ckpt'}",
                                *task("target"), f"--out={out / 'evaluate'}"])
        return rc_finetune, rc_evaluate

    def check(self, raw, out: Path, sizes: dict) -> tuple[dict, list[str]]:
        problems = [f"{cmd} exited {rc}" for cmd, rc in zip(("finetune", "evaluate"), raw) if rc]
        problems += [f"{name} not written" for name in self.FILES if not (out / name).is_file()]
        if problems:
            return {}, problems
        rows = (out / "finetune" / "episodes.tsv").read_text(encoding="utf-8").splitlines()[1:]
        episodes = [row.split("\t") for row in rows]
        metrics = json.loads((out / "evaluate" / "metrics.json").read_text(encoding="utf-8"))
        quality = {
            "final_loss": float(episodes[-1][3]),
            "train_steps": float(sum(int(ep[4]) for ep in episodes)),
            "target_ndcg10": float(metrics["ndcg@10"]),
            "target_queries": float(metrics["n_evaluated"]),
        }
        problems = _finite(quality)
        if not 0.0 <= quality["target_ndcg10"] <= 1.0:
            problems.append(f"target nDCG@10 {quality['target_ndcg10']!r} is outside [0, 1]")
        expected = sizes["episodes"] * sizes["steps_per_episode"]
        if quality["train_steps"] != expected:
            problems.append(f"episodes.tsv reports {quality['train_steps']} steps, not {expected}")
        return quality, problems


class IdroImbalance:
    """One seed of ``experiments.run_idro_directional`` with a shortened schedule.

    The pass runs the experiment on the task made in set-up, and with the run
    length of ``sizes``; its configuration is otherwise the experiment's own.
    """

    name = "idro-imbalance"
    sizes = {"episodes": 2, "steps_per_episode": 20}
    train_spans = ("trainer.finetuner_init", "trainer.run_episode")

    def setup(self, work: Path, sizes: dict) -> dict:
        task, groups = synthetic.make_imbalanced_source(seed=experiments._IMBALANCE_SEED)
        return {"data": (task, groups), "sizes": sizes, "inputs": {
            "docs": len(task.corpus), "queries": len(task.queries),
            "rare_queries": sum(g == "rare" for g in groups.values())}}

    def run_pass(self, ctx: dict, seed: int, tracer: Tracer, out: Path):
        config = experiments.idro_experiment_config

        def shortened(seed, weighting):
            return config(seed, weighting).replace(**ctx["sizes"])

        with (
            mock.patch.object(experiments.synthetic, "make_imbalanced_source",
                              lambda seed: ctx["data"]),
            mock.patch.object(experiments, "idro_experiment_config", shortened),
        ):
            return experiments.run_idro_directional(seed)

    def check(self, raw, out: Path, sizes: dict) -> tuple[dict, list[str]]:
        quality = {}
        for weighting, group in raw.items():
            quality[f"rare_loss_{weighting}"] = group.rare
            quality[f"avg_loss_{weighting}"] = group.average
        quality["rare_loss_gain"] = quality["rare_loss_uniform"] - quality["rare_loss_idro"]
        problems = _finite(quality)
        problems += [f"{k} is negative" for k, v in quality.items() if "gain" not in k and v < 0]
        return quality, problems


WORKLOADS = {w.name: w for w in (FinetuneDefault(), IdroImbalance())}


# -- measuring ----------------------------------------------------------------


def _run_pass(workload, seed: int, tracer: Tracer, work: Path, sizes: dict):
    """Set up, then run one pass on the set-up's output.

    Returns (set-up seconds, pass seconds, inputs, outputs, problems); checking
    is not timed, and ``work`` is removed afterwards.
    """
    out = work / "out"
    out.mkdir(parents=True)
    setup = wall = 0.0
    inputs = {}
    try:
        start = time.perf_counter()
        ctx = workload.setup(work / "task", sizes)
        setup = time.perf_counter() - start
        inputs = ctx["inputs"]
        tracer.reset()
        start = time.perf_counter()
        raw = workload.run_pass(ctx, seed, tracer, out)
        wall = time.perf_counter() - start
        quality, problems = workload.check(raw, out, sizes)
    except Exception:  # a failing pass is reported as a failed operation
        quality, problems = {}, [traceback.format_exc()]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return setup, wall, inputs, quality, problems


def _record(workload, wall: float, tracer: Tracer, trace: bool) -> dict:
    summary = tracer.summary()
    record = {
        "wall_s": wall,
        "train_steps": tracer.counters["train.steps"],
        "train_s": sum(summary[name]["total_s"] for name in workload.train_spans),
    }
    if trace:
        record["layers"] = layer_metrics(summary, tracer.counters)
    return record


def measure(workload, seed: int, seconds: float, trace: bool, work_root: Path,
            sizes: dict | None = None) -> dict:
    """One benchmark run of ``workload``.

    Returns ``correct``, ``attempted`` and ``failed`` (passes), ``metrics``
    (name -> value: end-to-end metrics untraced, per-layer metrics traced)
    and ``details``.
    """
    sizes = workload.sizes if sizes is None else sizes
    work_root.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    passes: list[dict] = []
    failures: list[str] = []
    attempted = 0
    setup_times: list[float] = []
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        try:
            install(tracer, PHASES)
            reference = None
            budget_start = time.perf_counter()
            while True:
                setup, wall, inputs, quality, problems = _run_pass(
                    workload, seed, tracer, Path(tmp) / f"pass{attempted}", sizes)
                attempted += 1
                if reference is None:
                    reference = quality
                elif not problems and quality != reference:
                    problems = [f"outputs {quality} differ from the first pass's {reference}"]
                if problems:
                    failures.append("; ".join(problems))
                    break
                setup_times.append(setup)
                if trace and attempted == 1:
                    install(tracer, LAYERS)  # the untraced first pass is the reference only
                else:
                    passes.append(_record(workload, wall, tracer, trace))
                if passes and time.perf_counter() - budget_start + setup + wall > seconds:
                    break
        finally:
            tracer.close()

    metrics: dict[str, float] = {}
    if passes:
        if trace:
            metrics["trace.wall_s"] = statistics.median(p["wall_s"] for p in passes)
            for key in passes[0]["layers"]:
                metrics[key] = statistics.median(p["layers"][key] for p in passes)
        else:
            metrics["wall_s"] = statistics.median(p["wall_s"] for p in passes)
            # Steps over training time, both summed across passes: one pass
            # trains for a few seconds only, so a per-pass rate is noisier.
            metrics["train_steps_per_s"] = (sum(p["train_steps"] for p in passes)
                                            / sum(p["train_s"] for p in passes))
            metrics["setup_s"] = statistics.median(setup_times)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "details": {
            "workload": workload.name,
            "sizes": sizes,
            "inputs": inputs,
            "setup_s": setup_times,
            "pass_wall_s": [p["wall_s"] for p in passes],
            "quality": reference,
            "failures": failures,
        },
    }
