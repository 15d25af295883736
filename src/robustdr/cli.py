"""Command-line entry point for the full pipeline.

Subcommands: analyze-shift, pretrain, finetune, mine, evaluate, diagnose.
Every run writes a resolved-config JSON capturing the effective parameters,
seeds and input paths (sufficient to reproduce the run exactly); wall-clock
timestamps live only in a run_meta.json sidecar so artifact bytes are
reproducible. Exit codes: 0 success, 2 usage/config error, 3 data error,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import blobfile, clustering, diagnostics, retrieval_eval, textstats, trainer
from .corpus import load_corpus, load_qrels, load_queries
from .encoder import Featurizer, Params, load_checkpoint, save_checkpoint
from .errors import ConfigError, CorpusFormatError, InvariantError
from .trainer import Finetuner, RunConfig

logger = logging.getLogger("robustdr")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


def _require_file(path: Path) -> Path:
    if not path.is_file():
        raise FileNotFoundError(f"required file not found: {path}")
    return path


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _atomic_write_text(path: Path, text: str) -> None:
    with blobfile.atomic_open(path, "w") as fh:
        fh.write(text)


def _load_task(args):
    """Corpus, queries and qrels named by the flags; the qrels may name only known ids."""
    corpus = load_corpus(_require_file(Path(args.corpus)))
    queries = load_queries(_require_file(Path(args.queries)))
    qrels = load_qrels(_require_file(Path(args.qrels)))
    qrels.validate_against(queries, corpus)
    return corpus, queries, qrels


def _write_json(path: Path, payload: dict) -> None:
    _atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _load_config(args, overrides: dict) -> RunConfig:
    """Defaults <- config file <- CLI flags; both layers logged."""
    base: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        base = json.loads(_require_file(Path(config_path)).read_text(encoding="utf-8"))
        if not isinstance(base, dict):
            raise ConfigError("config: file must contain a JSON object")
        logger.info("config file %s: %s", config_path, json.dumps(base, sort_keys=True))
    effective = dict(base)
    applied = {k: v for k, v in overrides.items() if v is not None}
    effective.update(applied)
    if applied:
        logger.info("CLI overrides: %s", json.dumps(applied, sort_keys=True, default=str))
    return RunConfig.from_dict(effective)


def _record_run(out: Path, command: str, config: RunConfig, inputs: dict) -> None:
    _write_json(
        out / "resolved_config.json",
        {"command": command, "config": config.to_dict(), "inputs": inputs},
    )
    _write_json(out / "run_meta.json", {"command": command, "timestamp": time.time()})


def cmd_analyze_shift(args) -> int:
    source_dir = Path(args.source_dir)
    target_dir = Path(args.target_dir)
    datasets = {}
    for side, base in (("source", source_dir), ("target", target_dir)):
        corpus = load_corpus(_require_file(base / "corpus.jsonl"))
        queries = load_queries(_require_file(base / "queries.jsonl"))
        datasets[side] = (corpus, queries)
    report = textstats.shift_report(
        datasets["source"][0], datasets["source"][1],
        datasets["target"][0], datasets["target"][1],
    )
    out = _out_dir(args)
    _write_json(out / "shift_report.json", report.to_dict())
    _atomic_write_text(
        out / "shift_report.tsv", report.TSV_HEADER + "\n" + report.tsv_row() + "\n"
    )
    config = RunConfig.from_dict({"seed": args.seed} if args.seed is not None else {})
    _record_run(out, "analyze-shift", config,
                {"source_dir": str(source_dir), "target_dir": str(target_dir)})
    return EXIT_OK


def cmd_pretrain(args) -> int:
    overrides = {
        "stage": "pretrain",
        "seed": args.seed,
        "pretrain_epochs": args.epochs,
        "span_len": args.span_len,
        "batch_size": args.batch_size,
        "learning_rate": args.lr,
        "feature_dim": args.feature_dim,
        "embed_dim": args.embed_dim,
        "hidden": args.hidden if args.hidden else None,
    }
    config = _load_config(args, overrides)
    corpora = [load_corpus(_require_file(Path(p))) for p in args.corpus]
    result = trainer.pretrain_coco(config, corpora)
    out = _out_dir(args)
    save_checkpoint(result.params, out / "encoder.ckpt", hash_seed=config.hash_seed)
    lines = ["epoch\tmean_loss"]
    lines += [f"{i}\t{loss!r}" for i, loss in enumerate(result.epoch_losses, start=1)]
    _atomic_write_text(out / "pretrain_log.tsv", "\n".join(lines) + "\n")
    _record_run(out, "pretrain", config, {"corpus": list(args.corpus)})
    return EXIT_OK


def _load_encoder_for_config(args, config: RunConfig):
    """Initial parameters: from --checkpoint when given, else seeded random."""
    if getattr(args, "checkpoint", None):
        params, header = load_checkpoint(_require_file(Path(args.checkpoint)))
        config = config.replace(
            feature_dim=header["feature_dim"],
            embed_dim=header["embed_dim"],
            hidden=header["hidden"],
            hash_seed=header["hash_seed"],
        )
        return params, config
    params = Params.init_random(
        config.feature_dim, config.embed_dim, config.hidden, seed=config.seed
    )
    return params, config


def cmd_finetune(args) -> int:
    overrides = {
        "stage": "finetune",
        "seed": args.seed,
        "weighting": args.weighting,
        "k_clusters": args.k,
        "beta": args.beta,
        "tau": args.tau,
        "episodes": args.episodes,
        "steps_per_episode": args.steps,
        "batch_size": args.batch_size,
        "negatives_per_query": args.negatives,
        "learning_rate": args.lr,
        "optimizer": args.optimizer,
        "feature_dim": args.feature_dim,
        "embed_dim": args.embed_dim,
    }
    config = _load_config(args, overrides)
    corpus, queries, qrels = _load_task(args)
    params, config = _load_encoder_for_config(args, config)

    out = _out_dir(args)
    finetuner = Finetuner(config, params, corpus, queries, qrels)
    while finetuner.episodes_done < config.episodes:
        record = finetuner.run_episode()
        episode = record.index
        save_checkpoint(
            finetuner.params, out / f"encoder_ep{episode}.ckpt", hash_seed=config.hash_seed
        )
        finetuner.save_state(out / "trainer_state.bin")
        clustering.save_cluster_model(finetuner.cluster_model, out / f"clusters_ep{episode}.bin")
        trainer.write_training_log(finetuner.log_rows, out / "training_log.tsv")
    save_checkpoint(finetuner.params, out / "encoder.ckpt", hash_seed=config.hash_seed)
    lines = ["episode\tnegative_source\tkmeans_objective\tmean_loss\tn_steps\tn_fallback"]
    for ep in finetuner.episode_records:
        lines.append(
            f"{ep.index}\t{ep.negative_source}\t{ep.kmeans_objective!r}"
            f"\t{ep.mean_loss!r}\t{ep.n_steps}\t{ep.n_fallback}"
        )
    _atomic_write_text(out / "episodes.tsv", "\n".join(lines) + "\n")
    _record_run(out, "finetune", config,
                {"corpus": args.corpus, "queries": args.queries, "qrels": args.qrels,
                 "checkpoint": args.checkpoint})
    return EXIT_OK


def cmd_mine(args) -> int:
    config = _load_config(args, {"seed": args.seed})
    params, header = load_checkpoint(_require_file(Path(args.checkpoint)))
    corpus, queries, qrels = _load_task(args)
    featurizer = Featurizer(header["feature_dim"], header["hash_seed"])
    rng = np.random.Generator(np.random.PCG64(config.seed))
    pools, n_fallback = trainer.mine_negatives(
        params, featurizer, queries, corpus, qrels, args.k, rng
    )
    out = _out_dir(args)
    _write_json(out / "negatives.json", {"pools": pools, "n_fallback": n_fallback})
    _record_run(out, "mine", config,
                {"checkpoint": args.checkpoint, "corpus": args.corpus,
                 "queries": args.queries, "qrels": args.qrels, "k": args.k})
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = _load_config(args, {"seed": args.seed})
    params, header = load_checkpoint(_require_file(Path(args.checkpoint)))
    corpus, queries, qrels = _load_task(args)
    featurizer = Featurizer(header["feature_dim"], header["hash_seed"])
    record, rankings = retrieval_eval.evaluate(params, featurizer, corpus, queries, qrels)
    out = _out_dir(args)
    _write_json(out / "metrics.json", record.to_dict())
    _atomic_write_text(out / "metrics.tsv", record.TSV_HEADER + "\n" + record.tsv_row() + "\n")
    retrieval_eval.write_trec_run(rankings, out / "run.trec", tag=args.tag)
    _record_run(out, "evaluate", config,
                {"checkpoint": args.checkpoint, "corpus": args.corpus,
                 "queries": args.queries, "qrels": args.qrels})
    return EXIT_OK


def cmd_diagnose(args) -> int:
    config = _load_config(args, {"seed": args.seed, "span_len": args.span_len})
    params, header = load_checkpoint(_require_file(Path(args.checkpoint)))
    corpus = load_corpus(_require_file(Path(args.corpus)))
    featurizer = Featurizer(header["feature_dim"], header["hash_seed"])
    report = diagnostics.diagnostics_report(
        params, featurizer, corpus,
        n_pairs=args.pairs, span_len=config.span_len, seed=config.seed,
        corpus_id=args.corpus,
    )
    out = _out_dir(args)
    _write_json(out / "diagnostics.json", report)
    _record_run(out, "diagnose", config, {"checkpoint": args.checkpoint, "corpus": args.corpus})
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="run seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustdr",
        description="Span-contrastive pretraining, cluster-robust fine-tuning and "
        "evaluation for desk-scale dense retrieval.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze-shift", help="measure lexical/intent shift between two datasets")
    p.add_argument("--source-dir", required=True)
    p.add_argument("--target-dir", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_analyze_shift)

    p = sub.add_parser("pretrain", help="span-contrastive pretraining on one or more corpora")
    p.add_argument("--corpus", action="append", required=True, help="corpus.jsonl (repeatable)")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--span-len", type=int, default=None, dest="span_len")
    p.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--feature-dim", type=int, default=None, dest="feature_dim")
    p.add_argument("--embed-dim", type=int, default=None, dest="embed_dim")
    p.add_argument("--hidden", action="store_true", default=False)
    _add_common(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="episode-based fine-tuning on labeled source data")
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--checkpoint", default=None, help="initial encoder checkpoint")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--weighting", choices=trainer.WEIGHTINGS, default=None)
    p.add_argument("--k", type=int, default=None, help="number of query clusters")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--episodes", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    p.add_argument("--negatives", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--optimizer", choices=trainer.OPTIMIZERS, default=None)
    p.add_argument("--feature-dim", type=int, default=None, dest="feature_dim")
    p.add_argument("--embed-dim", type=int, default=None, dest="embed_dim")
    _add_common(p)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("mine", help="mine self-negative pools with a trained encoder")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--config", help="JSON config file")
    _add_common(p)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("evaluate", help="rank and score a task with a trained encoder")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--tag", default="robustdr", help="TREC run tag")
    p.add_argument("--config", help="JSON config file")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("diagnose", help="alignment/uniformity report for a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--pairs", type=int, default=256)
    p.add_argument("--span-len", type=int, default=None, dest="span_len")
    p.add_argument("--config", help="JSON config file")
    _add_common(p)
    p.set_defaults(func=cmd_diagnose)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CorpusFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
