"""Command-line entry point for the full pipeline.

Subcommands: analyze-shift, pretrain, finetune, mine, evaluate, diagnose.
Every command resolves one `RunConfig` through the same layers, each
overriding the one before:

1. the `RunConfig` defaults;
2. the JSON object of `--config`, where the command takes one;
3. the flags, each named after the config field it sets (`--k` sets
   `k_clusters` in finetune and `mine_depth` in mine);
4. the header of `--checkpoint`, which fixes `feature_dim`, `embed_dim` and
   `hash_seed`. A config-file or flag value that differs from the checkpoint's
   is a config error naming the field.

Every run writes that config, with the input paths, to resolved_config.json:
the config the run used, sufficient to reproduce it exactly. Wall-clock
timestamps live only in a run_meta.json sidecar so artifact bytes are
reproducible. Exit codes: 0 success, 2 usage/config error, 3 data error,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
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


def _load_config(args, fixed: dict | None = None) -> RunConfig:
    """Defaults <- config file <- flags <- `fixed`; every layer logged.

    The flags are the `RunConfig` fields set on `args`. A config-file or flag
    value that differs from a `fixed` one is a ConfigError naming the field.
    """
    effective: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            effective = json.loads(_require_file(Path(config_path)).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ConfigError(f"config: {config_path} is not valid JSON: {exc}") from None
        if not isinstance(effective, dict):
            raise ConfigError("config: file must contain a JSON object")
        logger.info("config file %s: %s", config_path, json.dumps(effective, sort_keys=True))
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)
             if getattr(args, f.name, None) is not None}
    if flags:
        logger.info("CLI overrides: %s", json.dumps(flags, sort_keys=True))
    effective.update(flags)
    config = RunConfig.from_dict(effective)
    if fixed:
        for name, value in fixed.items():
            if name in effective and effective[name] != value:
                raise ConfigError(f"{name}: {effective[name]!r} differs from the checkpoint's "
                                  f"{value!r}")
        logger.info("checkpoint fixes: %s", json.dumps(fixed, sort_keys=True))
        config = config.replace(**fixed)
    return config


def _load_encoder(args) -> tuple[Params, Featurizer, RunConfig]:
    """(params, featurizer, config): from --checkpoint when given, else seeded random."""
    if args.checkpoint:
        params, header = load_checkpoint(_require_file(Path(args.checkpoint)))
        encoder = ("feature_dim", "embed_dim", "hash_seed")
        config = _load_config(args, {name: header[name] for name in encoder})
    else:
        config = _load_config(args)
        params = Params.init_random(config.feature_dim, config.embed_dim, seed=config.seed)
    return params, Featurizer(config.feature_dim, config.hash_seed), config


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
    _record_run(out, "analyze-shift", _load_config(args),
                {"source_dir": str(source_dir), "target_dir": str(target_dir)})
    return EXIT_OK


def cmd_pretrain(args) -> int:
    config = _load_config(args)
    corpora = [load_corpus(_require_file(Path(p))) for p in args.corpus]
    result = trainer.pretrain_coco(config, corpora)
    out = _out_dir(args)
    save_checkpoint(result.params, out / "encoder.ckpt", hash_seed=config.hash_seed)
    lines = ["epoch\tmean_loss"]
    lines += [f"{i}\t{loss!r}" for i, loss in enumerate(result.epoch_losses, start=1)]
    _atomic_write_text(out / "pretrain_log.tsv", "\n".join(lines) + "\n")
    _record_run(out, "pretrain", config, {"corpus": list(args.corpus)})
    return EXIT_OK


def cmd_finetune(args) -> int:
    params, _, config = _load_encoder(args)
    corpus, queries, qrels = _load_task(args)

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
    params, featurizer, config = _load_encoder(args)
    corpus, queries, qrels = _load_task(args)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    pools, n_fallback = trainer.mine_negatives(
        params, featurizer, queries, corpus, qrels, config.mine_depth, rng
    )
    out = _out_dir(args)
    _write_json(out / "negatives.json", {"pools": pools, "n_fallback": n_fallback})
    _record_run(out, "mine", config,
                {"checkpoint": args.checkpoint, "corpus": args.corpus,
                 "queries": args.queries, "qrels": args.qrels})
    return EXIT_OK


def cmd_evaluate(args) -> int:
    params, featurizer, config = _load_encoder(args)
    corpus, queries, qrels = _load_task(args)
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
    params, featurizer, config = _load_encoder(args)
    corpus = load_corpus(_require_file(Path(args.corpus)))
    report = diagnostics.diagnostics_report(
        params, featurizer, corpus,
        n_pairs=args.pairs, span_len=config.span_len, seed=config.seed,
        corpus_id=args.corpus,
    )
    out = _out_dir(args)
    _write_json(out / "diagnostics.json", report)
    _record_run(out, "diagnose", config, {"checkpoint": args.checkpoint, "corpus": args.corpus})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The flags that set a config field have that field as their `dest`."""
    parser = argparse.ArgumentParser(
        prog="robustdr",
        description="Span-contrastive pretraining, cluster-robust fine-tuning and "
        "evaluation for desk-scale dense retrieval.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, configurable=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--out", required=True, help="output directory")
        if configurable:
            p.add_argument("--config", help="JSON config file")
            p.add_argument("--seed", type=int, help="run seed")
        return p

    def task(p):
        for flag in ("--corpus", "--queries", "--qrels"):
            p.add_argument(flag, required=True)

    p = command("analyze-shift", cmd_analyze_shift,
                "measure lexical/intent shift between two datasets", configurable=False)
    p.add_argument("--source-dir", required=True)
    p.add_argument("--target-dir", required=True)

    p = command("pretrain", cmd_pretrain, "span-contrastive pretraining on one or more corpora")
    p.add_argument("--corpus", action="append", required=True, help="corpus.jsonl (repeatable)")
    p.add_argument("--epochs", type=int, dest="pretrain_epochs")
    p.add_argument("--span-len", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--feature-dim", type=int)
    p.add_argument("--embed-dim", type=int)

    p = command("finetune", cmd_finetune, "episode-based fine-tuning on labeled source data")
    task(p)
    p.add_argument("--checkpoint", help="initial encoder checkpoint")
    p.add_argument("--weighting", choices=trainer.WEIGHTINGS)
    p.add_argument("--k", type=int, dest="k_clusters", help="number of query clusters")
    p.add_argument("--beta", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--episodes", type=int)
    p.add_argument("--steps", type=int, dest="steps_per_episode")
    p.add_argument("--batch-size", type=int)
    p.add_argument("--negatives", type=int, dest="negatives_per_query")
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--optimizer", choices=trainer.OPTIMIZERS)
    p.add_argument("--feature-dim", type=int)
    p.add_argument("--embed-dim", type=int)

    p = command("mine", cmd_mine, "mine self-negative pools with a trained encoder")
    p.add_argument("--checkpoint", required=True)
    task(p)
    p.add_argument("--k", type=int, dest="mine_depth", help="pool depth per query")

    p = command("evaluate", cmd_evaluate, "rank and score a task with a trained encoder",
                configurable=False)
    p.add_argument("--checkpoint", required=True)
    task(p)
    p.add_argument("--tag", default="robustdr", help="TREC run tag")

    p = command("diagnose", cmd_diagnose, "alignment/uniformity report for a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--pairs", type=int, default=256)
    p.add_argument("--span-len", type=int)

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
