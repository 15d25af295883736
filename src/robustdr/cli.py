"""Command-line entry point for the full pipeline.

Subcommands: analyze-shift, pretrain, finetune, mine, evaluate, diagnose.
Every command resolves one `RunConfig` through the same layers, each
overriding the one before:

1. the `RunConfig` defaults;
2. the JSON object of `--config`, where the command takes one;
3. the flags, each named after the config field it sets (`--k` sets
   `k_clusters` in finetune and `mine_depth` in mine);
4. the encoder of `--checkpoint`, whose shape fixes `feature_dim` and
   `embed_dim`. A config-file or flag value that differs from the checkpoint's
   is a config error naming the field.

`main` refuses an `--out` that is, or lies under, something other than a
directory before the command reads any input; the command makes `--out` when it
first writes. `main` then writes the config the command returns, with the
command's `RUN_INPUTS` paths, to resolved_config.json: the config the run used,
sufficient to reproduce it exactly. Wall-clock timestamps live only in a
run_meta.json sidecar so artifact bytes are reproducible. Exit codes: 0 success,
2 usage/config error or an unreadable or unwritable path, 3 data error, 4
internal invariant violation.

A finetune run directory holds each weight vector once. After episode n of N
it holds the episode's cluster model and its weights. The cluster model,
clusters_ep<n>.bin, holds a header of scalars, then the K centroids, then each
training query's cluster id, in query-file order less the queries dropped for
having no positive (`clustering.save_cluster_model`). The weights are the
checkpoint encoder_ep<n>.ckpt for n < N, and encoder.ckpt, the name every
downstream command reads, for n = N (with no episodes, encoder.ckpt holds the
initial weights); a checkpoint's header holds only the encoder's shape,
feature_dim and embed_dim, and its payload the weights feature-major, as
`Params` keeps them. trainer_state.bin, rewritten each episode, holds the
rest of the resumable state: the optimizer's step count, Adam's moments over
every feature column of the training texts (one row per column, zero on those
no step has touched yet) with those columns, and the episode counter (a
resumed episode refits its clusters). It names the checkpoint it pairs with
and holds the CRC-32 of its weights (`Finetuner.save_state`).
training_log.tsv, rewritten each episode, and episodes.tsv hold the per-step
and per-episode logs.
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
from .errors import ConfigError, InvariantError
from .trainer import Finetuner, RunConfig

logger = logging.getLogger("robustdr")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

# the flags whose paths a run records as its inputs, where the command takes them
RUN_INPUTS = ("checkpoint", "corpus", "queries", "qrels", "source_dir", "target_dir")


def _require_file(path: Path) -> Path:
    if not path.is_file():
        raise FileNotFoundError(f"required file not found: {path}")
    return path


def _check_out(out: Path) -> None:
    """A ConfigError unless `out`, or its nearest existing ancestor, is a directory."""
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"out: {out} is not a directory" if existing == out
                          else f"out: {out} lies under {existing}, which is not a directory")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_task(args):
    """Corpus, queries and qrels named by the flags; the qrels may name only known ids."""
    corpus = load_corpus(_require_file(Path(args.corpus)))
    queries = load_queries(_require_file(Path(args.queries)))
    qrels = load_qrels(_require_file(Path(args.qrels)))
    qrels.validate_against(queries, corpus)
    return corpus, queries, qrels


def _write_json(path: Path, payload: dict) -> None:
    with blobfile.atomic_open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_record(stem: Path, record: dict) -> None:
    """The record as <stem>.json and as the one-row table <stem>.tsv."""
    _write_json(stem.with_name(stem.name + ".json"), record)
    blobfile.write_table(stem.with_name(stem.name + ".tsv"), list(record), [record.values()])


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
        params = load_checkpoint(_require_file(Path(args.checkpoint)))
        config = _load_config(args, {"feature_dim": params.feature_dim,
                                     "embed_dim": params.embed_dim})
    else:
        config = _load_config(args)
        params = Params.init_random(config.feature_dim, config.embed_dim, seed=config.seed)
    return params, Featurizer(config.feature_dim), config


def cmd_analyze_shift(args) -> RunConfig:
    source, target = Path(args.source_dir), Path(args.target_dir)
    report = textstats.shift_report(
        load_corpus(_require_file(source / "corpus.jsonl")),
        load_queries(_require_file(source / "queries.jsonl")),
        load_corpus(_require_file(target / "corpus.jsonl")),
        load_queries(_require_file(target / "queries.jsonl")),
    )
    _write_record(_out_dir(args) / "shift_report", dataclasses.asdict(report))
    return RunConfig()


def cmd_pretrain(args) -> RunConfig:
    config = _load_config(args)
    corpora = [load_corpus(_require_file(Path(p))) for p in args.corpus]
    result = trainer.pretrain_coco(config, corpora)
    out = _out_dir(args)
    save_checkpoint(result.params, out / "encoder.ckpt")
    blobfile.write_table(out / "pretrain_log.tsv", ["epoch", "mean_loss"],
                         enumerate(result.epoch_losses, start=1))
    return config


def cmd_finetune(args) -> RunConfig:
    params, _, config = _load_encoder(args)
    corpus, queries, qrels = _load_task(args)

    out = _out_dir(args)
    store = trainer.training_store(config, corpus, queries, qrels)
    finetuner = Finetuner(config, params, store)
    while finetuner.episodes_done < config.episodes:
        episode = finetuner.run_episode().episode
        weights = "encoder.ckpt" if episode == config.episodes else f"encoder_ep{episode}.ckpt"
        finetuner.save_state(out / "trainer_state.bin", out / weights)
        clustering.save_cluster_model(finetuner.cluster_model, out / f"clusters_ep{episode}.bin")
        trainer.write_training_log(finetuner.log_rows, out / "training_log.tsv")
    if config.episodes == 0:
        save_checkpoint(finetuner.params, out / "encoder.ckpt")
    blobfile.write_records(out / "episodes.tsv", trainer.EpisodeRecord,
                           finetuner.episode_records)
    return config


def cmd_mine(args) -> RunConfig:
    params, featurizer, config = _load_encoder(args)
    corpus, queries, qrels = _load_task(args)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    store = trainer.FeatureStore(featurizer, queries, corpus, qrels)
    pools, n_fallback = trainer.mine_negatives(params, store, config.mine_depth, rng)
    out = _out_dir(args)
    _write_json(out / "negatives.json", {"pools": store.pool_ids(pools), "n_fallback": n_fallback})
    return config


def cmd_evaluate(args) -> RunConfig:
    params, featurizer, config = _load_encoder(args)
    corpus, queries, qrels = _load_task(args)
    store = trainer.FeatureStore(featurizer, queries, corpus, qrels)
    record, rankings = retrieval_eval.evaluate(params, store)
    out = _out_dir(args)
    retrieval_eval.write_trec_run(rankings, out / "run.trec", tag=args.tag)
    _write_record(out / "metrics", record.to_dict())
    return config


def cmd_diagnose(args) -> RunConfig:
    if args.pairs < 1:
        raise ConfigError(f"pairs: must be >= 1, not {args.pairs}")
    params, featurizer, config = _load_encoder(args)
    corpus = load_corpus(_require_file(Path(args.corpus)))
    report = diagnostics.diagnostics_report(
        params, featurizer, corpus,
        n_pairs=args.pairs, span_len=config.span_len, seed=config.seed,
        corpus_id=args.corpus,
    )
    _write_json(_out_dir(args) / "diagnostics.json", report)
    return config


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
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        _check_out(out)
        config = args.func(args)
        inputs = {name: getattr(args, name) for name in RUN_INPUTS if hasattr(args, name)}
        _write_json(out / "resolved_config.json",
                    {"command": args.command, "config": config.to_dict(), "inputs": inputs})
        _write_json(out / "run_meta.json", {"command": args.command, "timestamp": time.time()})
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:  # CorpusFormatError and BlobFileError among them
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
