import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import robustdr
from robustdr import blobfile, cli, diagnostics, experiments, retrieval_eval, textstats, trainer
from robustdr.cli import main
from robustdr.corpus import load_corpus, load_qrels, load_queries, save_corpus, save_queries
from robustdr.encoder import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    Featurizer,
    Params,
    save_checkpoint,
)
from robustdr.errors import InvariantError
from robustdr.trainer import STATE_VERSION, RunConfig
from robustdr.synthetic import make_imbalanced_source, make_two_domain_benchmark, write_task_dir
from tests.conftest import save_version_2_checkpoint
from tests.oracles import mined_pools_reference


@pytest.fixture(scope="module")
def task_dir(tmp_path_factory):
    task, _ = make_imbalanced_source(
        seed=4,
        n_major_topics=2,
        n_rare_topics=1,
        docs_per_topic=4,
        major_queries_per_topic=4,
        rare_queries_per_topic=2,
        query_vocab_per_topic=6,
        rare_query_vocab_profile=(6,),
    )
    base = tmp_path_factory.mktemp("task")
    write_task_dir(task, base)
    return base


@pytest.fixture
def ckpt(tmp_path):
    path = tmp_path / "enc.ckpt"
    save_checkpoint(Params.init_random(256, 8, seed=0), path)
    return path


def finetune_args(task_dir, out, extra=()):
    return [
        "finetune",
        "--corpus", str(task_dir / "corpus.jsonl"),
        "--queries", str(task_dir / "queries.jsonl"),
        "--qrels", str(task_dir / "qrels.tsv"),
        "--out", str(out),
        "--feature-dim", "256",
        "--embed-dim", "8",
        "--episodes", "2",
        "--steps", "3",
        "--batch-size", "4",
        "--negatives", "2",
        "--k", "2",
        "--seed", "7",
        *extra,
    ]


class TestAnalyzeShift:
    def test_identical_dirs_give_unit_similarity(self, task_dir, tmp_path):
        out = tmp_path / "report"
        code = main([
            "analyze-shift",
            "--source-dir", str(task_dir),
            "--target-dir", str(task_dir),
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "shift_report.json").read_text())
        assert report["doc_lexical_similarity"] == 1.0
        assert report["query_intent_similarity"] == 1.0
        assert (out / "shift_report.tsv").exists()
        assert (out / "resolved_config.json").exists()

    def test_missing_queries_file_exits_2(self, task_dir, tmp_path):
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "corpus.jsonl").write_text((task_dir / "corpus.jsonl").read_text())
        code = main([
            "analyze-shift",
            "--source-dir", str(broken),
            "--target-dir", str(task_dir),
            "--out", str(tmp_path / "r"),
        ])
        assert code == 2

    def test_matches_module_oracle(self, task_dir, tmp_path):
        from robustdr.corpus import load_corpus, load_queries
        from robustdr.textstats import shift_report

        other, _ = make_imbalanced_source(
            seed=9, n_major_topics=1, n_rare_topics=1, docs_per_topic=3,
            major_queries_per_topic=2, rare_queries_per_topic=2,
        )
        other_dir = tmp_path / "other"
        write_task_dir(other, other_dir)
        out = tmp_path / "report"
        assert main([
            "analyze-shift",
            "--source-dir", str(task_dir),
            "--target-dir", str(other_dir),
            "--out", str(out),
        ]) == 0
        got = json.loads((out / "shift_report.json").read_text())
        expected = shift_report(
            load_corpus(task_dir / "corpus.jsonl"),
            load_queries(task_dir / "queries.jsonl"),
            load_corpus(other_dir / "corpus.jsonl"),
            load_queries(other_dir / "queries.jsonl"),
        )
        assert got["doc_lexical_similarity"] == expected.doc_lexical_similarity
        assert got["query_intent_similarity"] == expected.query_intent_similarity


class TestPipelineCommands:
    def test_pretrain_writes_artifacts(self, task_dir, tmp_path):
        out = tmp_path / "pre"
        code = main([
            "pretrain",
            "--corpus", str(task_dir / "corpus.jsonl"),
            "--out", str(out),
            "--epochs", "2",
            "--span-len", "3",
            "--batch-size", "4",
            "--feature-dim", "256",
            "--embed-dim", "8",
            "--seed", "3",
        ])
        assert code == 0
        assert (out / "encoder.ckpt").exists()
        log = (out / "pretrain_log.tsv").read_text().strip().split("\n")
        assert log[0] == "epoch\tmean_loss"
        assert len(log) == 3

    def test_pretrain_batch_of_one_exits_2(self, task_dir, tmp_path, capsys):
        out = tmp_path / "pre"
        code = main(["pretrain", "--corpus", str(task_dir / "corpus.jsonl"), "--out", str(out),
                     "--span-len", "3", "--batch-size", "1", "--feature-dim", "256",
                     "--embed-dim", "8"])
        assert code == 2
        assert "batch_size" in capsys.readouterr().err
        assert not (out / "encoder.ckpt").exists()

    def test_finetune_then_evaluate(self, task_dir, tmp_path):
        """Two episodes write one checkpoint each: the last one is encoder.ckpt, and the
        trainer state pairs with it."""
        ft_out = tmp_path / "ft"
        assert main(finetune_args(task_dir, ft_out)) == 0
        assert sorted(p.name for p in ft_out.iterdir()) == [
            "clusters_ep1.bin", "clusters_ep2.bin", "encoder.ckpt", "encoder_ep1.ckpt",
            "episodes.tsv", "resolved_config.json", "run_meta.json", "trainer_state.bin",
            "training_log.tsv"]
        state = json.loads((ft_out / "trainer_state.bin").read_bytes().partition(b"\n")[0])
        assert (state["version"], state["checkpoint"]) == (STATE_VERSION, "encoder.ckpt")

        ev_out = tmp_path / "ev"
        code = main([
            "evaluate",
            "--checkpoint", str(ft_out / "encoder.ckpt"),
            "--corpus", str(task_dir / "corpus.jsonl"),
            "--queries", str(task_dir / "queries.jsonl"),
            "--qrels", str(task_dir / "qrels.tsv"),
            "--out", str(ev_out),
        ])
        assert code == 0
        metrics = json.loads((ev_out / "metrics.json").read_text())
        assert 0.0 <= metrics["ndcg@10"] <= 1.0
        assert (ev_out / "run.trec").exists()

    @pytest.mark.parametrize("queries_per_topic", [4, 60])
    def test_cluster_files_label_the_training_queries_in_file_order(self, tmp_path,
                                                                   queries_per_topic):
        """Each clusters_ep<n>.bin holds one cluster id per query with a positive, in
        query-file order: the fit of the encoder that began episode n, refit here.
        Its header line is the same few scalars at any query count."""
        from robustdr.clustering import kmeans_fit, load_cluster_model
        from robustdr.corpus import Query, QuerySet
        from robustdr.encoder import encode_many, load_checkpoint
        from robustdr.trainer import _TAG_KMEANS, RunConfig, _derived_rng

        task, _ = make_imbalanced_source(
            seed=4, n_major_topics=2, n_rare_topics=1, docs_per_topic=4,
            major_queries_per_topic=queries_per_topic, rare_queries_per_topic=2,
            query_vocab_per_topic=6, rare_query_vocab_profile=(6,))
        queries = list(task.queries)
        orphan = Query.from_fields("orphan", "a query nobody judged")
        task = dataclasses.replace(task, queries=QuerySet([queries[0], orphan, *queries[1:]]))
        write_task_dir(task, tmp_path / "task")
        out = tmp_path / "ft"
        assert main(finetune_args(tmp_path / "task", out)) == 0

        config = RunConfig.from_dict(
            json.loads((out / "resolved_config.json").read_text())["config"])
        rows = Featurizer(config.feature_dim)(q.tokens for q in queries).all_rows()
        starts = [Params.init_random(config.feature_dim, config.embed_dim, seed=config.seed),
                  load_checkpoint(out / "encoder_ep1.ckpt")]
        for episode, start in enumerate(starts, start=1):
            path = out / f"clusters_ep{episode}.bin"
            model = load_cluster_model(path)
            k = len(model.centroids)
            assert model.labels.shape == (len(queries),)
            assert 0 <= model.labels.min() and model.labels.max() < k
            assert len(path.read_bytes().partition(b"\n")[0]) < 200
            seed = int(_derived_rng(config.seed, _TAG_KMEANS, episode).integers(2**31))
            want = kmeans_fit(encode_many(start, rows), k, seed=seed,
                              max_iters=config.kmeans_iters)
            assert model.labels.tobytes() == want.labels.tobytes()

    def test_uniform_k1_cli_matches_scripted_erm_control(self, task_dir, tmp_path):
        """The CLI run with uniform weighting and one cluster equals a direct
        library run with the same config (plain ERM control)."""
        from robustdr.corpus import load_corpus, load_qrels, load_queries
        from robustdr.encoder import load_checkpoint
        from robustdr.trainer import Finetuner, RunConfig, training_store

        out = tmp_path / "erm"
        assert main(finetune_args(task_dir, out, ("--weighting", "uniform"))) == 0
        cli_params = load_checkpoint(out / "encoder.ckpt")

        config = RunConfig.from_dict(
            json.loads((out / "resolved_config.json").read_text())["config"]
        )
        params = Params.init_random(config.feature_dim, config.embed_dim, seed=config.seed)
        store = training_store(
            config,
            load_corpus(task_dir / "corpus.jsonl"),
            load_queries(task_dir / "queries.jsonl"),
            load_qrels(task_dir / "qrels.tsv"),
        )
        control = Finetuner(config, params, store)
        control.run()
        assert control.params.flat.tobytes() == cli_params.flat.tobytes()

    def test_zero_episodes_write_the_initial_encoder(self, task_dir, tmp_path):
        """With no episode there is no trainer state; encoder.ckpt holds the seeded
        initial weights."""
        args = finetune_args(task_dir, tmp_path / "ft")
        args[args.index("--episodes") + 1] = "0"
        assert main(args) == 0
        save_checkpoint(Params.init_random(256, 8, seed=7), tmp_path / "init.ckpt")
        assert (tmp_path / "ft" / "encoder.ckpt").read_bytes() == (
            tmp_path / "init.ckpt").read_bytes()
        assert sorted(p.name for p in (tmp_path / "ft").iterdir()) == [
            "encoder.ckpt", "episodes.tsv", "resolved_config.json", "run_meta.json"]

    def test_mine_writes_pools(self, task_dir, tmp_path):
        ckpt = tmp_path / "enc.ckpt"
        save_checkpoint(Params.init_random(256, 8, seed=0), ckpt)
        out = tmp_path / "mine"
        code = main([
            "mine",
            "--checkpoint", str(ckpt),
            "--corpus", str(task_dir / "corpus.jsonl"),
            "--queries", str(task_dir / "queries.jsonl"),
            "--qrels", str(task_dir / "qrels.tsv"),
            "--k", "3",
            "--out", str(out),
            "--seed", "1",
        ])
        assert code == 0
        pools = json.loads((out / "negatives.json").read_text())["pools"]
        assert pools

    @pytest.mark.parametrize("k", [1, 3])
    def test_mine_bytes_equal_per_query_reference(self, task_dir, tmp_path, k):
        """negatives.json against per-query dense rankings and pools, fallbacks included."""
        ckpt = tmp_path / "enc.ckpt"
        params = Params.init_random(256, 8, seed=0)
        save_checkpoint(params, ckpt)
        out = tmp_path / "mine"
        assert main(["mine", f"--checkpoint={ckpt}", *task_flags(task_dir), f"--k={k}",
                     f"--out={out}", "--seed=1"]) == 0
        pools, n_fallback = mined_pools_reference(
            params, Featurizer(256), load_queries(task_dir / "queries.jsonl"),
            load_corpus(task_dir / "corpus.jsonl"), load_qrels(task_dir / "qrels.tsv"), k,
            np.random.Generator(np.random.PCG64(1)),
        )
        assert n_fallback > 0
        want = json.dumps({"pools": pools, "n_fallback": n_fallback}, sort_keys=True, indent=2)
        assert (out / "negatives.json").read_bytes() == (want + "\n").encode("utf-8")

    def test_diagnose_writes_report(self, task_dir, tmp_path):
        ckpt = tmp_path / "enc.ckpt"
        save_checkpoint(Params.init_random(256, 8, seed=0), ckpt)
        out = tmp_path / "diag"
        code = main([
            "diagnose",
            "--checkpoint", str(ckpt),
            "--corpus", str(task_dir / "corpus.jsonl"),
            "--pairs", "8",
            "--span-len", "3",
            "--out", str(out),
            "--seed", "0",
        ])
        assert code == 0
        report = json.loads((out / "diagnostics.json").read_text())
        assert report["alignment"] >= 0.0
        assert report["uniformity"] <= 0.0

    def test_evaluate_planted_perfect_embeddings(self, tmp_path):
        from robustdr.corpus import Corpus, Document, Query, QuerySet

        docs = [Document.from_fields(f"d{i}", f"planted{i}") for i in range(4)]
        queries = [Query.from_fields(f"q{i}", f"planted{i}") for i in range(4)]
        featurizer = Featurizer(dim=512)
        assert len(set(featurizer([[f"planted{i}"] for i in range(4)]).indices)) == 4
        data = tmp_path / "data"
        data.mkdir()
        save_corpus(Corpus(docs), data / "corpus.jsonl")
        save_queries(QuerySet(queries), data / "queries.jsonl")
        (data / "qrels.tsv").write_text(
            "query-id\tcorpus-id\tscore\n"
            + "".join(f"q{i}\td{i}\t1\n" for i in range(4))
        )
        ckpt = tmp_path / "identity.ckpt"
        save_checkpoint(Params(feature_dim=512, embed_dim=512, flat=np.eye(512).ravel()), ckpt)
        out = tmp_path / "ev"
        code = main([
            "evaluate",
            "--checkpoint", str(ckpt),
            "--corpus", str(data / "corpus.jsonl"),
            "--queries", str(data / "queries.jsonl"),
            "--qrels", str(data / "qrels.tsv"),
            "--out", str(out),
        ])
        assert code == 0
        assert json.loads((out / "metrics.json").read_text())["ndcg@10"] == 1.0


def task_flags(task_dir):
    return [f"--{kind}={task_dir / name}" for kind, name in
            (("corpus", "corpus.jsonl"), ("queries", "queries.jsonl"), ("qrels", "qrels.tsv"))]


class TestConfigLayers:
    """Defaults <- config file <- flags <- checkpoint, recorded as the run used it."""

    @pytest.mark.parametrize("command", ["finetune", "evaluate", "mine", "diagnose"])
    def test_record_holds_the_checkpoint_encoder(self, task_dir, tmp_path, ckpt, command):
        out = tmp_path / command
        argv = [command, f"--checkpoint={ckpt}", f"--out={out}"]
        if command == "finetune":  # its --feature-dim and --embed-dim agree with the checkpoint
            argv = finetune_args(task_dir, out, ("--checkpoint", str(ckpt)))
        elif command == "diagnose":
            argv += [f"--corpus={task_dir / 'corpus.jsonl'}", "--pairs=8", "--span-len=3"]
        else:
            argv += task_flags(task_dir)
        assert main(argv) == 0
        config = json.loads((out / "resolved_config.json").read_text())["config"]
        assert {k: config[k] for k in ("feature_dim", "embed_dim")} == {
            "feature_dim": 256, "embed_dim": 8}
        assert "hidden" not in config and "hash_seed" not in config

    def test_flag_conflicting_with_checkpoint_exits_2(self, task_dir, tmp_path, ckpt, capsys):
        args = finetune_args(task_dir, tmp_path / "x", ("--checkpoint", str(ckpt)))
        args[args.index("--feature-dim") + 1] = "512"
        assert main(args) == 2
        assert "feature_dim" in capsys.readouterr().err
        assert not (tmp_path / "x" / "encoder.ckpt").exists()

    def test_config_file_conflicting_with_checkpoint_exits_2(
        self, task_dir, tmp_path, ckpt, capsys
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"feature_dim": 512}))
        args = finetune_args(task_dir, tmp_path / "x",
                             ("--checkpoint", str(ckpt), "--config", str(config)))
        at = args.index("--feature-dim")
        del args[at : at + 2]
        assert main(args) == 2
        assert "feature_dim" in capsys.readouterr().err
        assert not (tmp_path / "x" / "encoder.ckpt").exists()

    def test_mine_honours_config_depth(self, task_dir, tmp_path, ckpt):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mine_depth": 3}))
        out = tmp_path / "mine"
        assert main(["mine", f"--checkpoint={ckpt}", *task_flags(task_dir),
                     f"--config={config}", f"--out={out}"]) == 0
        pools = json.loads((out / "negatives.json").read_text())["pools"]
        assert max(len(pool) for pool in pools.values()) == 3

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--seed", "1"],
        ["evaluate", "--config", "config.json"],
        ["analyze-shift", "--seed", "1"],
    ], ids=["evaluate-seed", "evaluate-config", "analyze-shift-seed"])
    def test_inert_flags_removed(self, task_dir, tmp_path, ckpt, argv):
        command, *flag = argv
        inputs = ([f"--source-dir={task_dir}", f"--target-dir={task_dir}"]
                  if command == "analyze-shift"
                  else [f"--checkpoint={ckpt}", *task_flags(task_dir)])
        with pytest.raises(SystemExit) as err:
            main([command, *inputs, *flag, f"--out={tmp_path / 'x'}"])
        assert err.value.code == 2


class TestRunLifecycle:
    """`main` checks --out before the command runs and records the run after it."""

    COMMANDS = ["analyze-shift", "pretrain", "finetune", "mine", "evaluate", "diagnose"]
    WORK = {"analyze-shift": (textstats, "shift_report"), "pretrain": (trainer, "pretrain_coco"),
            "finetune": (trainer, "training_store"), "mine": (trainer, "mine_negatives"),
            "evaluate": (retrieval_eval, "evaluate"),
            "diagnose": (diagnostics, "diagnostics_report")}

    @staticmethod
    def argv(command, task_dir, ckpt, out):
        corpus = f"--corpus={task_dir / 'corpus.jsonl'}"
        sized = ["--feature-dim=256", "--embed-dim=8", "--batch-size=4"]
        return [command, f"--out={out}", *{
            "analyze-shift": [f"--source-dir={task_dir}", f"--target-dir={task_dir}"],
            "pretrain": [corpus, corpus, "--epochs=1", "--span-len=3", *sized],
            "finetune": [*task_flags(task_dir), *sized, "--episodes=1", "--steps=2",
                         "--negatives=2", "--k=2"],
            "mine": [f"--checkpoint={ckpt}", *task_flags(task_dir), "--k=3"],
            "evaluate": [f"--checkpoint={ckpt}", *task_flags(task_dir)],
            "diagnose": [f"--checkpoint={ckpt}", corpus, "--pairs=8", "--span-len=3"],
        }[command]]

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_not_a_directory_exits_2_before_any_input_is_read(
        self, task_dir, tmp_path, ckpt, capsys, monkeypatch, command, under
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("called before --out was checked")

        monkeypatch.setattr(cli, "_require_file", refuse)
        monkeypatch.setattr(*self.WORK[command], refuse)
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / "run" if under else taken
        assert main(self.argv(command, task_dir, ckpt, out)) == 2
        assert str(out) in capsys.readouterr().err
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_record_pins_command_and_inputs(self, task_dir, tmp_path, ckpt, command):
        out = tmp_path / "run"
        assert main(self.argv(command, task_dir, ckpt, out)) == 0
        record = json.loads((out / "resolved_config.json").read_text())
        task = {kind: str(task_dir / name) for kind, name in
                (("corpus", "corpus.jsonl"), ("queries", "queries.jsonl"), ("qrels", "qrels.tsv"))}
        want = {
            "analyze-shift": {"source_dir": str(task_dir), "target_dir": str(task_dir)},
            "pretrain": {"corpus": [task["corpus"], task["corpus"]]},
            "finetune": {"checkpoint": None, **task},
            "mine": {"checkpoint": str(ckpt), **task},
            "evaluate": {"checkpoint": str(ckpt), **task},
            "diagnose": {"checkpoint": str(ckpt), "corpus": task["corpus"]},
        }[command]
        assert (record["command"], record["inputs"]) == (command, want)
        if command == "analyze-shift":
            assert record["config"] == RunConfig().to_dict()
        meta = json.loads((out / "run_meta.json").read_text())
        assert (sorted(meta), meta["command"]) == (["command", "timestamp"], command)

    def test_invariant_error_exits_4(self, task_dir, tmp_path, ckpt, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise InvariantError("planted")

        monkeypatch.setattr(retrieval_eval, "evaluate", broken)
        assert main(self.argv("evaluate", task_dir, ckpt, tmp_path / "ev")) == 4
        assert "internal error: planted" in capsys.readouterr().err

    def test_unwritable_artifact_exits_2_naming_it(self, task_dir, tmp_path, ckpt, capsys):
        out = tmp_path / "ev"
        (out / "run.trec" / "taken").mkdir(parents=True)
        assert main(self.argv("evaluate", task_dir, ckpt, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out / "run.trec") in err


class TestParser:
    COMMAND_ARGS = {"out", "config", "corpus", "queries", "qrels", "checkpoint",
                    "source_dir", "target_dir", "pairs", "tag"}
    OPTIONS = {
        "analyze-shift": ["--out", "--source-dir", "--target-dir"],
        "pretrain": ["--batch-size", "--config", "--corpus", "--embed-dim", "--epochs",
                     "--feature-dim", "--lr", "--out", "--seed", "--span-len"],
        "finetune": ["--batch-size", "--beta", "--checkpoint", "--config", "--corpus",
                     "--embed-dim", "--episodes", "--feature-dim", "--k", "--lr",
                     "--negatives", "--optimizer", "--out", "--qrels", "--queries", "--seed",
                     "--steps", "--tau", "--weighting"],
        "mine": ["--checkpoint", "--config", "--corpus", "--k", "--out", "--qrels", "--queries",
                 "--seed"],
        "evaluate": ["--checkpoint", "--corpus", "--out", "--qrels", "--queries", "--tag"],
        "diagnose": ["--checkpoint", "--config", "--corpus", "--out", "--pairs", "--seed",
                     "--span-len"],
    }

    @staticmethod
    def commands():
        import argparse

        from robustdr.cli import build_parser

        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        return {
            name: [a for a in p._actions if not isinstance(a, argparse._HelpAction)]
            for name, p in sub.choices.items()
        }

    def test_every_dest_is_a_config_field_or_a_command_argument(self):
        from dataclasses import fields

        from robustdr.trainer import RunConfig

        allowed = {f.name for f in fields(RunConfig)} | self.COMMAND_ARGS
        for name, actions in self.commands().items():
            for action in actions:
                assert action.dest in allowed, (name, action.option_strings, action.dest)

    def test_option_strings_pinned(self):
        got = {name: sorted(s for a in actions for s in a.option_strings)
               for name, actions in self.commands().items()}
        assert got == self.OPTIONS


class TestExitCodes:
    def test_invalid_config_field_exits_2_naming_field(self, task_dir, tmp_path, capsys):
        code = main(finetune_args(task_dir, tmp_path / "x", ("--tau", "-1.0")))
        assert code == 2
        assert "tau" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value",
        [
            ("batch_size", "8"),
            ("k_clusters", 2.5),
            ("seed", 1.5),
            ("learning_rate", "x"),
            ("tau", None),
            # the removed carryover, hidden-layer and in-batch negative switches: any
            # value is an unknown field
            ("omega_carryover", "no"),
            ("omega_carryover", 1),
            ("hidden", "no"),
            ("hidden", 1),
            ("in_batch_negatives", "no"),
            ("in_batch_negatives", 1),
            ("feature_dim", True),
            # an integer beyond float64, as a JSON literal can give
            pytest.param("tau", 10**400, id="tau-huge-int"),
        ],
    )
    def test_config_value_of_wrong_type_exits_2_naming_field(
        self, task_dir, tmp_path, capsys, field, value
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({field: value}))
        args = finetune_args(task_dir, tmp_path / "x", ("--config", str(config)))
        # drop the flag that would override the file's value
        flags = {"batch_size": "--batch-size", "k_clusters": "--k", "seed": "--seed",
                 "feature_dim": "--feature-dim"}
        if field in flags:
            at = args.index(flags[field])
            del args[at : at + 2]
        code = main(args)
        assert code == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "x" / "encoder.ckpt").exists()

    def test_removed_hidden_field_exits_2(self, task_dir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"hidden": False}))
        assert main(finetune_args(task_dir, tmp_path / "x", ("--config", str(config)))) == 2
        assert "hidden: unknown config field" in capsys.readouterr().err
        assert not (tmp_path / "x" / "encoder.ckpt").exists()

    def test_removed_hash_seed_field_exits_2(self, task_dir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"hash_seed": 0}))
        assert main(finetune_args(task_dir, tmp_path / "x", ("--config", str(config)))) == 2
        assert "hash_seed: unknown config field" in capsys.readouterr().err
        assert not (tmp_path / "x" / "encoder.ckpt").exists()

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_negative_seed_exits_2(self, task_dir, tmp_path, capsys, command):
        out = tmp_path / "x"
        if command == "pretrain":
            argv = ["pretrain", "--corpus", str(task_dir / "corpus.jsonl"), "--out", str(out),
                    "--span-len", "3", "--feature-dim", "256", "--embed-dim", "8"]
        else:
            argv = finetune_args(task_dir, out)
        assert main([*argv, "--seed", "-1"]) == 2
        assert "seed: must be >= 0" in capsys.readouterr().err
        assert not (out / "encoder.ckpt").exists()

    @pytest.mark.parametrize("pairs", [0, -3])
    def test_diagnose_pairs_below_1_exit_2(self, task_dir, tmp_path, capsys, pairs):
        ckpt = tmp_path / "enc.ckpt"
        save_checkpoint(Params.init_random(256, 8, seed=0), ckpt)
        out = tmp_path / "diag"
        code = main(["diagnose", "--checkpoint", str(ckpt),
                     "--corpus", str(task_dir / "corpus.jsonl"), "--pairs", str(pairs),
                     "--span-len", "3", "--out", str(out)])
        assert code == 2
        assert "pairs: must be >= 1" in capsys.readouterr().err
        assert not (out / "diagnostics.json").exists()

    @pytest.mark.parametrize("value", [False, True])
    def test_removed_in_batch_field_exits_2(self, task_dir, tmp_path, capsys, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"in_batch_negatives": value}))
        assert main(finetune_args(task_dir, tmp_path / "x", ("--config", str(config)))) == 2
        assert "in_batch_negatives: unknown config field" in capsys.readouterr().err
        assert not (tmp_path / "x" / "encoder.ckpt").exists()

    def test_infinite_learning_rate_exits_2(self, task_dir, tmp_path, capsys):
        assert main(finetune_args(task_dir, tmp_path / "x", ("--lr", "inf"))) == 2
        assert "learning_rate: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x" / "encoder.ckpt").exists()

    def test_removed_stage_field_exits_2(self, task_dir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"stage": "finetune"}))
        assert main(finetune_args(task_dir, tmp_path / "x", ("--config", str(config)))) == 2
        assert "stage: unknown config field" in capsys.readouterr().err

    def test_malformed_config_json_exits_2_naming_file(self, task_dir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"seed": 1,')
        assert main(finetune_args(task_dir, tmp_path / "x", ("--config", str(config)))) == 2
        assert str(config) in capsys.readouterr().err

    def test_malformed_corpus_exits_3(self, task_dir, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        args = finetune_args(task_dir, tmp_path / "x")
        args[args.index("--corpus") + 1] = str(bad)
        assert main(args) == 3

    def test_malformed_checkpoint_exits_3_naming_path(self, task_dir, tmp_path, capsys):
        ckpt = tmp_path / "enc.ckpt"
        save_checkpoint(Params.init_random(256, 8, seed=0), ckpt)
        full_header = ckpt.read_bytes().split(b"\n")[0] + b"\n"
        fieldless = b'{"format": "robustdr-encoder", "version": %d}\n' % CHECKPOINT_VERSION
        for header in (fieldless, full_header):
            ckpt.write_bytes(header)
            code = main([
                "evaluate",
                "--checkpoint", str(ckpt),
                "--corpus", str(task_dir / "corpus.jsonl"),
                "--queries", str(task_dir / "queries.jsonl"),
                "--qrels", str(task_dir / "qrels.tsv"),
                "--out", str(tmp_path / "ev"),
            ])
            assert code == 3
            assert str(ckpt) in capsys.readouterr().err

    def test_non_finite_checkpoint_exits_3_naming_path(self, task_dir, tmp_path, capsys):
        ckpt = tmp_path / "enc.ckpt"
        params = Params.init_random(256, 8, seed=0)
        params.flat[17] = np.nan
        save_checkpoint(params, ckpt)
        code = main([
            "evaluate",
            "--checkpoint", str(ckpt),
            "--corpus", str(task_dir / "corpus.jsonl"),
            "--queries", str(task_dir / "queries.jsonl"),
            "--qrels", str(task_dir / "qrels.tsv"),
            "--out", str(tmp_path / "ev"),
        ])
        assert code == 3
        assert str(ckpt) in capsys.readouterr().err

    def test_hidden_layer_checkpoint_exits_3_naming_path(self, task_dir, tmp_path, capsys):
        """A checkpoint of the removed hidden layer was of version 2 at the latest."""
        ckpt = tmp_path / "enc.ckpt"
        fields = {"feature_dim": 256, "embed_dim": 8, "hidden": True, "hash_seed": 0,
                  "dtype": "<f8", "n_params": 256 * 8 + 8 * 8}
        blobfile.write(ckpt, CHECKPOINT_FORMAT, 2, fields, [np.zeros(fields["n_params"])])
        code = main([
            "evaluate",
            "--checkpoint", str(ckpt),
            "--corpus", str(task_dir / "corpus.jsonl"),
            "--queries", str(task_dir / "queries.jsonl"),
            "--qrels", str(task_dir / "qrels.tsv"),
            "--out", str(tmp_path / "ev"),
        ])
        assert code == 3
        assert f"{ckpt}: unsupported {CHECKPOINT_FORMAT} version 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["finetune", "evaluate"])
    def test_version_2_checkpoint_exits_3_naming_path(self, task_dir, tmp_path, capsys,
                                                      command):
        ckpt = tmp_path / "enc.ckpt"
        save_version_2_checkpoint(Params.init_random(256, 8, seed=0), ckpt)
        out = tmp_path / "x"
        if command == "finetune":
            argv = finetune_args(task_dir, out, ("--checkpoint", str(ckpt)))
        else:
            argv = ["evaluate", f"--checkpoint={ckpt}", *task_flags(task_dir), f"--out={out}"]
        assert main(argv) == 3
        assert f"{ckpt}: unsupported {CHECKPOINT_FORMAT} version 2" in capsys.readouterr().err
        assert not out.exists()

    def test_embedding_major_checkpoint_exits_3_naming_version(self, task_dir, tmp_path,
                                                                capsys):
        ckpt = tmp_path / "enc.ckpt"
        params = Params.init_random(256, 8, seed=0)
        fields = {"feature_dim": 256, "embed_dim": 8, "hidden": False, "hash_seed": 0,
                  "dtype": "<f8", "n_params": 256 * 8}
        blobfile.write(ckpt, CHECKPOINT_FORMAT, 1, fields, [params.W.ravel()])
        code = main([
            "evaluate",
            "--checkpoint", str(ckpt),
            "--corpus", str(task_dir / "corpus.jsonl"),
            "--queries", str(task_dir / "queries.jsonl"),
            "--qrels", str(task_dir / "qrels.tsv"),
            "--out", str(tmp_path / "ev"),
        ])
        assert code == 3
        assert f"{ckpt}: unsupported {CHECKPOINT_FORMAT} version 1" in capsys.readouterr().err

    def test_dangling_qrels_exit_3_naming_doc(self, task_dir, tmp_path, capsys):
        lines = (task_dir / "qrels.tsv").read_text().splitlines()
        qid = lines[1].split("\t")[0]
        kept = [line for line in lines if line.split("\t")[0] != qid]
        qrels = tmp_path / "qrels.tsv"
        qrels.write_text("\n".join(kept + [f"{qid}\tno-such-doc\t1"]) + "\n")
        args = finetune_args(task_dir, tmp_path / "x")
        args[args.index("--qrels") + 1] = str(qrels)
        assert main(args) == 3
        assert "no-such-doc" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["doc", "query"])
    def test_id_holding_whitespace_exits_3_naming_it(self, tmp_path, ckpt, capsys, kind):
        """A TREC run line holds six whitespace-separated fields."""
        from robustdr.corpus import Corpus, Document, Query, QuerySet

        doc_id, query_id = ("doc one", "q1") if kind == "doc" else ("d1", "q one")
        data = tmp_path / "data"
        data.mkdir()
        save_corpus(Corpus([Document.from_fields(doc_id, "alpha beta"),
                            Document.from_fields("d2", "gamma delta")]), data / "corpus.jsonl")
        save_queries(QuerySet([Query.from_fields(query_id, "alpha")]), data / "queries.jsonl")
        (data / "qrels.tsv").write_text(f"query-id\tcorpus-id\tscore\n{query_id}\t{doc_id}\t1\n")
        out = tmp_path / "ev"
        assert main(["evaluate", f"--checkpoint={ckpt}", *task_flags(data), f"--out={out}"]) == 3
        assert repr(doc_id if kind == "doc" else query_id) in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_unknown_flag_exits_2(self, task_dir, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["finetune", "--nonsense", "1"])
        assert err.value.code == 2


class TestIdempotence:
    def test_rerun_produces_identical_bytes(self, task_dir, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(finetune_args(task_dir, out_a)) == 0
        assert main(finetune_args(task_dir, out_b)) == 0
        for name in ("encoder.ckpt", "training_log.tsv", "episodes.tsv",
                     "resolved_config.json", "trainer_state.bin"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        # timestamps only in the sidecar
        meta_a = json.loads((out_a / "run_meta.json").read_text())
        assert "timestamp" in meta_a


class TestBlasThreads:
    def test_finetune_and_evaluate_bytes_equal_across_blas_thread_counts(self, tmp_path):
        """A default-config 2 x 3-step fine-tune and an evaluate, each in a fresh
        process with one and with two BLAS threads, write the same bytes."""
        source, target = make_two_domain_benchmark(seed=experiments._BENCHMARK_SEED)
        write_task_dir(source, tmp_path / "source")
        write_task_dir(target, tmp_path / "target")
        src = os.path.dirname(os.path.dirname(robustdr.__file__))
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

        def task(side):
            return [f"--{kind}={tmp_path / side / name}" for kind, name in
                    (("corpus", "corpus.jsonl"), ("queries", "queries.jsonl"),
                     ("qrels", "qrels.tsv"))]

        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads, PYTHONPATH=pythonpath)
            out = tmp_path / f"threads{threads}"
            for args in (["finetune", *task("source"), "--episodes=2", "--steps=3",
                          f"--out={out / 'ft'}"],
                         ["evaluate", f"--checkpoint={out / 'ft' / 'encoder.ckpt'}",
                          *task("target"), f"--out={out / 'ev'}"]):
                proc = subprocess.run([sys.executable, "-m", "robustdr.cli", *args],
                                      capture_output=True, text=True, env=env)
                assert proc.returncode == 0, proc.stderr
            outputs.append([(out / name).read_bytes() for name in ("ft/encoder.ckpt",
                                                                   "ev/run.trec")])
        assert outputs[0][0] == outputs[1][0], "encoder.ckpt differs"
        assert outputs[0][1] == outputs[1][1], "run.trec differs"
