import json

import numpy as np
import pytest

from robustdr import blobfile
from robustdr.cli import main
from robustdr.corpus import save_corpus, save_queries
from robustdr.encoder import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    Featurizer,
    Params,
    save_checkpoint,
)
from robustdr.synthetic import make_imbalanced_source, write_task_dir


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

    def test_finetune_then_evaluate(self, task_dir, tmp_path):
        ft_out = tmp_path / "ft"
        assert main(finetune_args(task_dir, ft_out)) == 0
        assert (ft_out / "encoder.ckpt").exists()
        assert (ft_out / "trainer_state.bin").exists()
        assert (ft_out / "training_log.tsv").exists()
        assert (ft_out / "clusters_ep2.bin").exists()

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

    def test_uniform_k1_cli_matches_scripted_erm_control(self, task_dir, tmp_path):
        """The CLI run with uniform weighting and one cluster equals a direct
        library run with the same config (plain ERM control)."""
        from robustdr.corpus import load_corpus, load_qrels, load_queries
        from robustdr.encoder import load_checkpoint
        from robustdr.trainer import Finetuner, RunConfig

        out = tmp_path / "erm"
        assert main(finetune_args(task_dir, out, ("--weighting", "uniform"))) == 0
        cli_params, _ = load_checkpoint(out / "encoder.ckpt")

        config = RunConfig.from_dict(
            json.loads((out / "resolved_config.json").read_text())["config"]
        )
        params = Params.init_random(config.feature_dim, config.embed_dim, seed=config.seed)
        control = Finetuner(
            config,
            params,
            load_corpus(task_dir / "corpus.jsonl"),
            load_queries(task_dir / "queries.jsonl"),
            load_qrels(task_dir / "qrels.tsv"),
        ).run()
        assert control.params.flat.tobytes() == cli_params.flat.tobytes()

    def test_mine_writes_pools(self, task_dir, tmp_path):
        ckpt = tmp_path / "enc.ckpt"
        save_checkpoint(Params.init_random(256, 8, seed=0), ckpt, hash_seed=0)
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

    def test_diagnose_writes_report(self, task_dir, tmp_path):
        ckpt = tmp_path / "enc.ckpt"
        save_checkpoint(Params.init_random(256, 8, seed=0), ckpt, hash_seed=0)
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
        featurizer = Featurizer(dim=512, seed=0)
        assert len({featurizer([f"planted{i}"]).indices[0] for i in range(4)}) == 4
        data = tmp_path / "data"
        data.mkdir()
        save_corpus(Corpus(docs), data / "corpus.jsonl")
        save_queries(QuerySet(queries), data / "queries.jsonl")
        (data / "qrels.tsv").write_text(
            "query-id\tcorpus-id\tscore\n"
            + "".join(f"q{i}\td{i}\t1\n" for i in range(4))
        )
        ckpt = tmp_path / "identity.ckpt"
        save_checkpoint(
            Params(feature_dim=512, embed_dim=512, flat=np.eye(512).ravel()), ckpt, hash_seed=0
        )
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

    @pytest.fixture
    def ckpt(self, tmp_path):
        path = tmp_path / "enc.ckpt"
        save_checkpoint(Params.init_random(256, 8, seed=0), path, hash_seed=5)
        return path

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
        assert {k: config[k] for k in ("feature_dim", "embed_dim", "hash_seed")} == {
            "feature_dim": 256, "embed_dim": 8, "hash_seed": 5}
        assert "hidden" not in config

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
            ("omega_carryover", "no"),
            ("omega_carryover", 1),
            # the removed hidden-layer switch: any value is an unknown field
            ("hidden", "no"),
            ("hidden", 1),
            ("feature_dim", True),
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
        save_checkpoint(Params.init_random(256, 8, seed=0), ckpt, hash_seed=0)
        full_header = ckpt.read_bytes().split(b"\n")[0] + b"\n"
        for header in (b'{"format": "robustdr-encoder", "version": 1}\n', full_header):
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
        save_checkpoint(params, ckpt, hash_seed=0)
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
        ckpt = tmp_path / "enc.ckpt"
        fields = {"feature_dim": 256, "embed_dim": 8, "hidden": True, "hash_seed": 0,
                  "dtype": "<f8", "n_params": 256 * 8 + 8 * 8}
        blobfile.write(ckpt, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, fields,
                       [np.zeros(fields["n_params"])])
        code = main([
            "evaluate",
            "--checkpoint", str(ckpt),
            "--corpus", str(task_dir / "corpus.jsonl"),
            "--queries", str(task_dir / "queries.jsonl"),
            "--qrels", str(task_dir / "qrels.tsv"),
            "--out", str(tmp_path / "ev"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert str(ckpt) in err and "hidden layer" in err

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
