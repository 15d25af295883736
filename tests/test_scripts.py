"""The study script's exit codes: 0 on PASS, 1 on FAIL, and its printed values;
the benchmark writer's files."""

import json
import runpy
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from robustdr import experiments
from robustdr.corpus import load_corpus, load_qrels, load_queries
from robustdr.synthetic import make_imbalanced_source, make_two_domain_benchmark

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_study(study, monkeypatch, seeds=("0", "1")):
    monkeypatch.setattr(sys, "argv", ["run_study.py", study, "--seeds", *seeds])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "run_study.py"), run_name="__main__")
    return exit_info.value.code


def idro_values(idro_rare):
    def arm(rare, average):
        return SimpleNamespace(rare=rare, average=average)

    return lambda seed: {
        "idro": arm(idro_rare, 0.6),
        "groupdro": arm(0.4, 0.7),
        "uniform": arm(0.55, 0.6),
    }


@pytest.mark.parametrize("idro_rare,code", [(0.5, 0), (0.6, 1)])
def test_idro_experiment_exit_code(monkeypatch, capsys, idro_rare, code):
    monkeypatch.setattr(experiments, "run_idro_directional", idro_values(idro_rare))
    assert run_study("idro", monkeypatch) == code
    assert capsys.readouterr().out.rstrip().endswith("PASS" if code == 0 else "FAIL")


@pytest.mark.parametrize("scratch_best,code", [(0.3, 0), (0.5, 1)])
def test_coco_experiment_exit_code(monkeypatch, capsys, scratch_best, code):
    values = {0: {"with_coco": 0.45, "without_coco": 0.2},
              1: {"with_coco": 0.6, "without_coco": scratch_best}}
    monkeypatch.setattr(experiments, "run_coco_directional", values.__getitem__)
    assert run_study("coco", monkeypatch) == code
    assert capsys.readouterr().out.rstrip().endswith("PASS" if code == 0 else "FAIL")


def test_idro_study_prints_the_experiments_values(monkeypatch, capsys):
    """Unmocked, one seed: each arm's printed values are `run_idro_directional`'s
    at the printed precision, and the study passes."""
    assert run_study("idro", monkeypatch, seeds=["0"]) == 0
    lines = capsys.readouterr().out.rstrip().splitlines()
    assert lines[-1].endswith("PASS")
    want = "  ".join(f"{arm}: rare={value.rare:.4f} avg={value.average:.4f}"
                     for arm, value in experiments.run_idro_directional(0).items())
    assert lines[0] == f"seed 0  {want}"


def test_make_synthetic_benchmark_round_trips(monkeypatch, capsys, tmp_path):
    """The three task directories and the group map read back as generated."""
    monkeypatch.setattr(sys, "argv", ["make_synthetic_benchmark.py", f"--out={tmp_path}",
                                      "--seed=7"])
    runpy.run_path(str(SCRIPTS / "make_synthetic_benchmark.py"), run_name="__main__")
    printed = capsys.readouterr().out.splitlines()
    source, target = make_two_domain_benchmark(seed=7)
    imbalanced, groups = make_imbalanced_source(seed=1007)
    for name, task in (("source", source), ("target", target), ("imbalanced", imbalanced)):
        corpus = load_corpus(tmp_path / name / "corpus.jsonl")
        queries = load_queries(tmp_path / name / "queries.jsonl")
        qrels = load_qrels(tmp_path / name / "qrels.tsv")
        assert list(corpus) == list(task.corpus)
        assert list(queries) == list(task.queries)
        assert qrels.query_ids == task.qrels.query_ids
        assert all(qrels.judged(qid) == task.qrels.judged(qid) for qid in qrels.query_ids)
        assert f"{task.name}: {len(task.corpus)} docs, {len(task.queries)} queries" in printed
    groups_json = tmp_path / "imbalanced" / "groups.json"
    assert json.loads(groups_json.read_text(encoding="utf-8")) == groups
    assert not list(tmp_path.rglob("*.tmp"))
