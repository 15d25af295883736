"""The experiment scripts' exit codes: 0 on PASS, 1 on FAIL."""

import runpy
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from robustdr import experiments

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name, "--seeds", "0", "1"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
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
    assert run_script("run_idro_experiment.py", monkeypatch) == code
    assert capsys.readouterr().out.rstrip().endswith("PASS" if code == 0 else "FAIL")


@pytest.mark.parametrize("scratch_best,code", [(0.3, 0), (0.5, 1)])
def test_coco_experiment_exit_code(monkeypatch, capsys, scratch_best, code):
    values = {0: {"with_coco": 0.45, "without_coco": 0.2},
              1: {"with_coco": 0.6, "without_coco": scratch_best}}
    monkeypatch.setattr(experiments, "run_coco_directional", values.__getitem__)
    assert run_script("run_coco_experiment.py", monkeypatch) == code
    assert capsys.readouterr().out.rstrip().endswith("PASS" if code == 0 else "FAIL")
