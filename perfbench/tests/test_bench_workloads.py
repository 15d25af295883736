import json
import math
import sys
from pathlib import Path

import pytest

import workloads
from robustdr import encoder, retrieval_eval, trainer

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
# Run lengths small enough for a smoke run; the default encoder is shrunk too.
TINY = {
    "finetune-default": {"episodes": 2, "steps_per_episode": 1, "feature_dim": 1024,
                         "embed_dim": 8, "k_clusters": 8},
    "idro-imbalance": {"episodes": 2, "steps_per_episode": 2},
}


def library_attributes() -> dict:
    owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "robustdr"]
    owners += [trainer.Finetuner, trainer.Optimizer, encoder.Featurizer, retrieval_eval.Bm25Index]
    return {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS) == list(TINY)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_is_correct_and_reports_every_declared_metric(name, trace, tmp_path):
    before = library_attributes()
    workload = workloads.WORKLOADS[name]
    result = workloads.measure(workload, seed=0, seconds=0, trace=bool(trace),
                               work_root=tmp_path, sizes=TINY[name])
    assert result["correct"], result["details"]["failures"]
    assert result["attempted"] == 1 + trace and result["failed"] == 0
    declared = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == declared
    values = result["metrics"].values()
    assert all(math.isfinite(v) and v >= 0 for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    assert list(tmp_path.iterdir()) == []
    after = library_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
