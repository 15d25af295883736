#!/usr/bin/env python3
"""Run the repository benchmark.

One run:  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
All:      python3 perfbench/run.py --workload all --seed N [--out BENCH_name.json]

A run prints a details line (environment, outputs, pass times) and, as its
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its
per-layer metrics with ``--trace 1``. ``--workload all`` runs every workload
untraced and traced, each in a fresh interpreter, one after another, prints
every metric with its unit and the tracing overhead, and writes them all to
``--out`` when given.
"""

import os

# One BLAS thread: the benchmark process runs no threads besides its own, and
# timings do not depend on how many cores the machine lends it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = HERE / ".work"
RUN_TIMEOUT_S = 170


def git_sha(root: Path) -> str:
    """The checked-out commit; 'unknown' outside a git clone or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)))
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def env_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "process_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(ROOT),
    }


def run_one(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    result = workloads.measure(workloads.WORKLOADS[name], seed, seconds, trace, WORK_ROOT)
    declared = spec["per_layer" if trace else "end_to_end"]
    produced = result["metrics"]
    if produced and set(produced) != {m["name"] for m in declared}:
        print(f"error: metrics {sorted(produced)} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": produced[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in produced}
    details = dict(result["details"], seed=seed, seconds=seconds, trace=int(trace),
                   env=env_info())
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def run_all(spec: dict, seed: int, seconds: float, out: str | None) -> int:
    report = {"seed": seed, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, check=True,
            )
            lines = proc.stdout.splitlines()
            runs[trace] = dict(json.loads(lines[-1]), **json.loads(lines[-2]))
        untraced, traced = runs[0], runs[1]
        walls = (traced["metrics"].get("trace.wall_s"), untraced["metrics"].get("wall_s"))
        overhead = walls[0]["value"] - walls[1]["value"] if all(walls) else float("nan")
        report["env"] = untraced["details"]["env"]
        report["workloads"][workload] = {"untraced": untraced, "traced": traced,
                                         "trace_overhead_s": overhead}
        print(f"== {workload}: correct={untraced['correct'] and traced['correct']} "
              f"trace_overhead_s={overhead:.3f}")
        for run in (untraced, traced):
            for name, metric in run["metrics"].items():
                print(f"  {name:<42} {metric['value']:>16.6g} {metric['unit']}")
        print(f"  quality {json.dumps(untraced['details']['quality'])}")
    print(f"env {json.dumps(report['env'])}")
    if out:
        Path(out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    ok = all(r[k]["correct"] for r in report["workloads"].values() for k in ("untraced", "traced"))
    return 0 if ok else 1


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "robustdr" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no robustdr sources or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Run the robustdr benchmark.")
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0, help="run seed (the data is fixed)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="time budget for the timed passes of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write the report here")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(spec, args.seed, args.seconds, args.out)
    return run_one(spec, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
