"""Run every workload through run.py and print its metrics by name and unit.

    python3 perfbench/report.py                      # each workload, one seed, untraced
    python3 perfbench/report.py --seeds 1-10         # median, quartiles and spread over seeds
    python3 perfbench/report.py --trace              # add one traced run per workload
    python3 perfbench/report.py --seeds 1-3 --trace --write-baseline

Each run is a separate ``run.py`` process, as the benchmark is meant to be
run, for ``run_seconds`` each; the seeds are the outer loop and the workloads
the inner one.  ``error_rate`` is failed ops over attempted ops, summed over
the runs.
The spread of a metric is the distance between its first and third quartile
over the seeds, as a share of its median.  ``--write-baseline`` records the
machine, the medians and the layer map below in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_MAP = [
    ("paths.ensembles", "wall_s, cpu_s", "greeks-fd, sweep-bias; stays 1 on dist-curve"),
    ("paths.normals_drawn", "wall_s, cpu_s", "greeks-fd, sweep-bias"),
    ("paths.drift_evals", "wall_s, cpu_s", "greeks-fd, sweep-bias"),
    ("paths.self_s", "wall_s", "greeks-fd"),
    ("paths.ns_per_normal", "wall_s", "greeks-fd"),
    ("paths.threaded_share", "wall_s (cpu_s flat)", "greeks-fd"),
    ("paths.chunk_ms", "wall_s", "greeks-fd"),
    ("paths.extra_drift_ms", "wall_s", "greeks-fd"),
    ("paths.thread_speedup", "wall_s", "greeks-fd"),
    ("paths.share", "wall_s", "greeks-fd (at least 0.9 at the first baseline)"),
    ("estimators.calls", "wall_s", "dist-curve; no move on greeks-fd"),
    ("estimators.self_s", "wall_s", "dist-curve; no move on greeks-fd"),
    ("estimators.ns_per_path", "wall_s", "dist-curve; no move on greeks-fd"),
    ("estimators.share", "wall_s", "dist-curve (at least 0.8 at the first baseline)"),
    ("estimators.heavy_tail_cells", "none (keeps the Criterion-3 defect visible)", "all"),
    ("greeks.reports", "wall_s", "greeks-fd"),
    ("greeks.self_s", "wall_s", "greeks-fd"),
    ("greeks.ensembles_per_report", "wall_s", "greeks-fd"),
    ("bench.sweep_self_s", "wall_s", "sweep-bias"),
    ("bench.ensembles_per_group", "wall_s", "sweep-bias (floor 1)"),
    ("bench.bias_s", "wall_s", "sweep-bias"),
    ("cli.self_s", "wall_s", "sweep-bias"),
    ("cli.rows", "wall_s", "sweep-bias"),
    ("cli.rows_changed", "none (byte-identical CSV contract)", "greeks-fd, sweep-bias"),
    ("trace.overhead", "none (traced over untraced wall time, minus 1)", "all"),
]


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(results: list[dict]) -> dict:
    out = {"error_rate": sum(r["failed"] for r in results) / sum(r["attempted"] for r in results),
           "metrics": {}}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out["metrics"][name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / med if med else 0.0}
    return out


def machine() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1", help="seed or range, e.g. 1-10")
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()

    seeds = _seeds(args.seeds)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    # every workload at one seed before the next seed, so that slow drift of
    # the host falls on all workloads alike rather than on the last one run
    runs: dict[str, list[dict]] = {w: [] for w in names}
    for seed in seeds:
        for workload in names:
            runs[workload].append(run_once(workload, seed, seconds, False))
    report = {}
    for workload in names:
        plain = summarize(runs[workload])
        report[workload] = {"error_rate": plain["error_rate"], "end_to_end": plain["metrics"]}
        print(f"{workload}: error_rate {plain['error_rate']:.4g} over seeds {args.seeds}")
        for name, m in plain["metrics"].items():
            print(f"  {name:14s} {m['median']:12.6g} {m['unit']:5s} "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {m['spread']:.2%}")
        if args.trace:
            traced = run_once(workload, seeds[0], seconds, True)
            report[workload]["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            report[workload]["traced_run_correct"] = traced["correct"]
            for name, v in traced["metrics"].items():
                print(f"  {name:28s} {v['value']:14.6g} {v['unit']}")
        sys.stdout.flush()

    if args.write_baseline:
        baseline = {
            "machine": machine(),
            "run": {"seeds": seeds, "seconds": seconds, "traced_seed": seeds[0]},
            "workloads": report,
            "layer_map": [{"layer_metric": m, "moves": e, "on": w} for m, e, w in LAYER_MAP],
        }
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
