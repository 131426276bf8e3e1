"""Interleaved A/B timing of two revisions of asianmc on one benchmark workload.

    python3 tools/ab.py BASE CHANGE --workload sweep-bias --seed 11 --cycles 30

Run from the root of a checkout.  BASE and CHANGE are git revisions, or
``.`` for the working tree.  Each side's ``src/asianmc`` is copied into a
temporary directory under a package name of its own (``asianmc_base``,
``asianmc_change``), so both load into one process.  The ops of the workload
come from ``perfbench/workloads.py``, imported as it is: before each of a
side's ops, the module's ``am`` and ``cli`` names are pointed at that side's
package, so its CLI argvs and library calls run on that side's code, and
its checks read that side's output.  Each cycle runs every op once on each
side, the side that goes first alternating from cycle to cycle, after one
warm-up pass of each side.

Two processes of the same code can differ by more than a small change does;
within one process the two sides see the same machine state, cycle by
cycle.  So this resolves changes that consecutive processes cannot.  It
prints each side's median and quartiles of per-cycle wall and CPU seconds,
and the pairs each metric was won by the change (ties counting for neither).
It is a sizing tool: claims of a gain still come from ``perfbench/run.py``.

With ``--setup N`` it also times the set-up that ``perfbench/run.py``
reports as ``setup_s``: N fresh-process probes per side, alternating, after
one warm-up probe of each side.  A probe times imports plus
``workloads.first_call(W)`` with that side's package, copied as
``asianmc``, standing in for the checkout's.

It also checks that the two sides compute the same thing: on the first
timed cycle it compares each op's output on the two sides (a CLI op's exit
code, CSV and standard error; the fields of each Estimate of a library op,
as ``perfbench/run.py`` fingerprints them), prints the ops whose outputs
differ or that none does, and exits 1 if any differs.

With ``--runs N`` it instead sizes a claim the way a claim is judged, from
fresh processes of the benchmark itself:

    python3 tools/ab.py HEAD . --workload greeks-fd --seed 3 --runs 10 --seconds 30

Each side gets a temporary checkout holding that side's ``src/asianmc`` and
the working tree's ``perfbench/`` and ``BENCHMARK.json``, and
``perfbench/run.py --workload W --seed S --trace 0 --seconds T`` runs there
N times per side, the side that goes first alternating from pair to pair.
For each end-to-end metric of ``BENCHMARK.json`` it prints each side's
median, the base's quartiles, the pairs the change won and a verdict
(:func:`verdict`), then each side's failed ops; it exits 1 if a metric is
worse.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")

# one set-up probe: argv is the directory holding the side's asianmc, the
# perfbench directory and the workload; the package is imported first, so
# the workloads module reads it rather than the checkout's
PROBE = """import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import asianmc
import workloads
workloads.first_call(sys.argv[3])
print(repr(time.perf_counter() - t0))
if not workloads.cli.__file__.startswith(sys.argv[1]):
    sys.exit("the probe read another asianmc: " + workloads.cli.__file__)
"""


def _copy_package(rev: str, dest: Path) -> None:
    """``src/asianmc`` of git revision ``rev`` (``.``: the working tree) as ``dest``."""
    if rev == ".":
        shutil.copytree(ROOT / "src" / "asianmc", dest,
                        ignore=shutil.ignore_patterns("__pycache__"))
        return
    archive = subprocess.run(["git", "archive", rev, "src/asianmc"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest.parent / "_extract", filter="data")
    (dest.parent / "_extract" / "src" / "asianmc").rename(dest)
    shutil.rmtree(dest.parent / "_extract")


def _probe_setup(package_dir: Path, workload: str) -> float:
    """Seconds of imports plus one tiny call per op of ``workload`` in a fresh
    interpreter, with the ``asianmc`` under ``package_dir``."""
    out = subprocess.run([sys.executable, "-c", PROBE, str(package_dir), str(ROOT / "perfbench"),
                          workload], cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return float(out.split()[0])


def _fingerprint(out) -> object:
    """An op's output in a form that compares equal across the two packages:
    a library op's Estimates, whose classes differ by side, as field tuples."""
    if isinstance(out, dict):
        return sorted((key, [dataclasses.astuple(e) for e in v]) for key, v in out.items())
    return out


def _quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def _wins(base: list[float], change: list[float], better: str = "lower") -> int:
    """The pairs the change won; ``better`` is ``lower`` or ``higher``."""
    return sum(c < b if better == "lower" else c > b for b, c in zip(base, change))


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """One metric's paired runs, read by the simplicity-review rule.

    ``gain`` when at least 10 pairs ran, the change won at least 9 of each
    10 (ties count for neither) and the medians differ by more than the
    interquartile range of the base's runs; ``worse`` when the change's
    median is worse than the base's by more than ``bound``, a fraction of
    the base's median; ``unresolved`` when the base's runs spread wider
    than that bound and not every run of the change beats every run of the
    base; else ``same``.  ``better`` is ``lower`` or ``higher``, as
    ``BENCHMARK.json`` declares it.
    """
    sign = 1.0 if better == "lower" else -1.0  # sign * (b - c) > 0: the change is better
    q = _quartiles(base)
    spread = q["q3"] - q["q1"]
    gap = sign * (q["median"] - statistics.median(change))
    if len(base) >= 10 and 10 * _wins(base, change, better) >= 9 * len(base) and gap > spread:
        return "gain"
    if -gap > bound * abs(q["median"]):
        return "worse"
    if spread > bound * abs(q["median"]) and min(sign * (b - c) for b in base for c in change) <= 0:
        return "unresolved"
    return "same"


def _checkout(rev: str, dest: Path) -> None:
    """A checkout at ``dest`` that ``perfbench/run.py`` can run in: ``rev``'s
    ``src/asianmc`` with the working tree's ``perfbench/`` and
    ``BENCHMARK.json``."""
    _copy_package(rev, dest / "src" / "asianmc")
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)


def fresh_runs(args) -> int:
    """``--runs``: alternating fresh ``perfbench/run.py`` processes of each
    side; prints each end-to-end metric's medians, wins and verdict."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        for side, rev in zip(SIDES, (args.base, args.change)):
            _checkout(rev, Path(tmp) / side)
        for pair in range(args.runs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                out = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", args.workload,
                     "--seed", str(args.seed), "--trace", "0", "--seconds", str(seconds)],
                    cwd=Path(tmp) / side, stdout=subprocess.PIPE, text=True, check=True).stdout
                runs[side].append(json.loads(out.splitlines()[-1]))

    print(f"{args.workload}, seed {args.seed}, {args.runs} fresh runs of {seconds:g} s "
          f"per side: base {args.base}, change {args.change}")
    worse = False
    for metric in spec["end_to_end"]:
        base, change = ([r["metrics"][metric["name"]]["value"] for r in runs[side]]
                        for side in SIDES)
        wins = _wins(base, change, metric["better"])
        b, c = _quartiles(base), statistics.median(change)
        reading = verdict(base, change, metric["better"], metric["bound"])
        worse |= reading == "worse"
        print(f"  {metric['name']}: base {b['median']:.4f} [{b['q1']:.4f}, {b['q3']:.4f}]  "
              f"change {c:.4f} ({c / b['median'] - 1:+.1%}); change won {wins}/{len(base)} "
              f"pairs; {reading} (bound {metric['bound']:.0%})")
    print("  failed ops: " + ", ".join(
        f"{side} {sum(r['failed'] for r in runs[side])}/{sum(r['attempted'] for r in runs[side])}"
        for side in SIDES))
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision of the base side, or . for the working tree")
    parser.add_argument("change", help="git revision of the changed side, or . for the working tree")
    parser.add_argument("--workload", required=True,
                        choices=("greeks-fd", "dist-curve", "sweep-bias"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cycles", type=int, default=30)
    parser.add_argument("--setup", type=int, default=0, metavar="N",
                        help="also time N fresh-process set-up probes per side")
    parser.add_argument("--runs", type=int, default=0, metavar="N",
                        help="instead, run perfbench/run.py N times per side in fresh processes")
    parser.add_argument("--seconds", type=float, default=None, metavar="T",
                        help="with --runs, the length of each run (default: BENCHMARK.json's)")
    args = parser.parse_args(argv)
    if args.cycles < 1 or args.setup < 0 or args.runs < 0:
        parser.error("--cycles must be >= 1, and --setup and --runs >= 0")
    if args.runs:
        return fresh_runs(args)

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        packages = {}
        for side, rev in zip(SIDES, (args.base, args.change)):
            _copy_package(rev, Path(tmp) / f"asianmc_{side}")
            pkg = importlib.import_module(f"asianmc_{side}")
            packages[side] = (pkg, importlib.import_module(f"asianmc_{side}.cli"))

        def run_ops(side: str, seed: int, tiny: bool = False,
                    outputs: dict | None = None) -> tuple[float, float, int]:
            """Wall and CPU seconds of one pass over the workload's ops, and
            the number of ops whose check failed; each op's output
            fingerprint goes into ``outputs``, by op name, if given."""
            workloads.am, workloads.cli = packages[side]
            ops = workloads.WORKLOADS[args.workload](seed, tiny=tiny)
            wall = cpu = 0.0
            failed = 0
            for op in ops:
                w0, c0 = time.perf_counter(), time.process_time()
                out = op.call()
                wall += time.perf_counter() - w0
                cpu += time.process_time() - c0
                failed += bool(op.check(out))
                if outputs is not None:
                    outputs[op.name] = _fingerprint(out)
            return wall, cpu, failed

        for side in SIDES:
            run_ops(side, 0, tiny=True)
        runs = {side: {"wall_s": [], "cpu_s": [], "setup_s": [], "failed": 0} for side in SIDES}
        outputs = {side: {} for side in SIDES}
        for cycle in range(args.cycles):
            for side in SIDES if cycle % 2 == 0 else SIDES[::-1]:
                wall, cpu, failed = run_ops(side, args.seed,
                                            outputs=outputs[side] if cycle == 0 else None)
                runs[side]["wall_s"].append(wall)
                runs[side]["cpu_s"].append(cpu)
                runs[side]["failed"] += failed
        if args.setup:
            for side, rev in zip(SIDES, (args.base, args.change)):
                _copy_package(rev, Path(tmp) / "probe" / side / "asianmc")
            for probe in range(-1, args.setup):  # probe -1 warms up
                for side in SIDES if probe % 2 == 0 else SIDES[::-1]:
                    seconds = _probe_setup(Path(tmp) / "probe" / side, args.workload)
                    if probe >= 0:
                        runs[side]["setup_s"].append(seconds)

    print(f"{args.workload}, seed {args.seed}, {args.cycles} cycles: "
          f"base {args.base}, change {args.change}")
    for metric in [m for m in ("wall_s", "cpu_s", "setup_s") if runs["base"][m]]:
        base, change = runs["base"][metric], runs["change"][metric]
        wins = _wins(base, change)
        ties = sum(c == b for b, c in zip(base, change))
        b, c = _quartiles(base), _quartiles(change)
        print(f"  {metric}: base {b['median']:.4f} [{b['q1']:.4f}, {b['q3']:.4f}]  "
              f"change {c['median']:.4f} [{c['q1']:.4f}, {c['q3']:.4f}]  "
              f"({c['median'] / b['median'] - 1:+.1%}); change won {wins}/{len(base)} "
              f"pairs, {ties} ties")
    print(f"  failed ops: base {runs['base']['failed']}, change {runs['change']['failed']}")
    differ = [name for name, out in outputs["base"].items() if outputs["change"].get(name) != out]
    print(f"  outputs differ: {', '.join(differ)}" if differ else "  outputs: no op differs")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
