"""Benchmark of asianmc: three closed-loop workloads, measured from outside.

    python3 perfbench/run.py --workload greeks-fd --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --record-golden

Run from the root of a checkout.  One process runs the workload's ops one
after another (a closed loop) until ``--seconds`` have passed, checks every
op's output, and prints one JSON object as its last line of standard output:
``correct``, ``attempted`` and ``failed`` ops, and the metrics declared in
``BENCHMARK.json`` with their units.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh processes, one started after each cycle, of import plus one tiny
call per op), the median over workload cycles of ``wall_s`` and process
``cpu_s``, and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced cycles (see ``tracer.py``) and
reports the per-layer metrics: medians over traced cycles, the tracing
overhead, the CSV rows that differ from the golden corpus, and
microbenchmarks of the path core.  A traced op whose output differs from
the untraced one counts as failed.

``--record-golden`` rewrites ``perfbench/golden.json`` from the program as it
is: every CLI op of the workloads at the golden seeds, with its CSV output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
SETUP_PROBES = 7


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _probe_setup(workload: str) -> float:
    """Import plus one tiny call per op, timed inside a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def _fingerprint(out) -> object:
    """What a run produced, without the wall times the library attaches."""
    import workloads
    if isinstance(out, workloads.CliResult):
        return (out.code, out.csv)
    if isinstance(out, dict):
        return sorted((k, [(e.mean, e.stderr, e.n_paths, e.method, e.flags) for e in v])
                      for k, v in out.items())
    return repr(out)


class Loop:
    """Runs a workload's ops in a closed loop and keeps the tally."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def cycle(self, tracer=None) -> tuple[float, float, list]:
        wall = cpu = 0.0
        outputs = []
        for run_id, op in enumerate(self.ops):
            span = None
            if tracer is not None:
                tracer.run_id = run_id
                span = tracer.open(f"op.{op.name}", "op")
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                out = op.call()
            except Exception as exc:  # an op that raises is a failed op, not a crash
                out = exc
            wall += time.perf_counter() - w0
            cpu += time.process_time() - c0
            if span is not None:
                tracer.close(span)
            outputs.append(out)
        return wall, cpu, outputs

    def check(self, outputs: list, reference: list | None = None) -> None:
        for i, (op, out) in enumerate(zip(self.ops, outputs)):
            bad = [f"raised {out!r}"] if isinstance(out, Exception) else op.check(out)
            if reference is not None and _fingerprint(out) != _fingerprint(reference[i]):
                bad.append("traced output differs from untraced output")
            self.attempted += 1
            if bad:
                self.failed += 1
                self.problems += [f"{op.name}: {b}" for b in bad]


def rows_changed(workload: str) -> int:
    """CSV rows of the golden corpus that the program no longer reproduces."""
    import workloads
    changed = 0
    for entry in json.loads(GOLDEN.read_text()).get(workload, []):
        want = entry["csv"].splitlines()
        got = workloads.run_cli(entry["argv"]).csv.splitlines()
        changed += sum(a != b for a, b in zip(want, got)) + abs(len(want) - len(got))
    return changed


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def path_microbenchmarks(seed: int) -> dict[str, float]:
    """Public-API timings of the path core, untraced."""
    import asianmc as am
    one = am.MCConfig(1024, 1024, seed)
    chunk = _median_time(lambda: am.sample_ensemble(1.0, (0.0,), one), 7)
    four = _median_time(lambda: am.sample_ensemble(1.0, (0.0, 1.0, 2.0, 3.0), one), 7)
    multi = am.MCConfig(8 * 1024, 256, seed)
    serial = _median_time(lambda: am.sample_ensemble(1.0, (0.0,), multi), 3)
    threaded = _median_time(lambda: am.sample_ensemble(1.0, (0.0,), multi, threads=2), 3)
    return {
        "paths.chunk_ms": chunk * 1e3,
        "paths.extra_drift_ms": (four - chunk) / 3 * 1e3,
        "paths.thread_speedup": serial / threaded,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Loop, dict]:
    import workloads
    workloads.warmup(workload)
    loop = Loop(workloads.WORKLOADS[workload](seed))
    deadline = time.perf_counter() + seconds
    if not trace:
        # one set-up probe after each cycle, so that the probes sample the
        # machine across the whole run rather than only at its start
        walls, cpus, setup = [], [], []
        while len(setup) < SETUP_PROBES or time.perf_counter() < deadline:
            wall, cpu, outputs = loop.cycle()
            walls.append(wall)
            cpus.append(cpu)
            loop.check(outputs)
            setup.append(_probe_setup(workload))
        return loop, {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    from tracer import Tracer, layer_metrics
    plain, traced, per_cycle = [], [], []
    while not traced or time.perf_counter() < deadline:
        wall, _, reference = loop.cycle()
        plain.append(wall)
        loop.check(reference)
        with Tracer() as tracer:
            wall, _, outputs = loop.cycle(tracer)
        traced.append(wall)
        loop.check(outputs, reference)
        metrics = layer_metrics(tracer.spans)
        metrics["cli.rows"] = sum(len(o.rows()) for o in outputs
                                  if isinstance(o, workloads.CliResult))
        per_cycle.append(metrics)
    metrics = {k: statistics.median_low(m[k] for m in per_cycle) for k in per_cycle[0]}
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["cli.rows_changed"] = rows_changed(workload)
    metrics.update(path_microbenchmarks(seed))
    return loop, metrics


def record_golden() -> None:
    import workloads
    corpus = {}
    for workload, argvs in workloads.golden_argvs().items():
        corpus[workload] = []
        for argv in argvs:
            res = workloads.run_cli(argv)
            if res.code != 0:
                raise SystemExit(f"golden op {argv} exited {res.code}: {res.stderr}")
            corpus[workload].append({"argv": argv, "csv": res.csv})
    GOLDEN.write_text(json.dumps(corpus, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite the golden CSV corpus and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        t0 = time.perf_counter()
        import workloads
        workloads.first_call(args.workload)
        print(repr(time.perf_counter() - t0))
        return 0
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    # master seeds must fit asianmc's unsigned 64-bit range, with room for seed + 1
    loop, values = measure(args.workload, args.seed % 2**63, args.seconds, bool(args.trace))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    for problem in loop.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
