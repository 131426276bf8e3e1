"""Span tracing of asianmc from outside the package.

``Tracer`` replaces the public functions of each layer, at every module
attribute through which callers look them up, with wrappers that record a
span (name, layer, start, end, parent, run id) and the call's bound
arguments.  Leaving the ``with`` block puts the original functions back.
Nothing inside ``src/asianmc`` is changed.

Spans opened on a worker thread with no open span of their own (the thread
pool of ``bench.run_sweep``) take as parent the innermost span open on the
thread that created the tracer.  A layer's self time is the sum over its
spans of each span's duration minus the union of its children's intervals,
so a span whose children run concurrently is not charged twice.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

from workloads import am  # puts the checkout's src/ on sys.path first
from asianmc import bench, cli, estimators, greeks, paths

PATHS_PER_CHUNK = paths.PATHS_PER_CHUNK

# layer -> (home module, public functions traced)
LAYERS = {
    "paths": (paths, ("sample_ensemble", "sample_batch")),
    "estimators": (estimators, ("cdf", "cdf_weighted", "density", "joint_cdf",
                                "call_kernel", "call_kernel_d1", "call_kernel_d2",
                                "transform_expectation")),
    "greeks": (greeks, ("price", "delta", "gamma", "theta", "vega", "vega_weighted",
                        "theta_fd_expiry", "greek_report")),
    "bench": (bench, ("run_sweep", "quadrature_bias_report")),
    "cli": (cli, ("run",)),
}
# every module through which a caller may look one of those names up
BINDING_MODULES = (am, paths, estimators, greeks, bench, cli)

# Two estimates of one cell further apart than this many combined standard
# errors count as a heavy-tail cell.
HEAVY_TAIL_SIGMAS = 4.0


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    parent: int | None
    run_id: int | None
    worker: bool
    args: dict = field(default_factory=dict)
    end: float = math.nan
    result: object = None


class Tracer:
    """Context manager that traces every call into the layers above."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for layer, (home, names) in LAYERS.items():
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for mod in BINDING_MODULES:
                    if mod.__dict__.get(name) is original:
                        self._patched.append((mod, name, original))
                        setattr(mod, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str, args: dict | None = None) -> Span:
        stack = self._stack()
        worker = stack is not self._owner_stack
        if stack:
            parent = stack[-1].id
        elif worker and self._owner_stack:
            parent = self._owner_stack[-1].id
        else:
            parent = None
        span = Span(next(self._ids), name, layer, time.perf_counter(), parent,
                    self.run_id, worker, args or {})
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span, result: object = None) -> None:
        span.end = time.perf_counter()
        span.result = result
        self._stack().pop()

    def _wrap(self, layer: str, name: str, fn):
        signature = inspect.signature(fn)
        keep_result = layer == "estimators"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span = self.open(f"{layer}.{name}", layer, dict(bound.arguments))
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(span, result if keep_result else None)

        return traced


# ---------------------------------------------------------------------------
# analysis of one list of spans
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = max(s.end - s.start - covered, 0.0)
    return out


def _has_ancestor(span: Span, by_id: dict[int, Span], name: str) -> Span | None:
    p = span.parent
    while p is not None:
        anc = by_id[p]
        if anc.name == name:
            return anc
        p = anc.parent
    return None


def _chunks(n_paths: int) -> int:
    return (n_paths + PATHS_PER_CHUNK - 1) // PATHS_PER_CHUNK


def heavy_tail_cells(spans: list[Span]) -> int:
    """(identity, naive) estimator pairs of one cell more than 4 combined stderr apart."""
    cells: dict[tuple, dict[str, object]] = {}
    for s in spans:
        if s.layer != "estimators" or s.result is None:
            continue
        key = (s.name,) + tuple(sorted((k, repr(v)) for k, v in s.args.items()
                                       if k not in ("method", "ensemble")))
        cells.setdefault(key, {})[s.result.method] = s.result
    count = 0
    for pair in cells.values():
        if "identity" in pair and "naive" in pair:
            ident, naive = pair["identity"], pair["naive"]
            if abs(ident.mean - naive.mean) > HEAVY_TAIL_SIGMAS * ident.combined_stderr(naive):
                count += 1
    return count


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and self times of one traced workload cycle."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    for s in spans:
        self_s[s.layer] += own[s.id]
    total = sum(own.values())

    ensembles = [s for s in spans if s.name == "paths.sample_ensemble"]
    normals = threaded = drift_evals = 0
    for s in ensembles:
        cfg, t = s.args["cfg"], s.args["t"]
        if t == 0.0:
            continue
        n = _chunks(cfg.n_paths) * PATHS_PER_CHUNK * cfg.n_steps
        normals += n
        drift_evals += _chunks(cfg.n_paths) * len(set(s.args["nus"]))
        if s.worker or (s.args["threads"] or 1) > 1:
            threaded += n

    est = [s for s in spans if s.layer == "estimators"]
    est_paths = sum(s.args["cfg"].n_paths for s in est if s.args.get("cfg") is not None)

    reports = [s for s in spans if s.name == "greeks.greek_report"]
    per_report = {r.id: 0 for r in reports}
    sweep_ens, groups = 0, set()
    for s in ensembles:
        rep = _has_ancestor(s, by_id, "greeks.greek_report")
        if rep is not None:
            per_report[rep.id] += 1
        if _has_ancestor(s, by_id, "bench.run_sweep") is not None:
            cfg = s.args["cfg"]
            sweep_ens += 1
            groups.add((s.args["t"], cfg.n_paths, cfg.n_steps, cfg.master_seed))

    return {
        "paths.ensembles": len(ensembles),
        "paths.normals_drawn": normals,
        "paths.drift_evals": drift_evals,
        "paths.self_s": self_s["paths"],
        "paths.ns_per_normal": self_s["paths"] * 1e9 / normals if normals else 0.0,
        "paths.threaded_share": threaded / normals if normals else 0.0,
        "paths.share": self_s["paths"] / total if total else 0.0,
        "estimators.calls": len(est),
        "estimators.self_s": self_s["estimators"],
        "estimators.ns_per_path": (self_s["estimators"] * 1e9 / est_paths
                                   if est_paths else 0.0),
        "estimators.share": self_s["estimators"] / total if total else 0.0,
        "estimators.heavy_tail_cells": heavy_tail_cells(spans),
        "greeks.reports": len(reports),
        "greeks.self_s": self_s["greeks"],
        # median over reports: a zero-strike report draws no ensemble at all
        "greeks.ensembles_per_report": (statistics.median(per_report.values())
                                        if reports else 0),
        "bench.sweep_self_s": sum(own[s.id] for s in spans if s.name == "bench.run_sweep"),
        "bench.ensembles_per_group": sweep_ens / len(groups) if groups else 0.0,
        "bench.bias_s": sum(s.end - s.start for s in spans
                            if s.name == "bench.quadrature_bias_report"),
        "cli.self_s": self_s["cli"],
    }
