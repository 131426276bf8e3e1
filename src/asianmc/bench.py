"""Parameter sweeps and convergence/bias harnesses.

``run_sweep`` evaluates one quantity over a cartesian grid of parameters,
path counts, seeds and methods, capturing per-row errors instead of aborting,
and returns rows in a deterministic lexicographic order so reruns are
bit-identical.  ``quadrature_bias_report`` isolates the time-discretization
effect of the trapezoid integral by evaluating nested grids on the same
Brownian paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

import numpy as np

from . import estimators, greeks  # greeks adds its rows to QUANTITIES
from .estimators import QUANTITIES, Estimate, _shared_ensembles, _wrap, stable_exp_rate
from .paths import MCConfig, _integer, _simulate, default_steps


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: one quantity, parameter grids, path counts, seeds, methods."""

    quantity: str
    grids: Mapping[str, tuple[float, ...]]
    n_paths: tuple[int, ...]
    seeds: tuple[int, ...]
    methods: tuple[str, ...]
    n_steps: int | None = None
    antithetic: bool = False

    def __post_init__(self) -> None:
        if self.quantity not in QUANTITIES:
            raise ValueError(f"unknown sweep quantity {self.quantity!r}")
        q = QUANTITIES[self.quantity]
        for name, values in self.grids.items():
            if name not in q.params:
                raise ValueError(f"{self.quantity} does not take a grid over {name!r}")
            if len(values) == 0:
                raise ValueError(f"empty grid for {name!r}")
        if not self.n_paths or not self.seeds or not self.methods:
            raise ValueError("n_paths, seeds and methods must be nonempty")
        bad = set(self.methods) - set(q.methods)
        if bad:
            raise ValueError(f"methods {sorted(bad)} not valid for {self.quantity}")


@dataclass(frozen=True)
class SweepRow:
    """One evaluated cell; ``error`` is set (and estimate None) if it raised."""

    point: tuple[tuple[str, float], ...]
    n_paths: int
    method: str
    seed: int
    estimate: Estimate | None
    error: str | None = None

    @property
    def sort_key(self):
        return (tuple(v for _, v in self.point), self.n_paths, self.method, self.seed)


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple[SweepRow, ...] = field(default_factory=tuple)

    def select(self, *, method: str | None = None, seed: int | None = None,
               n_paths: int | None = None, **point_values: float) -> list[SweepRow]:
        out = []
        for row in self.rows:
            if method is not None and row.method != method:
                continue
            if seed is not None and row.seed != seed:
                continue
            if n_paths is not None and row.n_paths != n_paths:
                continue
            pt = dict(row.point)
            if any(pt.get(k) != v for k, v in point_values.items()):
                continue
            out.append(row)
        return out

    def stderr_win_fraction(self, n_paths: int, better: str = "identity",
                            than: str = "naive") -> float:
        """Fraction of (point, seed) pairs where ``better`` has smaller stderr."""
        wins = total = 0
        by_key: dict[tuple, dict[str, Estimate]] = {}
        for row in self.rows:
            if row.n_paths == n_paths and row.estimate is not None:
                by_key.setdefault((row.point, row.seed), {})[row.method] = row.estimate
        for pair in by_key.values():
            if better in pair and than in pair:
                total += 1
                wins += pair[better].stderr < pair[than].stderr
        if total == 0:
            raise ValueError("no comparable row pairs at that path count")
        return wins / total

    def seed_mean(self, method: str, n_paths: int, **point_values: float) -> tuple[float, float]:
        """Across-seed mean and standard error of the estimates at one cell."""
        means = [r.estimate.mean for r in
                 self.select(method=method, n_paths=n_paths, **point_values)
                 if r.estimate is not None]
        if not means:
            raise ValueError("no rows matched")
        est = _wrap(np.asarray(means), "seed-mean", time.perf_counter())
        return est.mean, est.stderr


def _points(spec: SweepSpec) -> list[tuple[tuple[str, float], ...]]:
    q = QUANTITIES[spec.quantity]
    axes: list[tuple[float, ...]] = []
    for name in q.params:
        if name in spec.grids:
            axes.append(tuple(float(v) for v in spec.grids[name]))
        elif name in q.defaults:
            axes.append((float(q.defaults[name]),))
        else:
            raise ValueError(f"{spec.quantity} requires a grid for {name!r}")
    points = [()]
    for name, values in zip(q.params, axes):
        points = [pt + ((name, v),) for pt in points for v in values]
    return points


def run_sweep(spec: SweepSpec, threads: int | None = None) -> SweepResult:
    """Evaluate the sweep; rows come back sorted by (point, n_paths, method, seed).

    Rows that raise are recorded with their error message so one bad cell
    (for example a tail-underflow region) cannot abort a whole sweep.
    Work is grouped by shared path ensemble and the groups are evaluated in
    turn.  ``threads`` (None, the default, is serial) spreads the groups'
    draws over worker threads: consecutive groups are drawn together until
    their chunks fill the workers, so groups of one chunk are drawn in
    parallel too.
    """
    q = QUANTITIES[spec.quantity]
    # (horizon, n_paths, n_steps, seed) -> {point: public-function arguments};
    # a repeated grid value, path count or seed adds no second row
    groups: dict[tuple, dict] = {}
    for pt in _points(spec):
        args = q.arguments(dict(pt))
        horizon = q.horizon(args)
        for n in spec.n_paths:
            for seed in spec.seeds:
                key = (horizon, n, spec.n_steps or default_steps(horizon), seed)
                groups.setdefault(key, {})[pt] = args

    todo = [(MCConfig(n_paths=n, n_steps=steps, master_seed=seed, antithetic=spec.antithetic),
             pts) for (_, n, steps, seed), pts in sorted(groups.items())]
    ensembles = _shared_ensembles(((cfg, [(spec.quantity, m, args) for args in pts.values()
                                          for m in spec.methods]) for cfg, pts in todo), threads)
    rows: list[SweepRow] = []
    for (cfg, pts), ens in zip(todo, ensembles):
        for pt, args in pts.items():
            for method in spec.methods:
                try:
                    est = estimators.estimate(spec.quantity, args, cfg, method, ens)
                    rows.append(SweepRow(pt, cfg.n_paths, method, cfg.master_seed, est))
                except Exception as exc:
                    rows.append(SweepRow(pt, cfg.n_paths, method, cfg.master_seed, None, str(exc)))
    rows.sort(key=lambda r: r.sort_key)
    return SweepResult(spec=spec, rows=tuple(rows))


@dataclass(frozen=True)
class BiasRow:
    n_steps: int
    mean_integral: float
    stderr: float
    closed_form_gap: float


def quadrature_bias_report(t: float, nu: float, steps_grid: Iterable[int], cfg: MCConfig,
                           *, threads: int | None = None) -> tuple[BiasRow, ...]:
    """Trapezoid bias of the mean integral versus the closed form (e^{nu t}-1)/nu.

    Every row restricts the same finest-grid Brownian paths to a coarser
    uniform grid, so the rows differ only by discretization, not by sampling
    noise.  Each coarser step count must divide the finest, which replaces
    ``cfg.n_steps``; each row's mean and stderr are an :class:`Estimate`'s.
    At nu = 0 the trapezoid estimate of the mean is exactly unbiased at every
    step count (each grid sample has unit expectation), so gaps there show
    pure shared Monte Carlo noise; drifted runs show the genuine O(dt^2)
    quadrature bias.  ``threads`` spreads the draw's chunks over worker
    threads as in :func:`~asianmc.paths.sample_ensemble`; None (the default)
    is serial.
    """
    steps = sorted({_integer("every step count of the steps grid", s) for s in steps_grid})
    if not steps:
        raise ValueError("steps grid must be nonempty")
    if any(s < 1 for s in steps):
        raise ValueError("step counts must be positive")
    finest = steps[-1]
    if any(finest % s for s in steps):
        raise ValueError("every step count must divide the finest one")
    started = time.perf_counter()
    grids = _simulate(((t, nu, finest // s) for s in steps), replace(cfg, n_steps=finest),
                      threads)
    target = stable_exp_rate(nu, t)
    out = []
    for s in steps:
        est = _wrap(grids[t, nu, finest // s][1], "nested", started)
        out.append(BiasRow(s, est.mean, est.stderr, abs(est.mean - target)))
    return tuple(out)
