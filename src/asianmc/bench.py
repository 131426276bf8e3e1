"""Parameter sweeps and convergence/bias harnesses, both returning sweep rows.

``run_sweep`` evaluates one quantity over a cartesian grid of parameters,
path counts, seeds and methods, capturing per-row errors instead of aborting,
and returns rows in a deterministic lexicographic order so reruns are
bit-identical.  Its cells at one (seed, n_paths, n_steps) read one draw,
whatever their horizons.  ``quadrature_bias_report`` isolates the
time-discretization effect of the trapezoid integral by evaluating nested
grids on the same Brownian paths: ``paths._batches`` draws the finest grid
once and returns a batch per step count, read at its stride, and each grid's
mean integral is a :class:`SweepRow` of the private ``_MEAN_INTEGRAL`` row,
estimated by ``_estimate`` like every other estimate, its distance from the
closed form a ``gap=`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

import numpy as np

from . import greeks  # noqa: F401 -- adds the option rows to QUANTITIES
from .estimators import (IDENTITY, NAIVE, QUANTITIES, Estimate, Quantity, _call_keys, _estimate,
                         _wrap, stable_exp_rate)
from .paths import NONNEGATIVE, MCConfig, _batches, _integer, default_steps


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
        if self.n_steps is not None and _integer("n_steps", self.n_steps) < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")


@dataclass(frozen=True)
class SweepRow:
    """One evaluated cell; ``error`` is set (and estimate None) if it raised.

    ``n_steps`` is the grid the estimate was made on: the sweep's step count,
    or on the default grid the default for the cell's horizon.  An error row
    holds the sweep's step count, None on the default grid.
    """

    point: tuple[tuple[str, float], ...]
    n_paths: int
    n_steps: int | None
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

    def stderr_win_fraction(self, n_paths: int) -> float:
        """Fraction of (point, seed) pairs at ``n_paths`` where identity has a
        smaller stderr than naive."""
        stderrs: dict[tuple, dict[str, float]] = {}
        for row in self.select(n_paths=n_paths):
            if row.estimate is not None:
                stderrs.setdefault((row.point, row.seed), {})[row.method] = row.estimate.stderr
        wins = [s[IDENTITY] < s[NAIVE] for s in stderrs.values() if IDENTITY in s and NAIVE in s]
        if not wins:
            raise ValueError("no comparable row pairs at that path count")
        return sum(wins) / len(wins)

    def seed_mean(self, method: str, n_paths: int, **point_values: float) -> tuple[float, float]:
        """Across-seed mean and standard error of the estimates at one cell."""
        means = [r.estimate.mean for r in
                 self.select(method=method, n_paths=n_paths, **point_values)
                 if r.estimate is not None]
        if not means:
            raise ValueError("no rows matched")
        est = _wrap(np.asarray(means), "seed-mean")
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
    Work is grouped by (seed, n_paths, n_steps): each group is one draw,
    which carries every (horizon, drift) key its cells read, and the groups
    are evaluated in turn.  ``threads`` (None, the default, is serial)
    spreads the groups' draws over worker threads: consecutive groups are
    drawn together until their chunks fill the workers, so groups of one
    chunk are drawn in parallel too.
    """
    q = QUANTITIES[spec.quantity]
    # (seed, n_paths, n_steps) -> {point: the row's arguments}; a repeated
    # grid value, path count or seed adds no second row.  Seed first: a
    # seed's groups read prefixes of the same (seed, chunk) streams, which
    # the path core draws once only for draws in one window
    groups: dict[tuple, dict] = {}
    errors: dict[tuple, SweepRow] = {}
    for pt in _points(spec):
        try:  # an invalid option cell or a non-finite default-grid horizon
            args = q.arguments(dict(pt))
            horizon = q.horizon(args)
            steps = spec.n_steps or default_steps(horizon)
        except ValueError as exc:
            errors.update(((pt, n, m, seed), SweepRow(pt, n, spec.n_steps, m, seed, None, str(exc)))
                          for n in spec.n_paths for seed in spec.seeds for m in spec.methods)
            continue
        for n in spec.n_paths:
            for seed in spec.seeds:
                groups.setdefault((seed, n, steps), {})[pt] = args

    todo = [(MCConfig(n_paths=n, n_steps=steps, master_seed=seed, antithetic=spec.antithetic),
             pts) for (seed, n, steps), pts in sorted(groups.items())]
    ensembles = _batches(((_call_keys((spec.quantity, m, args) for args in pts.values()
                                      for m in spec.methods), cfg) for cfg, pts in todo), threads)
    rows = list(errors.values())
    for (cfg, pts), batches in zip(todo, ensembles):
        ens = {(b.t, b.nu): b for b in batches}
        for pt, args in pts.items():
            for method in spec.methods:
                try:
                    est = _estimate(q, cfg, method, ens, **args)
                    rows.append(SweepRow(pt, cfg.n_paths, cfg.n_steps, method, cfg.master_seed,
                                         est))
                except Exception as exc:
                    rows.append(SweepRow(pt, cfg.n_paths, spec.n_steps, method, cfg.master_seed,
                                         None, str(exc)))
    rows.sort(key=lambda r: r.sort_key)
    return SweepResult(spec=spec, rows=tuple(rows))


def _mean_integral(ens, t: float, nu: float):
    """The integrals of the grid's batch, flagged with their mean's distance
    ``gap=`` from the closed form (e^{nu t} - 1)/nu; the mean is formed as
    ``_wrap`` forms it."""
    values = ens[t, nu].integral
    gap = abs(float(values.sum() / len(values)) - stable_exp_rate(nu, t))
    return values, (f"gap={gap:.17g}",)


# the mean integral on one grid, a private row whose one method reads the
# grid's batch as given
_MEAN_INTEGRAL = Quantity({"t": NONNEGATIVE, "nu": None}, {"nested": (("nu",), _mean_integral)})


def check_steps_grid(steps_grid: Iterable[int]) -> list[int]:
    """The distinct step counts of a nested grid, ascending; ValueError unless
    there is one, each is a positive integer and each divides the finest."""
    steps = sorted({_integer("every step count of the steps grid", s) for s in steps_grid})
    if not steps:
        raise ValueError("steps grid must be nonempty")
    if any(s < 1 for s in steps):
        raise ValueError("step counts must be positive")
    if any(steps[-1] % s for s in steps):
        raise ValueError("every step count must divide the finest one")
    return steps


def quadrature_bias_report(t: float, nu: float, steps_grid: Iterable[int], cfg: MCConfig,
                           *, threads: int | None = None) -> tuple[SweepRow, ...]:
    """Trapezoid bias of the mean integral versus the closed form (e^{nu t}-1)/nu.

    Every row restricts the same finest-grid Brownian paths to a coarser
    uniform grid, so the rows differ only by discretization, not by sampling
    noise.  The step counts must be positive integers, each dividing the
    finest (see :func:`check_steps_grid`), which replaces ``cfg.n_steps``;
    one draw of the finest grid gives every row, the grid of s steps at
    stride finest / s.  Each row is a :class:`SweepRow` at point (t, nu),
    with its grid's step count, method ``nested`` and ``cfg``'s seed; its
    estimate is made by ``_estimate`` on that grid's batch and carries the
    gap |mean - (e^{nu t}-1)/nu| as its one flag, ``gap=`` to 17 digits.  So
    a mean, stderr or gap that would leave the float range raises ValueError
    naming t and nu.
    At nu = 0 the trapezoid estimate of the mean is exactly unbiased at every
    step count (each grid sample has unit expectation), so gaps there show
    pure shared Monte Carlo noise; drifted runs show the genuine O(dt^2)
    quadrature bias.  ``threads`` spreads the draw's chunks over worker
    threads as in :func:`~asianmc.paths.sample_ensemble`; None (the default)
    is serial.
    """
    steps = check_steps_grid(steps_grid)
    finest = steps[-1]
    keys = [(t, nu, finest // s) for s in steps]
    batches = next(_batches([(keys, replace(cfg, n_steps=finest))], threads))
    return tuple(SweepRow((("t", t), ("nu", nu)), cfg.n_paths, b.cfg.n_steps, "nested",
                          cfg.master_seed, _estimate(_MEAN_INTEGRAL, b.cfg, "nested", {nu: b},
                                                     t=t, nu=nu))
                 for b in batches)
