"""Parameter sweeps and the quadrature-bias report, which is one of them.

``run_sweep`` evaluates one quantity over a cartesian grid of parameters,
path counts, seeds, methods and nested step counts, capturing per-row errors
instead of aborting, and returns rows in a deterministic lexicographic order
so reruns are bit-identical.  Its cells at one (seed, n_paths) and one set of
step counts read one draw at the finest count, whatever their horizons: the
grid of s steps is that draw read at stride finest / s (``paths._batches``),
so a cell's rows at several step counts share their paths and differ only by
discretization.  The sweep only groups its cells, records the errors and
sorts the rows: its groups are drawn and estimated by
``estimators._estimates``, the loop that draws and estimates for the Greek
report and the single-quantity commands too.  Each call is labelled with its
cell, (point, n_paths, method, seed), and each estimate comes back with that
label and its grid's step count, so the sweep keeps no list in the loop's
order.  ``quadrature_bias_report`` is such a sweep of the private
``_MEAN_INTEGRAL`` row at one (t, nu): each grid's mean integral is a
:class:`SweepRow`, its distance from the closed form a ``gap=`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Mapping

import numpy as np

from . import greeks  # noqa: F401 -- adds the option rows to QUANTITIES
from .estimators import (IDENTITY, NAIVE, QUANTITIES, Estimate, Quantity, _estimates, _wrap,
                         stable_exp_rate)
from .paths import NONNEGATIVE, MCConfig, _integer, default_steps


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: one quantity, parameter grids, path counts, seeds, methods.

    ``n_steps`` is one step count, several nested ones (each dividing the
    largest; see :func:`check_steps_grid`), or None for each horizon's
    default grid.
    """

    quantity: str
    grids: Mapping[str, tuple[float, ...]]
    n_paths: tuple[int, ...]
    seeds: tuple[int, ...]
    methods: tuple[str, ...]
    n_steps: int | tuple[int, ...] | None = None
    antithetic: bool = False

    def __post_init__(self) -> None:
        if self.quantity not in _ROWS:
            raise ValueError(f"unknown sweep quantity {self.quantity!r}")
        q = _ROWS[self.quantity]
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
        _step_counts(self.n_steps)


@dataclass(frozen=True)
class SweepRow:
    """One evaluated cell; ``error`` is set (and estimate None) if it raised.

    ``n_steps`` is the grid the estimate was made on: the sweep's step count
    (one row per count where the sweep has several nested ones), or on the
    default grid the default for the cell's horizon.  An error row holds its
    step count too, but None on the default grid.
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


def _step_counts(n_steps: int | tuple[int, ...] | None) -> list[int] | None:
    """A sweep's step counts, distinct and ascending, or None on the default
    grid; ValueError unless one count is a positive integer, or several
    follow :func:`check_steps_grid`'s rule."""
    if isinstance(n_steps, tuple):
        return check_steps_grid(n_steps)
    if n_steps is not None and _integer("n_steps", n_steps) < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    return None if n_steps is None else [n_steps]


def _points(spec: SweepSpec) -> list[tuple[tuple[str, float], ...]]:
    """The sweep's cells: every combination of the row's parameter values,
    each from its grid or its default."""
    q = _ROWS[spec.quantity]
    for name in q.params:
        if name not in spec.grids and name not in q.defaults:
            raise ValueError(f"{spec.quantity} requires a grid for {name!r}")
    return list(product(*([(name, float(v)) for v in spec.grids.get(name, (q.defaults.get(name),))]
                          for name in q.params)))


def run_sweep(spec: SweepSpec, threads: int | None = None) -> SweepResult:
    """Evaluate the sweep; rows come back sorted by (point, n_paths, method,
    seed), a cell's rows at nested step counts in ascending step order.

    Rows that raise are recorded with their error message so one bad cell
    (for example a tail-underflow region) cannot abort a whole sweep.
    Work is grouped by (seed, n_paths, step counts), and the groups are
    drawn and estimated by ``estimators._estimates``: each group is one draw
    at the finest count, which carries every (horizon, drift) key its cells
    read at stride finest / s for each count s, and each cell is estimated
    on each stride's batches; a row is made from the cell the loop hands
    back with each estimate, and the step count of its grid.  ``threads``
    (None, the default, is serial) spreads the groups' draws over worker
    threads: consecutive groups are drawn together until their chunks fill
    the workers, so groups of one chunk are drawn in parallel too.
    """
    q = _ROWS[spec.quantity]
    grid = _step_counts(spec.n_steps)
    # (seed, n_paths, step counts) -> {point: the row's arguments}; a
    # repeated grid value, path count or seed adds no second row.  Seed
    # first: a seed's groups read prefixes of the same (seed, chunk) streams,
    # which the path core draws once only for draws in one window
    groups: dict[tuple, dict] = {}
    errors: dict[tuple, SweepRow] = {}
    for pt in _points(spec):
        try:  # an invalid option cell or a non-finite default-grid horizon
            args = q.arguments(dict(pt))
            steps = tuple(grid or (default_steps(q.horizon(args)),))
        except ValueError as exc:
            errors.update(((pt, n, m, seed, s), SweepRow(pt, n, s, m, seed, None, str(exc)))
                          for n in spec.n_paths for seed in spec.seeds for m in spec.methods
                          for s in grid or (None,))
            continue
        for n, seed in product(spec.n_paths, spec.seeds):
            groups.setdefault((seed, n, steps), {})[pt] = args

    estimates = _estimates([(MCConfig(n, steps[-1], seed, spec.antithetic), steps,
                             [((pt, n, m, seed), q, m, args) for pt, args in pts.items()
                              for m in spec.methods])
                            for (seed, n, steps), pts in sorted(groups.items())], threads)
    rows = list(errors.values())
    for (pt, n, m, seed), s, estimate in estimates:
        try:
            rows.append(SweepRow(pt, n, s, m, seed, estimate()))
        except Exception as exc:  # on the default grid an error row holds None
            rows.append(SweepRow(pt, n, grid and s, m, seed, None, str(exc)))
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
# the rows a sweep reads: the quantity table's, complete once greeks is
# imported, and the private row by its private name
_ROWS = {**QUANTITIES, "_mean_integral": _MEAN_INTEGRAL}


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
    finest (see :func:`check_steps_grid`), which replaces ``cfg.n_steps``.
    The report is :func:`run_sweep` of the private ``_MEAN_INTEGRAL`` row at
    the one point (t, nu), over those nested step counts, with ``cfg``'s
    path count, seed and pairing: one draw of the finest grid gives every
    row, the grid of s steps at stride finest / s.  Each row is a
    :class:`SweepRow` with its grid's step count and method ``nested``; its
    estimate carries the gap |mean - (e^{nu t}-1)/nu| as its one flag,
    ``gap=`` to 17 digits.  A row that fails is raised, not returned: so a
    mean, stderr or gap that would leave the float range raises ValueError
    naming t and nu.
    At nu = 0 the trapezoid estimate of the mean is exactly unbiased at every
    step count (each grid sample has unit expectation), so gaps there show
    pure shared Monte Carlo noise; drifted runs show the genuine O(dt^2)
    quadrature bias.  ``threads`` spreads the draw's chunks over worker
    threads as in :func:`~asianmc.paths.sample_ensemble`; None (the default)
    is serial.
    """
    rows = run_sweep(SweepSpec("_mean_integral", {"t": (t,), "nu": (nu,)}, (cfg.n_paths,),
                               (cfg.master_seed,), ("nested",), tuple(steps_grid),
                               cfg.antithetic), threads).rows
    for error in filter(None, (row.error for row in rows)):
        raise ValueError(error)
    return rows
