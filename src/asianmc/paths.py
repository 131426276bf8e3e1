"""Brownian path simulation and the two path functionals everything else consumes.

For a drift parameter ``nu`` the simulated objects are

    terminal  = exp(B_t + (nu - 1/2) t)
    integral  = trapezoid estimate of  int_0^t exp(B_s + (nu - 1/2) s) ds

sampled exactly at the grid points of a uniform grid (Gaussian increments of
variance dt).  ``nu = 0`` gives the driftless pair usually written (M_t, A_t).

Reproducibility contract: the raw normal increments feeding path ``i`` are a
pure function of ``(master_seed, n_steps, i)``.  Paths are generated in fixed
chunks of :data:`PATHS_PER_CHUNK`, each chunk keyed by a counter-based
derivation from the master seed, so serial, chunked and threaded runs agree
bit for bit and path ``i`` never depends on how many other paths were asked
for.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

PATHS_PER_CHUNK = 1024

DEFAULT_SEED = 42
STEPS_PER_UNIT_TIME = 1024
MIN_STEPS = 256

# bounds for check_param; None means finite is enough
POSITIVE = "positive"
NONNEGATIVE = "nonnegative"


def check_param(name: str, value: float, bound: str | None = None) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is finite and within ``bound``.

    ``bound`` is ``"positive"``, ``"nonnegative"`` or None (finite is enough).
    Every public entry point validates its real-valued inputs through here.
    """
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if bound == POSITIVE and value <= 0 or bound == NONNEGATIVE and value < 0:
        raise ValueError(f"{name} must be {bound}, got {value}")


def default_steps(t: float) -> int:
    """Default grid size: 1024 steps per unit time, never fewer than 256."""
    check_param("t", t)
    if t <= 0.0:
        return MIN_STEPS
    return max(MIN_STEPS, int(math.ceil(STEPS_PER_UNIT_TIME * t)))


@dataclass(frozen=True)
class MCConfig:
    """Cost and reproducibility contract for one Monte Carlo run.

    Attributes:
        n_paths: number of simulated paths (>= 1).
        n_steps: grid points per path; uniform spacing dt = t / n_steps.
        master_seed: 64-bit seed all per-chunk generators derive from.
        antithetic: when set, path 2k+1 uses the negated increments of
            path 2k.
    """

    n_paths: int
    n_steps: int
    master_seed: int = DEFAULT_SEED
    antithetic: bool = False

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not 0 <= int(self.master_seed) < 2**64:
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")


class PathSample(NamedTuple):
    """One simulated pair (terminal exponential, time-integral quadrature)."""

    terminal: float
    integral: float


@dataclass(frozen=True)
class PathBatch:
    """Immutable batch of path functionals for one (t, nu).

    ``terminal[i]`` and ``integral[i]`` come from the same Brownian path;
    batches produced by :func:`sample_ensemble` for different ``nu`` share
    the underlying increments path for path.
    """

    t: float
    nu: float
    terminal: np.ndarray
    integral: np.ndarray
    cfg: MCConfig

    def __post_init__(self) -> None:
        self.terminal.flags.writeable = False
        self.integral.flags.writeable = False

    def __len__(self) -> int:
        return len(self.terminal)

    def sample(self, path_index: int) -> PathSample:
        return PathSample(float(self.terminal[path_index]), float(self.integral[path_index]))


def _validate_drift(nu: float) -> float:
    nu = float(nu)
    check_param("drift nu", nu)
    return nu


def _chunk_normals(master_seed: int, chunk_index: int, n_steps: int, antithetic: bool) -> np.ndarray:
    """Raw standard normals for one full chunk, shape (PATHS_PER_CHUNK, n_steps).

    The generator key is derived from (master_seed, chunk_index) only, and the
    full chunk is always drawn, so row r is a pure function of
    (master_seed, n_steps, chunk_index, r).
    """
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(chunk_index),))
    z = np.random.Generator(np.random.Philox(ss)).standard_normal((PATHS_PER_CHUNK, n_steps))
    if antithetic:
        z[1::2] = -z[0::2]
    return z


def _functionals_from_normals(
    z: np.ndarray, t: float, nus: Sequence[float]
) -> dict[float, tuple[np.ndarray, np.ndarray]]:
    """Evaluate (terminal, integral) for each drift from one block of normals."""
    n_steps = z.shape[1]
    dt = t / n_steps
    s = np.linspace(0.0, t, n_steps + 1)
    b = np.empty((z.shape[0], n_steps + 1))
    b[:, 0] = 0.0
    np.cumsum(z * math.sqrt(dt), axis=1, out=b[:, 1:])
    x0 = np.exp(b - 0.5 * s)
    out = {}
    for nu in nus:
        x = x0 if nu == 0.0 else x0 * np.exp(nu * s)
        integral = dt * (x.sum(axis=1) - 0.5 * x[:, 0] - 0.5 * x[:, -1])
        out[nu] = (np.ascontiguousarray(x[:, -1]), integral)
    return out


def sample_ensemble(
    t: float,
    nus: Iterable[float],
    cfg: MCConfig,
    threads: int | None = None,
) -> Mapping[float, PathBatch]:
    """Simulate one set of Brownian paths and evaluate it at several drifts.

    All returned batches share the same underlying increments, which is what
    the drift-difference estimators (density, vega) rely on.  Chunks may be
    evaluated concurrently; results are assembled in path-index order.

    Parameters
    ----------
    t : nonnegative time horizon.
    nus : drift values to evaluate; each must be finite.
    cfg : simulation contract (path count, steps, seed, antithetic).
    threads : worker threads for chunk evaluation; None means serial.

    Returns
    -------
    dict mapping each requested nu to its PathBatch.
    """
    check_param("time t", t, NONNEGATIVE)
    nus = tuple(dict.fromkeys(_validate_drift(nu) for nu in nus))
    if not nus:
        raise ValueError("at least one drift value is required")

    n = cfg.n_paths
    if t == 0.0:
        return {
            nu: PathBatch(t, nu, np.ones(n), np.zeros(n), cfg)
            for nu in nus
        }

    term = {nu: np.empty(n) for nu in nus}
    integ = {nu: np.empty(n) for nu in nus}
    n_chunks = (n + PATHS_PER_CHUNK - 1) // PATHS_PER_CHUNK

    def run_chunk(c: int) -> tuple[int, dict]:
        lo = c * PATHS_PER_CHUNK
        rows = min(PATHS_PER_CHUNK, n - lo)
        z = _chunk_normals(cfg.master_seed, c, cfg.n_steps, cfg.antithetic)[:rows]
        return lo, _functionals_from_normals(z, t, nus)

    if threads is not None and threads > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_chunk, range(n_chunks)))
    else:
        results = [run_chunk(c) for c in range(n_chunks)]

    for lo, vals in results:
        for nu in nus:
            tv, iv = vals[nu]
            term[nu][lo:lo + len(tv)] = tv
            integ[nu][lo:lo + len(iv)] = iv
    return {nu: PathBatch(t, nu, term[nu], integ[nu], cfg) for nu in nus}


def sample_batch(t: float, nu: float, cfg: MCConfig, threads: int | None = None) -> PathBatch:
    """Simulate cfg.n_paths paths at drift nu; see :func:`sample_ensemble`."""
    return sample_ensemble(t, (nu,), cfg, threads=threads)[_validate_drift(nu)]


def sample_path(t: float, nu: float, cfg: MCConfig, path_index: int) -> PathSample:
    """Evaluate a single path, bit-identical to its row in :func:`sample_batch`."""
    check_param("time t", t, NONNEGATIVE)
    nu = _validate_drift(nu)
    if not 0 <= path_index < cfg.n_paths:
        raise ValueError(f"path_index {path_index} outside [0, {cfg.n_paths})")
    if t == 0.0:
        return PathSample(1.0, 0.0)
    chunk, row = divmod(path_index, PATHS_PER_CHUNK)
    z = _chunk_normals(cfg.master_seed, chunk, cfg.n_steps, cfg.antithetic)[row:row + 1]
    tv, iv = _functionals_from_normals(z, t, (nu,))[nu]
    return PathSample(float(tv[0]), float(iv[0]))
