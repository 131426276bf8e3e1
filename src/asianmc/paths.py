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
for.  Each call may spread its chunks over worker threads (``threads``,
serial by default): chunk c goes to worker c mod W, the calling thread
runs worker 0's chunks itself, and each chunk writes only its own rows.
Several small draws, such as a sweep's one-chunk groups, may be made in one
call, so that their chunks share the workers.
Every horizon, drift and nested grid read in one call comes from the
same normals, drawn once per chunk, and from one walk, their running sum
taken once: a horizon t scales the walk by sqrt(t / n_steps), a drift
multiplies that horizon's grid by exp(nu s), and a nested grid is the
trapezoid over every k-th point of it.  So the values at one (t, nu) are
bit for bit those of a separate call at that (t, nu), with whatever other
horizons, drifts or grids are read beside them; a Greek report reads its
two drifts at T and the FD vega's two moved horizons in one call.  Scaling
after the sum, sqrt(dt) * sum(z), rounds differently from summing scaled
steps, sum(sqrt(dt) * z): the two agree bit for bit when sqrt(dt) is a power
of two (every default grid of a horizon t >= 1/4 with 1024 t an integer) and
to about 1e-13 relative otherwise.  A chunk is drawn and evaluated one row
block at a time, the block sized so that its normals and one grid fit in a
core's L2 cache together; the walk replaces the block's normals, and each
horizon's grid is built in place in one buffer per block.  So a chunk holds
one block of normals and one block grid, and another block grid only for a
drift that is neither 0 nor the last at its horizon.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

PATHS_PER_CHUNK = 1024
# normals per row block of a chunk: the block and one grid of it fit in L2
BLOCK_ELEMENTS = 1 << 16
# chunks per worker thread that _simulate_all gathers from consecutive small
# draws before it runs them: a window ends with about one chunk of idle time
# per worker, small against this many
WINDOW_CHUNKS_PER_WORKER = 16

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


def _check_key(t: float, nu: float) -> None:
    """Raise ValueError unless (t, nu) is a key the path core can draw."""
    check_param("time t", t, NONNEGATIVE)
    check_param("drift nu", nu)


def _integer(name: str, value) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is a Python or
    numpy integer (not a bool)."""
    if isinstance(value, (bool, np.bool_)) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


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
        n_paths: number of simulated paths, an integer >= 1.
        n_steps: grid points per path, an integer; uniform spacing
            dt = t / n_steps.
        master_seed: unsigned 64-bit integer seed all per-chunk generators
            derive from.
        antithetic: when set, path 2k+1 uses the negated increments of
            path 2k.

    ``n_paths``, ``n_steps`` and ``master_seed`` may be Python or numpy
    integers, nothing else (not bools); ``antithetic`` is a Python or numpy
    bool.
    """

    n_paths: int
    n_steps: int
    master_seed: int = DEFAULT_SEED
    antithetic: bool = False

    def __post_init__(self) -> None:
        for name in ("n_paths", "n_steps", "master_seed"):
            _integer(name, getattr(self, name))
        if not isinstance(self.antithetic, (bool, np.bool_)):
            raise ValueError(f"antithetic must be a bool, got {self.antithetic!r}")
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
    # (a, body, tail) of the last estimators.split_weight on this batch
    _split: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.terminal.flags.writeable = False
        self.integral.flags.writeable = False

    def __len__(self) -> int:
        return len(self.terminal)

    def sample(self, path_index: int) -> PathSample:
        return PathSample(float(self.terminal[path_index]), float(self.integral[path_index]))


def _chunk_normals(
    master_seed: int, chunk_index: int, n_steps: int, antithetic: bool,
    rows: int = PATHS_PER_CHUNK,
) -> Iterator[tuple[int, np.ndarray]]:
    """Raw standard normals for the first ``rows`` rows of one chunk, as row blocks.

    Yields ``(lo, z)``: z holds rows lo, lo + 1, ... of the chunk, shape
    (m, n_steps) with m at most the block size: BLOCK_ELEMENTS // n_steps
    rounded down to even, and at least 2.  Every block is drawn into one
    reused buffer, so z is valid only until the next block is drawn.  The
    generator key is derived from (master_seed, chunk_index) only, and rows
    are drawn in order from its one Philox stream, so row r is a pure
    function of (master_seed, n_steps, chunk_index, r): the rows of any call
    are a prefix of the full chunk, however it is split into blocks.  Blocks
    have an even row count and start on an even row, so antithetic pairs
    never straddle two blocks; an odd last block draws its partner row too
    and drops it.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(chunk_index),))
    gen = np.random.Generator(np.random.Philox(ss))
    block = max(2, BLOCK_ELEMENTS // n_steps & ~1)
    buf = np.empty((min(block, rows + rows % 2), n_steps))
    for lo in range(0, rows, block):
        m = min(block, rows - lo)
        z = gen.standard_normal(out=buf[:m + (m % 2 if antithetic else 0)])
        if antithetic:
            z[1::2] = -z[0::2]
        yield lo, z[:m]


def _functionals_from_normals(
    z: np.ndarray, keys: Sequence[tuple[float, float, int]]
) -> dict[tuple[float, float, int], tuple[np.ndarray, np.ndarray]]:
    """(terminal, integral) for each (t, nu, k) key from one block of normals.

    The standard walk, the running sum of z, is taken once; horizon t scales
    it to variance dt = t / n_steps; drift nu multiplies that horizon's grid
    by exp(nu s); stride k takes the trapezoid over every k-th grid point,
    which needs k to divide n_steps.  Each (t, nu) grid is built once, and
    each horizon's grids are released before the next horizon's are built.

    Buffer discipline: z is consumed, its rows replaced by their running
    sums.  A horizon's base grid is one (rows, n_steps + 1) buffer: the walk
    times sqrt(dt) is written straight into it, and the subtraction of s/2
    and the exp are taken in place there.  Drift 0 reads the base grid
    first; the last other drift multiplies it in place, since nothing reads
    it afterwards; only a drift that is neither gets a copy.  So drifts {0}
    and {0, nu} need one grid of memory, {nu1, nu2} and {0, nu1, nu2} two.
    The values are those of the out-of-place expressions with the walk
    scaled after the sum, sqrt(dt) * cumsum(z), bit for bit.
    """
    plan: dict[float, dict[float, set[int]]] = {}
    for t, nu, k in keys:
        plan.setdefault(t, {}).setdefault(nu, set()).add(k)
    n_steps = z.shape[1]
    np.cumsum(z, axis=1, out=z)
    out = {}
    for t, drifts in plan.items():
        s = np.linspace(0.0, t, n_steps + 1)
        x0 = np.empty((z.shape[0], n_steps + 1))
        x0[:, 0] = 0.0
        np.multiply(z, math.sqrt(t / n_steps), out=x0[:, 1:])
        x0 -= 0.5 * s
        np.exp(x0, out=x0)
        for i, nu in enumerate(sorted(drifts, key=bool)):  # drift 0 first
            last = i + 1 == len(drifts)
            x = np.multiply(x0, np.exp(nu * s), out=x0 if last else None) if nu else x0
            for k in drifts[nu]:
                xs = x[:, ::k]
                dt_k = t / (n_steps // k)
                integral = dt_k * (xs.sum(axis=1) - 0.5 * xs[:, 0] - 0.5 * xs[:, -1])
                out[t, nu, k] = (np.ascontiguousarray(xs[:, -1]), integral)
        del x0, x, xs  # no view may keep this horizon's grid alive into the next
    return out


def _simulate_all(
    draws: Iterable[tuple[Iterable[tuple[float, float, int]], MCConfig]],
    threads: int | None = None,
) -> Iterator[dict[tuple[float, float, int], tuple[np.ndarray, np.ndarray]]]:
    """For each ``(keys, cfg)`` draw in turn, the (terminal, integral) arrays
    of cfg.n_paths paths at each of its (t, nu, k) keys.  Every key is
    checked: a negative horizon or a non-finite drift raises ValueError.

    The one chunk loop: each chunk's normals are drawn once, one row block at
    a time (see :func:`_chunk_normals`), every key is read from each block
    (see :func:`_functionals_from_normals`) and its rows are written into the
    results before the next block is drawn.  The last chunk draws only the
    rows it needs, and a draw with no keys draws nothing.  Consecutive draws
    are taken together until their chunks number at least
    :data:`WINDOW_CHUNKS_PER_WORKER` per worker, and the (draw, chunk) items
    of such a window are spread over W = min(threads, items) workers in
    stripes (``threads`` None or 1: serial): worker w evaluates items w,
    w + W, ...  The calling thread runs stripe 0 itself and a pool of W - 1
    threads runs the others.  So the chunks of small draws, such as a
    sweep's one-chunk groups, fill the workers together, and one window's
    results are all that is held at a time.  Each chunk writes only its own
    rows of the results, so the values do not depend on ``threads``.
    """
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")

    def run_chunk(keys, cfg: MCConfig, out: dict, c: int) -> None:
        first = c * PATHS_PER_CHUNK
        rows = min(PATHS_PER_CHUNK, cfg.n_paths - first)
        for lo, z in _chunk_normals(cfg.master_seed, c, cfg.n_steps, cfg.antithetic, rows):
            at = slice(first + lo, first + lo + len(z))
            for key, (tv, iv) in _functionals_from_normals(z, keys).items():
                out[key][0][at] = tv
                out[key][1][at] = iv

    def run_stripe(stripe: list) -> None:
        for item in stripe:
            run_chunk(*item)  # its return frees the chunk's block buffer before the next draw

    def run_window(items: list) -> None:
        workers = max(1, min(threads or 1, len(items)))
        if workers == 1:
            run_stripe(items)
        else:
            with ThreadPoolExecutor(max_workers=workers - 1) as pool:
                others = pool.map(run_stripe, (items[w::workers] for w in range(1, workers)))
                run_stripe(items[::workers])
                list(others)  # re-raises a worker's error

    window, items = [], []
    for keys, cfg in draws:
        keys = tuple(dict.fromkeys(keys))
        for t, nu, _ in keys:
            _check_key(t, nu)
        window.append({key: (np.empty(cfg.n_paths), np.empty(cfg.n_paths)) for key in keys})
        chunks = range((cfg.n_paths - 1) // PATHS_PER_CHUNK + 1 if keys else 0)
        items += [(keys, cfg, window[-1], c) for c in chunks]
        if len(items) >= WINDOW_CHUNKS_PER_WORKER * (threads or 1):
            run_window(items)
            yield from window
            window, items = [], []
    run_window(items)
    yield from window


def _simulate(
    keys: Iterable[tuple[float, float, int]], cfg: MCConfig, threads: int | None = None
) -> dict[tuple[float, float, int], tuple[np.ndarray, np.ndarray]]:
    """(terminal, integral) arrays of cfg.n_paths paths for each (t, nu, k)
    key: the one draw of :func:`_simulate_all`, its chunks spread over
    ``threads``."""
    return next(_simulate_all([(keys, cfg)], threads))


def sample_ensemble(
    t: float,
    nus: Iterable[float],
    cfg: MCConfig,
    threads: int | None = None,
) -> Mapping[float, PathBatch]:
    """Simulate one set of Brownian paths and evaluate it at several drifts.

    All returned batches share the same underlying increments, which is what
    the drift-difference estimators (density, vega) rely on.  The values do
    not depend on ``threads``.

    Parameters
    ----------
    t : nonnegative time horizon.
    nus : drift values to evaluate; each must be finite.
    cfg : simulation contract (path count, steps, seed, antithetic).
    threads : worker threads over which the chunks are spread (at most one
        per chunk, the calling thread among them); None or 1 means serial.
        Must be >= 1.

    Returns
    -------
    dict mapping each requested nu to its PathBatch.
    """
    nus = tuple(dict.fromkeys(float(nu) for nu in nus))
    if not nus:
        raise ValueError("at least one drift value is required")
    out = _simulate(((t, nu, 1) for nu in nus), cfg, threads)
    return {nu: PathBatch(t, nu, *out[t, nu, 1], cfg) for nu in nus}


def sample_batch(t: float, nu: float, cfg: MCConfig, threads: int | None = None) -> PathBatch:
    """Simulate cfg.n_paths paths at drift nu; see :func:`sample_ensemble`."""
    return sample_ensemble(t, (nu,), cfg, threads=threads)[float(nu)]


def sample_path(t: float, nu: float, cfg: MCConfig, path_index: int) -> PathSample:
    """Evaluate a single path, bit-identical to its row in :func:`sample_batch`."""
    _check_key(t, nu)
    path_index = _integer("path_index", path_index)
    if not 0 <= path_index < cfg.n_paths:
        raise ValueError(f"path_index {path_index} outside [0, {cfg.n_paths})")
    chunk, row = divmod(path_index, PATHS_PER_CHUNK)
    *_, (_, z) = _chunk_normals(cfg.master_seed, chunk, cfg.n_steps, cfg.antithetic, row + 1)
    tv, iv = _functionals_from_normals(z[-1:], ((t, nu, 1),))[t, nu, 1]
    return PathSample(float(tv[0]), float(iv[0]))
