"""Brownian path simulation and the two path functionals everything else consumes.

For a drift parameter ``nu`` the simulated objects are

    terminal  = exp(B_t + (nu - 1/2) t)
    integral  = trapezoid estimate of  int_0^t exp(B_s + (nu - 1/2) s) ds

sampled exactly at the grid points of a uniform grid (Gaussian increments of
variance dt).  ``nu = 0`` gives the driftless pair usually written (M_t, A_t).

Reproducibility contract: the raw normal increments feeding path ``i`` are a
pure function of ``(master_seed, n_steps, i)``.  Paths are generated in fixed
chunks of :data:`PATHS_PER_CHUNK`.  Chunk c's normals are one counter-based
(Philox) stream keyed by (master_seed, c) only, and a draw at n steps reads
its row r as the stream's normals r n to (r + 1) n - 1.  So serial, chunked
and threaded runs agree bit for bit, path ``i`` never depends on how many
other paths were asked for, and draws of one seed at any step and path
counts read prefixes of the same streams.  Several draws, such as a sweep's
groups, may be made in one call: the call reads each (master_seed, c) stream
once for all its draws, and spreads the streams over worker threads
(``threads``, serial by default); the calling thread is one of the workers,
and each chunk writes only its own rows.
Every horizon, drift and nested grid read in one draw comes from the
same normals, drawn once per chunk, and from one walk, their running sum
taken once: a horizon t scales the walk by sqrt(t / n_steps), a drift
multiplies that horizon's grid by exp(nu s), and a nested grid is the
trapezoid over every k-th point of it.  So the values at one (t, nu) are
bit for bit those of a separate call at that (t, nu), with whatever other
horizons, drifts or grids are read beside them; a Greek report reads its
two drifts at T and the FD vega's two moved horizons in one call, and a
sweep over nested step counts (the bias report is one) reads each of its
keys at several strides, each a batch of its own step count; ``_batches``
makes every batch, at any stride.  Scaling after
the sum, sqrt(dt) * sum(z), rounds differently from summing scaled steps,
sum(sqrt(dt) * z): the two agree bit for bit when sqrt(dt) is a power of
two (every default grid of a horizon t >= 1/4 with 1024 t an integer) and
to about 1e-13 relative otherwise.  A chunk is drawn and evaluated one row
block at a time, the block sized so that its normals and one grid fit in a
core's L2 cache together; the walk replaces the block's normals, and each
horizon's grid is built in place in one buffer per block.  So a chunk holds one block of
normals and one block grid, and another block grid only for a drift that is
neither 0 nor the last at its horizon.  A draw that reads its rows from
another draw's blocks copies them in pieces of half a block, so a stream
read for several draws holds no more than that either.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

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


def check_formed(name: str, form: Callable[[], float], bound: str | None = None) -> float:
    """``form()``, a float formed from checked inputs, held to ``bound`` as by
    :func:`check_param`.  A Python float overflow or division by zero while
    forming it counts as an infinite value, so it too raises naming ``name``.
    """
    try:
        value = form()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    check_param(name, value, bound)
    return value


def _check_key(t: float, nu: float) -> None:
    """Raise ValueError unless (t, nu) is a key the path core can draw: t
    nonnegative, nu finite, and the grid's largest drift factor exp(nu t)
    finite."""
    check_param("time t", t, NONNEGATIVE)
    check_param("drift nu", nu)
    check_formed(f"drift factor exp(nu t) at nu = {nu}, t = {t}", lambda: math.exp(nu * t))


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
    the underlying increments path for path.  A grid exp(B_s + (nu - 1/2) s)
    can leave the float range on some path even where exp(nu t) does not;
    its integral is then not finite, and the batch holds the message that
    names (t, nu), which every estimate that reads the batch raises.
    """

    t: float
    nu: float
    terminal: np.ndarray
    integral: np.ndarray
    cfg: MCConfig
    # (a, body, tail) of the last estimators.split_weight on this batch
    _split: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _error: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.terminal.flags.writeable = False
        self.integral.flags.writeable = False
        if not np.isfinite(self.integral).all():  # once per batch, not per estimate
            object.__setattr__(self, "_error", f"the path grid at nu = {self.nu}, t = {self.t} "
                               "leaves the float range")

    def __len__(self) -> int:
        return len(self.terminal)

    def sample(self, path_index: int) -> PathSample:
        return PathSample(float(self.terminal[path_index]), float(self.integral[path_index]))


def _chunk_normals(
    master_seed: int, chunk_index: int, n_steps: int, rows: int = PATHS_PER_CHUNK,
) -> Iterator[np.ndarray]:
    """Raw standard normals for the first ``rows`` rows of one chunk, as row blocks.

    Yields the blocks in row order, each of shape (m, n_steps) with m at
    most the block size: BLOCK_ELEMENTS // n_steps rounded down to even,
    and at least 2.  Every block is drawn into one reused buffer, so a block
    is valid only until the next is drawn.  The
    generator key is derived from (master_seed, chunk_index) only, and the
    normals are drawn in order from its one Philox stream, so the chunk's
    stream is a pure function of (master_seed, chunk_index): row r is its
    normals r * n_steps to (r + 1) * n_steps - 1, whatever n_steps and
    however the rows are split into blocks.  Blocks start on an even row and
    all but the last have an even row count, so antithetic pairs (see
    :func:`_pair`) never straddle two blocks.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(chunk_index),))
    gen = np.random.Generator(np.random.Philox(ss))
    block = max(2, BLOCK_ELEMENTS // n_steps & ~1)
    buf = np.empty((min(block, rows), n_steps))
    for lo in range(0, rows, block):
        yield gen.standard_normal(out=buf[:min(block, rows - lo)])


def _pair(z: np.ndarray) -> None:
    """Antithetic pairing of a block that starts on an even row, in place: row
    2k + 1 becomes the negation of row 2k, and an odd last row keeps its own
    normals."""
    np.negative(z[:len(z) - 1:2], out=z[1::2])


@np.errstate(over="ignore", invalid="ignore")  # a grid that overflows is named by its batch
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
    scaled after the sum, sqrt(dt) * cumsum(z), bit for bit.  A path whose
    grid leaves the float range gets an infinite or NaN integral, without a
    warning; :class:`PathBatch` names its key.
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


class _StreamRows:
    """One draw's rows of one chunk, from the chunk's (master_seed, chunk)
    stream.

    The draw that draws the stream evaluates each of its row blocks as it
    is drawn (``evaluate``).  Row r of any other draw is the stream's
    normals r * n_steps to (r + 1) * n_steps - 1, so a raw block of the
    drawing draw holds such rows whole or in part: ``take`` evaluates the
    rows that each block completes, an even number of them until the last,
    so that antithetic pairs stay together; the rest, less than two rows, is
    carried into the next block.
    """

    def __init__(self, keys, cfg: MCConfig, out: dict, c: int) -> None:
        self.keys, self.cfg, self.out = keys, cfg, out
        self.first = c * PATHS_PER_CHUNK
        self.rows = min(PATHS_PER_CHUNK, cfg.n_paths - self.first)
        self.done = 0
        self.carry = np.empty(0)

    def take(self, raw: np.ndarray) -> None:
        """Evaluate the rows that the next stream block ``raw`` (flat) completes.

        The rows are copied, in pieces of half a block's normals, into one
        scratch buffer that is freed on return, and ``raw`` is left as it
        was: the drawing block, a piece and the piece's grid take no more
        memory than a block and its grid.
        """
        n = self.cfg.n_steps
        left = (self.rows - self.done) * n - len(self.carry)
        new = raw[:left]
        r = (len(self.carry) + len(new)) // n
        if len(new) < left:  # more rows follow
            r &= ~1
        piece = min(r, max(2, BLOCK_ELEMENTS // 2 // n & ~1))
        scratch, at = np.empty(piece * n), 0
        while r:
            m = min(r, piece)
            cut = at + m * n - len(self.carry)
            z = np.concatenate((self.carry, new[at:cut]), out=scratch[:m * n])
            self.carry, at, r = self.carry[:0], cut, r - m
            self.evaluate(z.reshape(m, n))
        self.carry = np.concatenate((self.carry, new[at:]))

    def evaluate(self, z: np.ndarray) -> None:
        """Write every key's values of the draw's next rows, from their raw
        normals z, which are consumed."""
        if self.cfg.antithetic:
            _pair(z)
        at = slice(self.first + self.done, self.first + self.done + len(z))
        for key, (tv, iv) in _functionals_from_normals(z, self.keys).items():
            self.out[key][0][at] = tv
            self.out[key][1][at] = iv
        self.done += len(z)


def _simulate_all(
    draws: Iterable[tuple[Iterable[tuple[float, float, int]], MCConfig]],
    threads: int | None = None,
) -> Iterator[dict[tuple[float, float, int], tuple[np.ndarray, np.ndarray]]]:
    """For each ``(keys, cfg)`` draw in turn, the (terminal, integral) arrays
    of cfg.n_paths paths at each of its (t, nu, k) keys.  Every key is
    checked: a negative horizon or a non-finite drift raises ValueError.

    The one chunk loop.  Chunk c's normals are one Philox stream that
    depends on (master_seed, c) only (see :func:`_chunk_normals`), and a
    draw at n steps reads its rows as consecutive n-normal segments of it.
    Consecutive draws are taken together until their chunks number at least
    :data:`WINDOW_CHUNKS_PER_WORKER` per worker and the next draw's seed has
    no draw in the window (so a window may hold every draw of one seed past
    that count), and a window reads each
    (master_seed, c) stream once for all its draws: the draw that needs the
    most normals draws the stream, one row block at a time, and evaluates
    its rows in place; every other draw of that stream first copies the
    rows each raw block completes into a scratch buffer, half a block at a
    time, and evaluates them there (see :class:`_StreamRows`).  Every key
    is read from each block (see :func:`_functionals_from_normals`) and its
    rows are written into the results before the next block is drawn.  The last chunk draws only
    the rows it needs, and a draw with no keys draws nothing.  The streams
    of a window are spread over W = min(threads, streams) workers in
    stripes (``threads`` None or 1: serial): worker w reads streams w,
    w + W, ...  The calling thread runs stripe 0 itself and a pool of W - 1
    threads runs the others.  So the chunks of small draws, such as a
    sweep's one-chunk groups, fill the workers together, and one window's
    results are all that is held at a time.  Each chunk writes only its own
    rows of the results, so the values do not depend on ``threads``, nor on
    which other draws share a window.
    """
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")

    def run_stream(seed: int, c: int, readers: list[_StreamRows]) -> None:
        *others, leader = sorted(readers, key=lambda rows: rows.rows * rows.cfg.n_steps)
        for z in _chunk_normals(seed, c, leader.cfg.n_steps, leader.rows):
            for rows in others:
                rows.take(z.reshape(-1))
            leader.evaluate(z)

    def run_stripe(stripe: list) -> None:
        for (seed, c), readers in stripe:
            run_stream(seed, c, readers)  # its return frees the stream's buffers before the next

    def run_window(streams: list) -> None:
        workers = max(1, min(threads or 1, len(streams)))
        if workers == 1:
            run_stripe(streams)
        else:
            with ThreadPoolExecutor(max_workers=workers - 1) as pool:
                others = pool.map(run_stripe, (streams[w::workers] for w in range(1, workers)))
                run_stripe(streams[::workers])
                list(others)  # re-raises a worker's error

    window, streams, items = [], {}, 0
    for keys, cfg in draws:
        if (items >= WINDOW_CHUNKS_PER_WORKER * (threads or 1)
                and (cfg.master_seed, 0) not in streams):  # a seed's draws share one window
            run_window(list(streams.items()))
            yield from window
            window, streams, items = [], {}, 0
        keys = tuple(dict.fromkeys(keys))
        for t, nu, _ in keys:
            _check_key(t, nu)
        window.append({key: (np.empty(cfg.n_paths), np.empty(cfg.n_paths)) for key in keys})
        chunks = range((cfg.n_paths - 1) // PATHS_PER_CHUNK + 1 if keys else 0)
        for c in chunks:
            streams.setdefault((cfg.master_seed, c), []).append(
                _StreamRows(keys, cfg, window[-1], c))
        items += len(chunks)
    run_window(list(streams.items()))
    yield from window


def _batches(
    draws: Iterable[tuple[Iterable[tuple[float, float, int]], MCConfig]],
    threads: int | None = None,
) -> Iterator[list[PathBatch]]:
    """For each ``(keys, cfg)`` draw in turn, its :class:`PathBatch` at each
    (t, nu, k) key, in key order.

    The batch at stride k is the trapezoid over every k-th point of the
    cfg.n_steps grid, so its ``cfg.n_steps`` is cfg.n_steps // k; batches at
    several strides of one draw share their paths and differ only by
    discretization.  Every draw is made by one :func:`_simulate_all` call,
    so the chunks of consecutive small draws share the ``threads`` workers.
    This is the only code that turns the path core's arrays into batches:
    the ensembles of :func:`sample_ensemble`, of one estimate and of the
    loop that draws and estimates for a sweep, a Greek report and each
    single-quantity command (``estimators._ensemble_for`` and
    ``estimators._estimates``), at one step count or at several nested
    ones, all come from here.
    """
    draws = [(tuple(keys), cfg) for keys, cfg in draws]
    for (keys, cfg), grid in zip(draws, _simulate_all(draws, threads)):
        yield [PathBatch(t, nu, *grid[t, nu, k], replace(cfg, n_steps=cfg.n_steps // k))
               for t, nu, k in keys]


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
    dict mapping each requested nu to its PathBatch.  A drift whose grid
    leaves the float range on some path raises ValueError naming (t, nu).
    """
    nus = tuple(dict.fromkeys(float(nu) for nu in nus))
    if not nus:
        raise ValueError("at least one drift value is required")
    batches = next(_batches([(((t, nu, 1) for nu in nus), cfg)], threads))
    for error in filter(None, (b._error for b in batches)):
        raise ValueError(error)
    return {b.nu: b for b in batches}


def sample_batch(t: float, nu: float, cfg: MCConfig, threads: int | None = None) -> PathBatch:
    """Simulate cfg.n_paths paths at drift nu; see :func:`sample_ensemble`."""
    return sample_ensemble(t, (nu,), cfg, threads=threads)[float(nu)]


def sample_path(t: float, nu: float, cfg: MCConfig, path_index: int) -> PathSample:
    """Evaluate a single path, bit-identical to its row in :func:`sample_batch`.

    It is that row: the batch of the first path_index + 1 paths is drawn,
    so a path at a large index draws every path before it, and a grid that
    leaves the float range raises ValueError naming (t, nu) as
    :func:`sample_batch` does."""
    path_index = _integer("path_index", path_index)
    if not 0 <= path_index < cfg.n_paths:
        raise ValueError(f"path_index {path_index} outside [0, {cfg.n_paths})")
    return sample_batch(t, nu, replace(cfg, n_paths=path_index + 1)).sample(path_index)
