"""Path simulation: determinism, degenerate cases, antithetic pairing, moments."""

import ast
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from grid_moments import grid_moments
from hypothesis import given, settings
from hypothesis import strategies as st

import asianmc
from asianmc import MCConfig, PathSample, default_steps, sample_batch, sample_ensemble, sample_path
from asianmc.bench import SweepSpec, quadrature_bias_report, run_sweep
from asianmc.greeks import _moved_keys

CFG = MCConfig(n_paths=2048, n_steps=64, master_seed=42)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_rejects_bad_config():
    with pytest.raises(ValueError, match="n_paths"):
        MCConfig(n_paths=0, n_steps=8)
    with pytest.raises(ValueError, match="n_steps"):
        MCConfig(n_paths=1, n_steps=0)
    # counts and seed must be integers, named when they are not; a float seed
    # is not floored
    for args, name in (((100, 8, 1.5), "master_seed"), ((100.0, 8), "n_paths"),
                       ((100, 8.0), "n_steps"), ((100, 8, "1"), "master_seed")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            MCConfig(*args)
    # a bool is not a count or a seed, and the antithetic flag is a bool: a
    # string such as 'no' would pair the paths
    for args, name in (((True, 8), "n_paths"), ((100, np.True_), "n_steps"),
                       ((100, 8, False), "master_seed"), ((100, 8, np.False_), "master_seed")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            MCConfig(*args)
    for flag in ("no", 1, 0, None, 1.0):
        with pytest.raises(ValueError, match="antithetic must be a bool"):
            MCConfig(100, 8, 1, flag)
    for flag in (np.True_, np.False_):
        batch = sample_batch(1.0, 0.0, MCConfig(100, 8, 1, flag))
        plain = sample_batch(1.0, 0.0, MCConfig(100, 8, 1, bool(flag)))
        np.testing.assert_array_equal(batch.integral, plain.integral)
    # numpy integers are integers
    cfg = MCConfig(np.int64(100), np.int32(8), np.uint64(1))
    batch, plain = sample_batch(1.0, 0.0, cfg), sample_batch(1.0, 0.0, MCConfig(100, 8, 1))
    np.testing.assert_array_equal(batch.integral, plain.integral)


def test_rejects_negative_time_and_bad_index():
    with pytest.raises(ValueError, match="nonnegative"):
        sample_batch(-0.5, 0.0, CFG)
    with pytest.raises(ValueError, match="path_index"):
        sample_path(1.0, 0.0, CFG, CFG.n_paths)
    for index in (1.5, True):  # the integer rule of MCConfig's counts
        with pytest.raises(ValueError, match="path_index must be an integer"):
            sample_path(1.0, 0.0, CFG, index)
    with pytest.raises(ValueError, match="finite"):
        sample_batch(1.0, float("nan"), CFG)


# ---------------------------------------------------------------------------
# degenerate and single-step contracts
# ---------------------------------------------------------------------------


def test_time_zero_is_exact():
    for nu in (0.0, -0.5, 1.0):
        batch = sample_batch(0.0, nu, CFG)
        assert np.all(batch.terminal == 1.0)
        assert np.all(batch.integral == 0.0)
    assert sample_path(0.0, 2.0, CFG, 5) == PathSample(1.0, 0.0)


def test_single_step_trapezoid_formula():
    # With one interval the integral must be exactly dt*(X_0 + X_1)/2; at
    # B_1 = 0 that evaluates to (1 + e^{-1/2})/2.
    cfg = MCConfig(n_paths=256, n_steps=1, master_seed=11)
    batch = sample_batch(1.0, 0.0, cfg)
    np.testing.assert_allclose(batch.integral, 0.5 * (1.0 + batch.terminal), rtol=1e-15)
    assert 0.5 * (1.0 + math.exp(-0.5)) == pytest.approx(0.8033, abs=5e-5)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_batch_is_reproducible_and_matches_single_paths():
    b1 = sample_batch(1.0, 0.0, CFG)
    b2 = sample_batch(1.0, 0.0, CFG)
    np.testing.assert_array_equal(b1.terminal, b2.terminal)
    np.testing.assert_array_equal(b1.integral, b2.integral)
    for i in (0, 1, 1023, 1024, 2047):
        assert sample_path(1.0, 0.0, CFG, i) == b1.sample(i)
    # a chunk of n_steps-step paths is drawn in blocks of
    # max(2, BLOCK_ELEMENTS // n_steps) rows, rounded down to even: the rows
    # on either side of a block boundary, in both chunks
    for n_steps, block in ((257, 254), (1024, 64), (1536, 42)):
        for antithetic in (False, True):
            cfg = MCConfig(2048, n_steps, 42, antithetic)
            batch = sample_batch(1.0, 0.0, cfg)
            for i in (block - 1, block, 1024 + block - 1, 1024 + block, 2047):
                assert sample_path(1.0, 0.0, cfg, i) == batch.sample(i)


def test_paths_do_not_depend_on_batch_size():
    small = sample_batch(1.0, 0.0, MCConfig(500, 64, 42))
    large = sample_batch(1.0, 0.0, MCConfig(2000, 64, 42))
    np.testing.assert_array_equal(small.terminal, large.terminal[:500])
    np.testing.assert_array_equal(small.integral, large.integral[:500])


def test_thread_count_does_not_change_results():
    serial = sample_ensemble(1.0, (0.0, 1.0), CFG, threads=None)
    threaded = sample_ensemble(1.0, (0.0, 1.0), CFG, threads=4)
    for nu in (0.0, 1.0):
        np.testing.assert_array_equal(serial[nu].terminal, threaded[nu].terminal)
        np.testing.assert_array_equal(serial[nu].integral, threaded[nu].integral)
    # a Greek report with its FD checks and a nested-grid bias report at
    # 2,501 paths: three chunks, the last one odd; three workers on shared
    # result arrays, switching often
    spec = asianmc.OptionSpec(1.0, 1.1, 1.0, 0.03, 1.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for antithetic in (False, True):
            cfg = MCConfig(2501, 64, 7, antithetic)
            reports = []
            for threads in (None, 2, 3):
                rep = asianmc.greek_report(spec, cfg, fd_check=True, threads=threads)
                ests = [rep.price, rep.delta, rep.gamma, rep.theta, rep.vega,
                        *rep.fd_cross_checks.values()]
                reports.append(([(e.mean, e.stderr, e.flags) for e in ests],
                                quadrature_bias_report(1.0, 1.0, (16, 64), cfg, threads=threads)))
            assert reports[1] == reports[0] and reports[2] == reports[0]
    finally:
        sys.setswitchinterval(interval)


def test_chunk_pool_shape(monkeypatch):
    # W = min(threads, chunks) workers: the calling thread runs one stripe
    # and a pool of W - 1 threads the others; serial calls build no pool
    pools = []

    class Recorder(ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(asianmc.paths, "ThreadPoolExecutor", Recorder)
    cfg = MCConfig(2501, 8, 42)  # three chunks
    for threads, made in ((None, []), (1, []), (2, [1]), (8, [2])):
        pools.clear()
        next(asianmc.paths._simulate_all([([(1.0, 0.0, 1)], cfg)], threads))
        assert pools == made, threads
    with pytest.raises(ValueError, match="threads"):
        next(asianmc.paths._simulate_all([([(1.0, 0.0, 1)], cfg)], 0))
    # a sweep draws its groups through the same pool: two one-chunk groups
    # at two seeds are two streams, drawn together on two workers, so the one
    # pool of one thread is the only thread started, whatever pool would
    # start another; two horizons at one seed are one draw, on one worker
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda th: started.append(th) or start(th))
    spec = SweepSpec("cdf", {"a": (1.0,), "t": (0.5,)}, (64,), (1, 2), ("naive",), 8)
    pools.clear()
    assert len(run_sweep(spec, threads=2).rows) == 2
    assert pools == [1] and len(started) == 1
    with pytest.raises(ValueError, match="threads"):
        run_sweep(spec, threads=0)
    spec = SweepSpec("cdf", {"a": (1.0,), "t": (0.5, 1.0)}, (64,), (1,), ("naive",), 8)
    pools.clear()
    assert len(run_sweep(spec, threads=2).rows) == 2
    assert pools == [] and len(started) == 1


def test_ensemble_shares_increments_across_drifts():
    ens = sample_ensemble(1.0, (0.0, 1.0), CFG)
    # same Brownian path: drifted terminal = driftless terminal * e^{nu t}
    np.testing.assert_allclose(ens[1.0].terminal, ens[0.0].terminal * math.e, rtol=1e-12)


def test_batches_are_immutable():
    batch = sample_batch(1.0, 0.0, CFG)
    with pytest.raises(ValueError):
        batch.terminal[0] = 2.0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       index=st.integers(min_value=0, max_value=99))
def test_sample_path_is_pure(seed, index):
    cfg = MCConfig(n_paths=100, n_steps=16, master_seed=seed)
    assert sample_path(0.7, 0.0, cfg, index) == sample_path(0.7, 0.0, cfg, index)


# ---------------------------------------------------------------------------
# antithetic pairing
# ---------------------------------------------------------------------------


def test_antithetic_pairs_negate_increments():
    cfg = MCConfig(n_paths=64, n_steps=1, master_seed=5, antithetic=True)
    batch = sample_batch(1.0, 0.0, cfg)
    # one step: terminal = exp(z*sqrt(t) - t/2), so products of pairs are e^{-t}
    prod = batch.terminal[0::2] * batch.terminal[1::2]
    np.testing.assert_allclose(prod, math.exp(-1.0), rtol=1e-12)


def test_antithetic_reduces_pair_variance_of_terminal():
    n = 20_000
    plain = sample_batch(1.0, 0.0, MCConfig(n, 64, 42))
    anti = sample_batch(1.0, 0.0, MCConfig(n, 64, 42, antithetic=True))
    pair_mean_anti = 0.5 * (anti.terminal[0::2] + anti.terminal[1::2])
    pair_mean_plain = 0.5 * (plain.terminal[0::2] + plain.terminal[1::2])
    assert pair_mean_anti.var() < pair_mean_plain.var()


# ---------------------------------------------------------------------------
# moment sanity (cheap versions; the full oracles run in test_acceptance)
# ---------------------------------------------------------------------------


def test_terminal_martingale_and_integral_mean():
    n = 50_000
    batch = sample_batch(1.0, 0.0, MCConfig(n, 256, 42))
    for vals, target in ((batch.terminal, 1.0), (batch.integral, 1.0)):
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - target) <= 3 * se


def test_drifted_integral_mean():
    n = 50_000
    for nu in (-0.5, 1.0):
        batch = sample_batch(1.0, nu, MCConfig(n, 256, 42))
        target = (math.exp(nu) - 1.0) / nu
        se = batch.integral.std(ddof=1) / math.sqrt(n)
        assert abs(batch.integral.mean() - target) <= 3 * se


def test_moments_match_the_exact_grid_sums():
    # E[A], E[A^2] and E[X_t A] on the nested grids of one draw against their
    # exact sums over the same grid (tests/grid_moments.py): this checks the
    # walk's scale, the drift factor and the strides with no grid bias
    t, n_steps, n = 1.0, 64, 400_000
    keys = [(t, nu, k) for nu in (0.0, 1.0, -0.5) for k in (1, 4)]
    grids = next(asianmc.paths._simulate_all([(keys, MCConfig(n, n_steps, 42))]))
    for key in keys:
        terminal, integral = grids[key]
        _, nu, k = key
        for values, exact in zip((integral, integral * integral, terminal * integral),
                                 grid_moments(t, nu, n_steps // k)):
            z = (values.mean() - exact) / (values.std(ddof=1) / math.sqrt(n))
            assert abs(z) < 4.0, (key, exact, z)


def test_default_steps_rule():
    assert default_steps(1.0) == 1024
    assert default_steps(0.5) == 512
    assert default_steps(2.0) == 2048
    assert default_steps(0.1) == 256
    assert default_steps(0.0) == 256


# ---------------------------------------------------------------------------
# one path core
# ---------------------------------------------------------------------------


def test_only_paths_draws_normals():
    # every other module reads paths through the public samplers or the
    # private keyed core, never through the raw per-chunk normals
    users = set()
    for source in Path(asianmc.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            name = getattr(node, "id", None) or getattr(node, "attr", None) \
                or getattr(node, "name", None)
            if name == "_chunk_normals":
                users.add(source.stem)
    assert users == {"paths"}


def test_horizons_drifts_and_strides_share_one_draw():
    # at t = 1.5 there is no drift 0: the first drift is a copy, the last
    # is taken in place on the base grid
    keys = [(1.0, 0.0, 1), (1.0, 1.0, 1), (1.2, 0.0, 1), (1.0, 1.0, 64),
            (1.5, 1.0, 1), (1.5, -0.5, 1)]
    keys += [(0.0, nu, k) for nu in (0.0, 2.5, -1.0) for k in (1, 4)]
    out = next(asianmc.paths._simulate_all([(keys, CFG)]))
    for t, nu in ((1.0, 0.0), (1.0, 1.0), (1.2, 0.0), (1.5, 1.0), (1.5, -0.5)):
        batch = sample_batch(t, nu, CFG)
        np.testing.assert_array_equal(out[t, nu, 1][0], batch.terminal)
        np.testing.assert_array_equal(out[t, nu, 1][1], batch.integral)
    # stride n_steps keeps the two end points: one trapezoid t (1 + X_t) / 2
    terminal, integral = out[1.0, 1.0, 64]
    np.testing.assert_array_equal(terminal, out[1.0, 1.0, 1][0])
    np.testing.assert_allclose(integral, 0.5 * (1.0 + terminal), rtol=1e-15)
    for key in keys[6:]:
        assert np.all(out[key][0] == 1.0) and np.all(out[key][1] == 0.0)


@pytest.mark.parametrize("drifts, grids", [((0.0,), 1.1), ((0.0, 1.0), 1.1), ((1.0, 2.0), 2.1)])
def test_kernel_peak_allocation(drifts, grids):
    # one chunk's kernel builds each (t, nu) grid in place: drifts {0} and
    # {0, nu} need one grid of memory, and only a drift that is neither 0
    # nor the last needs a second
    z = np.random.default_rng(0).standard_normal((1024, 256))
    grid_bytes = z.shape[0] * (z.shape[1] + 1) * z.itemsize
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        asianmc.paths._functionals_from_normals(z, [(1.0, nu, 1) for nu in drifts])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= grids * grid_bytes, f"peak {peak / grid_bytes:.2f} grids"


def _whole_chunks(cfg):
    """(first path, normals) of each chunk drawn whole: one (1024, n_steps)
    Philox draw per chunk, cut to the paths asked for."""
    for lo in range(0, cfg.n_paths, 1024):
        ss = np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(lo // 1024,))
        z = np.random.Generator(np.random.Philox(ss)).standard_normal((1024, cfg.n_steps))
        if cfg.antithetic:
            z[1::2] = -z[0::2]
        yield lo, z[:cfg.n_paths - lo]


def _whole_chunk_reference(keys, cfg):
    """The keyed core with each chunk drawn whole and fed to the kernel at once."""
    n = cfg.n_paths
    out = {key: (np.empty(n), np.empty(n)) for key in keys}
    for lo, z in _whole_chunks(cfg):
        for key, (tv, iv) in asianmc.paths._functionals_from_normals(z, keys).items():
            out[key][0][lo:lo + len(tv)] = tv
            out[key][1][lo:lo + len(iv)] = iv
    return out


@pytest.mark.parametrize("n_steps", [8, 257, 1536])
@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("n_paths", [1500, 1501])
def test_streamed_blocks_equal_a_whole_chunk_draw(n_paths, antithetic, n_steps):
    # the Greek report's keys: drifts 0 and 1 at T and the FD vega's two
    # sigma-moved horizons; 1536 steps are 42-row blocks, 257 steps 254-row
    # blocks and 8 steps one block per chunk
    spec = asianmc.OptionSpec(1.0, 1.0, 1.0, 0.0, 1.0)
    keys = [(spec.horizon, 0.0, 1), (spec.horizon, 1.0, 1)]
    keys += [(t, nu, 1) for t, nu in _moved_keys(spec, "sigma", "vega")]
    cfg = MCConfig(n_paths, n_steps, 7, antithetic)
    streamed = next(asianmc.paths._simulate_all([(keys, cfg)]))
    for key, (terminal, integral) in _whole_chunk_reference(keys, cfg).items():
        np.testing.assert_array_equal(streamed[key][0], terminal)
        np.testing.assert_array_equal(streamed[key][1], integral)


def _scaled_steps_reference(keys, cfg):
    """Every key's (terminal, integral) with each horizon's walk summed from
    scaled steps, cumsum(sqrt(dt) * z), out of place: the other rounding
    order of the library's sqrt(dt) * cumsum(z)."""
    n, n_steps = cfg.n_paths, cfg.n_steps
    out = {key: (np.empty(n), np.empty(n)) for key in keys}
    for lo, z in _whole_chunks(cfg):
        for t, nu, k in keys:
            s = np.linspace(0.0, t, n_steps + 1)
            x = np.zeros((len(z), n_steps + 1))
            x[:, 1:] = np.cumsum(z * math.sqrt(t / n_steps), axis=1)
            x = np.exp(x - 0.5 * s)
            if nu:
                x = x * np.exp(nu * s)
            xs = x[:, ::k]
            integral = t / (n_steps // k) * (xs.sum(axis=1) - 0.5 * xs[:, 0] - 0.5 * xs[:, -1])
            out[t, nu, k][0][lo:lo + len(z)] = xs[:, -1]
            out[t, nu, k][1][lo:lo + len(z)] = integral
    return out


@pytest.mark.parametrize("horizons, n_steps, antithetic", [
    ("vega 0.5", 512, False), ("vega 1", 1024, True), ("vega 1.5", 1536, False),
    ((1.0,), 64, True), ((100.0,), 2048, False), ((0.7, 0.3), 48, True)])
def test_shared_walk_precision_contract(horizons, n_steps, antithetic):
    # one walk, scaled per horizon: per-path values within 1e-12 relative of
    # summing scaled steps, and bit for bit where sqrt(dt) is a power of two
    # (scaling by it is exact); "vega T" is a Greek report's three horizons
    # at expiry T: T and the FD vega's two sigma-moved ones
    if isinstance(horizons, str):
        spec = asianmc.OptionSpec(1.0, 1.0, 1.0, 0.0, float(horizons.split()[1]))
        horizons = (spec.horizon,) + tuple(t for t, _ in _moved_keys(spec, "sigma", "vega"))
    keys = [(t, nu, k) for t in horizons for nu in (0.0, 1.0, -0.5) for k in (1, 4)]
    cfg = MCConfig(1100, n_steps, 7, antithetic)
    got = next(asianmc.paths._simulate_all([(keys, cfg)]))
    exact = 0
    for key, want in _scaled_steps_reference(keys, cfg).items():
        if math.frexp(math.sqrt(key[0] / n_steps))[0] == 0.5:
            exact += 1
            np.testing.assert_array_equal(got[key][0], want[0])
            np.testing.assert_array_equal(got[key][1], want[1])
        else:
            np.testing.assert_allclose(got[key][0], want[0], rtol=1e-12, atol=0)
            np.testing.assert_allclose(got[key][1], want[1], rtol=1e-12, atol=0)
    assert exact == (6 if n_steps in (512, 1024, 1536, 64) else 0)


def test_streamed_chunk_peak_allocation():
    # one 1024 x 1024 chunk with drifts {0, 1} holds one row block of normals
    # and one block grid (about 1 MiB), not the whole chunk's normals and
    # grid (16.9 MB)
    cfg = MCConfig(1024, 1024, 42)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        next(asianmc.paths._simulate_all([([(1.0, 0.0, 1), (1.0, 1.0, 1)], cfg)]))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


# ---------------------------------------------------------------------------
# one read of each (seed, chunk) stream per window
# ---------------------------------------------------------------------------

SHARED_STEPS = (2048, 1536, 1024, 1000, 512, 257, 8, 7, 1)
SHARED_PATHS = (1, 300, 1024, 1501, 2500)


def _shared_window(antithetic, shift, seeds=(3,)):
    """A window whose draws share their streams: every step count once per
    seed, the path counts rotated by ``shift``; antithetic "mixed" pairs
    every other draw.  Each draw reads drifts 0 and 1 and, with more than
    one step, the stride of its whole grid."""
    draws = []
    for seed in seeds:
        for i, n_steps in enumerate(SHARED_STEPS):
            n_paths = SHARED_PATHS[(i + shift) % len(SHARED_PATHS)]
            anti = bool(i % 2) if antithetic == "mixed" else antithetic
            keys = [(0.7, 0.0, 1), (0.7, 1.0, 1)] + [(0.7, 0.0, n_steps)] * (n_steps > 1)
            draws.append((keys, MCConfig(n_paths, n_steps, seed, anti)))
    return draws


@pytest.mark.parametrize("threads", [None, 2])
@pytest.mark.parametrize("antithetic, shift, seeds", [
    (False, 0, (3,)), (True, 1, (3,)), ("mixed", 2, (3, 4)), (True, 3, (4,)), (False, 4, (3, 4))])
def test_draws_sharing_a_stream_equal_single_draws(antithetic, shift, seeds, threads):
    # followers copy their rows out of the leader's raw blocks, carrying
    # partial rows across block ends (1000 and 257 steps do not divide a
    # block): every key equals a draw made alone, bit for bit
    draws = _shared_window(antithetic, shift, seeds)
    for (keys, cfg), got in zip(draws, asianmc.paths._simulate_all(draws, threads)):
        alone = next(asianmc.paths._simulate_all([(keys, cfg)]))
        for key in keys:
            np.testing.assert_array_equal(got[key][0], alone[key][0], err_msg=f"{cfg} {key}")
            np.testing.assert_array_equal(got[key][1], alone[key][1], err_msg=f"{cfg} {key}")


@pytest.mark.parametrize("threads", [None, 2])
def test_each_stream_is_drawn_once_per_window(threads, monkeypatch):
    # two seeds, draws of up to three chunks: one _chunk_normals call per
    # (seed, chunk), drawing the rows of the draw that needs the most normals
    calls = []
    draw = asianmc.paths._chunk_normals
    monkeypatch.setattr(asianmc.paths, "_chunk_normals",
                        lambda *a, **k: calls.append(a) or draw(*a, **k))
    draws = [([(1.0, 0.0, 1)], MCConfig(n_paths, n_steps, seed))
             for seed in (3, 4) for n_paths, n_steps in ((2500, 8), (1024, 16), (300, 64))]
    list(asianmc.paths._simulate_all(draws, threads))
    # chunk 0 of each seed: 300 x 64 = 19,200 normals lead 1024 x 16 = 16,384
    # and 1024 x 8; chunks 1 and 2 are the 2,500-path draw's alone
    assert sorted(calls) == [(3, 0, 64, 300), (3, 1, 8, 1024), (3, 2, 8, 452),
                             (4, 0, 64, 300), (4, 1, 8, 1024), (4, 2, 8, 452)]
    calls.clear()
    list(asianmc.paths._simulate_all(draws[1:3], threads))
    assert calls == [(3, 0, 64, 300)]


@pytest.mark.parametrize("threads", [None, 2])
def test_a_sweep_draws_each_seed_stream_once(threads, monkeypatch):
    # a seed's two horizons are one draw, and a sweep's groups are drawn
    # seed by seed, so each seed's stream is drawn once, in whichever window
    # its group falls
    calls = []
    draw = asianmc.paths._chunk_normals
    monkeypatch.setattr(asianmc.paths, "_chunk_normals",
                        lambda *a, **k: calls.append(a[:2]) or draw(*a, **k))
    spec = SweepSpec("cdf", {"a": (1.0,), "t": (0.5, 1.0)}, (64,), tuple(range(1, 13)),
                     ("naive",), 8)
    assert len(run_sweep(spec, threads).rows) == 24
    assert sorted(calls) == [(seed, 0) for seed in range(1, 13)]


def test_a_window_does_not_split_a_seed(monkeypatch):
    # the default grid draws t = 0.25 and t = 0.5 as two groups of 17 chunks
    # (256 and 512 steps); the first alone fills a serial window, but the
    # second has the same seed, so it joins that window and each (seed,
    # chunk) stream is drawn once, not twice
    calls = []
    draw = asianmc.paths._chunk_normals
    monkeypatch.setattr(asianmc.paths, "_chunk_normals",
                        lambda *a, **k: calls.append(a[:2]) or draw(*a, **k))
    spec = SweepSpec("cdf", {"a": (0.2,), "t": (0.25, 0.5)}, (17_000,), (3,), ("naive",))
    assert len(run_sweep(spec).rows) == 2
    assert sorted(calls) == [(3, c) for c in range(17)]


def test_a_sweep_draws_each_configuration_once(monkeypatch):
    # the cells of one (seed, n_paths, n_steps) are one draw of the path
    # core, carrying every horizon they read, and their rows are those of
    # one-horizon sweeps, bit for bit
    draws = []
    simulate = asianmc.paths._simulate_all
    monkeypatch.setattr(asianmc.paths, "_simulate_all",
                        lambda batch, *a, **k: draws.extend(batch) or simulate(batch, *a, **k))
    spec = SweepSpec("cdf", {"a": (0.5, 1.0), "t": (0.5, 1.0)}, (300,), (5,),
                     ("naive", "identity"), 8)
    rows = run_sweep(spec).rows
    assert draws == [(((0.5, 0.0, 1), (1.0, 0.0, 1)), MCConfig(300, 8, 5))]
    draws.clear()
    alone = [row for t in (0.5, 1.0)
             for row in run_sweep(SweepSpec("cdf", {"a": (0.5, 1.0), "t": (t,)}, (300,), (5,),
                                            ("naive", "identity"), 8)).rows]
    assert len(draws) == 2
    assert len(rows) == 8 and sorted(alone, key=lambda r: r.sort_key) == list(rows)


def test_a_grid_outside_the_float_range_is_named_once_per_batch(monkeypatch):
    # exp(709 t) is finite at t = 1, but X e^{709 s} overflows on some of
    # the 64 paths: the kernel stays silent, the batch names (t, nu), the
    # public draws raise it (path 30 is one that overflows), and an
    # estimate on the drift-0 batch of the same draw is that of a drift-0
    # draw alone
    cfg = MCConfig(64, 8, 42)
    (b0, b709), = asianmc.paths._batches([([(1.0, 0.0, 1), (1.0, 709.0, 1)], cfg)])
    message = "the path grid at nu = 709.0, t = 1.0 leaves the float range"
    assert b0._error is None and np.isfinite(b0.integral).all()
    assert b709._error == message and not np.isfinite(b709.integral).all()
    assert not np.isfinite(b709.integral[30])
    with pytest.raises(ValueError, match=message):
        sample_batch(1.0, 709.0, cfg)
    with pytest.raises(ValueError, match=message):
        sample_path(1.0, 709.0, cfg, 30)
    ens = {(b.t, b.nu): b for b in (b0, b709)}
    with pytest.raises(ValueError, match=message):
        asianmc.cdf(1.0, 1.0, 709.0, cfg, "naive", ensemble=ens)
    assert asianmc.cdf(1.0, 1.0, 0.0, cfg, "naive", ensemble=ens) == \
        asianmc.cdf(1.0, 1.0, 0.0, cfg, "naive")
    # the batches were checked when they were made: estimates on them scan
    # no values for finiteness
    scans = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda *a, **k: scans.append(1) or isfinite(*a, **k))
    for a in (0.5, 1.0, 2.0):
        asianmc.cdf(a, 1.0, 0.0, cfg, "naive", ensemble=ens)
        with pytest.raises(ValueError, match=message):
            asianmc.cdf(a, 1.0, 709.0, cfg, "naive", ensemble=ens)
    assert scans == []


def test_followers_share_one_scratch_block():
    # a leader and eight followers of one stream: the followers copy their
    # rows through one scratch buffer, half a block at a time, freed before
    # the leader evaluates its block.  So the window needs about two row
    # blocks beyond its outputs, as a single draw does (the block and its
    # grid), not a block per follower
    block_bytes = asianmc.paths.BLOCK_ELEMENTS * 8
    keys = [(1.0, 0.0, 1)]
    draws = [(keys, MCConfig(1024, n_steps, 42))
             for n_steps in (1024, 1000, 768, 512, 513, 257, 100, 9, 1)]
    outputs = sum(2 * cfg.n_paths * 8 for _, cfg in draws)
    list(asianmc.paths._simulate_all(draws[:1]))  # numpy's one-time set-up is not the draw's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        list(asianmc.paths._simulate_all(draws))
        peak = tracemalloc.get_traced_memory()[1] - before - outputs
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * block_bytes, f"peak {peak / block_bytes:.2f} blocks"
