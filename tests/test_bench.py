"""Sweep harness: ordering, determinism, error capture, bias report."""

import math

import numpy as np
import pytest

import asianmc as am
from asianmc import MCConfig
from asianmc.bench import SweepSpec, quadrature_bias_report, run_sweep
from asianmc.estimators import QUANTITIES


def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="quantity"):
        SweepSpec("bogus", {}, (10,), (1,), ("naive",))
    with pytest.raises(ValueError, match="grid over"):
        SweepSpec("cdf", {"sigma": (1.0,)}, (10,), (1,), ("naive",))
    with pytest.raises(ValueError, match="empty"):
        SweepSpec("cdf", {"a": ()}, (10,), (1,), ("naive",))
    with pytest.raises(ValueError, match="not valid"):
        SweepSpec("cdf", {"a": (1.0,)}, (10,), (1,), ("fd",))
    with pytest.raises(ValueError, match="requires a grid"):
        run_sweep(SweepSpec("joint_cdf", {"a": (1.0,)}, (10,), (1,), ("naive",)))
    for n_steps, message in ((0, "n_steps must be >= 1, got 0"),
                             (8.0, "n_steps must be an integer"),
                             (True, "n_steps must be an integer")):
        with pytest.raises(ValueError, match=message):
            SweepSpec("cdf", {"a": (1.0,)}, (10,), (1,), ("naive",), n_steps=n_steps)


def test_rows_carry_their_step_count():
    # on the default grid each cell's horizon sets it
    rows = run_sweep(SweepSpec("cdf", {"a": (1.0,), "t": (0.5, 1.0)}, (64,), (1,),
                               ("naive",))).rows
    assert [(dict(r.point)["t"], r.n_steps) for r in rows] == [(0.5, 512), (1.0, 1024)]


SPEC = am.OptionSpec(1.0, 1.0, 1.0, 0.05, 1.0)
# every quantity of the table: a one-point grid, and the direct library call
# at that point
DIRECT = {
    "cdf": ({"a": (1.0,), "nu": (0.5,)}, lambda cfg, m: am.cdf(1.0, 1.0, 0.5, cfg, m)),
    "density": ({"a": (1.0,)}, lambda cfg, m: am.density(1.0, 1.0, cfg, m)),
    "joint_cdf": ({"b": (1.0,), "a": (1.0,)},
                  lambda cfg, m: am.joint_cdf(1.0, 1.0, 1.0, cfg, m)),
    "call_kernel": ({"a": (0.4,), "nu": (0.5,)},
                    lambda cfg, m: am.call_kernel(0.4, 1.0, 0.5, cfg, m)),
    "call_kernel_d1": ({"a": (1.0,)}, lambda cfg, m: am.call_kernel_d1(1.0, 1.0, cfg, m)),
    "call_kernel_d2": ({"a": (1.0,)}, lambda cfg, m: am.call_kernel_d2(1.0, 1.0, cfg, m)),
    "price": ({"rate": (0.05,)}, lambda cfg, m: am.price(SPEC, cfg, m)),
    "delta": ({"rate": (0.05,)}, lambda cfg, m: am.delta(SPEC, cfg, m)),
    "gamma": ({"rate": (0.05,)}, lambda cfg, m: am.gamma(SPEC, cfg, m)),
    "theta": ({"rate": (0.05,)}, lambda cfg, m: am.theta(SPEC, cfg, m)),
    "vega": ({"rate": (0.05,)}, lambda cfg, m: am.vega(SPEC, cfg, m)),
}


def test_single_point_sweep_matches_direct_calls():
    spec = SweepSpec("cdf", {"a": (1.0,), "t": (1.0,)}, (2_000,), (7,),
                     ("naive", "identity"))
    result = run_sweep(spec)
    assert len(result.rows) == 2
    cfg = MCConfig(2_000, am.default_steps(1.0), 7)
    for row in result.rows:
        direct = am.cdf(1.0, 1.0, 0.0, cfg, row.method)
        assert row.estimate.mean == direct.mean
        assert row.estimate.stderr == direct.stderr

    # every (quantity, method) of the table, each group on one shared ensemble
    assert set(DIRECT) == set(QUANTITIES)
    cfg = MCConfig(1_500, 64, 7)
    for quantity, (grids, direct_call) in DIRECT.items():
        methods = tuple(QUANTITIES[quantity].methods)
        rows = run_sweep(SweepSpec(quantity, grids, (1_500,), (7,), methods, n_steps=64)).rows
        assert [r.method for r in rows] == sorted(methods)
        for row in rows:
            direct = direct_call(cfg, row.method)
            assert (row.estimate.mean, row.estimate.stderr, row.estimate.flags) == \
                (direct.mean, direct.stderr, direct.flags), (quantity, row.method)


def test_rerun_is_bit_identical_and_thread_independent(monkeypatch):
    spec = SweepSpec("call_kernel", {"a": (0.5, 1.0), "t": (0.5, 1.0)},
                     (500, 1000), (1, 2), ("naive", "identity"), n_steps=64)
    r1 = run_sweep(spec)
    r2 = run_sweep(spec)
    r3 = run_sweep(spec, threads=4)
    # eight one-chunk groups drawn two at a time: four windows
    monkeypatch.setattr(am.paths, "WINDOW_CHUNKS_PER_WORKER", 1)
    r4 = run_sweep(spec, threads=2)
    for a, b in ((r1, r2), (r1, r3), (r1, r4)):
        assert len(a.rows) == len(b.rows)
        for x, y in zip(a.rows, b.rows):
            assert x == y  # every field of the row and of its estimate
    # a result carries nothing that differs between equal calls
    cfg = MCConfig(1500, 64, 3)
    assert am.cdf(1.0, 1.0, 0.5, cfg) == am.cdf(1.0, 1.0, 0.5, cfg)
    assert am.greek_report(SPEC, cfg, fd_check=True) == \
        am.greek_report(SPEC, cfg, fd_check=True, threads=2)


def test_rows_sorted_lexicographically():
    spec = SweepSpec("cdf", {"a": (2.0, 0.5), "t": (1.0, 0.5)}, (200, 100), (3, 1),
                     ("naive", "identity"), n_steps=32)
    result = run_sweep(spec)
    keys = [row.sort_key for row in result.rows]
    assert keys == sorted(keys)
    assert len(keys) == 2 * 2 * 2 * 2 * 2


def test_error_rows_captured_not_raised():
    # a grid point violating the threshold precondition is recorded row by
    # row instead of aborting the rest of the sweep
    spec = SweepSpec("call_kernel", {"a": (1.0, -1.0), "t": (1.0,)}, (200,), (1,),
                     ("naive", "identity"), n_steps=32)
    result = run_sweep(spec)
    failed = [r for r in result.rows if r.error is not None]
    ok = [r for r in result.rows if r.error is None]
    assert len(failed) == 2
    assert all(dict(r.point)["a"] == -1.0 for r in failed)
    assert all("positive" in r.error for r in failed)
    assert len(ok) == 2 and all(r.estimate is not None for r in ok)


def test_nonfinite_grid_value_is_a_row_error():
    for quantity, grids, n_steps, message in (
        ("cdf", {"a": (math.nan, 1.0)}, 8, "a must be finite, got nan"),
        ("cdf", {"a": (1.0,), "t": (math.nan, 1.0)}, 8, "t must be finite, got nan"),
        # on the default grid the step count itself reads the horizon
        ("cdf", {"a": (1.0,), "t": (math.nan, 1.0)}, None, "t must be finite, got nan"),
        # an option cell fails when its OptionSpec is built
        ("price", {"sigma": (-1.0, 1.0)}, 8, "sigma must be positive, got -1.0"),
        ("price", {"sigma": (1e200, 1.0)}, 8, "horizon sigma^2 expiry must be finite, got inf"),
        # a cell whose values leave the float range, named by its method
        ("price", {"s0": (1e200, 1.0)}, 8, "{method} estimate at spec=OptionSpec(s0=1e+200, "
         "strike=1.0, sigma=1.0, rate=0.0, expiry=1.0) leaves the float range: "
         "overflow encountered in square"),
    ):
        spec = SweepSpec(quantity, grids, (64,), (1, 2), ("naive", "identity"), n_steps=n_steps)
        rows = run_sweep(spec).rows
        failed = [r for r in rows if r.error is not None]
        ok = [r for r in rows if r.error is None]
        # one error row per (n_paths, seed, method), the rest of the sweep intact
        assert len(failed) == len(ok) == 4, (quantity, grids, n_steps)
        assert all(r.error == message.format(method=r.method) and r.estimate is None
                   for r in failed)
        assert all(r.estimate is not None for r in ok)
        # an error row holds the sweep's step count, None on the default grid
        assert all(r.n_steps == n_steps for r in failed)
        assert all(r.n_steps == (n_steps or 1024) for r in ok)


def test_greek_quantity_sweep():
    spec = SweepSpec("delta", {"expiry": (0.5, 1.0)}, (1_000,), (5,), ("fd",),
                     n_steps=128)
    result = run_sweep(spec)
    assert len(result.rows) == 2
    assert all(r.estimate is not None for r in result.rows)


def test_summary_helpers():
    spec = SweepSpec("call_kernel", {"a": (0.4,), "t": (0.5,)},
                     (100, 500), (0, 1, 2), ("naive", "identity"), n_steps=64)
    result = run_sweep(spec)
    frac = result.stderr_win_fraction(500)
    assert 0.0 <= frac <= 1.0
    mean, se = result.seed_mean("naive", 500, a=0.4, t=0.5)
    assert math.isfinite(mean) and se >= 0.0
    with pytest.raises(ValueError, match="no comparable"):
        result.stderr_win_fraction(999)


# ---------------------------------------------------------------------------
# quadrature bias report
# ---------------------------------------------------------------------------


def test_bias_report_validation():
    cfg = MCConfig(100, 1024, 1)
    with pytest.raises(ValueError, match="divide"):
        quadrature_bias_report(1.0, 0.0, (12, 1024), cfg)
    with pytest.raises(ValueError, match="nonempty"):
        quadrature_bias_report(1.0, 0.0, (), cfg)
    for grid in ((16.7, 64), (True, 64)):  # the integer rule of MCConfig's counts
        with pytest.raises(ValueError, match="steps grid must be an integer"):
            quadrature_bias_report(1.0, 1.0, grid, cfg)


def test_bias_report_time_zero_rows_are_exact():
    cfg = MCConfig(100, 1024, 1)
    rows = quadrature_bias_report(0.0, 0.5, (16, 64), cfg)
    assert all(r.closed_form_gap == 0.0 and r.estimate.mean == 0.0 for r in rows)


def test_bias_gaps_shrink_for_drifted_integrand():
    # nested grids expose the O(dt^2) trapezoid bias of the drifted mean
    cfg = MCConfig(100_000, 1024, 42)
    rows = quadrature_bias_report(1.0, 1.0, (16, 64, 256, 1024), cfg)
    gaps = [r.closed_form_gap for r in rows]
    assert all(x >= y for x, y in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 3 * rows[-1].estimate.stderr + 1e-3


def test_bias_gaps_tiny_for_driftless_mean():
    # at nu=0 the trapezoid mean is exactly unbiased at every step count,
    # so all gaps are pure (shared) Monte Carlo noise
    cfg = MCConfig(100_000, 1024, 42)
    rows = quadrature_bias_report(1.0, 0.0, (16, 64, 256, 1024), cfg)
    for row in rows:
        assert row.closed_form_gap <= 3 * row.estimate.stderr + 1e-3


def test_bias_rows_match_plain_batch_at_finest_grid():
    cfg = MCConfig(5_000, 256, 9)
    rows = quadrature_bias_report(1.0, 0.0, (256,), cfg)
    batch = am.sample_batch(1.0, 0.0, cfg)
    assert rows[0].estimate.mean == pytest.approx(float(batch.integral.mean()), rel=1e-12)
    plain_se = float(batch.integral.std(ddof=1)) / math.sqrt(cfg.n_paths)
    assert rows[0].estimate.stderr == pytest.approx(plain_se, rel=1e-12)
