"""Distribution estimators: oracles, cross-validation, and tail behavior.

Conventions used throughout: cross-family comparisons at N paths use the
combined standard error sqrt(se1^2 + se2^2); two estimates built on the same
paths are compared by the standard error of their per-path difference;
finite-difference oracles add a documented O(h^2) allowance.  The identity
estimators split the printed weight exp(2M/(a+A) - 2/a) into a bounded body
and an indicator tail (docs/estimator-notes.md), and a test below checks
that their per-path values are bounded.  The printed weight itself has
infinite variance: at 10^5 paths it undersamples its right tail, and the
tests at the end of this file pin that behavior of the literal routes
(cdf_weighted) explicitly rather than hiding it.
"""

import gc
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asianmc as am
from asianmc import MCConfig, PathBatch
from asianmc.cli import DEFAULT_THREADS
from asianmc.estimators import (
    IDENTITY,
    NAIVE,
    QUANTITIES,
    Estimate,
    _TRANSFORM,
    _wrap,
    cdf_identity_values,
    shared_ensemble,
    density_identity_values,
    kernel_d2_identity_values,
    kernel_identity_values,
    split_weight,
    tilted_cdf_values,
)

E = math.e
# the 10^6-path draws use the --threads default, at most 8 threads
THREADS = min(8, DEFAULT_THREADS)


def comb_se(e1, e2):
    return math.hypot(e1.stderr, e2.stderr)


@pytest.fixture(scope="module")
def ens_t1():
    """Shared 1e5-path ensemble at t=1 (drifts 0 and 1), seed 42."""
    cfg = MCConfig(100_000, 1024, 42)
    return cfg, am.sample_ensemble(1.0, (0.0, 1.0), cfg)


@pytest.fixture(scope="module")
def ens_t1_2e5():
    """Shared 2e5-path ensemble at t=1, used by the density-route checks."""
    cfg = MCConfig(200_000, 1024, 42)
    return cfg, am.sample_ensemble(1.0, (0.0, 1.0), cfg)


# ---------------------------------------------------------------------------
# validation and degenerate cases
# ---------------------------------------------------------------------------


def test_domain_errors():
    cfg = MCConfig(100, 8, 1)
    with pytest.raises(ValueError, match="positive"):
        am.cdf(-1.0, 1.0, 0.0, cfg)
    with pytest.raises(ValueError, match="positive"):
        am.density(1.0, 0.0, cfg)
    with pytest.raises(ValueError, match="positive"):
        am.joint_cdf(0.0, 1.0, 1.0, cfg)
    with pytest.raises(ValueError, match="positive"):
        am.call_kernel(0.0, 1.0, 0.0, cfg)
    with pytest.raises(ValueError, match="positive"):
        am.call_kernel_d1(1.0, 0.0, cfg)
    with pytest.raises(ValueError, match="method"):
        am.cdf(1.0, 1.0, 0.0, cfg, "bogus")
    with pytest.raises(ValueError, match="positive"):
        am.transform_expectation(lambda w, z: w, 0.0, 1.0, cfg)
    with pytest.raises(ValueError, match="bandwidth"):
        am.density(1.0, 1.0, cfg, "naive", bandwidth=2.0)


@pytest.mark.parametrize("name, call", [
    ("a", lambda cfg: am.cdf(math.inf, 1.0, 0.0, cfg)),
    ("t", lambda cfg: am.cdf(1.0, math.nan, 0.0, cfg)),
    ("nu", lambda cfg: am.cdf_weighted(1.0, 1.0, math.nan, cfg)),
    ("t", lambda cfg: am.density(1.0, math.inf, cfg)),
    ("b", lambda cfg: am.joint_cdf(math.inf, 1.0, 1.0, cfg)),
    ("nu", lambda cfg: am.call_kernel(1.0, 1.0, math.inf, cfg, "identity")),
    ("a", lambda cfg: am.call_kernel_d2(math.nan, 1.0, cfg)),
    ("t", lambda cfg: am.transform_expectation(lambda w, z: w, 1.0, math.inf, cfg)),
    ("s0", lambda cfg: am.OptionSpec(math.nan, 1.0, 1.0, 0.0, 1.0)),
    ("sigma", lambda cfg: am.OptionSpec(1.0, 1.0, math.inf, 0.0, 1.0)),
    ("rate", lambda cfg: am.OptionSpec(1.0, 1.0, 1.0, math.nan, 1.0)),
    ("t", lambda cfg: am.sample_batch(math.inf, 0.0, cfg)),
    ("t", lambda cfg: am.default_steps(math.nan)),
])
def test_nonfinite_inputs_rejected_naming_the_parameter(name, call):
    with pytest.raises(ValueError, match=rf"\b{name} must be finite"):
        call(MCConfig(64, 8, 1))


def test_supplied_ensemble_must_match_the_call_horizon_and_cfg():
    cfg = MCConfig(2000, 64, 1)
    ens = am.sample_ensemble(1.0, (0.0,), cfg)
    with pytest.raises(ValueError, match=r"drawn at t=1\.0 .* call is at t=4\.0"):
        am.cdf(1.0, 4.0, 0.0, cfg, "naive", ensemble=ens)
    with pytest.raises(ValueError, match="n_paths=2000.*n_paths=500"):
        am.cdf(1.0, 1.0, 0.0, MCConfig(500, 64, 1), "naive", ensemble=ens)
    # a batch the call does not read is not checked
    assert am.cdf(1.0, 4.0, 1.0, cfg, "naive", ensemble=ens).n_paths == 2000
    # a key the supplied ensemble lacks is drawn: the FD vega's moved horizons
    spec = am.OptionSpec(1.0, 1.0, 1.0, 0.0, 1.0)
    assert am.vega(spec, cfg, "fd", ensemble=ens).mean == am.vega(spec, cfg, "fd").mean


def test_estimate_validation():
    with pytest.raises(ValueError, match="finite"):
        Estimate(float("inf"), 0.0, 10, "naive")
    with pytest.raises(ValueError, match="stderr"):
        Estimate(0.0, -1.0, 10, "naive")
    # NaN fails every comparison, a "stderr < 0" test included
    with pytest.raises(ValueError, match="stderr must be nonnegative, got nan"):
        Estimate(0.0, float("nan"), 10, "naive")
    with pytest.raises(ValueError, match="stderr must be finite, got inf"):
        Estimate(0.0, float("inf"), 10, "naive")


def test_transform_rejects_nonfinite_f_with_path_index():
    cfg = MCConfig(64, 8, 3)

    def bad(w, z):
        out = np.ones_like(w)
        out[7] = np.inf
        return out

    with pytest.raises(ValueError, match="path index 7"):
        am.transform_expectation(bad, 1.0, 1.0, cfg)


def test_transform_checks_its_config_and_flags_a_coarse_grid():
    one = lambda w, z: np.ones_like(w)  # noqa: E731
    with pytest.raises(ValueError, match="an MCConfig is required"):
        am.transform_expectation(one, 1.0, 1.0, None)
    # as for the CDF: at a <= dt/2 the grid cannot resolve the threshold
    cfg = MCConfig(64, 8, 3)
    coarse = am.transform_expectation(one, 1.25, 20.0, cfg)
    assert coarse.flags == ("coarse-grid(dt=2.5)",)
    assert am.transform_expectation(one, 1.26, 20.0, cfg).flags == ()


def test_time_zero_degeneracy_is_exact():
    cfg = MCConfig(500, 8, 1)
    for nu in (0.0, 1.0, -0.5):
        for method in ("identity", "naive"):
            est = am.cdf(0.7, 0.0, nu, cfg, method)
            assert est.mean == 1.0 and est.stderr == 0.0
        k = am.call_kernel(0.4, 0.0, nu, cfg, "identity")
        assert k.mean == 0.0 and k.stderr == 0.0
        assert am.call_kernel(0.4, 0.0, nu, cfg, "naive").mean == 0.0
    tr = am.transform_expectation(lambda w, z: np.ones_like(w), 1.0, 0.0, cfg)
    assert tr.mean == 1.0 and tr.stderr == 0.0


def test_stable_exp_rate():
    assert am.stable_exp_rate(0.0, 1.0) == 1.0
    assert am.stable_exp_rate(1.0, 1.0) == pytest.approx(E - 1, rel=1e-15)
    assert am.stable_exp_rate(-0.5, 1.0) == pytest.approx((math.exp(-0.5) - 1) / -0.5, rel=1e-15)
    # series branch: (e^x - 1)/nu with x = nu*t tiny
    assert am.stable_exp_rate(1e-12, 2.0) == pytest.approx(2.0 * (1 + 1e-12), rel=1e-14)


# ---------------------------------------------------------------------------
# agreement with the naive oracle where the weights are tame
# ---------------------------------------------------------------------------


def test_transform_constant_large_threshold(ens_t1_2e5):
    cfg, ens = ens_t1_2e5
    est = am.transform_expectation(lambda w, z: np.ones_like(w), 5.0, 1.0, cfg, ensemble=ens)
    naive = am.cdf(5.0, 1.0, 0.0, cfg, "naive", ensemble=ens)
    assert abs(est.mean - naive.mean) <= 3 * comb_se(est, naive)


def test_transform_identity_function_recovers_moment(ens_t1):
    # f(w, z) = z with a huge threshold estimates E[A_1] = 1
    cfg, ens = ens_t1
    est = am.transform_expectation(lambda w, z: z, 100.0, 1.0, cfg, ensemble=ens)
    assert abs(est.mean - 1.0) <= 3 * est.stderr
    # the row multiplies f by the printed CDF weight, bit for bit the
    # transform's own out-of-place expression
    m, integ = ens[0.0].terminal, ens[0.0].integral
    shrink = 1.0 + integ / 100.0
    want = integ / shrink * np.exp(2.0 * m / (100.0 + integ) - 2.0 / 100.0)
    got = _TRANSFORM.methods[IDENTITY][1]({(1.0, 0.0): ens[0.0]}, f=lambda w, z: z,
                                          a=100.0, t=1.0)
    assert _same_bits(got, want) and est.mean == float(want.mean())


def test_tilted_cdf_matches_naive_for_drifted_integral(ens_t1):
    # the exponential-tilt builder (used by vega) on driftless paths against
    # the indicator on drift-1 paths
    cfg, ens = ens_t1
    vals = tilted_cdf_values(ens[0.0], 1.0, 1.0)
    se = float(vals.std(ddof=1) / math.sqrt(len(vals)))
    naive = am.cdf(1.0, 1.0, 1.0, cfg, "naive", ensemble=ens)
    assert abs(float(vals.mean()) - naive.mean) <= 3 * math.hypot(se, naive.stderr)


def test_kernel_cross_validation_at_figure_config_1e6():
    # the paper's variance-comparison configuration, naive oracle at 1e6 paths
    cfg = MCConfig(1_000_000, 512, 42)
    ens = am.sample_ensemble(0.5, (0.0,), cfg, threads=THREADS)
    ki = am.call_kernel(0.4, 0.5, 0.0, cfg, "identity", ensemble=ens)
    kn = am.call_kernel(0.4, 0.5, 0.0, cfg, "naive", ensemble=ens)
    assert abs(ki.mean - kn.mean) <= 3 * comb_se(ki, kn)


@pytest.mark.parametrize("nu,a", [(1.0, 0.4), (1.0, 1.0), (-0.5, 0.4), (-0.5, 1.0)])
def test_drifted_kernel_cross_validation_t1(nu, a):
    cfg = MCConfig(200_000, 1024, 42)
    ens = am.sample_ensemble(1.0, (0.0, nu), cfg)
    ki = am.call_kernel(a, 1.0, nu, cfg, "identity", ensemble=ens)
    kn = am.call_kernel(a, 1.0, nu, cfg, "naive", ensemble=ens)
    assert abs(ki.mean - kn.mean) <= 3 * comb_se(ki, kn)


def test_kernel_deep_out_of_the_money(ens_t1):
    cfg, ens = ens_t1
    ki = am.call_kernel(100.0, 1.0, 0.0, cfg, "identity", ensemble=ens)
    kn = am.call_kernel(100.0, 1.0, 0.0, cfg, "naive", ensemble=ens)
    assert kn.mean == 0.0
    assert abs(ki.mean) <= 3 * ki.stderr + 1e-6


def test_d1_tail_limits(ens_t1):
    cfg, ens = ens_t1
    right = am.call_kernel_d1(100.0, 1.0, cfg, "identity", ensemble=ens)
    assert abs(right.mean) <= 3 * right.stderr + 1e-6
    left = am.call_kernel_d1(0.05, 1.0, cfg, "identity", ensemble=ens)
    assert left.mean == pytest.approx(-1.0, abs=1e-9)


def test_density_left_tail_underflow_dominated(ens_t1):
    cfg, ens = ens_t1
    d = am.density(0.05, 1.0, cfg, "identity", ensemble=ens)
    assert abs(d.mean) < 1e-10
    d2 = am.call_kernel_d2(0.05, 1.0, cfg, "identity", ensemble=ens)
    assert abs(d2.mean) < 1e-10


def test_weighted_cdf_underflow_flag(ens_t1):
    cfg, ens = ens_t1
    est = am.cdf_weighted(0.001, 1.0, 0.0, cfg, ensemble=ens)
    assert est.mean == 0.0 and est.stderr == 0.0
    assert "tail-underflow" in est.flags


def test_d1_matches_fd_of_kernel_with_crn_at_1e6(driftless_1e6):
    # identity-family derivative against a common-random-number central
    # difference of the identity kernel, h = 1e-2
    cfg, ens = driftless_1e6
    d1 = am.call_kernel_d1(1.0, 1.0, cfg, "identity", ensemble=ens)
    h = 0.01
    vals = (kernel_identity_values(ens[0.0], 1.0 + h, 0.0)
            - kernel_identity_values(ens[0.0], 1.0 - h, 0.0)) / (2 * h)
    fd_se = float(vals.std(ddof=1) / math.sqrt(len(vals)))
    gap = abs(d1.mean - float(vals.mean()))
    assert gap <= 3 * math.hypot(d1.stderr, fd_se) + 2 * h * h


def test_d1_naive_matches_fd_of_naive_kernel(ens_t1):
    cfg, ens = ens_t1
    d1 = am.call_kernel_d1(1.0, 1.0, cfg, "naive", ensemble=ens)
    h = 0.01
    ku = am.call_kernel(1.0 + h, 1.0, 0.0, cfg, "naive", ensemble=ens)
    kd = am.call_kernel(1.0 - h, 1.0, 0.0, cfg, "naive", ensemble=ens)
    fd = (ku.mean - kd.mean) / (2 * h)
    assert abs(d1.mean - fd) <= 3 * math.hypot(d1.stderr, comb_se(ku, kd) / (2 * h)) + 2 * h * h


# ---------------------------------------------------------------------------
# density: two identity routes, naive oracle, normalization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_density_two_identity_routes_agree(a, ens_t1_2e5):
    # both routes use the same paths, so the gap is judged by the stderr of
    # the per-path difference
    cfg, ens = ens_t1_2e5
    lemma_route = am.density(a, 1.0, cfg, "identity", ensemble=ens)
    deriv_route = am.call_kernel_d2(a, 1.0, cfg, "identity", ensemble=ens)
    diff = density_identity_values(ens[0.0], ens[1.0], a) - kernel_d2_identity_values(ens[0.0], a)
    paired_se = float(diff.std(ddof=1) / math.sqrt(len(diff)))
    assert abs(lemma_route.mean - deriv_route.mean) <= 3 * paired_se


def test_density_against_naive_fd_oracle(ens_t1_2e5):
    cfg, ens = ens_t1_2e5
    h = 0.05
    ident = am.density(1.0, 1.0, cfg, "identity", ensemble=ens)
    naive = am.density(1.0, 1.0, cfg, "naive", ensemble=ens)
    assert abs(ident.mean - naive.mean) <= 3 * comb_se(ident, naive) + 2 * h * h


def test_density_nonnegative_within_noise(ens_t1_2e5):
    cfg, ens = ens_t1_2e5
    for a in (0.5, 1.0, 2.0, 4.0):
        est = am.density(a, 1.0, cfg, "identity", ensemble=ens)
        assert est.mean >= -3 * est.stderr


# ---------------------------------------------------------------------------
# joint CDF
# ---------------------------------------------------------------------------


def test_joint_marginalizes_to_cdf_exactly():
    # with b beyond any sampled terminal the indicator never bites
    cfg = MCConfig(10_000, 512, 3)
    ens = am.sample_ensemble(0.5, (0.0,), cfg)
    j = am.joint_cdf(1e6, 1.0, 0.5, cfg, "identity", ensemble=ens)
    c = am.cdf(1.0, 0.5, 0.0, cfg, "identity", ensemble=ens)
    assert j.mean == c.mean and j.stderr == c.stderr
    jn = am.joint_cdf(1e6, 1.0, 0.5, cfg, "naive", ensemble=ens)
    cn = am.cdf(1.0, 0.5, 0.0, cfg, "naive", ensemble=ens)
    assert jn.mean == pytest.approx(cn.mean, abs=1e-15)


def test_joint_cross_validation_tame_cell():
    cfg = MCConfig(100_000, 512, 42)
    ens = am.sample_ensemble(0.5, (0.0,), cfg)
    ji = am.joint_cdf(1.0, 1.0, 0.5, cfg, "identity", ensemble=ens)
    jn = am.joint_cdf(1.0, 1.0, 0.5, cfg, "naive", ensemble=ens)
    assert abs(ji.mean - jn.mean) <= 3 * comb_se(ji, jn)


@pytest.mark.parametrize("t", [0.25, 0.5, 1.0])
def test_joint_monotone_in_terminal_threshold(t):
    cfg = MCConfig(100_000, am.default_steps(t), 42)
    ens = am.sample_ensemble(t, (0.0,), cfg)
    for method in ("identity", "naive"):
        curve = [am.joint_cdf(b, t, t, cfg, method, ensemble=ens).mean
                 for b in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)]
        assert all(x <= y for x, y in zip(curve, curve[1:]))


def test_joint_surface_monotone_in_both_arguments_t1(ens_t1):
    cfg, ens = ens_t1
    bg, ag = (0.5, 1.0, 1.5, 2.0), (0.25, 0.5, 1.0, 2.0)
    surf = np.array([[am.joint_cdf(b, a, 1.0, cfg, "identity", ensemble=ens).mean
                      for a in ag] for b in bg])
    assert np.all(np.diff(surf, axis=0) >= 0)
    assert np.all(np.diff(surf, axis=1) >= 0)


# ---------------------------------------------------------------------------
# CDF shape properties
# ---------------------------------------------------------------------------


def test_cdf_bounds_on_grid(ens_t1):
    cfg, ens = ens_t1
    for a in (0.4, 1.0, 2.0):
        for nu in (0.0, 1.0):
            naive = am.cdf(a, 1.0, nu, cfg, "naive", ensemble=ens)
            assert 0.0 <= naive.mean <= 1.0
            ident = am.cdf(a, 1.0, nu, cfg, "identity", ensemble=ens)
            assert -3 * ident.stderr <= ident.mean <= 1.0 + 3 * ident.stderr


def test_identity_cdf_estimate_monotone_in_a_on_shared_paths(ens_t1):
    cfg, ens = ens_t1
    grid = np.arange(0.2, 3.001, 0.05)
    curve = [am.cdf(float(a), 1.0, 0.0, cfg, "identity", ensemble=ens).mean for a in grid]
    assert all(x <= y for x, y in zip(curve, curve[1:]))


def test_identity_cdf_integrand_is_not_pathwise_monotone(ens_t1):
    # The estimate curve above is monotone, but the per-path weight
    # exp(-2/a + 2M/(a+A)) is not: whenever M > ((a+A)/a)^2 it decreases
    # in a.  A noticeable fraction of paths end in that regime.
    _, ens = ens_t1
    batch = ens[0.0]
    frac = np.mean(batch.terminal > ((2.0 + batch.integral) / 2.0) ** 2)
    assert frac > 0.01


def test_truncated_moment_consistency_naive(ens_t1):
    # E[(A-a)^+] = t - a + int_0^a Pr[A <= u] du, checked within the naive
    # family where both sides are tame; the integral uses a 201-point
    # trapezoid whose bias is far below the Monte Carlo tolerance.
    cfg, ens = ens_t1
    kernel = am.call_kernel(1.0, 1.0, 0.0, cfg, "naive", ensemble=ens)
    ugrid = np.linspace(1e-6, 1.0, 201)
    cdf_curve = [am.cdf(float(u), 1.0, 0.0, cfg, "naive", ensemble=ens).mean for u in ugrid]
    rhs = float(np.trapezoid(cdf_curve, ugrid))
    assert abs(kernel.mean - (1.0 - 1.0 + rhs)) <= 3 * kernel.stderr + 2e-3


def test_mean_scaling_relation_across_horizons():
    # E[A_{t+s}] = E[A_t] + E[M_t] E[A_s] at the level of means,
    # independent batches, delta-method tolerance
    n = 100_000
    b15 = am.sample_batch(1.5, 0.0, MCConfig(n, 1536, 7))
    b10 = am.sample_batch(1.0, 0.0, MCConfig(n, 1024, 8))
    b05 = am.sample_batch(0.5, 0.0, MCConfig(n, 512, 9))
    lhs = b15.integral.mean()
    m_mean, m_se = b10.terminal.mean(), b10.terminal.std(ddof=1) / math.sqrt(n)
    a_mean, a_se = b05.integral.mean(), b05.integral.std(ddof=1) / math.sqrt(n)
    rhs = b10.integral.mean() + m_mean * a_mean
    se = math.sqrt(
        (b15.integral.std(ddof=1) / math.sqrt(n)) ** 2
        + (b10.integral.std(ddof=1) / math.sqrt(n)) ** 2
        + (a_mean * m_se) ** 2 + (m_mean * a_se) ** 2
    )
    assert abs(lhs - rhs) <= 3 * se


# ---------------------------------------------------------------------------
# bounded split weights; heavy-tail behavior of the printed weights
# ---------------------------------------------------------------------------


def test_identity_per_path_values_are_bounded(ens_t1):
    # Each path's identity value, read through the public estimators on a
    # one-path ensemble, at the paths where the printed weight
    # exp(2X/(a+A) - 2/a) is largest (about 37, 270 and 330 at a = 0.4, 1
    # and 2 on this ensemble): the split keeps cdf and joint_cdf in [0, 2]
    # and d1 in [-1, 1].
    cfg, ens = ens_t1
    one = MCConfig(1, cfg.n_steps, cfg.master_seed)
    for a in (0.4, 1.0, 2.0):
        heavy = set()
        for b in ens.values():
            heavy.update(np.argsort(b.terminal / (a + b.integral))[-10:].tolist())
        for i in sorted(heavy):
            path = {nu: PathBatch(1.0, nu, b.terminal[i:i + 1].copy(),
                                  b.integral[i:i + 1].copy(), one)
                    for nu, b in ens.items()}
            values = [am.cdf(a, 1.0, 0.0, one, ensemble=path).mean,
                      am.cdf(a, 1.0, 1.0, one, ensemble=path).mean,
                      am.joint_cdf(1.0, a, 1.0, one, ensemble=path).mean,
                      am.call_kernel_d1(a, 1.0, one, ensemble=path).mean + 1.0]
            assert all(0.0 <= v <= 2.0 for v in values), (a, i, values)


def test_indicator_free_drifted_cdf_fails_its_naive_check(ens_t1):
    # Mandatory check of the printed drifted-CDF route at nu=1: at 1e5 paths
    # it sits far below the naive CDF because the weight tail is undersampled.
    # That is why cdf() splits the weight; this test keeps the printed
    # route's number visible.  See notes in the module docstring.
    cfg, ens = ens_t1
    raw = am.cdf_weighted(1.0, 1.0, 1.0, cfg, ensemble=ens)
    naive = am.cdf(1.0, 1.0, 1.0, cfg, "naive", ensemble=ens)
    assert raw.mean < naive.mean - 3 * comb_se(raw, naive)


def test_indicator_free_driftless_cdf_undersamples_at_1e5(ens_t1):
    # Same phenomenon for the driftless weight form at a moderate threshold.
    cfg, ens = ens_t1
    ident = am.cdf_weighted(1.0, 1.0, 0.0, cfg, ensemble=ens)
    naive = am.cdf(1.0, 1.0, 0.0, cfg, "naive", ensemble=ens)
    assert ident.mean < naive.mean - 3 * comb_se(ident, naive)


# ---------------------------------------------------------------------------
# property-based checks (small path counts, many configurations)
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(a=st.floats(0.2, 5.0), t=st.floats(0.1, 2.0), seed=st.integers(0, 2**32 - 1))
def test_naive_cdf_always_in_unit_interval(a, t, seed):
    cfg = MCConfig(200, 16, seed)
    est = am.cdf(a, t, 0.0, cfg, "naive")
    assert 0.0 <= est.mean <= 1.0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), a=st.floats(0.3, 3.0))
def test_estimators_are_deterministic(seed, a):
    cfg = MCConfig(300, 16, seed)
    first = am.call_kernel(a, 1.0, 0.0, cfg, "identity")
    second = am.call_kernel(a, 1.0, 0.0, cfg, "identity")
    assert first.mean == second.mean and first.stderr == second.stderr


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_naive_kernel_monotone_in_threshold_pathwise(seed):
    cfg = MCConfig(300, 16, seed)
    ens = am.sample_ensemble(1.0, (0.0,), cfg)
    ks = [am.call_kernel(a, 1.0, 0.0, cfg, "naive", ensemble=ens).mean
          for a in (0.3, 0.6, 1.0, 2.0)]
    assert all(x >= y for x, y in zip(ks, ks[1:]))


# ---------------------------------------------------------------------------
# one split per (batch, threshold)
# ---------------------------------------------------------------------------


def test_split_is_shared_per_batch_and_threshold():
    ens = am.sample_ensemble(1.0, (0.0, 1.0), MCConfig(1500, 16, 3))
    body, tail = split_weight(ens[0.0], 1.0)
    again = split_weight(ens[0.0], 1.0)
    assert again[0] is body and again[1] is tail
    for other in (split_weight(ens[0.0], 2.0), split_weight(ens[1.0], 1.0)):
        assert other[0] is not body and other[1] is not tail
    for array in split_weight(ens[0.0], 1.0):
        assert array is not body and array is not tail
        with pytest.raises(ValueError):
            array[0] = 0.5


def _identity_routes(ens, cfg, a):
    """Every identity estimate at threshold a on the t = 1, drifts {0, 1}
    ensemble, each as a call still to be made."""
    spec = am.OptionSpec(1.0, a, 1.0, 0.03, 1.0)  # horizon 1, scale_a = a
    return [
        lambda: am.cdf(a, 1.0, 0.0, cfg, ensemble=ens),
        lambda: am.cdf(a, 1.0, 1.0, cfg, ensemble=ens),
        lambda: am.density(a, 1.0, cfg, ensemble=ens),
        lambda: am.joint_cdf(1.0, a, 1.0, cfg, ensemble=ens),
        lambda: am.call_kernel(a, 1.0, 0.0, cfg, ensemble=ens),
        lambda: am.call_kernel(a, 1.0, 0.5, cfg, ensemble=ens),
        lambda: am.call_kernel_d1(a, 1.0, cfg, ensemble=ens),
        lambda: am.call_kernel_d2(a, 1.0, cfg, ensemble=ens),
        *(lambda fn=fn: fn(spec, cfg, ensemble=ens)
          for fn in (am.price, am.delta, am.gamma, am.theta, am.vega)),
    ]


def test_call_order_moves_no_value():
    # every identity route reads the split its batch kept from the call
    # before it, in forward and in reverse order; each must equal the same
    # call on a freshly drawn ensemble, which has no split yet
    cfg = MCConfig(1500, 64, 3)  # two chunks
    thresholds = (0.3, 1.0, 1.0, 4.0, 0.3)
    n_routes = len(_identity_routes(None, cfg, 1.0))

    def key(e):
        return e.mean, e.stderr, e.flags

    fresh = {(a, i): key(_identity_routes(am.sample_ensemble(1.0, (0.0, 1.0), cfg), cfg, a)[i]())
             for a in set(thresholds) for i in range(n_routes)}
    calls = [(a, i) for a in thresholds for i in range(n_routes)]
    shared = am.sample_ensemble(1.0, (0.0, 1.0), cfg)
    for order in (calls, calls[::-1]):
        for a, i in order:
            assert key(_identity_routes(shared, cfg, a)[i]()) == fresh[a, i], (a, i)


def test_threads_sharing_a_batch_get_the_serial_values():
    ens = am.sample_ensemble(1.0, (0.0,), MCConfig(8192, 16, 5))
    cfg = ens[0.0].cfg
    thresholds = (0.5, 2.0)
    serial = {a: am.cdf(a, 1.0, 0.0, cfg, ensemble=ens) for a in thresholds}
    results = [[], []]

    def worker(out, offset):
        for k in range(200):
            a = thresholds[(k + offset) % 2]
            out.append((a, am.cdf(a, 1.0, 0.0, cfg, ensemble=ens)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=worker, args=(out, i)) for i, out in enumerate(results)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
            assert not w.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for out in results:
        assert len(out) == 200
        for a, e in out:
            assert (e.mean, e.stderr) == (serial[a].mean, serial[a].stderr), a


def test_dense_threshold_grid_keeps_one_split_per_batch():
    # the distribution demo's traffic: every curve, both methods, at each
    # threshold of a dense grid; afterwards each batch holds at most one
    # split (n floats and n bools), however many thresholds were read
    cfg = MCConfig(32768, 16, 9)
    ens = am.sample_ensemble(1.0, (0.0, 1.0), cfg)
    grid = [0.05 * k for k in range(1, 201)]

    def curves(a):
        for m in ("naive", "identity"):
            am.cdf(a, 1.0, 0.0, cfg, m, ensemble=ens)
            am.cdf(a, 1.0, 1.0, cfg, m, ensemble=ens)
            am.density(a, 1.0, cfg, m, ensemble=ens)
            am.joint_cdf(1.0, a, 1.0, cfg, m, ensemble=ens)
            am.call_kernel(a, 1.0, 0.0, cfg, m, ensemble=ens)
            am.call_kernel_d1(a, 1.0, cfg, m, ensemble=ens)
            am.call_kernel_d2(a, 1.0, cfg, m, ensemble=ens)

    def retained():
        # live blocks of 4 KiB and more: the interpreter's free lists keep
        # freed small objects, which tracemalloc counts as live
        gc.collect()
        return sum(tr.size for tr in tracemalloc.take_snapshot().traces if tr.size >= 4096)

    tracemalloc.start()
    try:
        before = retained()
        curves(grid[0])
        after_one = retained() - before
        for a in grid[1:]:
            curves(a)
        after_all = retained() - before
    finally:
        tracemalloc.stop()
    assert after_one <= 2 * cfg.n_paths * (8 + 1), after_one
    assert after_all <= after_one, (after_one, after_all)


# ---------------------------------------------------------------------------
# in-place builders, bit for bit against their out-of-place expressions
# ---------------------------------------------------------------------------


def _same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _reference_split(batch, a):
    """split_weight's driftless body and tail, as one out-of-place expression."""
    x, integ = batch.terminal, batch.integral
    tail = (x * a + integ > a) & (integ < a)
    y = x / (integ + a) * 2.0 - 2.0 / a
    return np.exp(np.minimum(y, 0.0)) * (y <= 0.0), tail


def _reference_drift_factor(batch, a):
    return (a / (batch.integral + a)) ** (2.0 * batch.nu)


def _reference_cdf(batch, a):
    body, tail = _reference_split(batch, a)
    if batch.nu != 0.0:
        body = body * _reference_drift_factor(batch, a)
    return body + tail


def _reference_kernel(batch0, a, nu):
    """kernel_identity_values in its printed out-of-place form: the split
    body times a (a/(a + A))^{2 nu}/(a + A), plus the tail factor (a - A), both
    times M^nu e^{nu t/2 - nu^2 t/2}, plus (e^{nu t} - 1)/nu - a."""
    body, tail = _reference_split(batch0, a)
    m, integ, t = batch0.terminal, batch0.integral, batch0.t
    ratio = a / (integ + a)
    if nu != 0.0:
        ratio = ratio ** (2.0 * nu + 1.0)
    values = body * ratio * a + (a - integ) * tail
    if nu != 0.0:
        values = values * (m ** nu * math.exp(nu * t / 2.0 - nu * nu * t / 2.0))
    return values + (am.stable_exp_rate(nu, t) - a)


def _reference_vega(spec, batch0):
    """The identity vega row's values and flag at rate > 0, out of place: the
    drift-1 survival through M^1 e^{t/2 - t/2} 1{A <= a}, the driftless one
    through the indicator."""
    a, sig, disc = spec.scale_a, spec.sigma, spec.discount
    m, integ, t = batch0.terminal, batch0.integral, batch0.t
    pv = spec.s0 / (spec.expiry * sig**2) * disc * kernel_identity_values(batch0, a, 0.0)
    surv1 = 1.0 - m ** 1.0 * math.exp(t / 2.0 - t / 2.0) * (integ <= a)
    surv0 = 1.0 - (integ <= a)
    values = (-2.0 / sig) * pv + (2.0 * spec.s0 / sig) * disc * surv1 \
        - (2.0 * spec.strike / sig) * disc * surv0
    printed = float(values.mean()) + (2.0 * spec.strike / sig) * (1.0 - disc) * float(surv0.mean())
    return values, (f"printed-form={printed:.17g}",)


def _drift_ensembles(nu, antithetic):
    """Batches at t = 1 and drifts {0, 1, nu}, keyed by (t, drift): the
    drawn ones, and the subset of their paths whose terminal exceeds 1.5
    and integral stays below 5 at every drift, so that at a = 20 the split
    keeps none of them."""
    cfg = MCConfig(3000, 16, 13, antithetic)  # three chunks, the last one short
    ens = am.sample_ensemble(1.0, sorted({0.0, 1.0, nu}), cfg)
    picked = np.all([(b.terminal > 1.5) & (b.integral < 5.0) for b in ens.values()], axis=0)
    few = {(1.0, d): PathBatch(1.0, d, b.terminal[picked].copy(), b.integral[picked].copy(), cfg)
           for d, b in ens.items()}
    return {(1.0, d): b for d, b in ens.items()}, few


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("nu", [0.0, 1.0, -0.5])
def test_in_place_builders_equal_their_out_of_place_expressions(nu, antithetic):
    full, few = _drift_ensembles(nu, antithetic)
    kept = {}
    for ens, a in [(full, 1e-3), (full, 0.7), (full, 2.5), (few, 20.0)]:
        b0, b1, bnu = ens[1.0, 0.0], ens[1.0, 1.0], ens[1.0, nu]
        body0, tail0 = _reference_split(b0, a)
        kept[a] = int(np.count_nonzero(b0.terminal * a <= b0.integral + a)), len(b0)
        cdf = {d: _reference_cdf(b, a) for d, b in ((0.0, b0), (1.0, b1), (nu, bnu))}
        h = 0.05 * a
        integ, m = b0.integral, b0.terminal
        root = integ / a + 1.0
        bound = root * root * 1.0  # b (1 + A/a)^2 at b = 1
        want = {
            ("cdf", IDENTITY): ({"nu": nu}, cdf[nu]),
            ("density", IDENTITY): ({}, (cdf[0.0] - cdf[1.0]) * (2.0 / a**2)),
            ("joint_cdf", IDENTITY): ({"b": 1.0}, body0 * (m <= bound) + (tail0 & (m <= 1.0))),
            ("call_kernel_d1", IDENTITY): ({}, cdf[0.0] - 1.0),
            ("call_kernel_d1", NAIVE): ({}, -1.0 + (integ <= a).astype(float)),
            ("density", NAIVE): ({"bandwidth": None},
                                 ((integ <= a + h).astype(float) - (integ <= a - h).astype(float))
                                 / (2.0 * h)),
            ("call_kernel_d2", NAIVE): ({"bandwidth": None},
                                        (np.maximum(integ - a - h, 0.0)
                                         - 2.0 * np.maximum(integ - a, 0.0)
                                         + np.maximum(integ - a + h, 0.0)) / h**2),
            ("call_kernel", NAIVE): ({"nu": nu}, np.maximum(bnu.integral - a, 0.0)),
        }
        for (quantity, method), (args, expected) in want.items():
            got = QUANTITIES[quantity].methods[method][1](ens, a=a, t=1.0, **args)
            if "bandwidth" in args:  # a finite-difference row names its bandwidth
                got, flags = got
                assert flags == (f"h={h:.17g}",), (quantity, a)
            assert _same_bits(got, expected), (quantity, method, a)
            before = got.copy()
            e = _wrap(got, method)
            assert e.mean == float(expected.mean()), (quantity, method, a)
            n = len(expected)
            assert e.stderr == math.sqrt(float(((expected - expected.mean()) ** 2).sum())
                                         / (n - 1)) / math.sqrt(n)
            assert _same_bits(got, before)
        # the option builders, at a spec of horizon 1 and scaled threshold
        # about a
        spec = am.OptionSpec(1.3, 1.3 * a, 0.5, 0.03, 4.0)
        ka = spec.scale_a
        assert spec.horizon == 1.0
        scale = spec.s0 / (spec.expiry * spec.sigma**2) * spec.discount
        pre = spec.sigma**2 * spec.strike**2 * spec.expiry / spec.s0**3 * spec.discount
        assert _same_bits(am.greeks.price_naive_values(ens, spec),
                          scale * np.maximum(b0.integral - ka, 0.0))
        assert _same_bits(am.greeks.price_identity_values(ens, spec),
                          scale * kernel_identity_values(b0, ka, 0.0))
        assert _same_bits(am.greeks.gamma_identity_values(ens, spec),
                          pre * density_identity_values(b0, b1, ka))
        assert _same_bits(kernel_identity_values(b0, a, nu), _reference_kernel(b0, a, nu))
        values, flags = QUANTITIES["vega"].methods[IDENTITY][1](ens, spec=spec)
        want, want_flags = _reference_vega(spec, b0)
        assert _same_bits(values, want) and flags == want_flags, a
        # each theta row is the pricing relation r p - r s0 d - (sigma^2 s0/2) g
        # on its own method's price, delta and gamma row values
        r, s0, sig = spec.rate, spec.s0, spec.sigma
        for method, price_method in ((IDENTITY, IDENTITY), ("fd", NAIVE)):
            p, d, g = [QUANTITIES[name].methods[m][1](ens, spec=spec) for name, m in
                       (("price", price_method), ("delta", method), ("gamma", method))]
            assert _same_bits(QUANTITIES["theta"].methods[method][1](ens, spec=spec),
                              r * p - r * s0 * d - 0.5 * sig**2 * s0 * g), (method, a)
    # the first differences of the naive price, on one ensemble that holds
    # every horizon they read: s0 at T, sigma and expiry at their moved ones
    cfg = full[1.0, 0.0].cfg
    up, dn, _ = am.greeks._moved(spec, "expiry", "theta")
    ens = shared_ensemble(cfg, [("delta", "fd", {"spec": spec}), ("vega", "fd", {"spec": spec})]
                          + [("price", NAIVE, {"spec": s}) for s in (up, dn)])
    for row, name, step in ((QUANTITIES["delta"], "s0", "delta"),
                            (QUANTITIES["vega"], "sigma", "vega"),
                            (am.greeks._THETA_EXPIRY, "expiry", "theta")):
        up, dn, h = am.greeks._central(spec, name, step, ens)
        want = -(up - dn) / (2.0 * h) if name == "expiry" else (up - dn) / (2.0 * h)
        assert _same_bits(row.methods["fd"][1](ens, spec=spec), want), name
    # the thresholds cover a split that keeps every path, some and none
    assert kept[1e-3][0] == kept[1e-3][1]
    assert 0 < kept[0.7][0] < kept[0.7][1] and 0 < kept[2.5][0] < kept[2.5][1]
    assert kept[20.0][0] == 0 < kept[20.0][1]


def test_wrap_takes_the_numpy_mean_and_leaves_its_input():
    rng = np.random.default_rng(4)
    for values in (rng.standard_normal(1), rng.standard_normal(1000) * 1e3 + 7.0,
                   rng.pareto(1.1, 4097), np.zeros(3)):
        before = values.copy()
        e = _wrap(values, NAIVE)
        assert e.mean == float(values.mean())
        assert _same_bits(values, before)
        assert e.stderr == (0.0 if len(values) == 1 else
                            math.sqrt(float(np.square(values - values.mean()).sum())
                                      / (len(values) - 1)) / math.sqrt(len(values)))


@pytest.mark.parametrize("nu", [0.0, 1.0, -0.5, 2.0])
def test_drifted_split_carries_the_drift_factor_once(nu):
    full, few = _drift_ensembles(nu, False)
    for ens in (full, few):
        batch = ens[1.0, nu]
        for a in (1e-3, 0.7, 2.5, 20.0):
            body, tail = split_weight(batch, a)
            ref_body, ref_tail = _reference_split(batch, a)
            assert _same_bits(body, ref_body * _reference_drift_factor(batch, a)), a
            assert _same_bits(tail, ref_tail), a
            if nu >= 0.0:
                assert body.max(initial=0.0) <= 1.0
            # shared and read-only
            again = split_weight(batch, a)
            assert again[0] is body and again[1] is tail
            for array in again:
                with pytest.raises(ValueError):
                    array[:1] = 0
            # the CDF is body + tail at every drift, with no second factor
            for d, b in ens.items():
                assert _same_bits(cdf_identity_values(b, a), np.add(*split_weight(b, a))), (d, a)
    if nu < 0.0:
        # the factor (1 + A/a)^{2|nu|} lifts the body above 1 on some paths
        assert split_weight(full[1.0, nu], 2.5)[0].max() > 1.0
