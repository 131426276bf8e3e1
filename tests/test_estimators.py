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

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asianmc as am
from asianmc import MCConfig, PathBatch, TransformParams
from asianmc.estimators import (
    Estimate,
    density_identity_values,
    kernel_d2_identity_values,
    kernel_identity_values,
    tilted_cdf_values,
)

E = math.e


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
        TransformParams(0.0, 1.0)
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
    ("t", lambda cfg: TransformParams(1.0, math.inf)),
    ("s0", lambda cfg: am.OptionSpec(math.nan, 1.0, 1.0, 0.0, 1.0)),
    ("sigma", lambda cfg: am.OptionSpec(1.0, 1.0, math.inf, 0.0, 1.0)),
    ("rate", lambda cfg: am.OptionSpec(1.0, 1.0, 1.0, math.nan, 1.0)),
    ("t", lambda cfg: am.sample_batch(math.inf, 0.0, cfg)),
    ("t", lambda cfg: am.default_steps(math.nan)),
])
def test_nonfinite_inputs_rejected_naming_the_parameter(name, call):
    with pytest.raises(ValueError, match=rf"\b{name} must be finite"):
        call(MCConfig(64, 8, 1))


def test_estimate_validation():
    with pytest.raises(ValueError, match="finite"):
        Estimate(float("inf"), 0.0, 10, "naive")
    with pytest.raises(ValueError, match="stderr"):
        Estimate(0.0, -1.0, 10, "naive")


def test_transform_rejects_nonfinite_f_with_path_index():
    cfg = MCConfig(64, 8, 3)

    def bad(w, z):
        out = np.ones_like(w)
        out[7] = np.inf
        return out

    with pytest.raises(ValueError, match="path index 7"):
        am.transform_expectation(bad, TransformParams(1.0, 1.0), cfg)


def test_time_zero_degeneracy_is_exact():
    cfg = MCConfig(500, 8, 1)
    for nu in (0.0, 1.0, -0.5):
        for method in ("identity", "naive"):
            est = am.cdf(0.7, 0.0, nu, cfg, method)
            assert est.mean == 1.0 and est.stderr == 0.0
        k = am.call_kernel(0.4, 0.0, nu, cfg, "identity")
        assert k.mean == 0.0 and k.stderr == 0.0
        assert am.call_kernel(0.4, 0.0, nu, cfg, "naive").mean == 0.0
    tr = am.transform_expectation(lambda w, z: np.ones_like(w),
                                  TransformParams(1.0, 0.0), cfg)
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
    est = am.transform_expectation(lambda w, z: np.ones_like(w),
                                   TransformParams(5.0, 1.0), cfg, ensemble=ens)
    naive = am.cdf(5.0, 1.0, 0.0, cfg, "naive", ensemble=ens)
    assert abs(est.mean - naive.mean) <= 3 * comb_se(est, naive)


def test_transform_identity_function_recovers_moment(ens_t1):
    # f(w, z) = z with a huge threshold estimates E[A_1] = 1
    cfg, ens = ens_t1
    est = am.transform_expectation(lambda w, z: z, TransformParams(100.0, 1.0),
                                   cfg, ensemble=ens)
    assert abs(est.mean - 1.0) <= 3 * est.stderr


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
    ens = am.sample_ensemble(0.5, (0.0,), cfg)
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


def test_d1_matches_fd_of_kernel_with_crn_at_1e6():
    # identity-family derivative against a common-random-number central
    # difference of the identity kernel, h = 1e-2
    cfg = MCConfig(1_000_000, 1024, 42)
    ens = am.sample_ensemble(1.0, (0.0,), cfg)
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
