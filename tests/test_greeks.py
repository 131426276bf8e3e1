"""Asian call price and Greeks: closed forms, exact relations, FD oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest

import asianmc as am
from asianmc import MCConfig, OptionSpec
from asianmc.estimators import IDENTITY, NAIVE, QUANTITIES, _estimates
from asianmc.greeks import (FD, FD_REL_STEP, SENSITIVITIES, _central, price_naive_values,
                            theta_fd_expiry)

FIG_CONFIG = OptionSpec(s0=1.0, strike=1.0, sigma=1.0, rate=0.0, expiry=1.0)


def comb_se(e1, e2):
    return math.hypot(e1.stderr, e2.stderr)


@pytest.fixture(scope="module")
def fig_env():
    cfg = MCConfig(100_000, 1024, 42)
    return cfg, am.sample_ensemble(1.0, (0.0, 1.0), cfg)


# ---------------------------------------------------------------------------
# validation and derived quantities
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError, match="s0"):
        OptionSpec(0.0, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="strike"):
        OptionSpec(1.0, -1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="sigma"):
        OptionSpec(1.0, 1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="expiry"):
        OptionSpec(1.0, 1.0, 1.0, 0.0, 0.0)
    # finite inputs whose horizon sigma^2 expiry or scale sigma^2 k expiry / s0
    # is not a positive finite number (zero scale is the zero strike's)
    for fields, message in (((1.0, 1.0, 1e200, 0.0, 1.0), "horizon .* finite"),
                            ((1.0, 1.0, 1e-200, 0.0, 1.0), "horizon .* positive"),
                            ((1.0, 1.0, 1e150, 0.0, 1e100), "horizon .* finite"),
                            ((1e-320, 1.0, 1.0, 0.0, 1.0), "scale .* finite"),
                            ((1e300, 1e-300, 1.0, 0.0, 1.0), "scale .* positive")):
        with pytest.raises(ValueError, match=message):
            OptionSpec(*fields)
    assert OptionSpec(1e300, 0.0, 1.0, 0.0, 1.0).scale_a == 0.0


def test_derived_scale_and_horizon():
    spec = OptionSpec(s0=2.0, strike=1.5, sigma=0.4, rate=0.03, expiry=2.0)
    assert spec.scale_a == pytest.approx(0.4**2 * 1.5 * 2.0 / 2.0, rel=1e-15)
    assert spec.horizon == pytest.approx(0.32, rel=1e-15)


# ---------------------------------------------------------------------------
# zero-strike closed forms (exact, two rate values)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rate", [0.03, 0.07])
def test_zero_strike_closed_forms(rate):
    spec = OptionSpec(1.3, 0.0, 0.8, rate, 1.5)
    cfg = MCConfig(100, 8, 1)
    disc = math.exp(-rate * 1.5)
    p = am.price(spec, cfg)
    assert p.mean == 1.3 * disc and p.stderr == 0.0 and "closed-form" in p.flags
    assert am.delta(spec, cfg).mean == disc
    assert am.gamma(spec, cfg).mean == 0.0
    assert am.vega(spec, cfg).mean == 0.0
    assert am.theta(spec, cfg).mean == 0.0
    assert theta_fd_expiry(spec, cfg).mean == 0.0
    vw = am.vega_weighted(spec, cfg)
    assert (vw.mean, vw.method, vw.flags) == (0.0, "identity-weighted", ("closed-form",))
    # an exact row still checks its method
    with pytest.raises(ValueError, match="unknown method"):
        am.price(spec, cfg, "bogus")


def test_zero_strike_discounting_is_exact_in_rate():
    cfg = MCConfig(100, 8, 1)
    p1 = am.price(OptionSpec(1.0, 0.0, 1.0, 0.02, 1.0), cfg)
    p2 = am.price(OptionSpec(1.0, 0.0, 1.0, 0.04, 1.0), cfg)
    assert p2.mean / p1.mean == pytest.approx(math.exp(-0.02), rel=1e-15)


# ---------------------------------------------------------------------------
# exact structural relations
# ---------------------------------------------------------------------------


def test_theta_equals_minus_half_sigma2_s0_gamma_at_zero_rate(fig_env):
    cfg, ens = fig_env
    g = am.gamma(FIG_CONFIG, cfg, ensemble=ens)
    th = am.theta(FIG_CONFIG, cfg, ensemble=ens)
    assert th.mean == -0.5 * FIG_CONFIG.sigma**2 * FIG_CONFIG.s0 * g.mean


@pytest.mark.parametrize("method", [IDENTITY, FD])
def test_theta_mean_is_the_mean_of_its_per_path_values(method):
    # at r > 0 and sigma^2 s0 / 2 not a power of two the mean of the per-path
    # relation and the relation of the three means differ in the last bits;
    # the estimate reports the former, the one its stderr belongs to
    spec = OptionSpec(1.3, 1.1, 0.7, 0.03, 1.5)
    cfg = MCConfig(3_000, 64, 42)
    nus = [nu for _, nu in QUANTITIES["theta"].keys(method, {"spec": spec})]
    ens = {(b.t, b.nu): b for b in am.sample_ensemble(spec.horizon, nus, cfg).values()}
    values = QUANTITIES["theta"].methods[method][1](ens, spec=spec)
    est = am.theta(spec, cfg, method, ensemble=ens)
    assert est.mean == float(values.mean())
    assert est.stderr == pytest.approx(float(values.std(ddof=1)) / math.sqrt(cfg.n_paths),
                                       rel=1e-12)


def test_gamma_nonnegative_within_noise(fig_env):
    cfg, ens = fig_env
    g = am.gamma(FIG_CONFIG, cfg, ensemble=ens)
    assert g.mean >= -3 * g.stderr


def test_price_nonincreasing_in_strike_on_shared_paths():
    cfg = MCConfig(50_000, 1024, 42)
    ens = am.sample_ensemble(1.0, (0.0,), cfg)
    prices = [am.price(OptionSpec(1.0, k, 1.0, 0.0, 1.0), cfg, "naive", ensemble=ens).mean
              for k in (0.5, 0.8, 1.0, 1.5, 2.0, 5.0)]
    assert all(x >= y for x, y in zip(prices, prices[1:]))


def test_deep_out_of_the_money_price_vanishes():
    spec = OptionSpec(1.0, 100.0, 1.0, 0.0, 1.0)
    cfg = MCConfig(100_000, 1024, 42)
    ens = am.sample_ensemble(spec.horizon, (0.0,), cfg)
    pn = am.price(spec, cfg, "naive", ensemble=ens)
    assert pn.mean == 0.0
    pi = am.price(spec, cfg, "identity", ensemble=ens)
    assert abs(pi.mean) <= 3 * pi.stderr + 1e-6


# ---------------------------------------------------------------------------
# finite-difference oracles
# ---------------------------------------------------------------------------


def test_fd_delta_value_is_stable(fig_env):
    cfg, ens = fig_env
    fd = am.delta(FIG_CONFIG, cfg, FD, ensemble=ens)
    # frozen band from the CRN pathwise limit at this configuration
    assert fd.mean == pytest.approx(0.591, abs=0.01)


def test_price_identity_vs_naive_at_1e6(driftless_1e6):
    # naive Monte Carlo price oracle at 10^6 paths, shared increments
    cfg, ens = driftless_1e6
    pi = am.price(FIG_CONFIG, cfg, "identity", ensemble=ens)
    pn = am.price(FIG_CONFIG, cfg, "naive", ensemble=ens)
    assert abs(pi.mean - pn.mean) <= 3 * comb_se(pi, pn)


# Linetsky (2004), "Spectral expansions for Asian (average price) options",
# Operations Research 52(6): continuously averaged fixed-strike calls on a
# dividend-free stock, (rate, sigma, expiry, s0) -> price at strike 2
LINETSKY_STRIKE = 2.0
LINETSKY_PRICES = [
    ((0.02, 0.10, 1.0, 2.0), 0.0559860415),
    ((0.18, 0.30, 1.0, 2.0), 0.2183875466),
    ((0.0125, 0.25, 2.0, 2.0), 0.1722687410),
    ((0.05, 0.50, 1.0, 1.9), 0.1931737903),
    ((0.05, 0.50, 1.0, 2.0), 0.2464156905),
    ((0.05, 0.50, 1.0, 2.1), 0.3062203648),
    ((0.05, 0.50, 2.0, 2.0), 0.3500952190),
]


def test_call_kernel_prices_match_linetsky():
    # an oracle that uses neither Monte Carlo family: in effective time
    # sigma^2 u the stock's average is (s0/sigma^2) A^{(nu)} with
    # nu = r/sigma^2, so the price is e^{-rT} s0/(sigma^2 T) call_kernel(a,
    # sigma^2 T, nu) at a = sigma^2 K T/s0, on the default grid.  Cases of
    # one (horizon, drift) read one ensemble, and both methods read it, so
    # the fourteen z-scores are judged as one set
    drawn = {}
    for (r, sigma, expiry, s0), want in LINETSKY_PRICES:
        t, nu = sigma**2 * expiry, r / sigma**2
        if (t, nu) not in drawn:
            cfg = MCConfig(100_000, am.default_steps(t), 2025)
            drawn[t, nu] = cfg, am.sample_ensemble(t, (nu,), cfg, threads=2)
        cfg, ens = drawn[t, nu]
        scale = math.exp(-r * expiry) * s0 / t
        for method in ("naive", "identity"):
            k = am.call_kernel(sigma**2 * LINETSKY_STRIKE * expiry / s0, t, nu, cfg, method,
                               ensemble=ens)
            assert abs(scale * k.mean - want) <= 3 * scale * k.stderr, (r, sigma, expiry, s0,
                                                                        method, k)


def test_vega_adjudication_discount_on_strike_term():
    """The rate question: the derivative of the discounted price requires the
    strike survival term to carry e^{-r tau}; the printed form without it
    disagrees with the CRN finite difference far beyond noise.  Checked with
    fully tame survival estimators so the comparison has power.
    """
    spec = OptionSpec(1.0, 1.0, 1.0, 0.05, 1.0)
    cfg = MCConfig(200_000, 1024, 42)
    ens = am.sample_ensemble(spec.horizon, (0.0,), cfg)
    b0 = ens[0.0]
    sig, disc, a = spec.sigma, spec.discount, spec.scale_a
    surv1 = 1.0 - b0.terminal * (b0.integral <= a)
    surv0 = 1.0 - (b0.integral <= a)
    pv = am.greeks.price_naive_values({(spec.horizon, 0.0): b0}, spec)
    vals = (-2 / sig) * pv + (2 * spec.s0 / sig) * disc * surv1 \
        - (2 * spec.strike / sig) * disc * surv0
    discounted = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(len(vals)))
    printed = discounted + (2 * spec.strike / sig) * (1 - disc) * float(surv0.mean())
    fd = am.vega(spec, cfg, FD)
    assert abs(discounted - fd.mean) <= 3 * math.hypot(se, fd.stderr)
    assert abs(printed - fd.mean) > 3 * math.hypot(se, fd.stderr)


def test_vega_carries_printed_variant_flag_at_positive_rate():
    spec = OptionSpec(1.0, 1.0, 1.0, 0.05, 1.0)
    cfg = MCConfig(20_000, 1024, 42)
    v = am.vega(spec, cfg)
    assert any(f.startswith("printed-form=") for f in v.flags)
    printed = float(next(f for f in v.flags if f.startswith("printed-form=")).split("=")[1])
    assert printed > v.mean  # dropping the discount inflates the term being subtracted less
    v0 = am.vega(FIG_CONFIG, cfg)
    assert v0.flags == ()


def test_vega_weighted_route_is_noisier_than_default(fig_env):
    cfg, ens = fig_env
    v = am.vega(FIG_CONFIG, cfg, ensemble=ens)
    vw = am.vega_weighted(FIG_CONFIG, cfg, ensemble=ens)
    assert vw.stderr > v.stderr
    assert vw.method == "identity-weighted"


def test_pricing_relation_theta_differs_from_time_decay():
    """The theta returned by the pricing relation r*C - r*s0*D - (sigma^2 s0/2)*G
    is not the time decay of the fresh-start price: the relation omits the
    averaging-state sensitivity.  Measured with tame FD Greeks so the gap
    (about -0.33 vs -0.11 here) stands out far beyond noise.
    """
    cfg = MCConfig(100_000, 1024, 42)
    ens = am.sample_ensemble(1.0, (0.0,), cfg)
    th_relation = am.theta(FIG_CONFIG, cfg, FD, ensemble=ens)
    th_decay = theta_fd_expiry(FIG_CONFIG, cfg)
    assert abs(th_relation.mean - th_decay.mean) > 10 * comb_se(th_relation, th_decay)
    assert th_relation.mean < th_decay.mean < 0.0


def test_fd_vega_bumped_prices_equal_fresh_draws_at_each_horizon():
    # both bumped horizons are read from one draw of normals, the ensemble
    # that the report's loop gives the FD vega; each must equal a separate
    # draw at that horizon, bit for bit (1500 paths: two chunks)
    spec = OptionSpec(s0=1.0, strike=1.1, sigma=0.8, rate=0.02, expiry=1.5)
    cfg = MCConfig(1_500, 64, 3)
    _, _, vega = next(_estimates([(cfg, (cfg.n_steps,), [(None, QUANTITIES["vega"], FD,
                                                          {"spec": spec})])]))
    up, dn, h = _central(spec, "sigma", "vega", vega.args[3])  # _estimate(q, cfg, method, ens)
    assert h == FD_REL_STEP["vega"] * spec.sigma
    for values, sigma in ((up, spec.sigma + h), (dn, spec.sigma - h)):
        moved = replace(spec, sigma=sigma)
        t = moved.horizon
        fresh = price_naive_values({(t, 0.0): am.sample_batch(t, 0.0, cfg)}, moved)
        np.testing.assert_array_equal(values, fresh)


def test_theta_fd_expiry_draws_one_chunk_for_both_horizons(monkeypatch):
    calls = []
    draw = am.paths._chunk_normals
    monkeypatch.setattr(am.paths, "_chunk_normals",
                        lambda *a, **k: calls.append(a) or draw(*a, **k))
    est = theta_fd_expiry(FIG_CONFIG, MCConfig(64, 8, 1))
    assert math.isfinite(est.mean)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def test_greek_report_structure():
    cfg = MCConfig(5_000, 256, 11)
    report = am.greek_report(FIG_CONFIG, cfg, fd_check=True)
    assert report.method == "identity"
    assert set(report.fd_cross_checks) == {"delta", "gamma", "theta", "vega"}
    for est in (report.price, report.delta, report.gamma, report.theta, report.vega):
        assert est.n_paths == 5_000
        assert math.isfinite(est.mean)
    assert report.theta.mean == -0.5 * report.gamma.mean


@pytest.mark.parametrize("method", ["identity", "naive"])
def test_greek_report_estimates_equal_stand_alone_calls(method):
    # the report reads every horizon and drift from one draw of normals;
    # each of its estimates must equal the call that draws its own paths,
    # bit for bit (1500 paths: two chunks; rate > 0 adds the vega flag)
    spec = OptionSpec(s0=1.0, strike=1.1, sigma=0.8, rate=0.02, expiry=1.5)
    cfg = MCConfig(1_500, 64, 3)
    report = am.greek_report(spec, cfg, method, fd_check=True)
    greek_method = FD if method == "naive" else method
    pairs = [(report.price, am.price(spec, cfg, method))] + [
        (getattr(report, name), getattr(am, name)(spec, cfg, greek_method))
        for name in report.fd_cross_checks]
    pairs += [(est, getattr(am, name)(spec, cfg, FD))
              for name, est in report.fd_cross_checks.items()]
    assert len(pairs) == 9
    for got, alone in pairs:
        assert (got.mean, got.stderr, got.flags, got.method) == \
            (alone.mean, alone.stderr, alone.flags, alone.method)
    assert any(flag.startswith("printed-form=") for flag in report.vega.flags) \
        == (method == "identity")


@pytest.mark.parametrize("method, fd_check, greek_methods", [
    (IDENTITY, True, (IDENTITY, FD)),
    (IDENTITY, False, (IDENTITY,)),
    (NAIVE, True, (FD,)),  # the FD Greeks are the cross-checks: 9 calls before
    (NAIVE, False, (FD,)),
])
def test_greek_report_estimates_each_row_and_method_once(monkeypatch, method, fd_check,
                                                         greek_methods):
    # the report's one group estimates the price at its price method, then
    # each sensitivity at its Greek method and, with fd_check, at fd, unless
    # that is the Greek method; each (row, method) once, counted by a wrapper
    calls = []
    estimate = am.estimators._estimate

    def counted(q, cfg, m, ensemble, **args):
        calls.append((next(name for name, row in QUANTITIES.items() if row is q), m))
        return estimate(q, cfg, m, ensemble, **args)

    monkeypatch.setattr(am.estimators, "_estimate", counted)
    spec = OptionSpec(s0=1.0, strike=1.1, sigma=0.8, rate=0.02, expiry=1.5)
    report = am.greek_report(spec, MCConfig(300, 16, 3), method, fd_check)
    assert calls == [("price", method)] + [(name, m) for name in SENSITIVITIES
                                           for m in greek_methods]
    assert len(calls) == 9 if method == IDENTITY and fd_check else len(calls) == 5
    if fd_check:
        greeks = {name: getattr(report, name) for name in SENSITIVITIES}
        assert (report.fd_cross_checks == greeks) == (method == NAIVE)


@pytest.mark.parametrize("method", ["fd", "bogus"])
def test_greek_report_takes_only_its_two_methods(method):
    # the identity price over FD Greeks is not a report method
    with pytest.raises(ValueError, match=rf"^method must be one of naive, identity, "
                                         rf"got '{method}'$"):
        am.greek_report(FIG_CONFIG, MCConfig(100, 8, 1), method, fd_check=True)


def test_greek_report_zero_strike():
    spec = OptionSpec(1.0, 0.0, 1.0, 0.05, 1.0)
    report = am.greek_report(spec, MCConfig(100, 8, 1), fd_check=True)
    assert report.price.mean == pytest.approx(math.exp(-0.05), rel=1e-15)
    assert report.delta.mean == pytest.approx(math.exp(-0.05), rel=1e-15)
    assert report.gamma.mean == 0.0 and report.vega.mean == 0.0 and report.theta.mean == 0.0


def test_naive_method_report_uses_fd_sensitivities():
    cfg = MCConfig(2_000, 128, 2)
    report = am.greek_report(FIG_CONFIG, cfg, method="naive")
    assert report.price.method == "naive"
    assert report.delta.method == "fd"


def test_unknown_method_rejected():
    cfg = MCConfig(100, 8, 1)
    for fn in (am.price, am.delta, am.gamma, am.theta, am.vega):
        with pytest.raises(ValueError, match="method"):
            fn(FIG_CONFIG, cfg, "bogus")
