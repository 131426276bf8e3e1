"""Fixed-strike Asian call price and sensitivities at the start of averaging.

The pricing expectation is driftless: the rate enters only through the
discount factor, and the market inputs collapse into the derived scale
``a = sigma^2 * strike * expiry / s0`` and the effective horizon
``T = sigma^2 * expiry``.  All sensitivities are exact transformations of the
distribution estimators in :mod:`asianmc.estimators`; finite-difference
cross-checks with common random numbers are built in.  The price and each
Greek are option rows of the quantity table, and so are the comparison
routes :func:`vega_weighted` and :func:`theta_fd_expiry` (private rows):
every public function here is one call of ``estimators._estimate``.  At
strike 0 every row is exact, and such a call draws no paths.  A report
reads every horizon and drift it needs (the driftless and drift-1 batches
at T, and the FD vega's two sigma-moved horizons) from one draw of normals.

Method tags: ``identity`` uses the closed-form transformed estimators,
``naive`` prices the raw discounted payoff, ``fd`` differentiates the naive
price with common random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from .estimators import (
    IDENTITY,
    NAIVE,
    QUANTITIES,
    Estimate,
    Quantity,
    _estimate,
    _excess,
    density_identity_values,
    kernel_identity_values,
    shared_ensemble,
    split_weight,
    tilted_cdf_values,
    weighted_cdf_values,
)
from .paths import NONNEGATIVE, POSITIVE, MCConfig, PathBatch, check_param

FD = "fd"

# Relative finite-difference steps, all with common random numbers.
FD_REL_STEP = {"delta": 1e-2, "gamma": 5e-2, "theta": 5e-2, "vega": 1e-2}

# The OptionSpec fields and the bound each is held to.
OPTION_PARAMS = {"s0": POSITIVE, "strike": NONNEGATIVE, "sigma": POSITIVE,
                 "rate": NONNEGATIVE, "expiry": POSITIVE}


@dataclass(frozen=True)
class OptionSpec:
    """Market inputs for a fixed-strike Asian call.

    Attributes:
        s0: initial asset price (> 0).
        strike: fixed strike (>= 0; 0 collapses every Greek to closed form).
        sigma: volatility per sqrt(year) (> 0).
        rate: continuously compounded rate per year (>= 0).
        expiry: years to expiry, equal to the averaging window (> 0).
    """

    s0: float
    strike: float
    sigma: float
    rate: float
    expiry: float

    def __post_init__(self) -> None:
        for name, bound in OPTION_PARAMS.items():
            check_param(name, getattr(self, name), bound)

    @property
    def scale_a(self) -> float:
        """Strike threshold in integrated-Brownian units: sigma^2 k tau / s0."""
        return self.sigma**2 * self.strike * self.expiry / self.s0

    @property
    def horizon(self) -> float:
        """Effective time horizon sigma^2 tau of the driftless integral."""
        return self.sigma**2 * self.expiry

    @property
    def discount(self) -> float:
        return math.exp(-self.rate * self.expiry)


@dataclass(frozen=True)
class GreekReport:
    """Price and the four sensitivities, with optional FD cross-checks."""

    spec: OptionSpec
    method: str
    price: Estimate
    delta: Estimate
    gamma: Estimate
    theta: Estimate
    vega: Estimate
    fd_cross_checks: Mapping[str, Estimate] | None = None


# ---------------------------------------------------------------------------
# per-path values
# ---------------------------------------------------------------------------


def price_naive_values(spec: OptionSpec, batch: PathBatch) -> np.ndarray:
    """Discounted payoff per path: (s0 / (tau sigma^2)) e^{-r tau} (A - a)^+."""
    values = _excess(batch.integral, spec.scale_a)
    values *= spec.s0 / (spec.expiry * spec.sigma**2) * spec.discount
    return values


def price_identity_values(spec: OptionSpec, batch0: PathBatch) -> np.ndarray:
    values = kernel_identity_values(batch0, spec.scale_a, 0.0)
    values *= spec.s0 / (spec.expiry * spec.sigma**2) * spec.discount
    return values


def delta_identity_values(spec: OptionSpec, batch0: PathBatch) -> np.ndarray:
    """Transformed-measure delta: the printed closed-form weight combination.

    e^{-r tau} + (k/s0) e^{-r tau - 2/a} { a E[(a+A)^{-1} e^{2M/(a+A)}]
                                           - E[e^{2M/(a+A)}] }.
    The bracket's weight -A/(a+A) e^{Y - 2/a} is split by
    :func:`~asianmc.estimators.split_weight`; its tail factor is -A/a.
    """
    a = spec.scale_a
    integ = batch0.integral
    body, tail = split_weight(batch0, a)
    scratch = integ + a
    np.divide(integ, scratch, out=scratch)
    values = body * scratch
    np.divide(integ, a, out=scratch)
    scratch *= tail
    values += scratch
    values *= -(spec.strike / spec.s0) * spec.discount
    values += spec.discount
    return values


def gamma_identity_values(spec: OptionSpec, batch0: PathBatch, batch1: PathBatch) -> np.ndarray:
    values = density_identity_values(batch0, batch1, spec.scale_a)
    values *= spec.sigma**2 * spec.strike**2 * spec.expiry / spec.s0**3 * spec.discount
    return values


def vega_identity_values(spec: OptionSpec, batch0: PathBatch) -> np.ndarray:
    """Vega per path from survival probabilities on shared driftless paths.

    -(2/sigma) price + (2 s0/sigma) e^{-r tau} P[A^{(1)} > a]
                     - (2 k/sigma) e^{-r tau} P[A > a],
    with the drift-1 survival through the exponential-tilt weight M 1{A<=a}
    (:func:`~asianmc.estimators.tilted_cdf_values`) and the driftless
    survival through the plain indicator.  Both discount
    factors follow the price derivative; see vega() for the undiscounted
    printed variant and vega_weighted() for the indicator-free route.
    """
    a = spec.scale_a
    return _vega_relation(spec, price_identity_values(spec, batch0),
                          1.0 - tilted_cdf_values(batch0, a, 1.0), 1.0 - (batch0.integral <= a))


def _vega_relation(spec: OptionSpec, pv: np.ndarray, surv1: np.ndarray,
                   surv0: np.ndarray) -> np.ndarray:
    """-(2/sigma) price + (2 s0/sigma) e^{-r tau} surv1 - (2 k/sigma) e^{-r tau} surv0."""
    sig = spec.sigma
    return (-2.0 / sig) * pv \
        + (2.0 * spec.s0 / sig) * spec.discount * surv1 \
        - (2.0 * spec.strike / sig) * spec.discount * surv0


def _moved(spec: OptionSpec, name: str, step: str) -> tuple[OptionSpec, OptionSpec, float]:
    """``spec`` with field ``name`` moved up and down by h, and h = FD_REL_STEP[step] times it."""
    x = getattr(spec, name)
    h = FD_REL_STEP[step] * x
    return replace(spec, **{name: x + h}), replace(spec, **{name: x - h}), h


def _moved_keys(spec: OptionSpec, name: str, step: str) -> tuple[tuple[float, float], ...]:
    """The driftless (horizon, drift) keys the two moved specs are priced on."""
    return tuple((s.horizon, 0.0) for s in _moved(spec, name, step)[:2])


def _central(spec: OptionSpec, name: str, step: str,
             ens: Mapping[tuple[float, float], PathBatch]) -> tuple[np.ndarray, np.ndarray, float]:
    """Naive prices of the two moved specs of :func:`_moved`, and h.

    Each moved spec is priced on the driftless batch of ``ens`` at its own
    horizon: the base horizon for a move in s0, a moved one for a move in
    sigma or expiry.
    """
    up, dn, h = _moved(spec, name, step)
    return (price_naive_values(up, ens[up.horizon, 0.0]),
            price_naive_values(dn, ens[dn.horizon, 0.0]), h)


def _pricing_relation(spec: OptionSpec, p: np.ndarray, d: np.ndarray, g: np.ndarray,
                      d_den: float = 1.0, g_den: float = 1.0):
    """Theta r p - r s0 d - (sigma^2 s0 / 2) g per path, as (values, mean, flags).

    ``d / d_den`` and ``g / g_den`` are the per-path delta and gamma; the
    finite-difference theta passes its quotients' numerators and denominators
    apart, which keeps the operation order, and so every bit, of its
    influence.  The mean is the same combination of the three means.
    """
    r, s0, sig = spec.rate, spec.s0, spec.sigma
    mean = (r * float(p.mean()) - r * s0 * float((d / d_den).mean())
            - 0.5 * sig**2 * s0 * float((g / g_den).mean()))
    return r * p - r * s0 * d / d_den - 0.5 * sig**2 * s0 * g / g_den, mean, ()


def _delta_fd_values(ens, spec, **_) -> np.ndarray:
    up, dn, h = _central(spec, "s0", "delta", ens)
    return (up - dn) / (2.0 * h)


def _gamma_fd_values(ens, spec, **_) -> np.ndarray:
    up, dn, h = _central(spec, "s0", "gamma", ens)
    return (up - 2.0 * price_naive_values(spec, ens[spec.horizon, 0.0]) + dn) / h**2


def _theta_identity_values(ens, spec, **_):
    batch0 = ens[spec.horizon, 0.0]
    return _pricing_relation(spec, price_identity_values(spec, batch0),
                             delta_identity_values(spec, batch0),
                             gamma_identity_values(spec, batch0, ens[spec.horizon, 1.0]))


def _theta_fd_values(ens, spec, **_):
    pv = price_naive_values(spec, ens[spec.horizon, 0.0])
    up_d, dn_d, h_d = _central(spec, "s0", "delta", ens)
    up_g, dn_g, h_g = _central(spec, "s0", "gamma", ens)
    return _pricing_relation(spec, pv, up_d - dn_d, up_g - 2.0 * pv + dn_g, 2.0 * h_d, h_g**2)


def _vega_identity_values(ens, spec, **_):
    batch0 = ens[spec.horizon, 0.0]
    values = vega_identity_values(spec, batch0)
    if not spec.rate > 0.0:
        return values
    undiscounted = float(values.mean()) + (2.0 * spec.strike / spec.sigma) \
        * (1.0 - spec.discount) * float((1.0 - (batch0.integral <= spec.scale_a)).mean())
    return values, None, (f"printed-form={undiscounted:.17g}",)


def _vega_fd_values(ens, spec, **_) -> np.ndarray:
    up, dn, h = _central(spec, "sigma", "vega", ens)
    return (up - dn) / (2.0 * h)


def _vega_weighted_values(ens, spec, **_) -> np.ndarray:
    t, a = spec.horizon, spec.scale_a
    return _vega_relation(spec, price_identity_values(spec, ens[t, 0.0]),
                          1.0 - weighted_cdf_values(ens[t, 1.0], a),
                          1.0 - weighted_cdf_values(ens[t, 0.0], a))


def _theta_expiry_values(ens, spec, **_) -> np.ndarray:
    up, dn, h = _central(spec, "expiry", "theta", ens)
    return -(up - dn) / (2.0 * h)


# ---------------------------------------------------------------------------
# the option rows of the quantity table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Option(Quantity):
    """A quantity whose public function takes one OptionSpec, valid by construction.

    At strike 0 the payoff is the average itself, so every row is exact
    there: the price is s0 e^{-r tau}, delta e^{-r tau} and every other
    sensitivity 0.  ``zero_strike(spec)`` is the row's value, 0 unless the
    row says otherwise.
    """

    zero_strike: Callable[[OptionSpec], float] = lambda spec: 0.0
    defaults = {"s0": 1.0, "strike": 1.0, "sigma": 1.0, "rate": 0.0, "expiry": 1.0}
    module = __name__

    def arguments(self, point: Mapping[str, float]) -> dict:
        return {"spec": OptionSpec(**point)}

    def horizon(self, args: Mapping) -> float:
        return args["spec"].horizon

    def check(self, args: Mapping) -> None:
        pass

    def exact(self, args: Mapping) -> float | None:
        spec = args["spec"]
        return self.zero_strike(spec) if spec.strike == 0.0 else None


QUANTITIES.update(
    price=_Option(OPTION_PARAMS, {
        NAIVE: ((0.0,), lambda ens, spec, **_: price_naive_values(spec, ens[spec.horizon, 0.0])),
        IDENTITY: ((0.0,),
                   lambda ens, spec, **_: price_identity_values(spec, ens[spec.horizon, 0.0])),
    }, zero_strike=lambda spec: spec.s0 * spec.discount),
    delta=_Option(OPTION_PARAMS, {
        IDENTITY: ((0.0,),
                   lambda ens, spec, **_: delta_identity_values(spec, ens[spec.horizon, 0.0])),
        FD: ((0.0,), _delta_fd_values),
    }, zero_strike=lambda spec: spec.discount),
    gamma=_Option(OPTION_PARAMS, {
        IDENTITY: ((0.0, 1.0), lambda ens, spec, **_: gamma_identity_values(
            spec, ens[spec.horizon, 0.0], ens[spec.horizon, 1.0])),
        FD: ((0.0,), _gamma_fd_values),
    }),
    theta=_Option(OPTION_PARAMS, {
        IDENTITY: ((0.0, 1.0), _theta_identity_values),
        FD: ((0.0,), _theta_fd_values),
    }),
    vega=_Option(OPTION_PARAMS, {
        IDENTITY: ((0.0,), _vega_identity_values),
        FD: (lambda spec: _moved_keys(spec, "sigma", "vega"), _vega_fd_values),
    }),
)


# the routes kept for side-by-side comparison, each a private row
_VEGA_WEIGHTED = _Option(OPTION_PARAMS, {"identity-weighted": ((0.0, 1.0), _vega_weighted_values)})
_THETA_EXPIRY = _Option(OPTION_PARAMS, {
    FD: (lambda spec: _moved_keys(spec, "expiry", "theta"), _theta_expiry_values)})


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def price(spec: OptionSpec, cfg: MCConfig, method: str = IDENTITY, *,
          ensemble: Mapping[float, PathBatch] | None = None) -> Estimate:
    """Asian call price at the start of the averaging period."""
    return _estimate(QUANTITIES["price"], cfg, method, ensemble, spec=spec)


def delta(spec: OptionSpec, cfg: MCConfig, method: str = IDENTITY, *,
          ensemble: Mapping[float, PathBatch] | None = None) -> Estimate:
    """Sensitivity of the price to s0."""
    return _estimate(QUANTITIES["delta"], cfg, method, ensemble, spec=spec)


def gamma(spec: OptionSpec, cfg: MCConfig, method: str = IDENTITY, *,
          ensemble: Mapping[float, PathBatch] | None = None) -> Estimate:
    """Second sensitivity to s0; proportional to the density of the integral."""
    return _estimate(QUANTITIES["gamma"], cfg, method, ensemble, spec=spec)


def theta(spec: OptionSpec, cfg: MCConfig, method: str = IDENTITY, *,
          ensemble: Mapping[float, PathBatch] | None = None) -> Estimate:
    """Theta from the pricing relation r*price - r*s0*delta - (sigma^2 s0/2)*gamma.

    This is not the time decay of the fresh-start price in expiry (the
    relation omits the sensitivity to the running average); that decay is
    :func:`theta_fd_expiry`.

    The reported mean is the exact combination of the three reported means
    (all from the same method and the same paths); the stderr comes from the
    per-path combined influence, so shared-path covariances are kept.
    """
    return _estimate(QUANTITIES["theta"], cfg, method, ensemble, spec=spec)


def vega(spec: OptionSpec, cfg: MCConfig, method: str = IDENTITY, *,
         ensemble: Mapping[float, PathBatch] | None = None) -> Estimate:
    """Sensitivity of the price to sigma.

    The identity method keeps the survival probabilities in their tilted /
    indicator form on shared paths and discounts the strike term, which is
    what the derivative of the discounted price requires and what the
    finite-difference cross-check confirms.  The printed form of the strike
    term carries no discount; its value is attached as a flag whenever the
    two differ (rate > 0).  The fully indicator-free route is
    :func:`vega_weighted`.
    """
    return _estimate(QUANTITIES["vega"], cfg, method, ensemble, spec=spec)


def vega_weighted(spec: OptionSpec, cfg: MCConfig, *,
                  ensemble: Mapping[float, PathBatch] | None = None) -> Estimate:
    """Vega with both survivals through the indicator-free weight routes.

    This is the printed vega with its survivals through the printed CDF
    weights (:func:`~asianmc.estimators.weighted_cdf_values`); the price
    term is the split-weight price.  The printed weights have infinite
    variance, so this route is kept for side-by-side comparison, not as the
    default.
    """
    return _estimate(_VEGA_WEIGHTED, cfg, "identity-weighted", ensemble, spec=spec)


def theta_fd_expiry(spec: OptionSpec, cfg: MCConfig) -> Estimate:
    """Central difference of the naive price in expiry, with common randomness.

    Time decay oracle: -(price(tau+h) - price(tau-h)) / (2h), h = 0.05 tau.
    This is a different quantity from the pricing-relation :func:`theta`.
    Both shifted horizons reuse the same increments and step count as the
    base configuration, read from one draw of normals.
    """
    return _estimate(_THETA_EXPIRY, cfg, FD, None, spec=spec)


def greek_report(spec: OptionSpec, cfg: MCConfig, method: str = IDENTITY,
                 fd_check: bool = False, *, threads: int | None = None) -> GreekReport:
    """Price plus all four Greeks from one shared path ensemble.

    With ``fd_check`` the report also carries the four common-random-number
    finite-difference cross-checks: delta and gamma in s0 and theta through
    the pricing relation with those FD Greeks, and vega in sigma, which
    reads the ensemble at its two sigma-moved horizons.  Every (horizon,
    drift) the report reads comes from one draw of normals, whose chunks
    ``threads`` spreads over worker threads as in
    :func:`~asianmc.paths.sample_ensemble`; None (the default) is serial.
    """
    sensitivities = {"delta": delta, "gamma": gamma, "theta": theta, "vega": vega}
    price_method = NAIVE if method == NAIVE else IDENTITY
    greek_method = FD if method == NAIVE else method
    methods = (greek_method, FD) if fd_check else (greek_method,)
    args = {"spec": spec}
    calls = [("price", price_method, args)] + [
        (name, m, args) for name in sensitivities for m in methods]
    ens = shared_ensemble(cfg, calls, threads=threads)
    report = GreekReport(spec, method, price(spec, cfg, price_method, ensemble=ens), *(
        fn(spec, cfg, greek_method, ensemble=ens) for fn in sensitivities.values()))
    if not fd_check:
        return report
    return replace(report, fd_cross_checks={
        name: fn(spec, cfg, FD, ensemble=ens) for name, fn in sensitivities.items()})
