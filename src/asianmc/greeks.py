"""Fixed-strike Asian call price and sensitivities at the start of averaging.

The pricing expectation is driftless: the rate enters only through the
discount factor, and the market inputs collapse into the derived scale
``a = sigma^2 * strike * expiry / s0`` and the effective horizon
``T = sigma^2 * expiry``.  All sensitivities are exact transformations of the
distribution estimators in :mod:`asianmc.estimators`; finite-difference
cross-checks with common random numbers are built in.  The price and each
Greek are option rows of the quantity table, and so are the comparison
routes :func:`vega_weighted` and :func:`theta_fd_expiry` (private rows):
every public function here but :func:`greek_report` is one call of
``estimators._estimate``, and the report is one group of the loop that
draws and estimates, ``estimators._estimates``.  Each per-path builder is
itself a row function ``(ens, spec)`` that reads its batches at the spec's
horizon, so the rows list the builders, and the theta rows are the one
pricing relation (:func:`_pricing_relation`) over three builders of their
method.  At strike 0 every row is exact, and such a call draws no paths.
A report reads every horizon and drift it needs (the driftless and
drift-1 batches at T, and the FD vega's two sigma-moved horizons) from one
draw of normals.

Rate convention: pricing the driftless integral at every rate means the
underlying has zero risk-neutral drift, as a futures price has, or a stock
whose dividend yield equals the rate.  The zero-strike price s0 e^{-r tau}
is the price under this convention.  A stock without dividends would read
the drifted integral A^{(nu)} with nu = r/sigma^2 (in the effective time
s = sigma^2 u its mean e^{nu s} must be the stock's growth e^{r u}), and
its zero-strike price is s0 (1 - e^{-r tau}) / (r tau).  Two forms do not
fit this convention: the pricing-relation :func:`theta` carries the r s0
delta term of a stock with drift r, and the printed vega's strike term
carries no discount (the ``printed-form=`` flag of :func:`vega`).

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
    _estimates,
    _excess,
    _two_over_square,
    density_identity_values,
    kernel_identity_values,
    split_weight,
    tilted_cdf_values,
    weighted_cdf_values,
)
from .paths import NONNEGATIVE, POSITIVE, MCConfig, PathBatch, check_formed, check_param

FD = "fd"

# Relative finite-difference steps, all with common random numbers.
FD_REL_STEP = {"delta": 1e-2, "gamma": 5e-2, "theta": 5e-2, "vega": 1e-2}

# The OptionSpec fields and the bound each is held to.
OPTION_PARAMS = {"s0": POSITIVE, "strike": NONNEGATIVE, "sigma": POSITIVE,
                 "rate": NONNEGATIVE, "expiry": POSITIVE}
# the name of the derived scale a, the level the integral is compared with
SCALE = "scale sigma^2 strike expiry / s0"


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
        check_formed("horizon sigma^2 expiry", lambda: self.horizon, POSITIVE)
        check_formed(SCALE, lambda: self.scale_a, POSITIVE if self.strike > 0.0 else NONNEGATIVE)

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


def price_naive_values(ens, spec: OptionSpec, **_) -> np.ndarray:
    """Discounted payoff per path on the driftless batch of ``ens`` at the
    spec's horizon: (s0 / (tau sigma^2)) e^{-r tau} (A - a)^+."""
    values = _excess(ens[spec.horizon, 0.0].integral, spec.scale_a)
    values *= spec.s0 / (spec.expiry * spec.sigma**2) * spec.discount
    return values


def price_identity_values(ens, spec: OptionSpec, **_) -> np.ndarray:
    """The kernel identity at the scale on the driftless batch at the spec's
    horizon, times (s0 / (tau sigma^2)) e^{-r tau}."""
    values = kernel_identity_values(ens[spec.horizon, 0.0], spec.scale_a)
    values *= spec.s0 / (spec.expiry * spec.sigma**2) * spec.discount
    return values


def delta_identity_values(ens, spec: OptionSpec, **_) -> np.ndarray:
    """Transformed-measure delta on the driftless batch at the spec's horizon:
    the printed closed-form weight combination

    e^{-r tau} + (k/s0) e^{-r tau - 2/a} { a E[(a+A)^{-1} e^{2M/(a+A)}]
                                           - E[e^{2M/(a+A)}] }.
    The bracket's weight -A/(a+A) e^{Y - 2/a} is split by
    :func:`~asianmc.estimators.split_weight`; its tail factor is -A/a.
    """
    batch0, a = ens[spec.horizon, 0.0], spec.scale_a
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


def gamma_identity_values(ens, spec: OptionSpec, **_) -> np.ndarray:
    """The density identity at the scale, on the driftless and drift-1
    batches at the spec's horizon, times sigma^2 k^2 tau / s0^3 e^{-r tau};
    each factor raises naming what it is formed from where it leaves the
    float range."""
    _two_over_square(spec.scale_a, f"2/scale^2 ({SCALE})")  # named here; density forms it too
    factor = check_formed("gamma factor sigma^2 strike^2 expiry / s0^3", lambda: (
        spec.sigma**2 * spec.strike**2 * spec.expiry / spec.s0**3 * spec.discount))
    values = density_identity_values(ens[spec.horizon, 0.0], ens[spec.horizon, 1.0], spec.scale_a)
    values *= factor
    return values


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
    return price_naive_values(ens, up), price_naive_values(ens, dn), h


def _pricing_relation(price: Callable, delta: Callable, gamma: Callable) -> Callable:
    """The theta row function over three builders of one method: the
    paper's pricing relation r p - r s0 d - (sigma^2 s0 / 2) g per path,
    with p, d and g the values of ``price``, ``delta`` and ``gamma``, built
    in that order on the same paths, so the theta's mean and stderr are
    those of this one combination.  It is the only theta formula."""
    def values(ens, spec, **_) -> np.ndarray:
        p, d, g = price(ens, spec), delta(ens, spec), gamma(ens, spec)
        return spec.rate * p - spec.rate * spec.s0 * d - 0.5 * spec.sigma**2 * spec.s0 * g
    return values


def _first_difference(name: str, step: str, sign: float = 1.0):
    """The ``(reads, values)`` of a finite-difference row: the central
    difference sign (price(x + h) - price(x - h)) / 2h of the naive price in
    field ``name``, with the moves of :func:`_moved`.  It reads the driftless
    batch at each moved horizon (for s0, the base one).  ``sign`` is folded
    into the divisor, which negates exactly."""
    def values(ens, spec, **_) -> np.ndarray:
        up, dn, h = _central(spec, name, step, ens)
        return (up - dn) / (sign * 2.0 * h)
    return (lambda spec: _moved_keys(spec, name, step)), values


def _gamma_fd_values(ens, spec, **_) -> np.ndarray:
    up, dn, h = _central(spec, "s0", "gamma", ens)
    h2 = check_formed(f"FD step h^2 (h = {FD_REL_STEP['gamma']} s0)", lambda: h**2, POSITIVE)
    return (up - 2.0 * price_naive_values(ens, spec) + dn) / h2


# the FD delta row, which the FD theta reads too
_FD_DELTA = _first_difference("s0", "delta")


def _vega_identity_values(ens, spec, **_):
    """Vega per path from survival probabilities on shared driftless paths.

    -(2/sigma) price + (2 s0/sigma) e^{-r tau} P[A^{(1)} > a]
                     - (2 k/sigma) e^{-r tau} P[A > a],
    with the drift-1 survival through the exponential-tilt weight M 1{A<=a}
    (:func:`~asianmc.estimators.tilted_cdf_values`) and the driftless
    survival through the plain indicator, built once for the values and the
    flag.  Both discount factors follow the price derivative; at rate > 0
    the ``printed-form=`` flag gives the printed variant, whose strike term
    is undiscounted (see vega(); vega_weighted() is the indicator-free
    route).
    """
    batch0, a = ens[spec.horizon, 0.0], spec.scale_a
    surv0 = 1.0 - (batch0.integral <= a)
    values = _vega_relation(spec, price_identity_values(ens, spec),
                            1.0 - tilted_cdf_values(batch0, a, 1.0), surv0)
    if not spec.rate > 0.0:
        return values
    undiscounted = float(values.mean()) + (2.0 * spec.strike / spec.sigma) \
        * (1.0 - spec.discount) * float(surv0.mean())
    return values, (f"printed-form={undiscounted:.17g}",)


def _vega_weighted_values(ens, spec, **_) -> np.ndarray:
    t, a = spec.horizon, spec.scale_a
    return _vega_relation(spec, price_identity_values(ens, spec),
                          1.0 - weighted_cdf_values(ens[t, 1.0], a),
                          1.0 - weighted_cdf_values(ens[t, 0.0], a))


# ---------------------------------------------------------------------------
# the option rows of the quantity table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Option(Quantity):
    """A quantity whose public function takes one OptionSpec, valid by construction.

    At strike 0 the payoff is the average itself, so every row is exact
    there: the price is s0 e^{-r tau}, delta e^{-r tau} and every other
    sensitivity 0.  ``zero_strike(spec)`` is the row's value, 0 unless the
    row says otherwise.  The threshold the integral is compared with is the
    scale a = sigma^2 k tau / s0.
    """

    zero_strike: Callable[[OptionSpec], float] = lambda spec: 0.0
    defaults = {"s0": 1.0, "strike": 1.0, "sigma": 1.0, "rate": 0.0, "expiry": 1.0}

    def arguments(self, point: Mapping[str, float]) -> dict:
        return {"spec": OptionSpec(**point)}

    def horizon(self, args: Mapping) -> float:
        return args["spec"].horizon

    def threshold(self, args: Mapping) -> float | None:
        return args["spec"].scale_a

    def check(self, args: Mapping) -> None:
        pass

    def exact(self, args: Mapping) -> float | None:
        spec = args["spec"]
        return self.zero_strike(spec) if spec.strike == 0.0 else None


QUANTITIES.update(
    price=_Option(OPTION_PARAMS, {
        NAIVE: ((0.0,), price_naive_values),
        IDENTITY: ((0.0,), price_identity_values),
    }, zero_strike=lambda spec: spec.s0 * spec.discount),
    delta=_Option(OPTION_PARAMS, {
        IDENTITY: ((0.0,), delta_identity_values),
        FD: _FD_DELTA,
    }, zero_strike=lambda spec: spec.discount),
    gamma=_Option(OPTION_PARAMS, {
        IDENTITY: ((0.0, 1.0), gamma_identity_values),
        FD: ((0.0,), _gamma_fd_values),
    }),
    theta=_Option(OPTION_PARAMS, {
        IDENTITY: ((0.0, 1.0), _pricing_relation(price_identity_values, delta_identity_values,
                                                 gamma_identity_values)),
        FD: ((0.0,), _pricing_relation(price_naive_values, _FD_DELTA[1], _gamma_fd_values)),
    }),
    vega=_Option(OPTION_PARAMS, {
        IDENTITY: ((0.0,), _vega_identity_values),
        FD: _first_difference("sigma", "vega"),
    }),
)


# the routes kept for side-by-side comparison, each a private row
_VEGA_WEIGHTED = _Option(OPTION_PARAMS, {"identity-weighted": ((0.0, 1.0), _vega_weighted_values)})
_THETA_EXPIRY = _Option(OPTION_PARAMS, {FD: _first_difference("expiry", "theta", -1.0)})


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

    The relation is applied per path to the price, delta and gamma values of
    the same method on the same paths (identity: the three identity
    builders; fd: the naive price, the FD delta and the FD gamma), and the
    mean and stderr are those of the combined values, so shared-path
    covariances are kept.  The mean equals the same combination of the
    three means up to rounding, and exactly at rate 0 when sigma^2 s0 / 2
    is a power of two.
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
    reads the ensemble at its two sigma-moved horizons.  The report is one
    group of ``estimators._estimates``: every (horizon, drift) its rows read
    comes from one draw of normals, whose chunks ``threads`` spreads over
    worker threads as in :func:`~asianmc.paths.sample_ensemble` (None, the
    default, is serial), and the rows are estimated on it in turn, price
    first, so the first that fails raises.  Each call is labelled by its
    (name, method), which keys its estimate.
    """
    sensitivities = ("delta", "gamma", "theta", "vega")
    price_method = NAIVE if method == NAIVE else IDENTITY
    greek_method = FD if method == NAIVE else method
    methods = (greek_method, FD) if fd_check else (greek_method,)
    names = [("price", price_method)] + [(name, m) for name in sensitivities for m in methods]
    calls = [((name, m), QUANTITIES[name], m, {"spec": spec}) for name, m in names]
    est = {label: e() for label, _, e in _estimates([(cfg, (cfg.n_steps,), calls)], threads)}
    return GreekReport(spec, method, est["price", price_method],
                       *(est[name, greek_method] for name in sensitivities),
                       {name: est[name, FD] for name in sensitivities} if fd_check else None)
