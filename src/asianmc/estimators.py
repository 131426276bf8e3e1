"""Estimators for the law of the time integral of exponential Brownian motion.

Every quantity comes in two independent families:

* ``naive``    -- plain Monte Carlo of the defining payoff or indicator on
  simulated paths.
* ``identity`` -- Monte Carlo of a closed-form measure-change transformation
  that rewrites the truncated expectation as a full expectation of a smooth
  weight, so no simulation is discarded.

The two families estimate the same quantities and are meant to be
cross-validated against each other; :mod:`asianmc.bench` automates that.
Each quantity is described once, in :data:`QUANTITIES`: its parameters, its
methods, the drifts each method reads and its per-path values.  The public
estimators, the sweep and the command line all read that table.

The printed identity weights carry the factor e^{Y - 2/a}, Y = 2M/(a + A).
That factor is a strict local martingale with a tail of index 1: its
variance is infinite, and plain Monte Carlo of it misses mass that shrinks
only logarithmically in the path count.  Every identity estimator here
therefore splits its weight at Y = 2/a (see :func:`split_weight`).  The body
keeps the printed weight on {Y <= 2/a}, where e^{Y - 2/a} <= 1; the tail is
the same identity read in reverse, an indicator of {A < a < A + a M} times a
bounded factor.  Both halves are exact, so the sum is unbiased, and its
variance is finite (every per-path value is bounded for drifts nu >= 0).  The printed weights stay available as
:func:`cdf_weighted`, :func:`transform_expectation` and
:func:`weighted_cdf_values`.  docs/estimator-notes.md has the derivation
and the measurements.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .paths import NONNEGATIVE, POSITIVE, MCConfig, PathBatch, check_param, sample_ensemble

NAIVE = "naive"
IDENTITY = "identity"

# Bandwidth rule for finite-difference density estimates: h = NAIVE_DENSITY_BW * a.
NAIVE_DENSITY_BW = 0.05


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo result.

    ``stderr`` is the sample standard deviation of the per-path values divided
    by sqrt(n_paths); it is reported raw, with no clamping of the mean, so
    cross-estimator comparisons stay interpretable.
    """

    mean: float
    stderr: float
    n_paths: int
    method: str
    wall_time_ms: float = 0.0
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if not math.isfinite(self.mean):
            raise ValueError(f"estimate mean is not finite: {self.mean}")
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")

    def combined_stderr(self, other: "Estimate") -> float:
        return math.hypot(self.stderr, other.stderr)


@dataclass(frozen=True)
class TransformParams:
    """Threshold and horizon for the generic truncated-expectation transform.

    ``a`` is the truncation level on the time integral; the transform removes
    the event {A_t < a} in exchange for an exponential weight.
    """

    a: float
    t: float
    nu: float = 0.0

    def __post_init__(self) -> None:
        check_param("threshold a", self.a, POSITIVE)
        check_param("time t", self.t, NONNEGATIVE)
        check_param("drift nu", self.nu)


def _ensemble_for(
    t: float, nus: tuple[float, ...], cfg: MCConfig,
    ensemble: Mapping[float, PathBatch] | None,
) -> Mapping[float, PathBatch]:
    """Reuse supplied batches where possible, simulate the rest.

    Chunk keys depend only on (master_seed, chunk, n_steps), so batches
    simulated in separate calls with equal cfg still share their underlying
    increments; passing an ensemble is purely an optimization.
    """
    have = dict(ensemble) if ensemble else {}
    missing = tuple(nu for nu in nus if nu not in have)
    if missing:
        have.update(sample_ensemble(t, missing, cfg))
    return have


def _wrap(values: np.ndarray, method: str, started: float,
          flags: tuple[str, ...] = (), mean: float | None = None) -> Estimate:
    n = len(values)
    stderr = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    wall = (time.perf_counter() - started) * 1e3
    return Estimate(float(values.mean()) if mean is None else mean,
                    stderr, n, method, wall, flags)


def stable_exp_rate(nu: float, t: float) -> float:
    """(e^{nu t} - 1) / nu, continuous through nu = 0.

    Uses expm1 for cancellation safety and a short series once nu*t is below
    1e-8, where expm1(x)/nu would divide two rounding-dominated numbers.
    """
    x = nu * t
    if abs(x) < 1e-8:
        return t * (1.0 + 0.5 * x + x * x / 6.0)
    return math.expm1(x) / nu


# ---------------------------------------------------------------------------
# per-path value builders (shared by the public estimators and the greeks)
# ---------------------------------------------------------------------------


def weighted_cdf_values(batch: PathBatch, a: float) -> np.ndarray:
    """Indicator-free weights whose mean estimates Pr[A_t^{(nu)} <= a].

    The printed weight, kept for the literal routes: the batch drift nu
    enters through its own functionals; the weight is
    a^{2 nu} e^{-2/a} (a + A)^{-2 nu} exp(2 X / (a + A)), evaluated in log
    space so the e^{-2/a} factor cannot underflow prematurely.
    """
    nu = batch.nu
    log_w = 2.0 * batch.terminal / (a + batch.integral) - 2.0 / a
    if nu != 0.0:
        log_w += 2.0 * nu * (math.log(a) - np.log(a + batch.integral))
    return np.exp(log_w)


def split_weight(batch: PathBatch, a: float) -> tuple[np.ndarray, np.ndarray]:
    """The identity weight e^{Y - 2/a}, Y = 2X/(a + A), split at Y = 2/a.

    Returns ``(body, tail)``.  ``body`` is e^{Y - 2/a} on {a X <= a + A} and 0
    elsewhere, so it never exceeds 1.  ``tail`` is the indicator of
    {A < a < A + a X}: for any G, e^{-2/a} E[G(M, A) e^Y; Y > 2/a] equals
    E[G(M/(1 - A/a)^2, A/(1 - A/a)); A < a < A + a M], which is
    :func:`transform_expectation` read in reverse.  An estimator of
    e^{-2/a} E[G e^Y] is then the mean of G(M, A) body + G~(M, A) tail, with
    G~ the transformed factor that each builder below writes out.

    On a drift-nu batch the same split applies to the batch's own
    functionals: the drifted identity is the driftless one after a change
    of drift, and changing the drift back turns its tail into the same
    event on the drifted functionals.
    """
    # One float buffer per call, updated in place: the estimators run on
    # dense threshold grids, where temporaries cost as much as the arithmetic.
    x, integ = batch.terminal, batch.integral
    body = x * a
    body += integ
    tail = body > a
    tail &= integ < a
    np.add(integ, a, out=body)
    np.divide(x, body, out=body)
    body *= 2.0
    body -= 2.0 / a
    keep = body <= 0.0
    # clip first: exp would overflow on dropped paths, and inf * 0 is nan
    np.minimum(body, 0.0, out=body)
    np.exp(body, out=body)
    body *= keep
    return body, tail


def cdf_identity_values(batch: PathBatch, a: float) -> np.ndarray:
    """Split-weight values whose mean estimates Pr[A_t^{(nu)} <= a].

    Body: the printed drift-nu weight (a/(a + A))^{2 nu} e^{Y - 2/a} on
    {Y <= 2/a}; tail: 1{A < a < A + a X}.  Both on the batch's own drift.
    For nu >= 0 every value lies in [0, 2]; for nu < 0 the body factor
    (1 + A/a)^{2|nu|} is unbounded but has every moment.
    """
    body, tail = split_weight(batch, a)
    if batch.nu != 0.0:
        factor = batch.integral + a
        np.divide(a, factor, out=factor)
        factor **= 2.0 * batch.nu
        body *= factor
    body += tail
    return body


def tilted_cdf_values(batch0: PathBatch, a: float, nu: float) -> np.ndarray:
    """Exponential-tilt estimator of Pr[A_t^{(nu)} <= a] on driftless paths.

    Weights M^nu e^{nu t/2 - nu^2 t/2} 1{A <= a}; the exact change of drift,
    with the truncation indicator kept.  At nu = 0 this is the plain
    indicator.
    """
    ind = batch0.integral <= a
    if nu == 0.0:
        return ind.astype(float)
    t = batch0.t
    w = batch0.terminal ** nu * math.exp(nu * t / 2.0 - nu * nu * t / 2.0)
    return w * ind


def kernel_identity_values(batch0: PathBatch, a: float, nu: float) -> np.ndarray:
    """Per-path values of the transformed truncated-moment identity.

    Estimates E[(A_t^{(nu)} - a)^+] from driftless paths.  The printed form
    (e^{nu t}-1)/nu - a + e^{nu t/2 - nu^2 t/2} a^{2nu+2}
        M^nu (a+A)^{-(2nu+1)} exp(2M/(a+A) - 2/a)
    is evaluated through :func:`split_weight`, whose tail factor is
    e^{nu t/2 - nu^2 t/2} M^nu (a - A).
    """
    t = batch0.t
    if t == 0.0:
        # degenerate paths make every per-path value (e^0-1)/nu - a + a = 0;
        # short-circuit to avoid the one-ulp exp/log round-trip residue
        return np.zeros(len(batch0))
    m, integ = batch0.terminal, batch0.integral
    body, tail = split_weight(batch0, a)
    scratch = integ + a
    np.divide(a, scratch, out=scratch)
    if nu != 0.0:
        scratch **= 2.0 * nu + 1.0
    body *= scratch
    body *= a
    np.subtract(a, integ, out=scratch)
    scratch *= tail
    body += scratch
    if nu != 0.0:
        np.power(m, nu, out=scratch)
        scratch *= math.exp(nu * t / 2.0 - nu * nu * t / 2.0)
        body *= scratch
    body += stable_exp_rate(nu, t) - a
    return body


def kernel_d2_identity_values(batch0: PathBatch, a: float) -> np.ndarray:
    """Per-path values for d^2/da^2 E[(A_t - a)^+], driftless paths only.

    Printed weight (2/a^2 - 2M/(a+A)^2) e^{Y - 2/a}, split by
    :func:`split_weight`; the tail factor is (2/a^2)(1 - M).
    """
    m, integ = batch0.terminal, batch0.integral
    body, tail = split_weight(batch0, a)
    c = 2.0 / a**2
    scratch = integ + a
    scratch *= scratch
    np.divide(m, scratch, out=scratch)
    scratch *= -2.0
    scratch += c
    body *= scratch
    np.subtract(1.0, m, out=scratch)
    scratch *= c
    scratch *= tail
    body += scratch
    return body


def density_identity_values(batch0: PathBatch, batch1: PathBatch, a: float) -> np.ndarray:
    """Per-path values of the two-drift density identity, on shared paths.

    g_t(a) = (2/a^2) (Pr[A_t <= a] - Pr[A_t^{(1)} <= a]) with each CDF
    through :func:`cdf_identity_values` on its own drift batch.
    """
    values = cdf_identity_values(batch1, a)
    np.subtract(cdf_identity_values(batch0, a), values, out=values)
    values *= 2.0 / a**2
    return values


def _fd_bandwidth(a: float, bandwidth: float | None) -> float:
    h = NAIVE_DENSITY_BW * a if bandwidth is None else float(bandwidth)
    if not 0.0 < h < a:
        raise ValueError(f"bandwidth must lie in (0, a), got {h}")
    return h


def _density_naive_values(ens, a, bandwidth=None, **_) -> np.ndarray:
    h = _fd_bandwidth(a, bandwidth)
    integ = ens[0.0].integral
    return ((integ <= a + h).astype(float) - (integ <= a - h).astype(float)) / (2.0 * h)


def _kernel_d2_naive_values(ens, a, bandwidth=None, **_) -> np.ndarray:
    h = _fd_bandwidth(a, bandwidth)
    integ = ens[0.0].integral
    return (
        np.maximum(integ - a - h, 0.0)
        - 2.0 * np.maximum(integ - a, 0.0)
        + np.maximum(integ - a + h, 0.0)
    ) / h**2


def _joint_identity_values(ens, b, a, **_) -> np.ndarray:
    batch = ens[0.0]
    m, integ = batch.terminal, batch.integral
    body, tail = split_weight(batch, a)
    bound = integ / a
    bound += 1.0
    bound *= bound
    bound *= b
    body *= m <= bound
    tail &= m <= b
    body += tail
    return body


def _kernel_d1_identity_values(ens, a, **_) -> np.ndarray:
    values = cdf_identity_values(ens[0.0], a)
    values -= 1.0
    return values


def _weighted_cdf_estimate(ens, a, nu, **_):
    values = weighted_cdf_values(ens[nu], a)
    return values, None, ("tail-underflow",) if values.max() == 0.0 else ()


# ---------------------------------------------------------------------------
# the quantity table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Quantity:
    """One row of :data:`QUANTITIES`: how to estimate one quantity.

    ``params`` maps each parameter, in the order of the public function, to
    the bound :func:`~asianmc.paths.check_param` holds it to (None: finite).
    ``methods`` maps each method, in the order the command line's ``both``
    runs them, to ``(drifts, values)``.  ``drifts`` lists the drifts the
    method reads, each a number or the name of the parameter that holds it;
    ``values(ensemble, cfg=..., **args)`` returns the per-path values, or
    ``(values, mean, flags)`` where the mean or the flags are not the plain
    ones.  The public function is the attribute of ``module`` named after the
    quantity, looked up at each call, so a wrapper set on that attribute (as
    perfbench's tracer does) sees every call; ``defaults`` are the sweep's
    grid defaults.
    """

    params: Mapping[str, str | None]
    methods: Mapping[str, tuple[tuple[float | str, ...], Callable]]
    defaults = {"t": 1.0, "nu": 0.0}
    module = __name__

    def arguments(self, point: Mapping[str, float]) -> dict:
        """The public function's arguments at one parameter point."""
        return dict(point)

    def horizon(self, args: Mapping) -> float:
        return args["t"]

    def check(self, args: Mapping) -> None:
        for name, bound in self.params.items():
            check_param(name, args[name], bound)

    def drifts(self, method: str, args: Mapping) -> tuple[float, ...]:
        return tuple(args[d] if isinstance(d, str) else d for d in self.methods[method][0])


# Every quantity the sweep and the command line know, by public function
# name; asianmc.greeks adds the option quantities (price and four Greeks).
QUANTITIES: dict[str, Quantity] = {
    "cdf": Quantity({"a": POSITIVE, "t": None, "nu": None}, {
        NAIVE: (("nu",), lambda ens, a, nu, **_: (ens[nu].integral <= a).astype(float)),
        IDENTITY: (("nu",), lambda ens, a, nu, **_: cdf_identity_values(ens[nu], a)),
    }),
    "density": Quantity({"a": POSITIVE, "t": POSITIVE}, {
        NAIVE: ((0.0,), _density_naive_values),
        IDENTITY: ((0.0, 1.0),
                   lambda ens, a, **_: density_identity_values(ens[0.0], ens[1.0], a)),
    }),
    "joint_cdf": Quantity({"b": POSITIVE, "a": POSITIVE, "t": None}, {
        NAIVE: ((0.0,), lambda ens, b, a, **_:
                ((ens[0.0].terminal < b) & (ens[0.0].integral < a)).astype(float)),
        IDENTITY: ((0.0,), _joint_identity_values),
    }),
    "call_kernel": Quantity({"a": POSITIVE, "t": None, "nu": None}, {
        NAIVE: (("nu",), lambda ens, a, nu, **_: np.maximum(ens[nu].integral - a, 0.0)),
        IDENTITY: ((0.0,), lambda ens, a, nu, **_: kernel_identity_values(ens[0.0], a, nu)),
    }),
    "call_kernel_d1": Quantity({"a": POSITIVE, "t": POSITIVE}, {
        NAIVE: ((0.0,), lambda ens, a, **_: -1.0 + (ens[0.0].integral <= a).astype(float)),
        IDENTITY: ((0.0,), _kernel_d1_identity_values),
    }),
    "call_kernel_d2": Quantity({"a": POSITIVE, "t": POSITIVE}, {
        NAIVE: ((0.0,), _kernel_d2_naive_values),
        IDENTITY: ((0.0,), lambda ens, a, **_: kernel_d2_identity_values(ens[0.0], a)),
    }),
}

_CDF_WEIGHTED = Quantity(QUANTITIES["cdf"].params, {IDENTITY: (("nu",), _weighted_cdf_estimate)})


def _estimate(q: Quantity, cfg: MCConfig | None, method: str,
              ensemble: Mapping[float, PathBatch] | None, **args) -> Estimate:
    started = time.perf_counter()
    q.check(args)
    if cfg is None:
        raise ValueError("an MCConfig is required")
    if method not in q.methods:
        raise ValueError(f"unknown method {method!r}")
    ens = _ensemble_for(q.horizon(args), q.drifts(method, args), cfg, ensemble)
    out = q.methods[method][1](ens, cfg=cfg, **args)
    values, mean, flags = out if isinstance(out, tuple) else (out, None, ())
    return _wrap(values, method, started, flags, mean)


def estimate(quantity: str, args: Mapping, cfg: MCConfig, method: str,
             ensemble: Mapping[float, PathBatch] | None = None, **options) -> Estimate:
    """Call the public function of ``quantity`` with ``args`` from
    :meth:`Quantity.arguments`; ``options`` are its keyword-only extras."""
    fn = getattr(sys.modules[QUANTITIES[quantity].module], quantity)
    return fn(**args, cfg=cfg, method=method, ensemble=ensemble, **options)


def shared_ensemble(horizon: float, cfg: MCConfig,
                    calls: Iterable[tuple[str, str, Mapping]]) -> Mapping[float, PathBatch]:
    """One ensemble at ``horizon`` with every drift the ``(quantity, method,
    args)`` calls read, so that all of them share one draw of paths.

    Calls whose arguments or method the quantity rejects add no drift; made
    with this ensemble, they raise their own error.
    """
    nus: set[float] = set()
    for quantity, method, args in calls:
        q = QUANTITIES[quantity]
        try:
            q.check(args)
        except ValueError:
            continue
        if method in q.methods:
            nus.update(q.drifts(method, args))
    return _ensemble_for(horizon, tuple(sorted(nus)), cfg, None)


# ---------------------------------------------------------------------------
# public estimators
# ---------------------------------------------------------------------------


def transform_expectation(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    params: TransformParams,
    cfg: MCConfig,
    *,
    ensemble: Mapping[float, PathBatch] | None = None,
) -> Estimate:
    """Estimate E[f(M_t, A_t); A_t < a] without simulating the truncation.

    Implements the generic driftless transform: with y = 2/a,

        e^{-y} E[ f(M/(1 + (y/2)A)^2, A/(1 + (y/2)A)) exp(M/(1/y + A/2)) ]

    ``f`` must be vectorized over numpy arrays and finite on every sampled
    path; a non-finite output raises with the offending path index.
    """
    started = time.perf_counter()
    if params.nu != 0.0:
        raise ValueError("the generic transform is defined for the driftless case only")
    a = params.a
    batch = _ensemble_for(params.t, (0.0,), cfg, ensemble)[0.0]
    m, integ = batch.terminal, batch.integral
    shrink = 1.0 + integ / a
    fx = np.asarray(f(m / shrink**2, integ / shrink), dtype=float)
    bad = ~np.isfinite(fx)
    if bad.any():
        raise ValueError(f"f returned a non-finite value at path index {int(np.argmax(bad))}")
    values = fx * np.exp(2.0 * m / (a + integ) - 2.0 / a)
    return _wrap(values, IDENTITY, started)


def cdf(
    a: float,
    t: float,
    nu: float = 0.0,
    cfg: MCConfig | None = None,
    method: str = IDENTITY,
    *,
    ensemble: Mapping[float, PathBatch] | None = None,
) -> Estimate:
    """Estimate Pr[A_t^{(nu)} <= a].

    ``method="naive"`` is the indicator mean over drift-nu paths.
    ``method="identity"`` is the measure-change identity on the same drift-nu
    paths, with its weight split at Y = 2/a (see :func:`cdf_identity_values`),
    so for nu >= 0 every per-path value lies in [0, 2].  The printed indicator-free
    weight is available as :func:`cdf_weighted`.
    """
    return _estimate(QUANTITIES["cdf"], cfg, method, ensemble, a=a, t=t, nu=nu)


def cdf_weighted(
    a: float,
    t: float,
    nu: float = 0.0,
    cfg: MCConfig | None = None,
    *,
    ensemble: Mapping[float, PathBatch] | None = None,
) -> Estimate:
    """The indicator-free CDF route for any drift, exactly as printed.

    Kept public so the printed weight and its split (:func:`cdf`) can always
    be compared side by side; see the module docstring for why the printed
    weight's finite-sample behavior is poor.
    """
    return _estimate(_CDF_WEIGHTED, cfg, IDENTITY, ensemble, a=a, t=t, nu=nu)


def density(
    a: float,
    t: float,
    cfg: MCConfig | None = None,
    method: str = IDENTITY,
    *,
    ensemble: Mapping[float, PathBatch] | None = None,
    bandwidth: float | None = None,
) -> Estimate:
    """Estimate the density g_t(a) of A_t.

    identity: the two-drift difference identity on shared paths, each CDF
    through its split weight.
    naive: central finite difference of the empirical CDF with bandwidth
    h = 0.05 a (override with ``bandwidth``), so it carries O(h^2) bias.
    """
    return _estimate(QUANTITIES["density"], cfg, method, ensemble,
                     a=a, t=t, bandwidth=bandwidth)


def joint_cdf(
    b: float,
    a: float,
    t: float,
    cfg: MCConfig | None = None,
    method: str = IDENTITY,
    *,
    ensemble: Mapping[float, PathBatch] | None = None,
) -> Estimate:
    """Estimate Pr[M_t < b, A_t < a].

    identity: e^{-2/a} E[exp(2M/(a+A)); M <= b (1 + A/a)^2], with the weight
    split by :func:`split_weight`; the tail factor is 1{M <= b}, so every
    per-path value lies in [0, 2].  With b beyond every sampled terminal the
    values are those of :func:`cdf` bit for bit.
    naive: the two-indicator mean.
    """
    return _estimate(QUANTITIES["joint_cdf"], cfg, method, ensemble, b=b, a=a, t=t)


def call_kernel(
    a: float,
    t: float,
    nu: float = 0.0,
    cfg: MCConfig | None = None,
    method: str = IDENTITY,
    *,
    ensemble: Mapping[float, PathBatch] | None = None,
) -> Estimate:
    """Estimate E[(A_t^{(nu)} - a)^+], the undiscounted Asian call kernel."""
    return _estimate(QUANTITIES["call_kernel"], cfg, method, ensemble, a=a, t=t, nu=nu)


def call_kernel_d1(
    a: float,
    t: float,
    cfg: MCConfig | None = None,
    method: str = IDENTITY,
    *,
    ensemble: Mapping[float, PathBatch] | None = None,
) -> Estimate:
    """Estimate d/da E[(A_t - a)^+] = -1 + Pr[A_t <= a]."""
    return _estimate(QUANTITIES["call_kernel_d1"], cfg, method, ensemble, a=a, t=t)


def call_kernel_d2(
    a: float,
    t: float,
    cfg: MCConfig | None = None,
    method: str = IDENTITY,
    *,
    ensemble: Mapping[float, PathBatch] | None = None,
    bandwidth: float | None = None,
) -> Estimate:
    """Estimate d^2/da^2 E[(A_t - a)^+], which equals the density g_t(a).

    naive: second central difference of the naive kernel with h = 0.05 a,
    on shared paths, so it carries O(h^2) bias like the naive density.
    """
    return _estimate(QUANTITIES["call_kernel_d2"], cfg, method, ensemble,
                     a=a, t=t, bandwidth=bandwidth)
