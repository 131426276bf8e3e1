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
methods, the drifts each method reads, its per-path values and any exact
value.  The public estimators, the sweep and the command line all read that
table, and every estimate comes out of one function, ``_estimate``; the
printed-weight routes are private rows of the same kind.

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
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .paths import (NONNEGATIVE, POSITIVE, MCConfig, PathBatch, _batches, _check_key,
                    check_formed, check_param)

NAIVE = "naive"
IDENTITY = "identity"

# Bandwidth rule for finite-difference density estimates: h = NAIVE_DENSITY_BW * a.
NAIVE_DENSITY_BW = 0.05


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo result.

    ``stderr`` is the sample standard deviation of the per-path values divided
    by sqrt(n_paths); it is reported raw, with no clamping of the mean, so
    cross-estimator comparisons stay interpretable.  It carries no timing:
    equal calls give equal estimates.
    """

    mean: float
    stderr: float
    n_paths: int
    method: str
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if not math.isfinite(self.mean):
            raise ValueError(f"estimate mean is not finite: {self.mean}")
        if not 0 <= self.stderr < math.inf:  # NaN fails this too
            bound = "finite" if self.stderr == math.inf else "nonnegative"
            raise ValueError(f"stderr must be {bound}, got {self.stderr}")

    def combined_stderr(self, other: "Estimate") -> float:
        return math.hypot(self.stderr, other.stderr)


def _ensemble_for(
    t: float, keys: Sequence[tuple[float, float]], cfg: MCConfig,
    ensemble: Mapping | None,
) -> dict[tuple[float, float], PathBatch]:
    """The batch at each (horizon, drift) key of a call at horizon ``t``,
    keyed by that pair: supplied batches where possible, the rest drawn in
    one call of the path core, which checks their keys.

    Chunk keys depend only on (master_seed, chunk, n_steps), so batches
    simulated in separate calls with equal cfg still share their underlying
    increments; passing an ensemble is purely an optimization.  Its batches
    are looked up by their own (t, nu), so it may be the drift-keyed mapping
    of :func:`~asianmc.paths.sample_ensemble` or the (t, nu)-keyed one of
    :func:`shared_ensemble`.  A supplied batch the call reads must have been
    drawn with its cfg, and a drift the call reads at ``t`` must not be
    supplied only at other horizons; any other key the ensemble lacks is
    drawn.
    """
    have = {(b.t, b.nu): b for b in ensemble.values()} if ensemble else {}
    for b in have.values():
        if ((b.t, b.nu) in keys and b.cfg != cfg
                or (t, b.nu) in keys and (t, b.nu) not in have):
            raise ValueError(f"the supplied drift-{b.nu} batch was drawn at t={b.t} with "
                             f"{b.cfg}, but the call is at t={t} with {cfg}")
    missing = [key for key in keys if key not in have]
    if missing:
        have.update(next(_batches([(missing, cfg)])))
    return have


def _wrap(values: np.ndarray, method: str, flags: tuple[str, ...] = ()) -> Estimate:
    """The :class:`Estimate` of per-path ``values``: their mean and its
    stderr.  Every Monte Carlo estimate is made here."""
    n = len(values)
    m = values.sum() / n  # np.mean's own arithmetic, without its Python wrapper
    stderr = 0.0
    if n > 1:
        dev = values - m
        np.square(dev, out=dev)
        stderr = math.sqrt(float(dev.sum()) / (n - 1)) / math.sqrt(n)
    return Estimate(float(m), stderr, n, method, flags)


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
    event on the drifted functionals.  There the body also carries the
    printed drift factor (a/(a + A))^{2 nu}, built once per split, so it
    is at most 1 only for nu >= 0; for nu < 0 the factor (1 + A/a)^{2|nu|}
    is unbounded but has every moment.  Only the CDF identity, and the
    density and gamma through it, read a drifted split.

    The batch keeps the last split built on it, so every curve read at one
    (batch, a) shares one exp and one drift factor: a second call with the
    same batch and threshold returns the same two arrays.  They are
    read-only, and a builder allocates its output rather than writing into
    them.
    """
    cached = batch._split
    if cached is not None and cached[0] == a:
        return cached[1], cached[2]
    # One float buffer per split, updated in place: the estimators run on
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
    if batch.nu != 0.0:
        factor = integ + a
        np.divide(a, factor, out=factor)
        factor **= 2.0 * batch.nu
        body *= factor
    body.flags.writeable = tail.flags.writeable = False
    object.__setattr__(batch, "_split", (a, body, tail))
    return body, tail


def cdf_identity_values(batch: PathBatch, a: float) -> np.ndarray:
    """Split-weight values whose mean estimates Pr[A_t^{(nu)} <= a].

    ``body + tail`` of :func:`split_weight`, for every drift: the body is
    the printed drift-nu weight (a/(a + A))^{2 nu} e^{Y - 2/a} on
    {Y <= 2/a}, its drift factor built in the split; the tail is
    1{A < a < A + a X}.  Both on the batch's own drift.  For nu >= 0 every
    value lies in [0, 2]; for nu < 0 the body factor (1 + A/a)^{2|nu|} is
    unbounded but has every moment.
    """
    body, tail = split_weight(batch, a)
    return body + tail


def _drift_weight(batch0: PathBatch, nu: float, out: np.ndarray | None = None) -> np.ndarray:
    """The change-of-drift weight M^nu e^{nu t/2 - nu^2 t/2} per driftless
    path, in ``out`` if given: its mean under the driftless law of an
    expression in (M, A) is the drift-nu expectation of that expression."""
    t = batch0.t
    out = np.power(batch0.terminal, nu, out=out)
    out *= math.exp(nu * t / 2.0 - nu * nu * t / 2.0)
    return out


def tilted_cdf_values(batch0: PathBatch, a: float, nu: float) -> np.ndarray:
    """Exponential-tilt estimator of Pr[A_t^{(nu)} <= a] on driftless paths.

    Weights M^nu e^{nu t/2 - nu^2 t/2} 1{A <= a} (:func:`_drift_weight`);
    the exact change of drift, with the truncation indicator kept.
    """
    values = _drift_weight(batch0, nu)
    values *= batch0.integral <= a
    return values


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
    integ = batch0.integral
    body, tail = split_weight(batch0, a)
    scratch = integ + a
    np.divide(a, scratch, out=scratch)
    if nu != 0.0:
        scratch **= 2.0 * nu + 1.0
    values = body * scratch
    values *= a
    np.subtract(a, integ, out=scratch)
    scratch *= tail
    values += scratch
    if nu != 0.0:
        values *= _drift_weight(batch0, nu, out=scratch)
    values += stable_exp_rate(nu, t) - a
    return values


def _two_over_square(a: float, name: str = "2/a^2") -> float:
    """2/a^2, the factor of the density identities; ValueError naming
    ``name`` where it leaves the float range (a below about 1e-154 or above
    about 1e154)."""
    return check_formed(name, lambda: 2.0 / a**2)


def kernel_d2_identity_values(batch0: PathBatch, a: float) -> np.ndarray:
    """Per-path values for d^2/da^2 E[(A_t - a)^+], driftless paths only.

    Printed weight (2/a^2 - 2M/(a+A)^2) e^{Y - 2/a}, split by
    :func:`split_weight`; the tail factor is (2/a^2)(1 - M).
    """
    m, integ = batch0.terminal, batch0.integral
    body, tail = split_weight(batch0, a)
    c = _two_over_square(a)
    scratch = integ + a
    scratch *= scratch
    np.divide(m, scratch, out=scratch)
    scratch *= -2.0
    scratch += c
    values = body * scratch
    np.subtract(1.0, m, out=scratch)
    scratch *= c
    scratch *= tail
    values += scratch
    return values


def density_identity_values(batch0: PathBatch, batch1: PathBatch, a: float) -> np.ndarray:
    """Per-path values of the two-drift density identity, on shared paths.

    g_t(a) = (2/a^2) (Pr[A_t <= a] - Pr[A_t^{(1)} <= a]) with each CDF
    through :func:`cdf_identity_values` on its own drift batch.
    """
    values = cdf_identity_values(batch1, a)
    np.subtract(cdf_identity_values(batch0, a), values, out=values)
    values *= _two_over_square(a)
    return values


def _fd_bandwidth(a: float, bandwidth: float | None) -> float:
    h = NAIVE_DENSITY_BW * a if bandwidth is None else float(bandwidth)
    if not 0.0 < h < a:
        raise ValueError(f"bandwidth must lie in (0, a), got {h}")
    return h


def _density_naive_values(ens, a, t, bandwidth=None, **_):
    h = _fd_bandwidth(a, bandwidth)
    integ = ens[t, 0.0].integral
    values = (integ <= a + h).astype(float)
    values -= integ <= a - h
    values /= 2.0 * h
    return values, (f"h={h:.17g}",)


def _excess(integ, a, h=0.0, out=None) -> np.ndarray:
    """max((A - a) + h, 0) per path, in one buffer: ``out`` if given."""
    out = np.subtract(integ, a, out=out)
    if h:
        out += h
    return np.maximum(out, 0.0, out=out)


def _kernel_d2_naive_values(ens, a, t, bandwidth=None, **_):
    # (max(A - a - h, 0) - 2 max(A - a, 0) + max(A - a + h, 0)) / h^2, in
    # that order, in one output and one scratch buffer
    h = _fd_bandwidth(a, bandwidth)
    integ = ens[t, 0.0].integral
    values = _excess(integ, a, -h)
    scratch = _excess(integ, a)
    scratch *= 2.0
    values -= scratch
    values += _excess(integ, a, h, out=scratch)
    values /= check_formed(f"bandwidth h^2 (h = {NAIVE_DENSITY_BW} a by default)",
                           lambda: h**2, POSITIVE)
    return values, (f"h={h:.17g}",)


def _joint_identity_values(ens, b, a, t, **_) -> np.ndarray:
    batch = ens[t, 0.0]
    m, integ = batch.terminal, batch.integral
    body, tail = split_weight(batch, a)
    values = integ / a  # the bound b (1 + A/a)^2 on M, then the values
    values += 1.0
    values *= values
    values *= b
    keep = m <= values
    np.multiply(body, keep, out=values)
    np.less_equal(m, b, out=keep)
    keep &= tail
    values += keep
    return values


def _weighted_cdf_estimate(ens, a, t, nu, **_):
    values = weighted_cdf_values(ens[t, nu], a)
    return values, ("tail-underflow",) if values.max() == 0.0 else ()


def _transform_values(ens, f, a, t, **_) -> np.ndarray:
    batch = ens[t, 0.0]
    m, integ = batch.terminal, batch.integral
    shrink = 1.0 + integ / a
    fx = np.asarray(f(m / shrink**2, integ / shrink), dtype=float)
    bad = ~np.isfinite(fx)
    if bad.any():
        raise ValueError(f"f returned a non-finite value at path index {int(np.argmax(bad))}")
    return fx * weighted_cdf_values(batch, a)


# ---------------------------------------------------------------------------
# the quantity table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Quantity:
    """One row of :data:`QUANTITIES`: how to estimate one quantity.

    ``params`` maps each parameter, in the order of the public function, to
    the bound :func:`~asianmc.paths.check_param` holds it to (None: finite).
    ``methods`` maps each method, in the order the command line's ``both``
    runs them, to ``(reads, values)``.  ``reads`` lists the drifts the
    method reads at the call's horizon, each a number or the name of the
    parameter that holds it, or is a function of the arguments that returns
    the (horizon, drift) keys it reads; ``values(ensemble, **args)`` gets the
    batches keyed by (horizon, drift) and returns the per-path values, or
    ``(values, flags)`` where the estimate carries flags of its own (a
    finite-difference row names its bandwidth ``h=`` there).  The mean and
    stderr are always those of the values (:func:`_wrap`).
    :meth:`threshold` is the level the integral is compared with, if any;
    a grid whose dt/2 reaches it cannot resolve it, and the estimate says
    so.  A closed form is table data too: :meth:`exact` returns the
    quantity's exact value at arguments where it has one (the option rows at
    strike 0), and such a call reads no key and draws nothing.
    ``defaults`` are the sweep's grid defaults and the command line's flag
    defaults; a parameter without one must be given.
    """

    params: Mapping[str, str | None]
    methods: Mapping[str, tuple[tuple[float | str, ...], Callable]]
    defaults = {"t": 1.0, "nu": 0.0}

    def arguments(self, point: Mapping[str, float]) -> dict:
        """The public function's arguments at one parameter point."""
        return dict(point)

    def horizon(self, args: Mapping) -> float:
        return args["t"]

    def threshold(self, args: Mapping) -> float | None:
        """The level the integral is compared with: the argument ``a``, or
        None for a quantity without one."""
        return args.get("a")

    def check(self, args: Mapping) -> None:
        for name, bound in self.params.items():
            check_param(name, args[name], bound)

    def exact(self, args: Mapping) -> float | None:
        """The exact value at ``args``, or None where it must be estimated."""
        return None

    def keys(self, method: str, args: Mapping) -> tuple[tuple[float, float], ...]:
        """The (horizon, drift) keys ``method`` reads at ``args``: none for a
        call with an exact value."""
        if self.exact(args) is not None:
            return ()
        reads = self.methods[method][0]
        return tuple(reads(**args) if callable(reads) else (
            (self.horizon(args), args[d] if isinstance(d, str) else d) for d in reads))


# the CDF's methods; call_kernel_d1, d/da E[(A_t - a)^+] = -1 + Pr[A_t <= a],
# is each of them at drift 0, minus 1
_CDF_METHODS = {
    NAIVE: (("nu",), lambda ens, a, t, nu, **_: (ens[t, nu].integral <= a).astype(float)),
    IDENTITY: (("nu",), lambda ens, a, t, nu, **_: cdf_identity_values(ens[t, nu], a)),
}

# Every quantity the sweep and the command line know, by public function
# name; asianmc.greeks adds the option quantities (price and four Greeks).
QUANTITIES: dict[str, Quantity] = {
    "cdf": Quantity({"a": POSITIVE, "t": None, "nu": None}, _CDF_METHODS),
    "density": Quantity({"a": POSITIVE, "t": POSITIVE}, {
        NAIVE: ((0.0,), _density_naive_values),
        IDENTITY: ((0.0, 1.0),
                   lambda ens, a, t, **_: density_identity_values(ens[t, 0.0], ens[t, 1.0], a)),
    }),
    "joint_cdf": Quantity({"b": POSITIVE, "a": POSITIVE, "t": None}, {
        NAIVE: ((0.0,), lambda ens, b, a, t, **_:
                ((ens[t, 0.0].terminal < b) & (ens[t, 0.0].integral < a)).astype(float)),
        IDENTITY: ((0.0,), _joint_identity_values),
    }),
    "call_kernel": Quantity({"a": POSITIVE, "t": None, "nu": None}, {
        NAIVE: (("nu",), lambda ens, a, t, nu, **_: _excess(ens[t, nu].integral, a)),
        IDENTITY: ((0.0,), lambda ens, a, t, nu, **_: kernel_identity_values(ens[t, 0.0], a, nu)),
    }),
    "call_kernel_d1": Quantity({"a": POSITIVE, "t": POSITIVE}, {
        method: ((0.0,), lambda ens, a, t, cdf_values=values, **_: cdf_values(ens, a, t, 0.0) - 1.0)
        for method, (_, values) in _CDF_METHODS.items()}),
    "call_kernel_d2": Quantity({"a": POSITIVE, "t": POSITIVE}, {
        NAIVE: ((0.0,), _kernel_d2_naive_values),
        IDENTITY: ((0.0,), lambda ens, a, t, **_: kernel_d2_identity_values(ens[t, 0.0], a)),
    }),
}

# the printed-weight routes, each a private row
_CDF_WEIGHTED = Quantity(QUANTITIES["cdf"].params, {IDENTITY: (("nu",), _weighted_cdf_estimate)})
_TRANSFORM = Quantity({"a": POSITIVE, "t": NONNEGATIVE}, {IDENTITY: ((0.0,), _transform_values)})


def _estimate(q: Quantity, cfg: MCConfig | None, method: str,
              ensemble: Mapping[float, PathBatch] | None, **args) -> Estimate:
    """Estimate row ``q`` at ``args`` (its parameters, as from
    :meth:`Quantity.arguments`, and any keyword-only extras such as
    ``bandwidth``) with ``method``, reading ``ensemble`` where it has the keys.

    The values and their wrap are the float-range backstop: an overflow,
    division by zero or invalid operation there (underflow stays silent)
    raises ValueError naming the method and ``args``, where it would
    otherwise warn and leave an infinite or NaN estimate.  A key the path
    core cannot draw names them too, after its own message, since an option
    row's horizon is formed from several parameters.  Constants that can
    leave the float range are checked, and named, where they are formed."""
    q.check(args)
    if cfg is None:
        raise ValueError("an MCConfig is required")
    if method not in q.methods:
        raise ValueError(f"unknown method {method!r}")
    exact = q.exact(args)
    if exact is not None:
        return Estimate(exact, 0.0, cfg.n_paths, method, ("closed-form",))
    horizon = q.horizon(args)
    try:  # a key the path core cannot draw names the horizon it is at
        ens = _ensemble_for(horizon, q.keys(method, args), cfg, ensemble)
    except ValueError as exc:
        raise ValueError(f"{exc} ({_call(method, args)})") from None
    try:  # an overflow, division by zero or NaN in the values or their wrap
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            out = q.methods[method][1](ens, **args)
            values, flags = out if isinstance(out, tuple) else (out, ())
            dt = horizon / cfg.n_steps
            threshold = q.threshold(args)
            if threshold is not None and threshold <= dt / 2:
                # every trapezoid integral is at least dt/2, since X_0 = 1:
                # the grid cannot resolve a threshold this low
                flags = (f"coarse-grid(dt={dt:.17g})",) + flags
            return _wrap(values, method, flags)
    except FloatingPointError as exc:
        raise ValueError(f"{_call(method, args)} leaves the float range: {exc}") from None


def _call(method: str, args: Mapping) -> str:
    """A call of ``_estimate`` in words, for its error messages."""
    return f"{method} estimate at " + ", ".join(f"{name}={value}" for name, value in args.items())


def _call_keys(calls: Iterable[tuple[str, str, Mapping]]) -> list[tuple[float, float]]:
    """The sorted (horizon, drift) keys the ``(quantity, method, args)`` calls
    read.  A call whose arguments or method the quantity rejects, or that
    reads a key the path core cannot draw (a negative horizon), adds no key;
    made with the ensemble, it raises its own error."""
    keys: set[tuple[float, float]] = set()
    for quantity, method, args in calls:
        q = QUANTITIES[quantity]
        try:
            q.check(args)
            reads = q.keys(method, args) if method in q.methods else ()
            for h, nu in reads:
                _check_key(h, nu)
        except ValueError:
            continue
        keys.update(reads)
    return sorted(keys)


def shared_ensemble(cfg: MCConfig, calls: Iterable[tuple[str, str, Mapping]],
                    *, threads: int | None = None) -> dict[tuple, PathBatch]:
    """One ensemble, keyed by (horizon, drift), with every key the
    ``(quantity, method, args)`` calls read, at whatever horizons they read
    them (the FD vega reads two sigma-moved ones), drawn in one call of the
    path core, so that all of them share one draw of normals.  ``threads``
    spreads that draw's chunks over worker threads as in
    :func:`~asianmc.paths.sample_ensemble`; None (the default) is serial.

    A call with an exact value reads no key.  Calls whose arguments or
    method the quantity rejects, or that read a negative horizon, add no
    key; made with this ensemble, they raise their own error.
    """
    return next(_batches([(_call_keys(calls), cfg)], threads))


# ---------------------------------------------------------------------------
# public estimators
# ---------------------------------------------------------------------------


def transform_expectation(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: float,
    t: float,
    cfg: MCConfig,
    *,
    ensemble: Mapping[float, PathBatch] | None = None,
) -> Estimate:
    """Estimate E[f(M_t, A_t); A_t < a] without simulating the truncation.

    Implements the generic driftless transform: with y = 2/a,

        e^{-y} E[ f(M/(1 + (y/2)A)^2, A/(1 + (y/2)A)) exp(M/(1/y + A/2)) ]

    ``a`` is the truncation level on the time integral: the transform
    removes the event {A_t < a} in exchange for the printed weight
    (:func:`weighted_cdf_values`).  ``f`` must be vectorized over numpy
    arrays and finite on every sampled path; a non-finite output raises with
    the offending path index.
    """
    return _estimate(_TRANSFORM, cfg, IDENTITY, ensemble, f=f, a=a, t=t)


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
