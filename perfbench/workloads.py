"""The three benchmark workloads and the correctness checks on their outputs.

Each workload is a fixed list of ops.  An op calls asianmc only through its
public entry points (``asianmc.cli.run`` or the library functions the demos
use) and returns what the program produced; the op's check returns the list
of failed oracle checks on that output.  The workload seed is the master
seed of every op, so one seed always gives the same inputs and outputs.

The checks use only oracles that do not depend on either Monte Carlo family
(closed forms, the exact structure of the naive curves, the trapezoid bias of
a known mean) and one cross-family comparison restricted to cells where both
standard errors can be trusted.  Identity/naive gaps caused by the heavy
tail of the indicator-free weights are not failures; the traced run counts
them as ``estimators.heavy_tail_cells``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "asianmc" / "__init__.py").is_file():
    raise ImportError(f"asianmc sources not found under {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import asianmc as am  # noqa: E402
from asianmc import cli  # noqa: E402

# A cross-family cell is compared only when the naive indicator saw at least
# this many paths on each side of the threshold, at both drifts.
TRUSTED_EVENTS = 100
CROSS_FAMILY_SIGMAS = 5.0
BIAS_SIGMAS = 4.0
EXACT_TOL = 1e-12


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass(frozen=True)
class CliResult:
    code: int
    csv: str
    stderr: str

    def rows(self) -> list[dict[str, str]]:
        return list(csv.DictReader(io.StringIO(self.csv)))


def run_cli(argv: list[str]) -> CliResult:
    """Call ``asianmc.cli.run`` with its standard output and error captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _cli_op(name: str, argv: list[str], check: Callable[[list[dict]], list[str]]) -> Op:
    def checked(res: CliResult) -> list[str]:
        if res.code != 0:
            return [f"exit code {res.code}: {res.stderr.strip()}"]
        rows = res.rows()
        errors = [f"row {i} flags {r['flags']}" for i, r in enumerate(rows) if "error=" in r["flags"]]
        return errors + check(rows)
    return Op(name, lambda: run_cli(argv), checked)


def _close(x: float, y: float, tol: float = EXACT_TOL) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(y))


# ---------------------------------------------------------------------------
# greeks-fd
# ---------------------------------------------------------------------------

GREEKS_EXPIRIES = (0.5, 1.0, 1.5)
GREEKS_PATHS = 2048
ZERO_STRIKE_RATE = 0.05
GREEK_ROWS = [("price", "identity"), ("delta", "identity"), ("gamma", "identity"),
              ("theta", "identity"), ("vega", "identity"),
              ("delta", "fd"), ("gamma", "fd"), ("theta", "fd"), ("vega", "fd")]


def _size(n_paths: int, steps: int | None) -> list[str]:
    return ["--paths", str(n_paths)] + ([] if steps is None else ["--steps", str(steps)])


def greeks_argv(seed: int, expiry: float, strike: float = 1.0, rate: float = 0.0,
                tiny: bool = False) -> list[str]:
    return ["greeks", "--fd-check", "--s0", "1", "--strike", repr(strike), "--sigma", "1",
            "--rate", repr(rate), "--expiry", repr(expiry), "--seed", str(seed)] \
        + (_size(64, 8) if tiny else _size(GREEKS_PATHS, None))


def _check_greek_rows(rows: list[dict]) -> list[str]:
    got = [(r["quantity"], r["method"]) for r in rows]
    return [] if got == GREEK_ROWS else [f"rows {got}"]


def check_atm_greeks(rows: list[dict]) -> list[str]:
    """FD delta and gamma differentiate the naive payoff e^{-r tau}(s0 A - sigma^2 k tau)^+
    / (tau sigma^2) in s0 with common paths; it is nondecreasing and convex in s0
    path by path, so both are nonnegative exactly."""
    bad = _check_greek_rows(rows)
    if bad:
        return bad
    est = {(r["quantity"], r["method"]): float(r["estimate"]) for r in rows}
    if est[("delta", "fd")] < 0.0:
        bad.append(f"fd delta {est[('delta', 'fd')]} < 0")
    if est[("gamma", "fd")] < -EXACT_TOL:
        bad.append(f"fd gamma {est[('gamma', 'fd')]} < 0")
    if not est[("price", "identity")] > 0.0:
        bad.append("price not positive")
    return bad


def check_zero_strike(rows: list[dict]) -> list[str]:
    """Strike 0: price s0 e^{-r tau}, delta e^{-r tau}, the rest 0, all exact."""
    bad = _check_greek_rows(rows)
    if bad:
        return bad
    for r in rows:
        disc = math.exp(-float(r["rate"]) * float(r["expiry"]))
        want = {"price": float(r["s0"]) * disc, "delta": disc}.get(r["quantity"], 0.0)
        if not _close(float(r["estimate"]), want) or float(r["stderr"]) != 0.0 \
                or "closed-form" not in r["flags"]:
            bad.append(f"{r['quantity']}/{r['method']} = {r['estimate']}, want {want!r}")
    return bad


def greeks_fd_ops(seed: int, tiny: bool = False) -> list[Op]:
    ops = [_cli_op(f"greeks tau={tau}", greeks_argv(seed, tau, tiny=tiny), check_atm_greeks)
           for tau in GREEKS_EXPIRIES]
    ops.append(_cli_op("greeks strike=0",
                       greeks_argv(seed, 1.0, strike=0.0, rate=ZERO_STRIKE_RATE, tiny=tiny),
                       check_zero_strike))
    return ops


# ---------------------------------------------------------------------------
# dist-curve
# ---------------------------------------------------------------------------

CURVE_T = 1.0
CURVE_PATHS = 32768
CURVE_STEPS = 64
CURVE_GRID = tuple(round(0.05 * k, 10) for k in range(1, 201))  # 0.05 .. 10
JOINT_B = 1.0
CURVES = ("cdf0", "cdf1", "density", "joint_cdf", "call_kernel", "d1", "d2")


def _curve_estimates(cfg, grid) -> dict[tuple[str, str], list]:
    """The demo's traffic: one ensemble at drifts (0, 1), every curve on it."""
    ens = am.sample_ensemble(CURVE_T, (0.0, 1.0), cfg)
    t = CURVE_T
    calls = {
        "cdf0": lambda a, m: am.cdf(a, t, 0.0, cfg, m, ensemble=ens),
        "cdf1": lambda a, m: am.cdf(a, t, 1.0, cfg, m, ensemble=ens),
        "density": lambda a, m: am.density(a, t, cfg, m, ensemble=ens),
        "joint_cdf": lambda a, m: am.joint_cdf(JOINT_B, a, t, cfg, m, ensemble=ens),
        "call_kernel": lambda a, m: am.call_kernel(a, t, 0.0, cfg, m, ensemble=ens),
        "d1": lambda a, m: am.call_kernel_d1(a, t, cfg, m, ensemble=ens),
        "d2": lambda a, m: am.call_kernel_d2(a, t, cfg, m, ensemble=ens),
    }
    out: dict[tuple[str, str], list] = {}
    for a in grid:
        for name in CURVES:
            for m in ("naive", "identity"):
                out.setdefault((name, m), []).append(calls[name](a, m))
    return out


def _trusted(p0: float, p1: float, n: int) -> bool:
    return min(p0, 1.0 - p0, p1, 1.0 - p1) * n >= TRUSTED_EVENTS


def tilt_gap(a: float, ident1, naive1, naive0, n: int) -> list[str]:
    """Cross-family check of the drifted CDF at one threshold: exponential tilt on
    driftless paths against the indicator on drifted paths, made only where both
    standard errors can be trusted."""
    if _trusted(naive0.mean, naive1.mean, n) and \
            abs(ident1.mean - naive1.mean) > CROSS_FAMILY_SIGMAS * ident1.combined_stderr(naive1):
        return [f"cdf nu=1 a={a}: tilt {ident1.mean} vs naive {naive1.mean}"]
    return []


def check_curves(out: dict[tuple[str, str], list]) -> list[str]:
    bad = []
    mean = {k: np.array([e.mean for e in v]) for k, v in out.items()}
    for name in ("cdf0", "cdf1"):
        if np.any(np.diff(mean[(name, "naive")]) < 0):
            bad.append(f"naive {name} decreases in a")
    if not np.allclose(mean[("d1", "naive")], mean[("cdf0", "naive")] - 1.0,
                       rtol=0.0, atol=EXACT_TOL):
        bad.append("naive d1 != naive cdf - 1")
    kern, a = mean[("call_kernel", "naive")], np.asarray(CURVE_GRID)
    if np.any(np.diff(kern) > EXACT_TOL):
        bad.append("naive kernel increases in a")
    slopes = np.diff(kern) / np.diff(a)
    if np.any(np.diff(slopes) < -EXACT_TOL * 1e3):
        bad.append("naive kernel not convex in a")
    total = float(np.trapezoid(mean[("density", "naive")], a))
    if abs(total - 1.0) > 0.02:
        bad.append(f"naive density integrates to {total}")
    n = out[("cdf0", "naive")][0].n_paths
    for k, a in enumerate(CURVE_GRID):
        bad += tilt_gap(a, out[("cdf1", "identity")][k], out[("cdf1", "naive")][k],
                        out[("cdf0", "naive")][k], n)
    return bad


def dist_curve_ops(seed: int, tiny: bool = False, grid=CURVE_GRID) -> list[Op]:
    cfg = am.MCConfig(1024 if tiny else CURVE_PATHS, CURVE_STEPS, seed)
    return [Op("curves", lambda: _curve_estimates(cfg, grid), check_curves)]


# ---------------------------------------------------------------------------
# sweep-bias
# ---------------------------------------------------------------------------

SWEEP_GRID = {"a": "0.5,1,2", "t": "0.5,1", "nu": "0,1"}
SWEEP_PATHS = 2048
SWEEP_THREADS = 2
BIAS_STEPS = (16, 64, 256, 1024)
BIAS_PATHS = 4096
BIAS_T, BIAS_NU = 1.0, 1.0


def sweep_argv(seed: int, tiny: bool = False) -> list[str]:
    argv = ["sweep", "--quantity", "cdf"]
    for name, values in SWEEP_GRID.items():
        argv += ["--grid", f"{name}={values}"]
    return argv + ["--seeds", f"{seed},{seed + 1}", "--threads", str(SWEEP_THREADS)] \
        + (_size(64, 8) if tiny else _size(SWEEP_PATHS, None))


def bias_argv(seed: int, tiny: bool = False) -> list[str]:
    steps = BIAS_STEPS[:2] if tiny else BIAS_STEPS
    return ["bias", "--t", repr(BIAS_T), "--nu", repr(BIAS_NU),
            "--steps-grid", ",".join(map(str, steps)), "--seed", str(seed)] \
        + _size(64 if tiny else BIAS_PATHS, None)


def check_sweep(rows: list[dict]) -> list[str]:
    n_points = math.prod(len(v.split(",")) for v in SWEEP_GRID.values())
    if len(rows) != n_points * 2 * 2:
        return [f"{len(rows)} rows, want {n_points * 4}"]
    n = int(rows[0]["n_paths"])
    cell = {(r["method"], float(r["t"]), float(r["nu"]), r["seed"], float(r["a"])):
            am.Estimate(float(r["estimate"]), float(r["stderr"]), n, r["method"]) for r in rows}
    naive_curves: dict[tuple, list[float]] = {}
    for (method, t, nu, seed, a), e in sorted(cell.items()):
        if method == "naive":
            naive_curves.setdefault((t, nu, seed), []).append(e.mean)
    bad = [f"naive cdf at (t, nu, seed) = {key} not nondecreasing in [0, 1]: {curve}"
           for key, curve in naive_curves.items()
           if min(curve) < 0.0 or max(curve) > 1.0 or np.any(np.diff(curve) < 0.0)]
    for (method, t, nu, seed, a), e in cell.items():
        if method == "identity" and nu == 1.0:
            bad += tilt_gap(a, e, cell[("naive", t, 1.0, seed, a)],
                            cell[("naive", t, 0.0, seed, a)], n)
    return bad


def check_bias(rows: list[dict]) -> list[str]:
    """Mean trapezoid integral against (e^{nu t} - 1)/nu, within BIAS_SIGMAS
    stderr plus 1.5 times the leading Euler-Maclaurin term dt^2/12 nu (e^{nu t} - 1)."""
    bad = [] if rows else ["no rows"]
    for r in rows:
        t, nu, steps = float(r["t"]), float(r["nu"]), int(r["n_steps"])
        target = math.expm1(nu * t) / nu if nu else t
        gap = abs(float(r["estimate"]) - target)
        flag = float(r["flags"].partition("gap=")[2])
        dt = t / steps
        allowance = 1.5 * dt * dt / 12.0 * abs(nu * math.expm1(nu * t))
        if not _close(flag, gap, 1e-9):
            bad.append(f"steps={steps}: gap flag {flag} != {gap}")
        if gap > BIAS_SIGMAS * float(r["stderr"]) + allowance:
            bad.append(f"steps={steps}: gap {gap} beyond stderr {r['stderr']} + {allowance}")
    return bad


def sweep_bias_ops(seed: int, tiny: bool = False) -> list[Op]:
    return [_cli_op("sweep", sweep_argv(seed, tiny), check_sweep),
            _cli_op("bias", bias_argv(seed, tiny), check_bias)]


# ---------------------------------------------------------------------------


WORKLOADS: dict[str, Callable[..., list[Op]]] = {
    "greeks-fd": greeks_fd_ops,
    "dist-curve": dist_curve_ops,
    "sweep-bias": sweep_bias_ops,
}


def warmup(workload: str) -> None:
    """A tiny pass of every op, through the same entry points, before timing."""
    for op in WORKLOADS[workload](0, tiny=True):
        op.call()


def first_call(workload: str) -> None:
    """One tiny call per op, the warm-up half of ``setup_s``.  dist-curve's op
    estimates every curve at a single threshold, so that estimator work on the
    dense a-grid does not count as set-up."""
    ops = dist_curve_ops(0, tiny=True, grid=(1.0,)) if workload == "dist-curve" \
        else WORKLOADS[workload](0, tiny=True)
    for op in ops:
        op.call()


# The golden CSV corpus holds every CLI op of the workloads at these seeds.
GOLDEN_SEEDS = (1, 2)


def golden_argvs() -> dict[str, list[list[str]]]:
    return {
        "greeks-fd": [greeks_argv(s, tau) for s in GOLDEN_SEEDS for tau in GREEKS_EXPIRIES]
        + [greeks_argv(s, 1.0, strike=0.0, rate=ZERO_STRIKE_RATE) for s in GOLDEN_SEEDS],
        "sweep-bias": [argv for s in GOLDEN_SEEDS for argv in (sweep_argv(s), bias_argv(s))],
    }
