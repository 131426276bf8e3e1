"""Deterministic command-line front end.

Subcommands: price, greeks, cdf, density, joint, kernel, sweep, bias.
Output is CSV (or a pretty table) with the fixed header

    quantity,method,a,t,nu,s0,strike,sigma,rate,expiry,n_paths,n_steps,seed,estimate,stderr,wall_ms,flags

Absent parameters serialize as empty fields and floats use 17 significant
digits, so identical invocations produce byte-identical files.  The wall_ms
column is always left empty for that reason; wall times are available on the
Estimate objects through the library API.  Exit codes: 0 success, 1 usage
error, 2 numeric or domain error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys
from typing import Mapping, Sequence

from . import bench, greeks
from .estimators import (IDENTITY, NAIVE, QUANTITIES, Estimate, _fd_bandwidth, estimate,
                         shared_ensemble)
from .paths import MCConfig, default_steps

CSV_HEADER = (
    "quantity", "method", "a", "t", "nu", "s0", "strike", "sigma", "rate",
    "expiry", "n_paths", "n_steps", "seed", "estimate", "stderr", "wall_ms", "flags",
)

# --threads default: one per CPU this process may run on (its affinity mask),
# not one per core of the host
DEFAULT_THREADS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_DOMAIN = 2


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1 and a one-line remedy."""

    def error(self, message: str) -> None:  # type: ignore[override]
        sys.stderr.write(f"error: {message}\nremedy: run '{self.prog} --help' for usage\n")
        raise SystemExit(_EXIT_USAGE)


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _row(quantity: str, method: str, est: Estimate | None, params: Mapping, n_paths: int,
         n_steps: int | str, seed: int, flags: Sequence[str] = ()) -> list[str]:
    """One CSV row; the parameter columns are read from ``params`` by name,
    and a ``b`` parameter, which has no column, leads the flags.  Without an
    estimate (a failed sweep cell) the estimate and stderr fields stay empty."""
    if "b" in params:
        flags = (f"b={params['b']:.17g}",) + tuple(flags)
    mean = stderr = None
    if est is not None:
        mean, stderr, flags = est.mean, est.stderr, tuple(est.flags) + tuple(flags)
    return [
        quantity, method, *(_fmt(params.get(name)) for name in CSV_HEADER[2:10]),
        _fmt(n_paths), _fmt(n_steps), _fmt(seed),
        _fmt(mean), _fmt(stderr), "", ";".join(flags),
    ]


def _emit(rows: list[list[str]], args) -> None:
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        header = ["quantity", "method", "estimate", "stderr", "flags"]
        picked = [[r[0], r[1], r[13], r[14], r[16]] for r in rows]
        widths = [max(len(h), *(len(p[i]) for p in picked)) if picked else len(h)
                  for i, h in enumerate(header)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        for p in picked:
            lines.append("  ".join(v.ljust(w) for v, w in zip(p, widths)))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--paths", type=int, default=100_000, help="Monte Carlo paths")
    p.add_argument("--steps", type=int, default=None,
                   help="grid steps per path (default: 1024 per unit effective time, min 256)")
    p.add_argument("--seed", type=int, default=42, help="master seed")
    p.add_argument("--method", choices=("naive", "identity", "both", "fd"),
                   default="both", help="estimator family")
    p.add_argument("--antithetic", action="store_true", default=False,
                   help="pair path 2k+1 with the negated increments of path 2k")
    p.add_argument("--threads", type=int, default=DEFAULT_THREADS,
                   help="worker threads over which each command spreads its chunks of "
                        "paths, one per usable CPU by default; results do not depend on this")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="output file (default: standard output)")
    p.add_argument("--format", choices=("csv", "pretty"), default="csv",
                   help="output format")


def _add_option_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--s0", type=float, default=1.0, help="initial asset price")
    p.add_argument("--strike", type=float, default=1.0, help="fixed strike")
    p.add_argument("--sigma", type=float, default=1.0, help="volatility per sqrt(year)")
    p.add_argument("--rate", type=float, default=0.0, help="continuously compounded rate")
    p.add_argument("--expiry", type=float, default=1.0, help="years to expiry")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing does not change it."""
    parser = _Parser(
        prog="asianmc",
        description="Monte Carlo estimators for time-integrated exponential "
                    "Brownian motion and Asian call Greeks.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_: str, option_args: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        if option_args:
            _add_option_args(p)
        _add_common(p)
        return p

    command("price", "Asian call price", option_args=True)

    p = command("greeks", "price plus delta, gamma, theta, vega", option_args=True)
    p.add_argument("--fd-check", action="store_true", default=False,
                   help="append common-random-number finite-difference cross-checks")

    p = command("cdf", "Pr[A_t^(nu) <= a]")
    p.add_argument("--a", type=float, required=True, help="threshold (positive)")
    p.add_argument("--t", type=float, default=1.0, help="time horizon")
    p.add_argument("--nu", type=float, default=0.0, help="drift")

    p = command("density", "density of A_t at a")
    p.add_argument("--a", type=float, required=True, help="evaluation point (positive)")
    p.add_argument("--t", type=float, default=1.0, help="time horizon")
    p.add_argument("--bandwidth", type=float, default=None,
                   help="finite-difference half-width for the naive method (default 0.05*a)")

    p = command("joint", "Pr[M_t < b, A_t < a]")
    p.add_argument("--b", type=float, required=True, help="terminal threshold (positive)")
    p.add_argument("--a", type=float, required=True, help="integral threshold (positive)")
    p.add_argument("--t", type=float, default=1.0, help="time horizon")

    p = command("kernel", "E[(A_t^(nu) - a)^+] and its a-derivatives")
    p.add_argument("--a", type=float, required=True, help="threshold (positive)")
    p.add_argument("--t", type=float, default=1.0, help="time horizon")
    p.add_argument("--nu", type=float, default=0.0, help="drift (order 0 only)")
    p.add_argument("--order", type=int, choices=(0, 1, 2), default=0,
                   help="derivative order in a")

    p = command("sweep", "evaluate a quantity over parameter grids")
    p.add_argument("--quantity", required=True,
                   choices=tuple(QUANTITIES),
                   help="what to sweep")
    p.add_argument("--grid", action="append", default=[], metavar="NAME=V1,V2,...",
                   help="parameter grid, repeatable (e.g. --grid a=0.5,1,2)")
    p.add_argument("--paths-grid", default=None, metavar="N1,N2,...",
                   help="path-count grid (default: the single --paths value)")
    p.add_argument("--seeds", default=None, metavar="S1,S2,...",
                   help="seed list (default: the single --seed value)")

    p = command("bias", "trapezoid bias of the mean integral on nested grids")
    p.add_argument("--t", type=float, default=1.0, help="time horizon")
    p.add_argument("--nu", type=float, default=1.0, help="drift")
    p.add_argument("--steps-grid", default="16,64,256,1024", metavar="N1,N2,...",
                   help="step counts; each must divide the largest")

    return parser


def _method_choice(args, valid: Sequence[str]) -> tuple[str, ...]:
    if args.method == "both":
        return tuple(valid)
    if args.method not in valid:
        raise ValueError(f"--method {args.method} is not valid for {args.command}; "
                         f"choose from both, {', '.join(valid)}")
    return (args.method,)


def _cfg(args, horizon: float) -> MCConfig:
    steps = args.steps if args.steps is not None else default_steps(horizon)
    return MCConfig(n_paths=args.paths, n_steps=steps, master_seed=args.seed,
                    antithetic=args.antithetic)


def _run_quantity(args) -> list[list[str]]:
    """One quantity at one point, every chosen method on one shared ensemble."""
    if args.command == "kernel":
        name = ("call_kernel", "call_kernel_d1", "call_kernel_d2")[args.order]
        if args.order and args.nu != 0.0:
            raise ValueError(f"--nu is taken only by kernel --order 0, not --order {args.order}")
    else:
        name = {"joint": "joint_cdf"}.get(args.command, args.command)
    q = QUANTITIES[name]
    methods = _method_choice(args, tuple(q.methods))
    call = q.arguments({p: getattr(args, p) for p in q.params})
    horizon = q.horizon(call)
    cfg = _cfg(args, horizon)
    ens = shared_ensemble(cfg, [(name, m, call) for m in methods], threads=args.threads)
    options = {"bandwidth": args.bandwidth} if name == "density" else {}
    rows = []
    for m in methods:
        est = estimate(name, call, cfg, m, ens, **options)
        flags = (f"h={_fd_bandwidth(args.a, args.bandwidth):.17g}",) \
            if options and m == NAIVE else ()
        rows.append(_row(name, m, est, vars(args), cfg.n_paths, cfg.n_steps,
                         cfg.master_seed, flags))
    return rows


def _run_greeks(args) -> list[list[str]]:
    spec = greeks.OptionSpec(args.s0, args.strike, args.sigma, args.rate, args.expiry)
    cfg = _cfg(args, spec.horizon)
    method = IDENTITY if args.method == "both" else _method_choice(args, (NAIVE, IDENTITY))[0]
    report = greeks.greek_report(spec, cfg, method, fd_check=args.fd_check, threads=args.threads)
    ests = [(name, getattr(report, name)) for name in ("price", "delta", "gamma", "theta", "vega")]
    ests += (report.fd_cross_checks or {}).items()
    return [_row(name, est.method, est, vars(args), cfg.n_paths, cfg.n_steps, cfg.master_seed)
            for name, est in ests]


def _parse_list(option: str, text: str, kind: type) -> tuple:
    """The comma-separated values of ``option``, each converted by ``kind``."""
    try:
        return tuple(kind(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"{option} takes comma-separated {kind.__name__} values, "
                         f"got {text!r}") from None


def _parse_grid(items: list[str]) -> dict[str, tuple[float, ...]]:
    grids: dict[str, tuple[float, ...]] = {}
    for item in items:
        name, _, values = item.partition("=")
        if not values:
            raise ValueError(f"grid {item!r} is not of the form name=v1,v2,...")
        grids[name.strip()] = _parse_list(f"--grid {name.strip()}", values, float)
    return grids


def _run_sweep(args) -> list[list[str]]:
    q = QUANTITIES[args.quantity]
    spec = bench.SweepSpec(
        quantity=args.quantity,
        grids=_parse_grid(args.grid),
        n_paths=(args.paths,) if args.paths_grid is None
        else _parse_list("--paths-grid", args.paths_grid, int),
        seeds=(args.seed,) if args.seeds is None else _parse_list("--seeds", args.seeds, int),
        methods=tuple(q.methods) if args.method == "both" else (args.method,),
        n_steps=args.steps,
        antithetic=args.antithetic,
    )
    rows = []
    for row in bench.run_sweep(spec, threads=args.threads).rows:
        pt = dict(row.point)
        if row.error is None:
            flags, steps = (), spec.n_steps or default_steps(q.horizon(q.arguments(pt)))
        else:
            flags, steps = (f"error={row.error}",), spec.n_steps or ""
        rows.append(_row(args.quantity, row.method, row.estimate, pt, row.n_paths, steps,
                         row.seed, flags))
    return rows


def _run_bias(args) -> list[list[str]]:
    steps = _parse_list("--steps-grid", args.steps_grid, int)
    cfg = MCConfig(n_paths=args.paths, n_steps=max(steps), master_seed=args.seed,
                   antithetic=args.antithetic)
    report = bench.quadrature_bias_report(args.t, args.nu, steps, cfg, threads=args.threads)
    return [_row("quadrature_bias", "nested",
                 Estimate(row.mean_integral, row.stderr, cfg.n_paths, "nested"), vars(args),
                 cfg.n_paths, row.n_steps, cfg.master_seed, (f"gap={row.closed_form_gap:.17g}",))
            for row in report]


# price, cdf, density, joint and kernel each estimate one quantity
_RUNNERS = {"greeks": _run_greeks, "sweep": _run_sweep, "bias": _run_bias}


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, dispatch, and return the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.threads < 1:
            raise ValueError(f"--threads must be >= 1, got {args.threads}")
        rows = _RUNNERS.get(args.command, _run_quantity)(args)
        _emit(rows, args)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        sys.stderr.write(f"error: {exc}\nremedy: adjust the offending parameter and rerun\n")
        return _EXIT_DOMAIN
    return _EXIT_OK


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
