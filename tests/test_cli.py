"""Command line: schema, determinism, exit codes, round-trip precision."""

import ast
import csv
import io
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import asianmc as am
from asianmc.cli import CSV_HEADER, run


def invoke(*argv):
    """Run the CLI in-process, capturing stdout/stderr and the exit code."""
    out, err = io.StringIO(), io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = run(list(argv))
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, out.getvalue(), err.getvalue()


def parse(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == list(CSV_HEADER)
    return [dict(zip(CSV_HEADER, row)) for row in rows[1:]]


# ---------------------------------------------------------------------------
# exit codes and help
# ---------------------------------------------------------------------------


def test_help_exits_zero_and_shows_defaults():
    code, out, _ = invoke("--help")
    assert code == 0
    code, out, _ = invoke("cdf", "--help")
    assert code == 0
    assert "default: 100000" in out and "default: 42" in out


def test_usage_error_exit_one_with_remedy():
    for argv in (("cdf",), ("joint", "--a", "1")):  # missing required --a, or --b
        code, _, err = invoke(*argv)
        assert code == 1
        assert "remedy" in err


def test_unknown_flag_rejected():
    code, _, err = invoke("price", "--bogus", "1")
    assert code == 1


def test_domain_error_exit_two():
    code, _, err = invoke("cdf", "--a", "-1", "--paths", "100", "--steps", "8")
    assert code == 2
    assert "positive" in err


@pytest.mark.parametrize("argv, message", [
    (("price", "--sigma", "inf"), "sigma must be finite"),
    (("price", "--s0", "nan"), "s0 must be finite"),
    (("greeks", "--expiry", "nan"), "expiry must be finite"),
    (("cdf", "--a", "1", "--t", "inf"), "t must be finite"),
    (("cdf", "--a", "1", "--t", "nan"), "t must be finite"),
    (("cdf", "--a", "inf"), "a must be finite"),
    (("joint", "--b", "inf", "--a", "1"), "b must be finite"),
    (("kernel", "--a", "1", "--nu", "nan"), "nu must be finite"),
    (("bias", "--t", "nan"), "t must be finite"),
    # a negative float literal in any form is a value, not a missing argument
    (("cdf", "--a", "-1e-300"), "a must be positive, got -1e-300"),
    (("cdf", "--a", "1", "--nu", "-inf"), "nu must be finite, got -inf"),
    (("cdf", "--a", "1", "--nu", "-NaN"), "nu must be finite, got nan"),
    # finite inputs whose horizon or scale is not a positive finite number
    (("price", "--sigma", "1e200"), "horizon sigma^2 expiry must be finite"),
    (("greeks", "--sigma", "1e200"), "horizon sigma^2 expiry must be finite"),
    (("price", "--sigma", "1e-200"), "horizon sigma^2 expiry must be positive"),
    (("price", "--s0", "1e-320"), "scale sigma^2 strike expiry / s0 must be finite"),
    (("price", "--s0", "1e300", "--strike", "1e-300"),
     "scale sigma^2 strike expiry / s0 must be positive"),
])
def test_nonfinite_input_exits_two_naming_the_parameter(argv, message):
    steps = () if argv[0] == "bias" else ("--steps", "8")  # bias takes no --steps
    code, out, err = invoke(*argv, "--paths", "64", *steps)
    assert code == 2 and out == ""
    assert message in err


SCALE = "scale sigma^2 strike expiry / s0"


# finite inputs at which a constant a builder forms (2/a^2, the naive
# bandwidth's h^2, the gamma's 2/scale^2, the FD gamma's step h^2) or the
# path core's drift factor exp(nu t) leaves the float range
@pytest.mark.parametrize("argv, name", [
    (("density", "--a", "1e-200"), "2/a^2"),
    (("density", "--a", "1e200"), "2/a^2"),
    (("kernel", "--order", "2", "--a", "1e200"), "bandwidth h^2 (h = 0.05 a"),
    (("kernel", "--order", "2", "--a", "1e-200"), "bandwidth h^2 (h = 0.05 a"),
    (("kernel", "--order", "2", "--a", "1e-200", "--method", "identity"), "2/a^2"),
    (("greeks", "--strike", "1e-300"), SCALE),
    (("greeks", "--sigma", "1e-100"), SCALE),
    (("greeks", "--s0", "1e-200"), SCALE),
    (("greeks", "--method", "naive", "--s0", "1e-200"), "FD step h^2 (h = 0.05 s0)"),
    (("cdf", "--a", "1", "--nu", "800"), "drift factor exp(nu t) at nu = 800.0, t = 1.0"),
    (("cdf", "--a", "1", "--t", "800", "--nu", "1"), "drift factor exp(nu t) at nu = 1.0, t = 800.0"),
    (("density", "--a", "1", "--t", "1e8"), "drift factor exp(nu t) at nu = 1.0, t = 100000000.0"),
    (("greeks", "--sigma", "1e8"), "drift factor exp(nu t) at nu = 1.0, t = 1e+16"),
    (("cdf", "--a", "1", "--nu", "700"), None),  # exp(700) is finite: exit 0
    # the identity kernel's change-of-drift weight M^700 overflows
    (("kernel", "--a", "1", "--nu", "700"), "nu"),
])
def test_extreme_constants_exit_two_naming_the_parameter_or_stay_finite(argv, name):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = invoke(*argv, "--paths", "64", "--steps", "8")
    assert [str(w.message) for w in caught] == []
    if name is None:
        assert code == 0 and err == "" and all(math.isfinite(float(r["estimate"]))
                                               for r in parse(out))
    else:
        assert code == 2 and out == ""
        assert name in err.splitlines()[0]


# each single-quantity command and its row; kernel --order 1 and 2 take no nu
_SINGLE_QUANTITY_COMMANDS = [
    (("price",), "price"), (("greeks", "--fd-check"), "price"), (("cdf",), "cdf"),
    (("density",), "density"), (("joint",), "joint_cdf"),
    (("kernel", "--order", "0"), "call_kernel"), (("kernel", "--order", "1"), "call_kernel_d1"),
    (("kernel", "--order", "2"), "call_kernel_d2"),
]


def _extreme_argvs():
    """Every parameter of every single-quantity command at 1e+-8, 1e+-100,
    1e+-200 and 1e+-300, each other required parameter at 1; and bias's t
    (at nu 0 and at its default nu 1) and nu at the same magnitudes; then
    each of those at its negative, which the parser reads as a value."""
    cases = [(("bias", "--nu", "0"), "t"), (("bias",), "t"), (("bias",), "nu")]
    for command, row in _SINGLE_QUANTITY_COMMANDS:
        q = am.estimators.QUANTITIES[row]
        cases += [((*command, *(arg for p in q.params if p not in q.defaults and p != name
                                for arg in (f"--{p}", "1"))), name) for name in q.params]
    for minus in ("", "-"):
        for prefix, name in cases:
            for value in (f"{minus}1e{sign}{e}" for e in (8, 100, 200, 300) for sign in "+-"):
                argv = (*prefix, f"--{name}", value)
                yield pytest.param(argv, name, id=" ".join(argv))


def test_a_drift_whose_grid_overflows_names_itself_in_the_cells_that_read_it():
    # exp(709 t) is finite at t = 1, but X e^{709 s} overflows on some of
    # the paths: every cell that reads that grid fails naming t and nu, with
    # no numpy warning, and a cell at another drift of the same draw keeps
    # its row
    message = "the path grid at nu = 709.0, t = 1.0 leaves the float range"
    size = ("--paths", "64", "--steps", "8", "--method", "naive")
    sweep = ("sweep", "--quantity", "cdf", "--grid", "a=1", *size)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for command in ("cdf", "kernel"):
            code, out, err = invoke(command, "--a", "1", "--nu", "709", *size)
            assert code == 2 and out == "" and message in err.splitlines()[0], err
        code, out, err = invoke(*sweep, "--grid", "nu=0,709")
        _, alone, _ = invoke(*sweep, "--grid", "nu=0")
    assert [str(w.message) for w in caught] == []
    assert code == 0 and err == ""
    rows = parse(out)
    assert out.splitlines()[:2] == alone.splitlines()
    assert rows[1]["nu"] == "709" and rows[1]["estimate"] == rows[1]["stderr"] == ""
    assert rows[1]["flags"].startswith(f"error={message} (naive estimate at a=1.0, t=1.0, ")


def test_a_negative_horizon_in_a_sweep_names_itself():
    # call_kernel bounds t only to be finite; a cell at t = -1 reads a key
    # the path core cannot draw, and it says so, not that the t = 1 batch it
    # was offered was drawn elsewhere; the t = 1 rows are those of a sweep
    # without the t = -1 cells
    sweep = ("sweep", "--quantity", "call_kernel", "--grid", "a=0.5,1", "--steps", "8",
             "--paths", "300")
    code, out, err = invoke(*sweep, "--grid", "t=-1,1")
    _, alone, _ = invoke(*sweep, "--grid", "t=1")
    assert code == 0 and err == ""
    rows = parse(out)
    errors = [(r["a"], r["method"], r["flags"]) for r in rows if r["t"] == "-1"]
    assert errors == [(a, m, f"error=time t must be nonnegative, got -1.0 ({m} estimate at "
                             f"a={float(a)}, t=-1.0, nu=0.0)")
                      for a in ("0.5", "1") for m in ("identity", "naive")]
    assert [line for line in out.splitlines() if ",-1,0," not in line] == alone.splitlines()


@pytest.mark.parametrize("argv, name", _extreme_argvs())
def test_every_parameter_at_extreme_magnitudes_names_itself_or_stays_finite(argv, name):
    # no numpy warning: either finite estimates and stderrs, or exit 2 with
    # a message whose first line names the parameter; through the float-range
    # backstop, with its value
    grid = ("--steps-grid", "4,8") if argv[0] == "bias" else ("--steps", "8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = invoke(*argv, "--paths", "64", *grid)
    assert [str(w.message) for w in caught] == []
    if code == 0:
        rows = parse(out)
        assert rows and all(math.isfinite(float(r[k])) for r in rows for k in ("estimate", "stderr"))
    else:
        assert code == 2 and out == ""
        first = err.splitlines()[0]
        assert re.search(rf"\b{name}\b", first), err
        if "leaves the float range" in first:
            assert f"{name}={float(argv[-1])!r}" in first, err


@pytest.mark.parametrize("exponent_form, plain_form", [("-1e-3", "-0.001"), ("-1E+0", "-1"),
                                                      ("-.5e1", "-5")])
def test_a_negative_value_in_exponent_form_reads_as_its_plain_form(exponent_form, plain_form):
    # argparse's own pattern reads only -1 and -0.5 forms as negative numbers
    size = ("--a", "1", "--paths", "64", "--steps", "8")
    code, out, err = invoke("cdf", *size, "--nu", exponent_form)
    assert (code, err) == (0, "") and out == invoke("cdf", *size, "--nu", plain_form)[1]


@pytest.mark.parametrize("argv, option", [
    (("price", "--method", "fd"), "--method fd"),
    (("greeks", "--method", "fd"), "--method fd"),
    (("kernel", "--a", "1", "--order", "1", "--nu", "2"), "--nu"),
    (("greeks", "--threads", "0"), "--threads"),
    (("sweep", "--quantity", "cdf", "--grid", "a=1", "--threads", "-3"), "--threads"),
])
def test_choice_the_quantity_does_not_take_exits_two(argv, option):
    code, out, err = invoke(*argv, "--paths", "64", "--steps", "8")
    assert code == 2 and out == ""
    assert option in err


@pytest.mark.parametrize("argv, chunks", [
    (("sweep", "--quantity", "cdf", "--grid", "a=0.5,1,2"), 1),
    (("cdf", "--a", "1", "--method", "both"), 1),
    (("greeks", "--fd-check"), 1),
    (("bias", "--steps-grid", "4,8"), 1),
    (("sweep", "--quantity", "cdf", "--grid", "a=1", "--grid", "t=0.5,1"), 1),
    (("sweep", "--quantity", "cdf", "--grid", "a=1", "--paths-grid", "64,32"), 1),
    (("price", "--strike", "0"), 0),
    (("sweep", "--quantity", "vega", "--grid", "strike=0"), 0),
], ids=["argv0", "argv1", "argv2", "argv3", "sweep-horizons", "sweep-paths-grid",
        "price-zero-strike", "sweep-zero-strike"])
def test_one_chunk_of_normals_per_command(argv, chunks, monkeypatch):
    # every point and method of one command shares one ensemble: 64 paths
    # are one chunk, so one draw of normals; greeks --fd-check reads the FD
    # vega's two bumped horizons from that same draw.  A sweep's horizons at
    # one seed are one draw, and its groups at other path counts read
    # prefixes of one stream, drawn once.  A zero-strike option row is
    # exact, so it draws nothing.  bias reads the grid it names
    calls = []
    draw = am.paths._chunk_normals
    monkeypatch.setattr(am.paths, "_chunk_normals",
                        lambda *a, **k: calls.append(a) or draw(*a, **k))
    steps = () if argv[0] == "bias" else ("--steps", "8")
    code, _, err = invoke(*argv, "--paths", "64", *steps)
    assert code == 0, err
    assert len(calls) == chunks


def test_bias_takes_no_steps_or_method_flag():
    # bias reads its grids from --steps-grid and has one method, so it
    # rejects both flags rather than ignoring them, and no prefix of
    # --steps-grid stands in for --steps
    for flag in (("--steps", "8"), ("--method", "naive"), ("--steps-g", "4,8")):
        code, out, err = invoke("bias", "--paths", "64", "--steps-grid", "4,8", *flag)
        assert code == 1 and out == "" and f"unrecognized arguments: {' '.join(flag)}" in err
    code, out, _ = invoke("bias", "--help")
    assert code == 0 and "--steps-grid" in out
    assert not re.search(r"--steps\b(?!-)|--method", out)


def test_parser_is_built_once_and_keeps_no_arguments(monkeypatch):
    # the parser is cached per process; each parse starts from the defaults,
    # and repeated --grid options do not pile up across calls
    parsed = []
    parse_args = am.cli._Parser.parse_args

    def recording(self, *args, **kwargs):
        parsed.append((self, parse_args(self, *args, **kwargs)))
        return parsed[-1][1]

    monkeypatch.setattr(am.cli._Parser, "parse_args", recording)
    am.cli.build_parser.cache_clear()
    plain = ("greeks", "--paths", "64", "--steps", "8")
    sweep = ("sweep", "--quantity", "cdf", "--grid", "a=1", "--paths", "64", "--steps", "8")
    first = [invoke(*plain), invoke(*sweep)]
    invoke("greeks", "--fd-check", "--antithetic", "--seed", "3", "--paths", "128",
           "--steps", "16", "--method", "naive")
    invoke(*sweep[:3], "--grid", "t=0.5,2", *sweep[3:])
    assert [invoke(*plain), invoke(*sweep)] == first
    assert len({id(parser) for parser, _ in parsed}) == 1
    assert vars(parsed[-2][1]) == vars(parsed[0][1]) and parsed[-1][1].grid == ["a=1"]


# ---------------------------------------------------------------------------
# schema and values
# ---------------------------------------------------------------------------


def test_zero_strike_price_closed_form_row():
    code, out, _ = invoke("price", "--s0", "1", "--strike", "0", "--sigma", "1",
                          "--rate", "0.05", "--expiry", "1")
    assert code == 0
    rows = parse(out)
    assert {r["method"] for r in rows} == {"naive", "identity"}
    for r in rows:
        assert float(r["estimate"]) == math.exp(-0.05)
        assert float(r["stderr"]) == 0.0
        assert "closed-form" in r["flags"]
        assert r["wall_ms"] == ""
        assert r["a"] == "" and r["s0"] == "1"


def test_kernel_both_methods_two_rows():
    args = ("kernel", "--a", "0.4", "--t", "0.5", "--method", "both",
            "--paths", "500", "--seed", "7")
    code, out, _ = invoke(*args)
    assert code == 0
    rows = parse(out)
    assert [r["method"] for r in rows] == ["naive", "identity"]
    assert all(r["quantity"] == "call_kernel" for r in rows)
    code2, out2, _ = invoke(*args)
    assert out2 == out  # bit-identical rerun


SPEC = am.OptionSpec(1.0, 1.0, 1.0, 0.05, 1.0)
OPTION_ARGS = ("--s0", "1", "--strike", "1", "--sigma", "1", "--rate", "0.05", "--expiry", "1")
# every single-quantity subcommand: its arguments, the direct library call
# and the flags the CSV adds to the estimate's own
ROUND_TRIPS = [
    (("price", *OPTION_ARGS), lambda cfg, m: am.price(SPEC, cfg, m), {}),
    # the parameter flags' defaults
    (("price",), lambda cfg, m: am.price(am.OptionSpec(1, 1, 1, 0, 1), cfg, m), {}),
    (("cdf", "--a", "1"), lambda cfg, m: am.cdf(1.0, 1.0, 0.0, cfg, m), {}),
    (("cdf", "--a", "1", "--nu", "0"), lambda cfg, m: am.cdf(1.0, 1.0, 0.0, cfg, m), {}),
    (("cdf", "--a", "1", "--nu", "1"), lambda cfg, m: am.cdf(1.0, 1.0, 1.0, cfg, m), {}),
    (("density", "--a", "1"), lambda cfg, m: am.density(1.0, 1.0, cfg, m), {}),
    (("density", "--a", "1", "--bandwidth", "0.1"),
     lambda cfg, m: am.density(1.0, 1.0, cfg, m, bandwidth=0.1), {}),
    (("joint", "--b", "1", "--a", "1"), lambda cfg, m: am.joint_cdf(1.0, 1.0, 1.0, cfg, m),
     {"naive": ("b=1",), "identity": ("b=1",)}),
    (("kernel", "--a", "0.4", "--order", "0", "--nu", "0.5"),
     lambda cfg, m: am.call_kernel(0.4, 1.0, 0.5, cfg, m), {}),
    (("kernel", "--a", "0.4", "--order", "1"),
     lambda cfg, m: am.call_kernel_d1(0.4, 1.0, cfg, m), {}),
    (("kernel", "--a", "0.4", "--order", "2"),
     lambda cfg, m: am.call_kernel_d2(0.4, 1.0, cfg, m), {}),
]


def test_estimates_round_trip_to_library_values():
    code, out, _ = invoke("cdf", "--a", "1", "--t", "1", "--paths", "5000",
                          "--steps", "128", "--seed", "3", "--method", "identity")
    rows = parse(out)
    direct = am.cdf(1.0, 1.0, 0.0, am.MCConfig(5000, 128, 3), "identity")
    assert float(rows[0]["estimate"]) == direct.mean
    assert float(rows[0]["stderr"]) == direct.stderr

    # every single-quantity subcommand and method, bit for bit
    cfg = am.MCConfig(1500, 64, 3)
    for argv, direct_call, extra_flags in ROUND_TRIPS:
        code, out, err = invoke(*argv, "--paths", "1500", "--steps", "64", "--seed", "3")
        assert code == 0, err
        rows = parse(out)
        assert [r["method"] for r in rows] == ["naive", "identity"]
        for row in rows:
            direct = direct_call(cfg, row["method"])
            flags = ";".join(direct.flags + extra_flags.get(row["method"], ()))
            assert (float(row["estimate"]), float(row["stderr"]), row["flags"]) == \
                (direct.mean, direct.stderr, flags), (argv, row["method"])


def test_cdf_drift_tilt_flag_appears():
    # the flags column carries the library estimate's flags for a drifted cdf
    code, out, _ = invoke("cdf", "--a", "1", "--t", "1", "--nu", "1",
                          "--paths", "2000", "--steps", "64", "--method", "identity")
    rows = parse(out)
    direct = am.cdf(1.0, 1.0, 1.0, am.MCConfig(2000, 64, 42), "identity")
    assert rows[0]["flags"] == ";".join(direct.flags)
    assert float(rows[0]["estimate"]) == direct.mean


def test_coarse_grid_flag_when_the_grid_cannot_resolve_a():
    # every trapezoid integral is at least dt/2 (X_0 = 1), here 20/8/2 = 1.25,
    # so naive reads 0 with stderr 0 at a <= 1.25: both rows say so
    for quantity, a in (("cdf", "1"), ("cdf", "1.25"), ("kernel", "1")):
        code, out, _ = invoke(quantity, "--a", a, "--t", "20", "--steps", "8", "--paths", "2000")
        rows = parse(out)
        assert code == 0 and [r["flags"] for r in rows] == ["coarse-grid(dt=2.5)"] * 2
        if quantity == "cdf":
            assert (rows[0]["method"], rows[0]["estimate"], rows[0]["stderr"]) == ("naive", "0", "0")
    # an option row's threshold is its scale a = sigma^2 k tau / s0, here
    # 0.01 <= dt/2 = 1/16; the pricing-relation theta and the vega read it too
    for command in ("price", "greeks"):
        code, out, _ = invoke(command, "--strike", "0.01", "--steps", "8", "--paths", "2000")
        rows = parse(out)
        assert code == 0 and {r["flags"] for r in rows} == {"coarse-grid(dt=0.125)"}
    # above dt/2, or on a finer grid, nothing is added
    for argv in (("--a", "1.26", "--t", "20", "--steps", "8"),
                 ("--a", "1", "--t", "20", "--steps", "16")):
        code, out, _ = invoke("cdf", *argv, "--paths", "2000")
        assert code == 0 and [r["flags"] for r in parse(out)] == ["", ""]


def test_greeks_with_fd_check_has_nine_rows():
    code, out, _ = invoke("greeks", "--s0", "1", "--strike", "1", "--sigma", "1",
                          "--rate", "0", "--expiry", "1", "--paths", "2000",
                          "--steps", "64", "--seed", "1", "--fd-check")
    assert code == 0
    rows = parse(out)
    assert len(rows) == 9
    assert [r["quantity"] for r in rows] == [
        "price", "delta", "gamma", "theta", "vega", "delta", "gamma", "theta", "vega"]
    assert [r["method"] for r in rows[5:]] == ["fd"] * 4


def test_joint_and_density_and_bias_rows():
    code, out, _ = invoke("joint", "--b", "1", "--a", "1", "--t", "0.5",
                          "--paths", "1000", "--steps", "32")
    rows = parse(out)
    assert all("b=1" in r["flags"] for r in rows)

    code, out, _ = invoke("density", "--a", "1", "--t", "1", "--paths", "1000",
                          "--steps", "32", "--method", "naive")
    rows = parse(out)
    assert rows[0]["flags"] == "h=0.050000000000000003"
    # every naive finite-difference row names its bandwidth: the kernel's
    # second derivative and both quantities swept at one point
    for argv in (("kernel", "--a", "1", "--order", "2"),
                 ("sweep", "--quantity", "density", "--grid", "a=1"),
                 ("sweep", "--quantity", "call_kernel_d2", "--grid", "a=1")):
        code, out, err = invoke(*argv, "--paths", "1000", "--steps", "32", "--method", "naive")
        assert code == 0, err
        assert [r["flags"] for r in parse(out)] == [rows[0]["flags"]], argv

    code, out, _ = invoke("bias", "--t", "1", "--nu", "1", "--paths", "2000",
                          "--steps-grid", "16,64,256")
    rows = parse(out)
    assert [r["n_steps"] for r in rows] == ["16", "64", "256"]
    assert all("gap=" in r["flags"] for r in rows)


def test_sweep_rows_and_determinism():
    args = ("sweep", "--quantity", "cdf", "--grid", "a=0.5,1", "--grid", "t=0.5,1",
            "--paths-grid", "100,200", "--seeds", "1,2", "--steps", "32",
            "--method", "both")
    code, out, _ = invoke(*args)
    assert code == 0
    rows = parse(out)
    assert len(rows) == 2 * 2 * 2 * 2 * 2
    _, out2, _ = invoke(*args)
    assert out == out2


@pytest.mark.parametrize("argv, option", [
    (("sweep", "--quantity", "cdf", "--grid", "nonsense"), "grid 'nonsense'"),
    (("bias", "--steps-grid", "16,x"), "--steps-grid"),
    (("bias", "--steps-grid=-8,-4"), "step counts must be positive"),
    (("bias", "--steps-grid", "0,0"), "step counts must be positive"),
    (("sweep", "--quantity", "cdf", "--grid", "a=1,x"), "--grid a"),
    (("sweep", "--quantity", "cdf", "--grid", "a=1", "--seeds", "1,x"), "--seeds"),
    (("sweep", "--quantity", "cdf", "--grid", "a=1", "--paths-grid", "64,y"), "--paths-grid"),
    (("sweep", "--quantity", "cdf", "--grid", "a=1", "--steps", "0"),
     "n_steps must be >= 1, got 0"),
    (("sweep", "--quantity", "cdf", "--grid", "a=1", "--grid", "a=2"),
     "--grid a is given twice"),
], ids=["nonsense", "steps-grid", "negative-steps-grid", "zero-steps-grid", "grid", "seeds",
        "paths-grid", "steps", "repeated-grid"])
def test_sweep_bad_grid_is_domain_error(argv, option):
    code, out, err = invoke(*argv)
    assert code == 2 and out == ""
    assert option in err


def test_sweep_error_rows_leave_estimate_and_stderr_empty():
    code, out, err = invoke("sweep", "--quantity", "cdf", "--grid", "a=-1,1",
                            "--paths", "64", "--steps", "8")
    assert code == 0, err
    rows = parse(out)
    assert len(rows) == 4
    for r in rows:
        failed = r["a"] == "-1"
        assert ("error=a must be positive" in r["flags"]) == failed
        assert (r["estimate"] == "" and r["stderr"] == "") == failed
        if not failed:
            assert 0.0 <= float(r["estimate"]) <= 2.0 and float(r["stderr"]) >= 0.0


def test_out_file_matches_stdout(tmp_path):
    target = tmp_path / "result.csv"
    args = ("cdf", "--a", "1", "--paths", "500", "--steps", "32")
    _, out, _ = invoke(*args)
    code, _, _ = invoke(*args, "--out", str(target))
    assert code == 0
    assert target.read_text() == out


def test_pretty_format():
    code, out, _ = invoke("price", "--strike", "0", "--format", "pretty")
    assert code == 0
    assert out.splitlines()[0].startswith("quantity")


def test_byte_identical_across_threads_subprocess():
    cmd = [sys.executable, "-m", "asianmc", "greeks", "--paths", "2000",
           "--steps", "64", "--seed", "5"]
    outputs = set()
    for threads in ("1", "3"):
        proc = subprocess.run(cmd + ["--threads", threads],
                              capture_output=True, text=True, check=True)
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_console_entry_point_module():
    proc = subprocess.run([sys.executable, "-m", "asianmc", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


# numpy is the one declared dependency; scipy and others may be installed but
# must not be imported by the library
ALLOWED_IMPORTS = set(sys.stdlib_module_names) | {"numpy", "asianmc"}


def test_library_imports_only_numpy_and_the_standard_library():
    # every module, imported in a fresh interpreter: the top-level packages it
    # loads, beyond those loaded at start-up
    probe = ("import importlib, json, pkgutil, sys\n"
             "before = set(sys.modules)\n"
             "import asianmc\n"
             "for m in pkgutil.iter_modules(asianmc.__path__):\n"
             "    if m.name != '__main__':\n"
             "        importlib.import_module('asianmc.' + m.name)\n"
             "print(json.dumps(sorted({m.partition('.')[0] for m in set(sys.modules) - before})))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    loaded = set(json.loads(proc.stdout))
    assert {"asianmc", "numpy"} <= loaded
    assert loaded <= ALLOWED_IMPORTS, loaded - ALLOWED_IMPORTS
    # and no import statement, at module level or inside a function, names
    # anything else
    for source in Path(am.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in ALLOWED_IMPORTS, (source.name, name)


def test_only_the_path_module_makes_path_batches():
    # paths._batches turns the path core's arrays into batches, in the
    # library's one PathBatch call, at every stride; everything else asks
    # it for them
    def makes_batch(node):
        return isinstance(node, ast.Call) and "PathBatch" in _names(node.func)

    calls = [(source.name, node.lineno) for source in Path(am.__file__).parent.glob("*.py")
             for node in ast.walk(ast.parse(source.read_text())) if makes_batch(node)]
    assert len(calls) == 1 and _scopes(makes_batch) == {"paths._batches"}, calls


def _scopes(match):
    """The qualified scope, such as ``bench.SweepResult.seed_mean``, of every
    node of the library's modules for which ``match`` holds."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.add(scope)
            inner = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if inner else scope)

    for source in Path(am.__file__).parent.glob("*.py"):
        visit(ast.parse(source.read_text()), source.stem)
    return found


def _names(node):
    return getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)


def _references(name, imports=False):
    """A node matcher: a Name or Attribute that reads ``name``, and with
    ``imports`` an import of it."""
    kinds = (ast.Name, ast.Attribute, ast.alias) if imports else (ast.Name, ast.Attribute)
    return lambda node: isinstance(node, kinds) and name in _names(node)


def _function(scope):
    """The definition at a qualified scope such as ``greeks.price``."""
    module, *path = scope.split(".")
    node = ast.parse(Path(am.__file__).with_name(f"{module}.py").read_text())
    for name in path:
        node = next(child for child in node.body if getattr(child, "name", None) == name)
    return node


def test_one_harness_loop():
    # estimators._estimates is the one loop that draws and estimates: the
    # sweep (and the bias report, a sweep), the Greek report and each
    # single-quantity command read it.  Besides it, _estimate is read only by
    # public functions that are one call of it, and _batches is called only
    # by sample_ensemble and _ensemble_for; bench, cli and greek_report name
    # neither, and shared_ensemble is gone
    def one_call(scope):
        fn = _function(scope)
        body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
        return (not fn.name.startswith("_") and len(body) == 1
                and isinstance(body[0], ast.Return) and isinstance(body[0].value, ast.Call)
                and "_estimate" in _names(body[0].value.func))

    readers = _scopes(_references("_estimate"))
    assert {scope for scope in readers if not one_call(scope)} == {"estimators._estimates"}
    assert len(readers) > 10  # the public estimators and the greeks
    assert _scopes(lambda node: isinstance(node, ast.Call) and "_batches" in _names(node.func)) \
        == {"paths.sample_ensemble", "estimators._ensemble_for", "estimators._estimates"}
    assert _scopes(lambda node: isinstance(node, ast.Call) and "_estimates" in _names(node.func)) \
        == {"bench.run_sweep", "greeks.greek_report", "cli._run_quantity"}
    for name in ("_estimate", "_batches"):
        assert not {scope for scope in _scopes(_references(name, imports=True))
                    if scope.partition(".")[0] in ("bench", "cli")
                    or scope == "greeks.greek_report"}, name
    assert not hasattr(am.estimators, "shared_ensemble")
    assert not _scopes(_references("shared_ensemble", imports=True))


def test_one_route_to_the_path_core_and_to_the_wrapper():
    # only paths reads the path core's arrays; every Estimate is wrapped by
    # estimators._estimate, but for the across-seed mean of a sweep's cells
    assert {scope.partition(".")[0] for scope in
            _scopes(lambda node: "_simulate_all" in _names(node))} == {"paths"}
    assert _scopes(lambda node: isinstance(node, ast.Call) and "_wrap" in _names(node.func)) \
        == {"estimators._estimate", "bench.SweepResult.seed_mean"}


def test_one_drift_route_for_the_split_identities():
    # every split identity reads the paths of its own drift: the kernel
    # identity takes no drift and reads the call's, as its naive method does,
    # and the change-of-drift weight is read only by the exponential-tilt
    # CDF of vega's drift-1 survival
    assert _scopes(_references("_drift_weight", imports=True)) == {"estimators.tilted_cdf_values"}
    args = [arg.arg for arg in _function("estimators.kernel_identity_values").args.args]
    assert args == ["batch", "a"]
    methods = am.estimators.QUANTITIES["call_kernel"].methods
    assert methods["identity"][0] == methods["naive"][0] == ("nu",)
