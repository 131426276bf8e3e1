"""The repository's tools: the code-line counter that aim 2's count comes
from, and the A/B timer, in-process and over fresh benchmark runs."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "code_lines.py"

# 22 lines, 9 of them code: the import, the class and def lines, the
# assignment, the four lines of the call and the return
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a comment after code


class Thing:
    """Class docstring."""

    # a comment line
    size = 3


def join(x):
    """Function docstring
    that spans lines."""
    y = os.path.join(
        "a",
        x,  # a comment inside the call
    )

    return y
'''


def test_code_lines_counts_only_code(tmp_path):
    (tmp_path / "fixture.py").write_text(FIXTURE)
    assert len(FIXTURE.splitlines()) == 22
    out = subprocess.run([sys.executable, str(TOOL), "-v", str(tmp_path)], capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["     9  fixture.py", "9"]


def test_ab_compares_the_outputs_of_the_two_sides():
    # the working tree against itself: every op's output on the first cycle
    # is the same on both sides, and the tool says so and exits 0
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), ".", ".",
                          "--workload", "sweep-bias", "--cycles", "1"],
                         cwd=ROOT, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "  outputs: no op differs"
    assert "  failed ops: base 0, change 0" in run.stdout.splitlines()


def test_ab_times_the_set_up_of_fresh_processes():
    # --setup 1: after a warm-up probe of each side, one timed fresh-process
    # probe per side, each with that side's package standing in for asianmc
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), ".", ".",
                          "--workload", "greeks-fd", "--cycles", "1", "--setup", "1"],
                         cwd=ROOT, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    setup = [line for line in run.stdout.splitlines() if line.startswith("  setup_s: ")]
    assert len(setup) == 1, run.stdout
    number = r"\d+\.\d{4}"
    assert re.fullmatch(rf"  setup_s: base {number} \[{number}, {number}\]  change {number} "
                        rf"\[{number}, {number}\]  \([+-]\d+\.\d%\); change won [01]/1 pairs, "
                        r"[01] ties", setup[0]), setup[0]


def _ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_verdict_reads_paired_runs_by_the_simplicity_review_rule():
    verdict = _ab().verdict
    # median 1.00, quartiles 0.98 and 1.02: the base's runs spread 0.04
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    faster = [b - 0.1 for b in base]
    # a gain: 9 of 10 pairs won and the medians 0.095 apart, beyond the spread
    assert verdict(base, [1.5] + faster[1:], "lower", 0.25) == "gain"
    # 8 of 10 pairs won, or 8 won and 2 ties (which count for neither)
    assert verdict(base, [1.5, 1.5] + faster[2:], "lower", 0.25) == "same"
    assert verdict(base, base[:2] + faster[2:], "lower", 0.25) == "same"
    # every pair won, but the medians differ by less than the spread
    assert verdict(base, [b - 0.03 for b in base], "lower", 0.25) == "same"
    # fewer than ten pairs cannot show a gain
    assert verdict(base[:6], faster[:6], "lower", 0.25) == "same"
    # worse: the median 30% above the base's against a 25% bound; 20% is not
    assert verdict(base, [b * 1.3 for b in base], "lower", 0.25) == "worse"
    assert verdict(base, [b * 1.2 for b in base], "lower", 0.25) == "same"
    # a metric where higher is better reads the same numbers the other way
    assert verdict(base, [b + 0.1 for b in base], "higher", 0.25) == "gain"
    assert verdict(base, faster, "higher", 0.05) == "worse"
    # base runs that spread wider than the bound cannot show the change the same
    wide = [1.0, 2.0] * 5
    assert verdict(wide, wide, "lower", 0.25) == "unresolved"
    assert verdict(wide, [0.9] * 10, "lower", 0.25) == "same"


def test_ab_checkout_holds_the_sides_package_and_the_working_trees_benchmark(tmp_path):
    # a fresh run reads the side's package with the working tree's benchmark
    _ab()._checkout(".", tmp_path)
    for name in ("src/asianmc/estimators.py", "perfbench/run.py", "perfbench/workloads.py",
                 "BENCHMARK.json"):
        assert (tmp_path / name).read_bytes() == (ROOT / name).read_bytes(), name
