"""The repository's tools: the code-line counter that aim 2's count comes
from, and the interleaved A/B timer."""

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
