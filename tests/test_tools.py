"""The repository's tools: the code-line counter that aim 2's count comes from."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

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
