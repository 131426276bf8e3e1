"""Byte-identical CSV: one small run of each command against its recorded text.

``csv_corpus.json`` maps each command line to the CSV it printed when it was
recorded.  The text is kept rather than a hash, so a failure shows the row
that moved.  A change that moves a row on purpose re-records the corpus
with ``PYTHONPATH=src python3 tests/test_csv_corpus.py --record`` and says
which rows moved and why; ``--diff`` in place of ``--record`` prints, for
each entry, the rows that differ from the recorded text.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from itertools import zip_longest
from pathlib import Path

import pytest

from asianmc.cli import run

CORPUS = Path(__file__).with_name("csv_corpus.json")
SIZE = ("--paths", "256", "--steps", "64")

# one small run of each command, at most 256 paths and 64 steps and no
# antithetic, then three that break that rule: a default-grid sweep over two
# horizons (512 and 1,024 steps), an antithetic bias run at an odd path count
# and an antithetic sweep with closed-form cells; last, one run more of each
# command route that picks its own method, extras or threads: a naive greeks
# report and a density with a bandwidth, both within the rule, then a
# two-chunk threaded cdf (1,500 paths, 16 steps) and an antithetic kernel
ARGVS = [
    ("price", *SIZE),
    ("greeks", "--fd-check", "--seed", "3", *SIZE),
    ("cdf", "--a", "1", "--t", "0.5", "--nu", "1", *SIZE),
    ("density", "--a", "0.5", *SIZE),
    ("joint", "--b", "1.5", "--a", "1", *SIZE),
    ("kernel", "--a", "1", "--nu", "-0.5", "--order", "0", *SIZE),
    ("kernel", "--a", "1", "--order", "1", *SIZE),
    ("kernel", "--a", "2", "--order", "2", *SIZE),
    ("sweep", "--quantity", "call_kernel", "--grid", "a=0.5,1", "--grid", "nu=0,1",
     "--seeds", "1,2", "--paths-grid", "128,256", "--steps", "64"),
    ("bias", "--t", "2", "--nu", "0.5", "--steps-grid", "16,32,64", "--paths", "256"),
    ("sweep", "--quantity", "cdf", "--grid", "a=1", "--grid", "t=0.5,1", "--paths", "256"),
    ("bias", "--t", "1", "--nu", "1", "--steps-grid", "8,16,32", "--paths", "255", "--antithetic"),
    ("sweep", "--quantity", "price", "--grid", "strike=0,1", "--paths", "256", "--steps", "16",
     "--antithetic"),
    ("greeks", "--fd-check", "--method", "naive", *SIZE),
    ("density", "--a", "0.5", "--bandwidth", "0.01", *SIZE),
    ("cdf", "--a", "1", "--method", "naive", "--paths", "1500", "--steps", "16", "--threads", "2"),
    ("kernel", "--a", "1", "--order", "1", "--method", "identity", "--antithetic", *SIZE),
]


def csv_text(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert run(list(argv)) == 0, argv
    return out.getvalue()


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_csv_is_byte_identical_to_the_recorded_text(argv):
    assert csv_text(argv) == json.loads(CORPUS.read_text())[" ".join(argv)]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    CORPUS.write_text(json.dumps({" ".join(argv): csv_text(argv) for argv in ARGVS}, indent=1)
                      + "\n")
elif __name__ == "__main__" and sys.argv[1:] == ["--diff"]:
    recorded = json.loads(CORPUS.read_text())
    for argv in ARGVS:
        rows = zip_longest(recorded[" ".join(argv)].splitlines(), csv_text(argv).splitlines())
        moved = [(old, new) for old, new in rows if old != new]
        print(f"{' '.join(argv)}: {len(moved)} differing rows")
        for old, new in moved:
            print(f"  - {old}\n  + {new}")
