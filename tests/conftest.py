"""Session setup: interpreters that the tests start import asianmc from src/.

pytest itself finds the package through ``pythonpath`` in pyproject.toml;
this puts the same directory on ``PYTHONPATH`` for the child processes of
the command-line tests, so a plain ``python -m pytest`` needs no setup.  The
10^6-path driftless ensemble that several tests read is drawn once here.
"""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session")
def driftless_1e6():
    """(cfg, ensemble): 10^6 paths at t = 1 and drift 0, 1024 steps, seed 42,
    keyed by drift, drawn once per session with the --threads default, at
    most 8 threads.  Its batches are read-only, so the tests share them."""
    import asianmc as am
    from asianmc.cli import DEFAULT_THREADS

    cfg = am.MCConfig(1_000_000, 1024, 42)
    return cfg, am.sample_ensemble(1.0, (0.0,), cfg, threads=min(8, DEFAULT_THREADS))
