"""Session setup: interpreters that the tests start import asianmc from src/.

pytest itself finds the package through ``pythonpath`` in pyproject.toml;
this puts the same directory on ``PYTHONPATH`` for the child processes of
the command-line tests, so a plain ``python -m pytest`` needs no setup.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
