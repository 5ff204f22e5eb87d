"""Subprocesses started by the tests import p1dyn from this checkout's src/."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])
