"""Subprocesses started by the tests import p1dyn from this checkout's src/; shared fixtures."""

import os
from pathlib import Path

import pytest

from p1dyn import cli, verify
from p1dyn.bounds import BOUND_ORDER
from p1dyn.magnitude import exact

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])


class _ZeroTable:
    """A bound table whose every label reads exact(0); ``read`` lists the labels asked for."""

    def __init__(self):
        self.read = []

    def __getitem__(self, label):
        assert label in BOUND_ORDER, label
        self.read.append(label)
        return exact(0)


@pytest.fixture
def zero_bounds(monkeypatch):
    """Every bound that verify and the sweep's Q check read is 0, so each nonzero count fails.

    Yields the one table both share; the sweep's per-(s, count) verdicts are
    cleared before and after, so no other test reads a verdict made here.
    """
    table = _ZeroTable()
    monkeypatch.setattr(verify, "aggregate_bounds", lambda d, s: table)
    monkeypatch.setattr(cli, "aggregate_bounds", lambda d, s: table)
    cli._within_q.cache_clear()
    yield table
    cli._within_q.cache_clear()
