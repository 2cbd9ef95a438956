"""The console checks of tests/console_checks.py, each run through
``python -m settower`` in a child process; CI runs the same table against
the installed console script."""

import os
import sys
from pathlib import Path

import pytest

import console_checks

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize("row", console_checks.CHECKS, ids=lambda row: row["name"])
def test_console_check(row, monkeypatch):
    path = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", SRC + (os.pathsep + path if path else ""))
    assert console_checks.failures(row, [sys.executable, "-m", "settower"]) == []


def test_no_check_shares_a_name():
    names = [row["name"] for row in console_checks.CHECKS]
    assert len(names) == len(set(names))
