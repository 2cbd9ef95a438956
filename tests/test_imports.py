"""What ``import settower`` loads, seen from a fresh interpreter.

The package imports every layer, so a library user pays at start-up for
whatever any layer imports at module level.  The command line's argparse
and json load only when ``cli.main`` needs them, and no layer pulls in
dataclasses (which brings inspect, ast, dis and tokenize), typing,
threading, enum, functools or collections.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import settower

SRC = str(Path(settower.__file__).resolve().parent.parent)

# A denylist rather than an allowlist: what the interpreter itself loads
# at start-up differs between Python versions.
NOT_LOADED_BY_IMPORT = (
    "argparse", "json", "dataclasses", "inspect", "typing", "threading",
    "enum", "functools", "collections",
)

MODULES = ("cli", "countability", "dyadic", "errors", "hfset", "naturals", "reals", "relations")

# -I -S: no environment variables, user site or site-packages, so only the
# interpreter's own start-up and this import fill sys.modules.
CHILD = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import settower
added = sorted(set(sys.modules) - before)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = settower.cli.main(["eval", "1"])
print(repr((added, code, out.getvalue(), "argparse" in sys.modules)))
"""


@pytest.fixture(scope="module")
def child():
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", CHILD, SRC],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    added, code, out, argparse_loaded = ast.literal_eval(proc.stdout)
    return set(added), code, out, argparse_loaded


def test_import_loads_no_denylisted_module(child):
    added = child[0]
    assert sorted(added.intersection(NOT_LOADED_BY_IMPORT)) == []


def test_import_loads_every_module_of_the_package(child):
    added = child[0]
    assert {f"settower.{name}" for name in MODULES} <= added


def test_main_loads_argparse_on_first_use(child):
    _, code, out, argparse_loaded = child
    assert (code, out, argparse_loaded) == (0, "1\n", True)
