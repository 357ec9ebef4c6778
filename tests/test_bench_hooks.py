"""The benchmark still works against the program.

perfbench/spans.py wraps functions by the name they are bound under in
the module that calls them, so a renamed or removed name there breaks
the benchmark.  The names are read from spans.py itself, which is run
from its path and left as it is.  The benchmark's checkers read the
program's outputs (a granted design's raw y, g, gamma, beta and zeta,
trajectories, certificates); their self-test runs here as it is.
"""

import importlib
import pathlib
import subprocess
import sys
import types

import pytest

PERFBENCH = pathlib.Path(__file__).parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def load_spans():
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


_spans = load_spans()
HOOKS = sorted({(module, name) for module, name, *_ in _spans.POINTS}
               | set(_spans.CAPTURES))


def test_hooks_listed():
    assert HOOKS


@pytest.mark.parametrize("module, name", HOOKS,
                         ids=[f"{m}.{n}" for m, n in HOOKS])
def test_hook_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))


def test_benchmark_selftest():
    pytest.importorskip("scipy")
    done = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "all checks judged correctly" in done.stdout
