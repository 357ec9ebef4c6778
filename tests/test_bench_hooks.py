"""Every program name the benchmark's tracer patches still resolves.

perfbench/spans.py wraps functions by the name they are bound under in
the module that calls them, so a renamed or removed name there breaks
the benchmark.  The names are read from spans.py itself, which is run
from its path and left as it is.
"""

import importlib
import pathlib
import types

import pytest

SPANS = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"


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
