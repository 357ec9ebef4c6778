"""List the statements of src/gridforge that a pytest run never reaches.

Run from the repository root, with any pytest arguments (none runs the
whole suite quietly):

    python tests/statement_trace.py
    python tests/statement_trace.py tests/test_lmi.py

pytest runs in this process under sys.settrace and threading.settrace,
and only frames of code in src/gridforge are traced line by line.  The
statements come from each file's ast: every statement node except
docstrings, `def` and `class` statements (their bodies count) and `try`
statements, whose `try:` line runs no code of its own.  A statement is
reached when any of its lines outside its nested statements ran.  The
script prints each unreached statement as file:line with its first
line of source, then the count per file and in total, and exits with
pytest's exit code.

It cannot see the lines that run in another process: the row ranges
that _forks.forked_ranges hands to forked children (the sweep's solves
and the CSV writer's rows) and anything a test runs in a subprocess.
Such a line is listed unless this process also ran it.  The hypothesis
tests draw new examples each run, so the list can differ between runs
by a statement that only some draws reach.  Tracing slows
the suite, so a test with a wall-time bound may fail under this script.
pytest collects only test_*.py files, so it never collects this one.
"""

import ast
import os
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gridforge"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statements(path: pathlib.Path) -> dict:
    """{first line: the statement's own lines} of each counted statement."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, *DEFS))
                  and ast.get_docstring(node, clean=False) is not None}
    found = {}
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt)
                or isinstance(node, (*DEFS, ast.Try))
                or id(node) in docstrings):
            continue
        own = set(range(node.lineno, node.end_lineno + 1))
        for inner in ast.walk(node):
            if inner is not node and isinstance(inner, ast.stmt):
                own -= set(range(inner.lineno, inner.end_lineno + 1))
        found[node.lineno] = own
    return found


def trace_pytest(args: list) -> tuple:
    """(pytest's exit code, {file: lines run}) of one traced pytest run."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    inside: dict = {}  # code file name -> real path, or None outside
    ran: set = set()

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            real = os.path.realpath(name)
            inside[name] = real if real.startswith(prefix) else None
        return lines if inside[name] else None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_file: dict = {}
    for name, line in ran:
        by_file.setdefault(inside[name], set()).add(line)
    return code, by_file


def main(argv: list) -> int:
    code, ran = trace_pytest(argv or ["-q"])
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        hit = ran.get(str(path.resolve()), set())
        missed = sorted(first for first, own in statements(path).items()
                        if not own & hit)
        for first in missed:
            print(f"{path.relative_to(ROOT)}:{first}: "
                  f"{source[first - 1].strip()}")
        counts[path.stem] = len(missed)
    print(", ".join(f"{stem} {n}" for stem, n in counts.items() if n))
    print(f"total: {sum(counts.values())} statements never reached")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
