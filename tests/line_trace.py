"""Line trace of the test suite: which statements in ``src/`` never run?

    python tests/line_trace.py

Runs the ``tests`` directory in this process under a ``sys.settrace``
line tracer, with the wall-time scaling gate deselected (timings under a
tracer mean nothing), and prints each statement of ``src/coiquery`` that
no test ran, as ``path:line  source``, then their count.  A statement
ran when a line of its own reported a line event: its header, not the
body of a compound statement.  Constant expressions (docstrings) compile
to no code and ``try`` lines to none worth counting, so neither is
listed.  Code run in a subprocess is not traced, so the ``python -m``
entry point is listed.  Exits with pytest's status.  Standard library
and pytest only; pytest does not collect this file.  The run takes about
two minutes.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coiquery"
DESELECT = "tests/test_acceptance.py::test_wall_time_scaling_stays_within_budget"


def statements(source: str):
    """Yield ``(first line, own lines)`` for each statement that compiles to code."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Try, ast.Global)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        decorators = getattr(node, "decorator_list", [])
        first = min([node.lineno, *(d.lineno for d in decorators)])
        own = set(range(first, node.end_lineno + 1))
        for field in ("body", "orelse", "finalbody", "handlers"):
            for child in getattr(node, field, []):
                own.difference_update(range(child.lineno, child.end_lineno + 1))
        yield first, own


def line_tracer(lines: set[int]):
    """A local trace function adding each line event's number to ``lines``."""
    add = lines.add

    def trace(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return trace

    return trace


def main() -> int:
    paths = sorted(PACKAGE.glob("*.py"))
    hits: dict[Path, set[int]] = {path: set() for path in paths}
    tracers = {str(path): line_tracer(lines) for path, lines in hits.items()}
    known: dict[str, object] = {}

    def dispatch(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in known:
            known[name] = tracers.get(os.path.realpath(name))
        return known[name]

    os.chdir(ROOT)
    threading.settrace(dispatch)
    sys.settrace(dispatch)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--deselect", DESELECT, "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = []
    for path in paths:
        source = path.read_text()
        text = source.splitlines()
        for first, own in sorted(statements(source)):
            if not own & hits[path]:
                where = f"{path.relative_to(ROOT)}:{first}"
                missed.append(f"{where}  {text[first - 1].strip()}")
    print(*missed, f"{len(missed)} statements in src/ never ran", sep="\n")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
