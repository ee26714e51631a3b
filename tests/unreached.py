"""Unreached statements: the statements of ``src/timebin_analyzer`` that no
test executes.

Run from the repository root::

    PYTHONPATH=src python tests/unreached.py [pytest arguments] > unreached.json

It runs the tier-1 tests in this process (``pytest -q
--continue-on-collection-errors`` and any further arguments, which narrow
the run) under ``sys.settrace``, recording the lines executed in the
package's own files, and prints one JSON document: for each module with an
unreached statement, ``{"<line>": "<first line of the statement>"}``.
pytest's own output goes to stderr, and the exit code is pytest's.

A statement is an AST statement; docstrings, ``def``, ``class`` and imports
are left out.  A statement counts as reached when any of its lines ran;
for a compound statement (``if``, ``for``, ``try``, ...) that includes its
body.  Code run in a subprocess (the demos, the CLI entry point) is not
traced.  Traced, tier-1 takes about 53 s against 30 s
plain on a 2-core VM.  pytest does not collect this file.
"""

import ast
import contextlib
import json
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "timebin_analyzer"
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_SKIPPED = (*_DEFINITIONS, ast.Import, ast.ImportFrom)


def trace_tests(args):
    """Run pytest with ``args`` under the tracer; return its exit code and
    the set of (file name, line) executed in the package."""
    prefix = str(PACKAGE) + "/"
    executed = set()
    ours = {}

    def line(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = name.startswith(prefix)
        return line if ours[name] else None

    import pytest

    threading.settrace(call)
    sys.settrace(call)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(["-q", "--continue-on-collection-errors", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), executed


def statements(tree):
    """Each counted statement of ``tree`` with the lines that reach it."""
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, *_DEFINITIONS)) and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    for node in ast.walk(tree):
        if (isinstance(node, ast.stmt) and not isinstance(node, _SKIPPED)
                and id(node) not in docstrings):
            yield node, range(node.lineno, node.end_lineno + 1)


def unreached(executed):
    """{module: {line: source}} of the statements no executed line reaches."""
    report = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran = {ln for name, ln in executed if name == str(path)}
        missed = {
            node.lineno: lines[node.lineno - 1].strip()
            for node, reach in statements(ast.parse(source))
            if ran.isdisjoint(reach)
        }
        if missed:
            report[path.name] = dict(sorted(missed.items()))
    return report


if __name__ == "__main__":
    status, lines_run = trace_tests(sys.argv[1:])
    print(json.dumps(unreached(lines_run), indent=1))
    sys.exit(status)
