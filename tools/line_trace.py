"""List the statements of ``src/citescale`` that no tier-1 test runs.

    python3 tools/line_trace.py [pytest arguments]

Runs the test suite in this process, as
``pytest -q -p no:cacheprovider --continue-on-collection-errors`` from the
repository root, under a ``sys.settrace`` tracer (and ``threading.settrace``
for threads started later) that records the lines run by frames of files
under ``src/citescale`` and traces no other frame.  It needs the standard
library and pytest only.

A statement, as ``ast`` finds it, counts as run if any of its own lines ran:
every line of a simple statement, or the header of a compound one (``if``
or ``while`` up to the end of its test, ``for`` up to its iterable, ``with``
up to its last item, the ``try`` line).
Docstrings, bare annotations and ``def``, ``class`` and ``import``
statements are not counted; the statements in their bodies are.  Code run
only in a subprocess is not traced.

Prints ``file:line source`` for each statement never run.  Exits with
pytest's code if a test failed, else 1 if a statement never ran outside an
``if __name__ == "__main__":`` body, else 0.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "citescale"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
UNCOUNTED = (*DEFS, ast.Import, ast.ImportFrom)


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, *DEFS))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _own_lines(node: ast.stmt) -> range:
    """The lines whose run means that ``node`` ran."""
    if isinstance(node, (ast.If, ast.While)):
        return range(node.lineno, node.test.end_lineno + 1)
    if isinstance(node, ast.For):
        return range(node.lineno, node.iter.end_lineno + 1)
    if isinstance(node, ast.With):
        last = node.items[-1]
        return range(node.lineno, (last.optional_vars or last.context_expr).end_lineno + 1)
    if isinstance(node, ast.Try):
        return range(node.lineno, node.lineno + 1)
    return range(node.lineno, node.end_lineno + 1)


def _is_main_guard(node: ast.stmt) -> bool:
    test = getattr(node, "test", None)
    return (
        isinstance(node, ast.If)
        and isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name) and test.left.id == "__name__"
        and len(test.comparators) == 1
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value == "__main__"
    )


def statements(source: str) -> list[tuple[ast.stmt, bool]]:
    """Each counted statement of ``source`` and whether it lies in an
    ``if __name__ == "__main__":`` body."""
    found = []

    def visit(parent: ast.AST, in_main: bool) -> None:
        for field in ("body", "orelse", "finalbody", "handlers"):
            for child in getattr(parent, field, ()):
                if not isinstance(child, ast.stmt):  # an except handler
                    visit(child, in_main)
                    continue
                counted = not (
                    isinstance(child, UNCOUNTED)
                    or _is_docstring(child, parent)
                    or isinstance(child, ast.AnnAssign) and child.value is None
                )
                if counted:
                    found.append((child, in_main))
                visit(child, in_main or _is_main_guard(child))

    visit(ast.parse(source), False)
    return found


def main(argv: list[str]) -> int:
    files = {str(path): set() for path in sorted(PACKAGE.rglob("*.py"))}
    tracers = {}

    def tracer_for(filename: str):
        path = os.path.realpath(filename)
        hits = files.get(path)
        if hits is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local

        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return tracers[filename]
        except KeyError:
            tracers[filename] = tracer_for(filename)
            return tracers[filename]

    os.chdir(ROOT)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed_outside_main = 0
    for path, hits in files.items():
        source = Path(path).read_text(encoding="utf-8")
        lines = source.splitlines()
        for node, in_main in statements(source):
            if hits.isdisjoint(_own_lines(node)):
                name = Path(path).relative_to(ROOT)
                print(f"{name}:{node.lineno} {lines[node.lineno - 1].strip()}")
                missed_outside_main += not in_main
    if code:
        return int(code)
    return 1 if missed_outside_main else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
