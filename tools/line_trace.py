"""Print each statement of ``src/summakit`` that no tier-1 test executes.

    python tools/line_trace.py [PYTEST ARGS]

Runs pytest on ``tests/`` in this process under :func:`sys.settrace` (and
:func:`threading.settrace`), recording every line of the package that runs,
then lists per module each statement none of whose own lines ran: a simple
statement spans its lines, a compound one (``if``, ``for``, ``def``, ...) its
header and decorators.  Docstrings and ``global``/``nonlocal`` declarations
run no code and are left out.  Code that runs only in a child process shows
as unexecuted, as the tracer does not follow it there: the out-of-memory test
runs ``main`` in a child, and ``if __name__ == "__main__"`` bodies run only
as scripts.  The tests take about three times as long as without the tracer.
The exit status is pytest's.  Needs pytest alone; pytest does not collect this file.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "summakit"


def _docstring(node: ast.stmt, parent: ast.AST) -> bool:
    body = getattr(parent, "body", None)
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(source: str) -> list[tuple[int, range]]:
    """(first line, the lines any of which running counts it as run) of each statement of ``source`` that runs code."""
    tree = ast.parse(source)
    found = []
    for parent in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(parent, field, None)
            for node in block if isinstance(block, list) else ():  # a lambda's or an if-expression's body is one expression
                if isinstance(node, (ast.Global, ast.Nonlocal)) or _docstring(node, parent):
                    continue
                first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
                body = getattr(node, "body", None)
                last = body[0].lineno - 1 if body else node.end_lineno
                found.append((node.lineno, range(first, max(last, node.lineno) + 1)))
    return sorted(found)


def trace(pytest_args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """Run pytest under the tracer: (its exit code, {module path: the lines of it that ran})."""
    import pytest

    ran = {path: set() for path in PACKAGE.glob("*.py")}

    def local_for(lines):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    tracers = {str(path): local_for(lines) for path, lines in ran.items()}

    def tracer(frame, event, arg):
        return tracers.get(frame.f_code.co_filename)

    sys.path.insert(0, str(PACKAGE.parent))  # summakit is imported from the path the tracers are keyed by
    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv: list[str]) -> int:
    code, ran = trace(argv)
    total = 0
    for path, lines in sorted(ran.items()):
        source = path.read_text()
        text = source.splitlines()
        missed = [first for first, span in statements(source) if lines.isdisjoint(span)]
        total += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {len(missed)} unexecuted")
            for first in missed:
                print(f"  {first}: {text[first - 1].strip()}")
    print(f"{total} unexecuted statements in {PACKAGE.relative_to(ROOT)}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
