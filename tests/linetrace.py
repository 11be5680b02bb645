"""Statements of the package's function bodies that no test ran: a line trace
for a checkout without `coverage`. It is a pytest plugin that no test run
loads unless asked:

    PYTHONPATH=src:tests python -m pytest -p linetrace -p no:cacheprovider

From `pytest_configure` on, it records each line run in a file under
`src/omegacheck`, in this process and in the threads it starts (child
processes are not traced). At the end of the session it prints, as
`file:line: text`, each statement of a function body (docstrings skipped)
of which no line ran. Code that runs only at import is seen only if a test
imports the package afresh, since `conftest.py` imports it before
`pytest_configure`. Tests run several times slower under the trace.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "omegacheck"
_PREFIX = f"{PACKAGE}/"
_ran: set[tuple[str, int]] = set()  # (file name, line number)


def _lines(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    if frame.f_code.co_filename.startswith(_PREFIX):
        return _lines(frame, event, arg)
    return None


def pytest_configure(config):
    threading.settrace(_calls)
    sys.settrace(_calls)


def _own_lines(stmt: ast.stmt) -> range:
    """The lines of a statement that are no other statement's: all of a
    simple one, and a compound one's header (decorators included), up to
    its first child."""
    decorators = [d.lineno for d in getattr(stmt, "decorator_list", ())]
    first = min([stmt.lineno, *decorators])
    body = getattr(stmt, "body", None)
    if isinstance(body, list):
        return range(first, body[0].lineno)
    return range(first, stmt.end_lineno + 1)


def _is_docstring(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)


def _body_statements(tree: ast.Module) -> dict[int, ast.stmt]:
    """Each statement inside a function body, nested ones included, by its
    first line; a docstring and a `try` header, which runs nothing itself,
    are left out."""
    found, docstrings = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_docstring(node.body[0]):
                docstrings.add(node.body[0])
            for stmt in (s for top in node.body for s in ast.walk(top)):
                if isinstance(stmt, ast.stmt) and not isinstance(stmt, ast.Try):
                    found[_own_lines(stmt).start] = stmt
    return {line: s for line, s in found.items() if s not in docstrings}


def unrun() -> list[str]:
    """`file:line: text` for each function-body statement of which no line
    ran, in file and line order."""
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        lines, name = text.splitlines(), str(path)
        where = path.relative_to(PACKAGE.parent.parent)
        for line, stmt in sorted(_body_statements(ast.parse(text)).items()):
            if not any((name, n) in _ran for n in _own_lines(stmt)):
                missed.append(f"{where}:{line}: {lines[line - 1].strip()}")
    return missed


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    missed = unrun()
    terminalreporter.section(f"function-body statements no test ran: {len(missed)}")
    for entry in missed:
        terminalreporter.write_line(entry)
