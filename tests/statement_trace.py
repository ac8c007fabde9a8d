"""A pytest plugin that prints the source statements no in-process test runs.

Load it by name, with ``tests`` and ``src`` on the path::

    PYTHONPATH=src:tests python -m pytest -q -p statement_trace

It traces with the standard library's ``sys.settrace`` (and
``threading.settrace``) only the frames of the code in ``src/wavemodel``,
from before the package is imported, and records the lines that run.  At
the end of the session it prints, per module, the statements (found with
``ast``) that no line of ran.  Docstrings, ``def`` and ``class`` lines and
imports are left out; a statement counts as run when any line it spans ran,
so a compound statement runs with its header or anything inside it.  Code
that tests run in a child process is not seen.  The report is not a gate.
"""

from __future__ import annotations

import ast
import os
import pathlib
import sys
import threading

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "wavemodel"
_PREFIX = str(PACKAGE) + os.sep
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_SKIPPED = (*_DEFS, ast.Import, ast.ImportFrom)


def statements(source: str) -> list:
    """(first, last) lines of each statement of ``source``, in line order,
    without docstrings, ``def`` and ``class`` lines and imports."""
    tree = ast.parse(source)
    docstrings = {node.body[0] for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, *_DEFS)) and ast.get_docstring(node)}
    return sorted((node.lineno, node.end_lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.stmt) and not isinstance(node, _SKIPPED)
                  and node not in docstrings)


class StatementTrace:
    """The lines of ``src/wavemodel`` that run, per file, from its creation
    to ``stop``."""

    def __init__(self):
        self.ran = {}
        sys.settrace(self._call)
        threading.settrace(self._call)

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(_PREFIX):
            return None  # no line events for this frame
        self.ran.setdefault(name, set())
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self.ran[frame.f_code.co_filename].add(frame.f_lineno)
        return self._line

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)

    def unrun(self, path: pathlib.Path) -> tuple:
        """(statements, first lines of those that did not run) of the
        module at ``path``."""
        found = statements(path.read_text(encoding="utf-8"))
        ran = self.ran.get(str(path), set())
        return len(found), [a for a, b in found if ran.isdisjoint(range(a, b + 1))]

    def pytest_terminal_summary(self, terminalreporter):
        self.stop()
        write = terminalreporter.write_line
        write("statements that no in-process test runs (not a gate):")
        for path in sorted(PACKAGE.glob("*.py")):
            count, lines = self.unrun(path)
            write(f"  {path.name}: {len(lines)} of {count}"
                  + (f", lines {', '.join(map(str, lines))}" if lines else ""))

    def pytest_unconfigure(self, config):
        self.stop()


def pytest_configure(config):
    config.pluginmanager.register(StatementTrace(), "statement-trace")
