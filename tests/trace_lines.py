"""Which lines of the package do the tests never execute?

Run from the repository root (standard library only; pytest does not
collect this file)::

    python tests/trace_lines.py [PYTEST_ARG ...]

It runs pytest in this process (by default on ``tests``, quietly) under a
``sys.settrace`` line trace of the files in ``src/precondsgd``, then
prints every line that holds code and never ran, as ``path:line: text``,
and a count per file. Only this process is traced: the worker processes
of a ``--jobs`` run and the subprocesses some tests start are not, so a
line that only they run is listed. The trace slows the tests several
times over.
"""

from __future__ import annotations

import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "precondsgd")


def code_lines(code: types.CodeType) -> set[int]:
    """The line numbers of the instructions of ``code`` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def executable_lines(path: str) -> set[int]:
    """The lines of a module that hold instructions (a function's docstring holds none)."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines = code_lines(code)
    lines.discard(0)
    return lines


def main(argv=None) -> int:
    pytest_args = list(sys.argv[1:] if argv is None else argv) or ["-q", "-p", "no:cacheprovider", "tests"]
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(PACKAGE):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    import pytest  # imported before the trace starts: only the package is traced

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    counts = []
    for fname in sorted(os.listdir(PACKAGE)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, fname)
        missed = sorted(executable_lines(path) - ran.get(path, set()))
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        for line in missed:
            print(f"{os.path.relpath(path, ROOT)}:{line}: {text[line - 1].strip()}")
        counts.append(f"{os.path.relpath(path, ROOT)}: {len(missed)} of {len(executable_lines(path))} lines never ran")
        total += len(missed)
    print("\n".join(counts))
    print(f"total: {total} lines never ran (pytest exit status {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
