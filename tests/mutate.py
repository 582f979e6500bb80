"""Mutation testing of ``optimizer.run_sgd``: how many one-token faults do the focused tests catch?

Run from the repository root (standard library only; pytest does not
collect this file)::

    python tests/mutate.py [--tests tests/test_bulk_logging.py ...] [--timeout 20]

Each mutant makes one change in the body of ``run_sgd``: ``<`` and ``<=``
swap, ``>`` and ``>=`` swap, or an integer constant moves by +1 or -1. The
mutated module is written into a copy of ``src``, ``tests`` and
``pyproject.toml`` in a temporary directory, so the checkout is never
changed, and pytest runs the focused tests there with ``-x``. A mutant is
killed when they fail or time out, and survives when they pass. The
unmutated module, rewritten the same way, must pass first. The script
prints one line per mutant and then the score and the survivors.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULE = os.path.join("src", "precondsgd", "optimizer.py")
FUNCTION = "run_sgd"
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}


def sites(tree: ast.Module) -> list[tuple[ast.AST, int, str]]:
    """(node, operator index or constant delta, description) of every mutation in FUNCTION, in walk order."""
    function = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == FUNCTION)
    found = []
    for node in ast.walk(function):
        if isinstance(node, ast.Compare):
            for j, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    found.append((node, j, f"{SYMBOLS[type(op)]} -> {SYMBOLS[SWAPS[type(op)]]}"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found += [(node, delta, f"{node.value} -> {node.value + delta}") for delta in (1, -1)]
    return found


def mutant(source: str, k: int) -> tuple[str, str, str]:
    """The module source with mutation k applied, its line:column and its description."""
    tree = ast.parse(source)
    node, change, what = sites(tree)[k]
    if isinstance(node, ast.Compare):
        node.ops[change] = SWAPS[type(node.ops[change])]()
    else:
        node.value += change
    return ast.unparse(tree), f"{node.lineno}:{node.col_offset + 1}", what


def passes(work: str, source: str, tests: list[str], timeout: float) -> bool:
    """Do the tests pass with ``source`` as the module? A timeout counts as a failure."""
    with open(os.path.join(work, MODULE), "w", encoding="utf-8") as fh:
        fh.write(source)
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=timeout, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tests", nargs="+", default=[os.path.join("tests", "test_bulk_logging.py")])
    parser.add_argument("--timeout", type=float, default=20.0, help="seconds per mutant before it counts as killed")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, MODULE), encoding="utf-8") as fh:
        source = fh.read()
    n = len(sites(ast.parse(source)))
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutate-") as work:
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(work, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), work)
        if not passes(work, ast.unparse(ast.parse(source)), args.tests, args.timeout):
            print(f"the unmutated {MODULE} fails {' '.join(args.tests)}: no score", file=sys.stderr)
            return 1
        for k in range(n):
            text, where, what = mutant(source, k)
            start = time.perf_counter()
            killed = not passes(work, text, args.tests, args.timeout)
            print(f"{k + 1:3d}/{n} {'killed  ' if killed else 'SURVIVED'} {MODULE}:{where} {what} "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
            if not killed:
                survivors.append(f"{MODULE}:{where} {what}")
    print(f"score: {n - len(survivors)} of {n} mutants killed")
    for survivor in survivors:
        print(f"survivor: {survivor}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
