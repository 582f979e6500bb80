"""Mutation testing: how many one-token faults in a function do its focused tests catch?

Run from the repository root (standard library only; pytest does not
collect this file)::

    python tests/mutate.py [--target PATH:FUNCTION ...] [--tests tests/test_bulk_logging.py ...] [--timeout 20]

``--target`` names a top-level function (or ``Class.method``, or a
module-level assignment such as ``_SCHEMAS``) of a module under the
repository root and may be repeated; the default is
``src/precondsgd/optimizer.py:run_sgd``. Each mutant makes one change in
the body of one target: ``<`` and ``<=`` swap, ``>`` and ``>=``, ``==``
and ``!=``, ``in`` and ``not in``, ``is`` and ``is not``; ``+`` and ``-``
swap, in an expression ``a + b`` or an update ``a += b``; a unary minus
drops (``-x`` becomes ``+x``, so ``-1`` becomes ``1``); ``True`` and
``False`` swap; an integer constant moves by +1 or -1; a subscript's
index that is no constant or slice (each one of a tuple index) moves by
+1 or -1 (``a[i]`` becomes ``a[i + 1]``; the index may be no integer, and
then the mutant fails at once); or a call statement of ``keep`` or
``halt`` (a function or a method, ``DROPPED_CALLS``) is dropped. The mutated
module is written into a copy of ``src``, ``tests``, ``pyproject.toml``
and ``README.md`` in a temporary directory, so the checkout is never
changed, and pytest runs the focused tests there with ``-x``. A mutant is
killed when they fail or time out, and survives when they pass. Each
target's unmutated module, rewritten the same way, must pass first. The
script prints one line per mutant and then the score and the survivors.
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
DEFAULT_TARGET = "src/precondsgd/optimizer.py:run_sgd"
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
         ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.Add: ast.Sub, ast.Sub: ast.Add}
DROPPED_CALLS = ("keep", "halt")
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=", ast.In: "in",
           ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not", ast.Add: "+", ast.Sub: "-"}


def find_function(tree: ast.Module, name: str) -> ast.AST:
    """The function ``name`` (``Class.method`` for a method), or the assignment of ``name``, at the top of the module."""
    scope = tree
    for part in name.split("."):
        scope = next(n for n in scope.body
                     if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part
                     or isinstance(n, ast.Assign) and any(getattr(t, "id", None) == part for t in n.targets))
    return scope


def indices(node: ast.Subscript) -> list[ast.AST]:
    """The index expressions of a subscript: each element of a tuple index, else the one index."""
    return node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]


def called(node: ast.AST) -> str | None:
    """The name of the function or method that a call statement calls, else None."""
    if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
        return None
    func = node.value.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def sites(tree: ast.Module, function: str) -> list[tuple[ast.AST, int, str]]:
    """(node, operator index or constant delta, description) of every mutation in ``function``, in walk order."""
    found = []
    target = find_function(tree, function)
    annotations = {id(part) for node in ast.walk(target) for top in (getattr(node, "annotation", None),
                   getattr(node, "returns", None)) if top is not None for part in ast.walk(top)}
    for node in ast.walk(target):
        if id(node) in annotations:  # not evaluated under ``from __future__ import annotations``
            continue
        if isinstance(node, ast.Compare):
            for j, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    found.append((node, j, f"{SYMBOLS[type(op)]} -> {SYMBOLS[SWAPS[type(op)]]}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            found.append((node, 0, f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[SWAPS[type(node.op)]]}"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            found.append((node, 0, "-x -> +x"))
        elif isinstance(node, ast.Constant) and type(node.value) is bool:
            found.append((node, 0, f"{node.value} -> {not node.value}"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found += [(node, delta, f"{node.value} -> {node.value + delta}") for delta in (1, -1)]
        elif isinstance(node, ast.Subscript):
            found += [(node, (j, delta), f"[{ast.unparse(index)}] -> [{ast.unparse(index)} {'+-'[delta < 0]} 1]")
                      for j, index in enumerate(indices(node)) if not isinstance(index, (ast.Constant, ast.Slice))
                      for delta in (1, -1)]
        elif called(node) in DROPPED_CALLS:
            found.append((node, 0, f"{called(node)}(...) dropped"))
    return found


def mutant(source: str, function: str, k: int) -> tuple[str, str, str]:
    """The module source with mutation k of ``function`` applied, its line:column and its description."""
    tree = ast.parse(source)
    node, change, what = sites(tree, function)[k]
    if isinstance(node, ast.Compare):
        node.ops[change] = SWAPS[type(node.ops[change])]()
    elif isinstance(node, (ast.BinOp, ast.AugAssign)):
        node.op = SWAPS[type(node.op)]()
    elif isinstance(node, ast.UnaryOp):
        node.op = ast.UAdd()
    elif isinstance(node, ast.Subscript):
        j, delta = change
        index = indices(node)[j]
        shifted = ast.BinOp(index, ast.Add() if delta > 0 else ast.Sub(), ast.Constant(1))
        if isinstance(node.slice, ast.Tuple):
            node.slice.elts[j] = shifted
        else:
            node.slice = shifted
    elif isinstance(node, ast.Expr):
        node.value = ast.Constant(None)  # the call statement becomes the no-op statement None
    elif type(node.value) is bool:
        node.value = not node.value
    else:
        node.value += change
    return ast.unparse(tree), f"{node.lineno}:{node.col_offset + 1}", what


def passes(work: str, module: str, source: str, tests: list[str], timeout: float) -> bool:
    """Do the tests pass with ``source`` as the module? A timeout counts as a failure."""
    with open(os.path.join(work, module), "w", encoding="utf-8") as fh:
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
    parser.add_argument("--target", action="append", metavar="PATH:FUNCTION",
                        help=f"a function to mutate; repeatable (default: {DEFAULT_TARGET})")
    parser.add_argument("--tests", nargs="+", default=[os.path.join("tests", "test_bulk_logging.py")])
    parser.add_argument("--timeout", type=float, default=20.0, help="seconds per mutant before it counts as killed")
    args = parser.parse_args(argv)
    targets = [target.rpartition(":")[::2] for target in args.target or [DEFAULT_TARGET]]
    n_total, survivors = 0, []
    with tempfile.TemporaryDirectory(prefix="mutate-") as work:
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(work, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "README.md"):  # a test reads README's synopsis
            shutil.copy(os.path.join(ROOT, name), work)
        for module, function in targets:
            with open(os.path.join(ROOT, module), encoding="utf-8") as fh:
                source = fh.read()
            n = len(sites(ast.parse(source), function))
            if not passes(work, module, ast.unparse(ast.parse(source)), args.tests, args.timeout):
                print(f"the unmutated {module} fails {' '.join(args.tests)}: no score", file=sys.stderr)
                return 1
            for k in range(n):
                text, where, what = mutant(source, function, k)
                start = time.perf_counter()
                killed = not passes(work, module, text, args.tests, args.timeout)
                print(f"{k + 1:3d}/{n} {'killed  ' if killed else 'SURVIVED'} {module}:{where} {function}: {what} "
                      f"({time.perf_counter() - start:.1f} s)", flush=True)
                if not killed:
                    survivors.append(f"{module}:{where} {function}: {what}")
            with open(os.path.join(work, module), "w", encoding="utf-8") as fh:
                fh.write(source)  # the next target runs beside this one as written
            n_total += n
    print(f"score: {n_total - len(survivors)} of {n_total} mutants killed")
    for survivor in survivors:
        print(f"survivor: {survivor}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
