"""pyproject.toml declares what the package, its tests and its benchmark import.

The numpy floor admits every numpy name the package calls, and the test
extra names every module that the tests and the benchmark import beyond
the standard library, numpy and their own files. Also: ``linalg`` is the
package's only caller of LAPACK's eigensolvers, the base oracles of
``problems.StochasticProblem`` are the only raisers of MissingOracleError,
``problems.read_csv`` is the one CSV reader and ``runner._atomic_paths``
the one place a written file is renamed into place.
"""

import ast
import os
import re
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "precondsgd")


def _version(text):
    parts = [int(p) for p in text.split(".")]
    return tuple(parts + [0] * (3 - len(parts)))


def _project():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        return tomllib.load(fh)["project"]


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _numpy_floor():
    (spec,) = [d for d in _project()["dependencies"] if re.match(r"numpy\b", d)]
    return _version(re.fullmatch(r"numpy>=([0-9.]+)", spec.replace(" ", "")).group(1))


def _numpy_names():
    names = set()
    for fname in sorted(os.listdir(PACKAGE)):
        if fname.endswith(".py"):
            names.update(re.findall(r"\bnp\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", _read(os.path.join(PACKAGE, fname))))
    return sorted(names)


def _added_in(name):
    """The numpy version that added np.<name>, from its docstring; None when it says none.

    Only the note above the Parameters section dates the name itself; notes
    further down date single parameters, which the package need not pass.
    """
    obj = np
    for part in name.split("."):
        obj = getattr(obj, part)
    head = re.split(r"\n\s*Parameters\n\s*-{3,}", getattr(obj, "__doc__", None) or "")[0]
    found = re.findall(r"versionadded::\s*([0-9.]+)", head)
    return max(map(_version, found)) if found else None


def test_numpy_floor_admits_every_numpy_name_used():
    floor = _numpy_floor()
    names = _numpy_names()
    assert {"matvec", "vecmat", "vecdot"} <= set(names)
    assert (_added_in("matvec"), _added_in("vecdot")) == ((2, 2, 0), (2, 0, 0))
    too_new = {n: v for n in names if (v := _added_in(n)) is not None and v > floor}
    assert not too_new, f"pyproject.toml requires numpy>={floor}, but these names are newer: {too_new}"


def test_the_test_extra_names_every_module_the_tests_and_the_benchmark_import():
    own, imported = set(), set()
    for directory in ("tests", "perfbench"):
        path = os.path.join(ROOT, directory)
        for fname in sorted(os.listdir(path)):
            if fname.endswith(".py"):
                own.add(fname[:-3])
                for node in ast.walk(ast.parse(_read(os.path.join(path, fname)))):
                    if isinstance(node, ast.Import):
                        imported.update(alias.name.split(".")[0] for alias in node.names)
                    elif isinstance(node, ast.ImportFrom) and node.level == 0:
                        imported.add(node.module.split(".")[0])
    assert {"numpy", "pytest", "hypothesis", "lemmas"} <= imported
    requirements = _project()["optional-dependencies"]["test"]
    extra = {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_") for r in requirements}
    undeclared = imported - set(sys.stdlib_module_names) - own - {"precondsgd", "numpy"} - extra
    assert not undeclared, f"imported by tests/ or perfbench/ but not in the test extra: {sorted(undeclared)}"


def test_only_linalg_calls_the_lapack_eigensolvers():
    lapack = re.compile(r"\b(?:np|numpy)\.linalg\.eig(?:vals)?h\b|from numpy\.linalg import[^\n]*\beig(?:vals)?h\b")
    callers = {f for f in os.listdir(PACKAGE) if f.endswith(".py") and lapack.search(_read(os.path.join(PACKAGE, f)))}
    assert callers == {"linalg.py"}


def _where(tree, match, scope=()):
    """The dotted scope (class and function names) of each node of ``tree`` that ``match`` accepts, in order."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if match(node):
            found.append(".".join(scope))
        inner = scope + (node.name,) if isinstance(node, (ast.ClassDef, ast.FunctionDef)) else scope
        found += _where(node, match, inner)
    return found


def _package_where(match):
    """``_where`` over each module of the package, each scope led by its module's name."""
    return [f"{fname[:-3]}.{scope}" for fname in sorted(os.listdir(PACKAGE)) if fname.endswith(".py")
            for scope in _where(ast.parse(_read(os.path.join(PACKAGE, fname))), match)]


def _raises(name):
    """A match of a ``raise`` of ``name`` or of a call of it."""
    def match(node):
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return getattr(exc, "id", getattr(exc, "attr", None)) == name  # MissingOracleError or errors.MissingOracleError
    return match


def _calls(module, names):
    """A match of a call of ``module.<name>`` for each of ``names``."""
    def match(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in names
                and getattr(node.func.value, "id", None) == module)
    return match


def test_only_the_base_oracles_raise_missing_oracle_error():
    """A problem has an oracle when it defines it: no caller restates that by a flag check of its own."""
    raisers = set(_package_where(_raises("MissingOracleError")))
    assert raisers == {"problems.StochasticProblem.exact_G", "problems.StochasticProblem.hessian"}


def test_one_csv_reader_and_one_atomic_rename():
    """Datasets, summaries and trajectories are read by one function, so each accepts and refuses the same
    files; every file written is renamed into place by one function, so none is left half written."""
    assert _package_where(_calls("csv", ("reader", "DictReader"))) == ["problems.read_csv"]
    assert _package_where(_calls("os", ("replace", "rename"))) == ["runner._atomic_paths"]
    assert _package_where(lambda node: isinstance(node, ast.ImportFrom) and node.module in ("csv", "os")) == []
