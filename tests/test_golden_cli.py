"""CLI output stays byte-identical to the digests in golden_cli.json, and the golden runs reach the package.

Each golden run also records, under ``sys.setprofile``, which functions of
the package it calls. A function that no golden config reaches must be in
``UNREACHED`` with the reason, and an entry there that a config does reach
must leave it, so the list only shrinks.
"""

import ast
import json
import os
import sys

import pytest

import precondsgd
from make_golden import CONFIGS, GOLDEN_PATH, run_config

with open(GOLDEN_PATH, encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)

PACKAGE = os.path.dirname(os.path.abspath(precondsgd.__file__))

# The package functions no golden config calls, each with the reason it stays.
UNREACHED = {
    **dict.fromkeys(
        ("problems.StochasticProblem.eval_f", "problems.StochasticProblem.grad",
         "problems.StochasticProblem.sample_grad"),
        "abstract: each problem overrides it"),
    **dict.fromkeys(
        ("problems.StochasticProblem.exact_G", "problems.StochasticProblem.hessian"),
        "raises MissingOracleError; config.resolve_run refuses such a run from has_exact_g/has_hessian first"),
    "cli._before_subcommand": "a usage error (a flag before the subcommand); tests/test_cli.py runs it",
    "problems.load_dataset_csv": "logistic_csv reads a file, which no golden config ships; tests/test_cli.py runs it",
    **dict.fromkeys(
        ("estimation.EstimationBoundInputs.__post_init__", "estimation.estimation_error_bound",
         "estimation.estimate_sigma_max", "precond.constants", "precond.second_order_complexity_factor",
         "precond.estimate_m_bound", "optimizer.check_stationarity", "optimizer.hessian_tolerance",
         "linalg.op_norm"),
        "a theorem calculator or its input: no run writes what it assumed yet (ROADMAP item 5)"),
    **dict.fromkeys(
        ("linalg.inv_perturbation_bound", "linalg.sqrt_perturbation_bound", "linalg.invsqrt_preconditioner_bound"),
        "the corrected perturbation constants, kept as a contract and checked by tests/test_linalg.py"),
}

# config name -> the (file, first line) of every package function its run called
REACHED = {}


def profiled_run(name, work_dir):
    """run_config(name, work_dir), recording the package functions it calls in REACHED[name]."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = run_config(name, work_dir)
    finally:
        sys.setprofile(previous)
    REACHED[name] = {(os.path.abspath(c.co_filename), c.co_firstlineno) for c in codes}
    return result


def package_functions():
    """{(file, first line): "module.Class.function"} of every def in the package.

    A decorated def starts at its first decorator, as its code object does;
    a nested def is named inside its function, without "<locals>".
    """
    found = {}
    for fname in sorted(os.listdir(PACKAGE)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, fname)

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = scope + (child.name,)
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(path, first)] = ".".join(inner)
                visit(child, inner)

        with open(path, encoding="utf-8") as fh:
            visit(ast.parse(fh.read()), (fname[:-3],))
    return found


def test_golden_covers_every_config():
    assert sorted(GOLDEN) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cli_output_matches_golden(name, tmp_path):
    assert profiled_run(name, str(tmp_path)) == GOLDEN[name]


def test_every_package_function_is_reached_by_a_golden_config_or_listed(tmp_path):
    for name in sorted(set(CONFIGS) - set(REACHED)):  # the golden test above did not run it in this session
        profiled_run(name, str(tmp_path))
    functions = package_functions()
    assert len(set(functions.values())) == len(functions), "two package functions share a name"
    reached = {functions[key] for calls in REACHED.values() for key in calls if key in functions}
    unlisted = sorted(set(functions.values()) - reached - set(UNREACHED))
    assert not unlisted, f"no golden config reaches {unlisted}: add a config that does, or list them with a reason"
    reached_listed = sorted(reached & set(UNREACHED))
    assert not reached_listed, f"a golden config reaches {reached_listed} now: take them off UNREACHED"
    stale = sorted(set(UNREACHED) - set(functions.values()))
    assert not stale, f"UNREACHED lists {stale}, which the package no longer has"
