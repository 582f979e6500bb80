"""Checks on what one CLI process wrote, and the reference values they are held to.

A *cell* is one row of the primary output: one seed of a ``run``
(summary.csv) or one eta of ``estimation-scaling`` (scaling.csv), plus
the fitted slope. A cell fails when it is missing, when its values do
not follow from the files beside it or from the config, or, at the
default seed, when a value is outside the reference tolerance.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

from workloads import ESCAPE_LEVEL, scaling_rows

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# Values at the default seed must match the reference within
# |got - want| <= ATOL + RTOL |want|. The run is bitwise reproducible on
# one machine; the tolerance admits last-digit differences between BLAS
# builds.
RTOL = 1e-6
ATOL = 1e-9

SUMMARY_VALUES = ("final_f", "min_f", "iters_to_threshold", "escape_time", "mean_last_1000_f", "sup_est_error")
SCALING_VALUES = ("eta", "beta", "T", "W", "sup_error", "max_x_norm")
STEP_KINDS = ("normal", "large")


def digests(out_dir: str) -> dict:
    """sha256 of every file the process left in its output directory."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def bytes_written(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, n)) for n in os.listdir(out_dir))


def _num(text: str):
    return None if text == "" else float(text)


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= ATOL + RTOL * abs(want)


def cell_values(subcommand: str, out_dir: str) -> dict:
    """{cell: {column: value}} of the primary output, for reference comparison."""
    if subcommand == "estimation-scaling":
        cells = {
            row["eta"]: {c: _num(row[c]) for c in SCALING_VALUES}
            for row in _read_csv(os.path.join(out_dir, "scaling.csv"))
        }
        fit = _read_csv(os.path.join(out_dir, "scaling_fit.csv"))
        cells["fit"] = {"slope": _num(fit[0]["slope"])} if fit else {}
        return cells
    return {
        row["seed"]: {c: _num(row[c]) for c in SUMMARY_VALUES}
        for row in _read_csv(os.path.join(out_dir, "summary.csv"))
    }


def expected_cells(subcommand: str, spec: dict) -> list[str]:
    if subcommand == "estimation-scaling":
        return [repr(r["eta"]) for r in scaling_rows(spec)] + ["fit"]
    return [str(s) for s in spec["run"]["seeds"]]


def _check_trajectory(out_dir: str, row: dict, spec: dict) -> str | None:
    """Re-derive a summary row from its trajectory CSV; return a reason or None."""
    path = os.path.join(out_dir, row["trajectory"])
    if not os.path.isfile(path):
        return "trajectory file missing"
    steps = [(int(r["iter"]), float(r["f"])) for r in _read_csv(path) if r["step_kind"] in STEP_KINDS]
    if not steps:
        return "trajectory has no step rows"
    fs = [f for _, f in steps]
    if spec["run"].get("log_every", 1) == 1 and len(steps) != spec["run"]["t"]:
        return f"{len(steps)} step rows, expected {spec['run']['t']}"
    escape = next((i for i, f in steps if f <= ESCAPE_LEVEL), None)
    tail = fs[-min(1000, len(fs)):]
    derived = {
        "final_f": fs[-1],
        "min_f": min(fs),
        "escape_time": escape,
        "iters_to_threshold": None,
    }
    for key, want in derived.items():
        if _num(row[key]) != (None if want is None else float(want)):
            return f"{key} {row[key]!r} does not follow from the trajectory ({want!r})"
    if not math.isclose(_num(row["mean_last_1000_f"]), math.fsum(tail) / len(tail), rel_tol=1e-12, abs_tol=1e-15):
        return "mean_last_1000_f does not follow from the trajectory"
    if not math.isfinite(fs[-1]):
        return "final f is not finite"
    if spec["problem"]["name"] != "saddle" and not fs[-1] < fs[0]:
        return f"no descent: final f {fs[-1]!r} >= initial f {fs[0]!r}"
    return None


def _check_scaling(out_dir: str, spec: dict) -> dict:
    """{cell: reason or None} for an estimation-scaling output."""
    want_rows = scaling_rows(spec)
    rows = {float(r["eta"]): r for r in _read_csv(os.path.join(out_dir, "scaling.csv"))}
    verdicts = {}
    finite = []
    for want in want_rows:
        key = repr(want["eta"])
        row = rows.get(want["eta"])
        if row is None:
            verdicts[key] = "missing"
            continue
        got = {c: _num(row[c]) for c in SCALING_VALUES}
        reason = None
        if (got["T"], got["W"]) != (want["T"], want["W"]):
            reason = f"T, W = {got['T']}, {got['W']}; the config implies {want['T']}, {want['W']}"
        elif not math.isclose(got["beta"], want["beta"], rel_tol=1e-12):
            reason = f"beta {got['beta']!r} != 1 - eta^(2/3) = {want['beta']!r}"
        elif not (math.isfinite(got["sup_error"]) and got["sup_error"] > 0.0):
            reason = f"sup_error {got['sup_error']!r} is not finite and positive"
        elif not math.isfinite(got["max_x_norm"]):
            reason = "max_x_norm is not finite"
        else:
            finite.append((math.log(got["eta"]), math.log(got["sup_error"])))
        verdicts[key] = reason
    fit_path = os.path.join(out_dir, "scaling_fit.csv")
    if not os.path.isfile(fit_path):
        verdicts["fit"] = "missing"
    else:
        slope = float(_read_csv(fit_path)[0]["slope"])
        verdicts["fit"] = None
        if len(finite) == len(want_rows):
            n = len(finite)
            mx = math.fsum(x for x, _ in finite) / n
            my = math.fsum(y for _, y in finite) / n
            want = math.fsum((x - mx) * (y - my) for x, y in finite) / math.fsum((x - mx) ** 2 for x, _ in finite)
            if not math.isclose(slope, want, rel_tol=1e-9, abs_tol=1e-12):
                verdicts["fit"] = f"slope {slope!r} is not the least-squares fit {want!r}"
    return verdicts


def check_outputs(subcommand: str, spec: dict, out_dir: str, reference: dict | None = None) -> dict:
    """{cell: reason or None} for every cell the config implies."""
    cells = expected_cells(subcommand, spec)
    primary = "scaling.csv" if subcommand == "estimation-scaling" else "summary.csv"
    if not os.path.isfile(os.path.join(out_dir, primary)):
        return {c: f"{primary} missing" for c in cells}
    if subcommand == "estimation-scaling":
        verdicts = _check_scaling(out_dir, spec)
    else:
        rows = {r["seed"]: r for r in _read_csv(os.path.join(out_dir, "summary.csv"))}
        verdicts = {c: ("missing" if c not in rows else _check_trajectory(out_dir, rows[c], spec)) for c in cells}
    if reference is not None:
        got = cell_values(subcommand, out_dir)
        for cell, want in reference["values"].items():
            if verdicts.get(cell) is not None:
                continue
            for col, value in want.items():
                if not _close(got.get(cell, {}).get(col), value):
                    verdicts[cell] = f"{col} {got.get(cell, {}).get(col)!r} outside tolerance of reference {value!r}"
                    break
    return verdicts


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str) -> dict | None:
    try:
        with open(reference_path(workload), encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


def make_reference(workload: str, subcommand: str, seed: int, out_dir: str) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "rtol": RTOL,
        "atol": ATOL,
        "values": cell_values(subcommand, out_dir),
        "digests": digests(out_dir),
    }
