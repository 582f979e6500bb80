"""The numpy floor in pyproject.toml admits every numpy name the package calls."""

import os
import re

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "precondsgd")


def _version(text):
    parts = [int(p) for p in text.split(".")]
    return tuple(parts + [0] * (3 - len(parts)))


def _numpy_floor():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    (spec,) = [d for d in deps if re.match(r"numpy\b", d)]
    return _version(re.fullmatch(r"numpy>=([0-9.]+)", spec.replace(" ", "")).group(1))


def _numpy_names():
    names = set()
    for fname in sorted(os.listdir(PACKAGE)):
        if fname.endswith(".py"):
            with open(os.path.join(PACKAGE, fname), encoding="utf-8") as fh:
                names.update(re.findall(r"\bnp\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", fh.read()))
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
