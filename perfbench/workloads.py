"""The benchmark's workloads: configs generated from a seed, and what a run implies.

Each workload is one ``precondsgd`` CLI invocation on a generated INI
config. The per-process sizes are chosen so that one process takes
about a second on a 2-core machine: a measurement window then holds
a dozen or more processes and reports their median.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

DEFAULT_SEED = 1

# The escape level the CLI applies when the config sets none.
ESCAPE_LEVEL = -0.01


def _geometric(first: float, last: float, n: int) -> list[float]:
    ratio = (last / first) ** (1.0 / (n - 1))
    return [first * ratio**i for i in range(n)]


def _ceil_count(x: float) -> int:
    """ceil(x), except that x within 1e-9 relative of an integer rounds to it."""
    r = round(x)
    return int(r) if abs(x - r) <= 1e-9 * max(1.0, abs(x)) else math.ceil(x)


def _saddle(seed: int, small: bool) -> dict:
    return {
        "problem": {"name": "saddle"},
        "optimizer": {
            "algorithm": "rmsprop",
            "kind": "full_matrix",
            "eta": 0.01,
            "beta_spec": 0.99,
            "epsilon": 1e-8,
        },
        "run": {
            "seeds": [seed * 1000 + i for i in range(2 if small else 8)],
            "t": 200 if small else 1500,
            "log_every": 1,
            "lambda_min_every": 1,
        },
    }


def _quad(seed: int, small: bool) -> dict:
    dim = 20 if small else 200
    return {
        "problem": {
            "name": "quadratic_gaussian",
            "dim": dim,
            "h_diag": _geometric(1.0, 1e-2, dim),
            "noise_diag": _geometric(1.0, 1e-2, dim),
            "x0": [1.0] * dim,
        },
        "optimizer": {
            "algorithm": "rmsprop",
            "kind": "full_matrix",
            "eta": 0.01,
            "beta_spec": 0.99,
            "epsilon": 1e-8,
        },
        "run": {
            "seeds": [seed * 1000 + i for i in range(2)],
            "t": 50 if small else 150,
            "log_every": 1000,
        },
    }


def _est_scaling(seed: int, small: bool) -> dict:
    dim = 10
    return {
        "problem": {
            "name": "quadratic_gaussian",
            "dim": dim,
            "h_diag": _geometric(1.0, 0.1, dim),
            "noise_diag": _geometric(1.0, 0.1, dim),
        },
        "optimizer": {
            "algorithm": "rmsprop_burnin",
            "kind": "full_matrix",
            "eta": 0.01,
            "epsilon": 1e-8,
        },
        "run": {
            "seeds": [seed * 1000],
            "t": 1,
            "etas": [0.01, 0.001] if small else [0.01, 0.00316, 0.001, 0.000316, 0.0001],
            "est_window_factor": 2.0 if small else 8.0,
        },
    }


def _logistic(seed: int, small: bool) -> dict:
    return {
        "problem": {
            "name": "logistic_synthetic",
            "n": 2000,
            "d": 20,
            "data_seed": seed,
            "batch": 100,
        },
        "optimizer": {
            "algorithm": "large_step",
            "kind": "diagonal",
            "eta": 0.01,
            "beta_spec": "schedule",
            "epsilon": 1e-8,
            "r": 0.1,
            "t_thresh": 10,
        },
        "run": {
            "seeds": [seed * 1000 + i for i in range(2 if small else 4)],
            "t": 200 if small else 2500,
            "log_every": 100,
        },
    }


@dataclass(frozen=True)
class Workload:
    """A CLI subcommand and its config, {section: {key: value}}, from a seed.

    ``small`` shrinks the config for the benchmark's own tests.
    """

    name: str
    subcommand: str
    make_spec: Callable[[int, bool], dict]

    def spec(self, seed: int, small: bool = False) -> dict:
        return self.make_spec(seed, small)


# Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("saddle-8seed", "run", _saddle),
        Workload("quad-d200", "run", _quad),
        Workload("est-scaling-d10", "estimation-scaling", _est_scaling),
        Workload("logistic-largestep", "run", _logistic),
    )
}


def config_text(spec: dict) -> str:
    """Render a spec as the INI text the CLI reads."""

    def fmt(value):
        if isinstance(value, list):
            return ", ".join(fmt(v) for v in value)
        return repr(value) if isinstance(value, float) else str(value)

    lines = []
    for section, items in spec.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {fmt(value)}" for key, value in items.items()]
        lines.append("")
    return "\n".join(lines)


def scaling_rows(spec: dict) -> list[dict]:
    """eta, beta, T and W of each estimation-scaling condition, largest eta first."""
    rows = []
    for eta in sorted(spec["run"]["etas"], reverse=True):
        step = eta ** (2.0 / 3.0)
        beta = 1.0 - step
        rows.append(
            {
                "eta": eta,
                "beta": beta,
                "T": max(spec["run"]["t"], math.ceil(spec["run"]["est_window_factor"] / (1.0 - beta))),
                "W": max(1, _ceil_count(1.0 / step)),
            }
        )
    return rows


def sampled_gradients(spec: dict) -> int:
    """Stochastic gradients the config implies: seeds x (T + W + hallucinated)."""
    ocfg, rcfg = spec["optimizer"], spec["run"]
    if "etas" in rcfg:
        return sum(r["T"] + r["W"] for r in scaling_rows(spec))
    T = rcfg["t"]
    per_seed = T
    if ocfg["algorithm"] == "large_step":
        eta, r, t_thresh = ocfg["eta"], ocfg["r"], ocfg["t_thresh"]
        W = max(1, _ceil_count(eta ** (-2.0 / 3.0)))
        S = max(1, _ceil_count(r / eta))
        per_seed = T + W + math.ceil(T / t_thresh) * (S + 1)
    return len(rcfg["seeds"]) * per_seed
