"""Experiment execution: runs, sweeps, scaling studies, and report data.

Builds problems and optimizer runs from an ExperimentConfig and executes
seed groups: contiguous runs of a condition's seeds that advance in
lockstep in one process (``jobs`` groups per condition, optionally in a
process pool). Writes one trajectory CSV per seed plus a merged summary
CSV, and turns summaries back into quantile-band plot data. A seed's
bytes do not depend on the group it ran in, so the output does not
depend on ``jobs``. A seed that fails numerically still gets its partial
trajectory; the other seeds finish, and the first failure in seed order
is raised once everything is written (without a summary). All files are
written atomically (temp + rename) and floats are formatted with their
shortest round-trip representation, so re-running a config reproduces
byte-identical output.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import ExperimentConfig, resolve_axis
from .errors import ConfigError
from .estimation import _ceil_int, beta_schedule, burn_in_length
from .optimizer import (
    HyperParams,
    Trajectory,
    first_order_params,
    run_sgd,
    second_order_params,
)
from .precond import Preconditioner, PreconditionerConstants, PreconditionerKind
from .problems import (
    ProblemSmoothness,
    load_dataset_csv,
    make_counterexample,
    make_logistic_regression,
    make_quadratic_gaussian,
    make_saddle_problem,
    make_synthetic_logistic,
)

# The paper-scale escape level (-0.1) is below the saddle problem's global
# minimum (~ -0.01265), so escape is declared at -0.01 instead.
DEFAULT_ESCAPE_LEVEL = -0.01


class _Algorithm(NamedTuple):
    source: str  # default preconditioner source
    source_configurable: bool  # optimizer.source may override it
    burn_in: bool  # W estimate-only samples precede the run, when estimating
    large_steps: bool


# Every algorithm is run_sgd with one of these settings.
_ALGORITHMS = {
    "sgd": _Algorithm("idealized", False, False, False),
    "preconditioned_sgd": _Algorithm("idealized", True, False, False),
    "rmsprop": _Algorithm("estimated", False, False, False),
    "rmsprop_burnin": _Algorithm("estimated", False, True, False),
    "large_step": _Algorithm("estimated", True, True, True),
}

SUMMARY_COLUMNS = (
    "run_id",
    "seed",
    "final_f",
    "min_f",
    "iters_to_threshold",
    "escape_time",
    "mean_last_1000_f",
    "sup_est_error",
    "trajectory",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _atomic_write(path, write_fn) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            write_fn(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def make_rng(seed: int):
    """The per-run RNG: a counter-based Philox stream keyed by the seed."""
    return np.random.Generator(np.random.Philox(seed))


def build_problem(pcfg: dict):
    name = pcfg["name"]
    if name == "saddle":
        return make_saddle_problem()
    if name == "counterexample":
        return make_counterexample(pcfg["c"], pcfg["zeta"])
    if name == "quadratic_gaussian":
        dim = pcfg["dim"]
        h_diag, noise_diag = pcfg["h_diag"], pcfg["noise_diag"]
        if len(h_diag) != dim or len(noise_diag) != dim:
            raise ConfigError("problem.h_diag/noise_diag must have length problem.dim")
        return make_quadratic_gaussian(dim, np.diag(h_diag), np.diag(noise_diag))
    if name == "logistic_synthetic":
        return make_synthetic_logistic(
            pcfg["n"],
            pcfg["d"],
            seed=pcfg["data_seed"],
            label_noise=pcfg.get("label_noise", 0.05),
            batch=pcfg.get("batch", min(100, pcfg["n"])),
        )
    if name == "logistic_csv":
        X, y = load_dataset_csv(pcfg["path"])
        return make_logistic_regression(X, y, pcfg.get("batch", X.shape[0]))
    raise ConfigError(f"problem.name: unknown problem {name!r}")


@dataclass
class ResolvedRun:
    """Everything needed to execute one run of a condition."""

    algorithm: str
    kind: PreconditionerKind
    source: str
    bias_corrected: bool
    burn_in: int
    large_steps: bool
    hp: HyperParams
    T: int
    beta_c: float | None
    eta_schedule: object
    x0: np.ndarray
    log_every: int
    track_est_error: bool
    lambda_min_every: int


def resolve_run(cfg: ExperimentConfig, problem) -> ResolvedRun:
    ocfg, rcfg = cfg.optimizer, cfg.run
    algo = ocfg["algorithm"]
    spec = _ALGORITHMS.get(algo)
    if spec is None:
        raise ConfigError(f"optimizer.algorithm: unknown algorithm {algo!r}")
    variant = "identity" if algo == "sgd" else ocfg.get("kind", "full_matrix")
    kind = PreconditionerKind(
        variant=variant,
        epsilon=ocfg.get("epsilon", 0.0),
        exponent=ocfg.get("exponent", -0.5),
    )
    source = ocfg.get("source", spec.source) if spec.source_configurable else spec.source

    beta, beta_c = None, None
    if "beta_spec" in ocfg:
        mode, value = ocfg["beta_spec"]
        if mode == "fixed":
            beta = value
        else:
            beta_c = value
    elif source == "estimated" and kind.variant != "identity":
        raise ConfigError("optimizer.beta_spec: required for estimated preconditioning")

    eta = ocfg.get("eta")
    T = rcfg["t"]
    r = ocfg.get("r")
    t_thresh = ocfg.get("t_thresh")
    W = ocfg.get("w")
    S = ocfg.get("s")

    auto = ocfg.get("auto")
    if auto in ("first_order_exact", "first_order_inexact"):
        for key in ("l", "c3", "lambda_minus", "delta_f", "tau"):
            if key not in ocfg:
                raise ConfigError(f"optimizer.{key}: required for auto={auto}")
        eta, T = first_order_params(
            ocfg["l"], ocfg["c3"], ocfg["lambda_minus"], ocfg["delta_f"], ocfg["tau"],
            exact=auto == "first_order_exact",
        )
    elif auto == "second_order":
        for key in ("l", "rho", "c3", "c4", "lambda_minus", "tau", "delta"):
            if key not in ocfg:
                raise ConfigError(f"optimizer.{key}: required for auto=second_order")
        consts = PreconditionerConstants(
            nu1=ocfg.get("nu1", 1.0),
            nu2=ocfg.get("nu2", 1.0),
            c3=ocfg["c3"],
            c4=ocfg["c4"],
            lambda_minus=ocfg["lambda_minus"],
            M_bound=ocfg.get("m_bound", math.sqrt(ocfg["c3"])),
        )
        hp_auto = second_order_params(
            consts,
            ProblemSmoothness(L=ocfg["l"], rho=ocfg["rho"]),
            tau=ocfg["tau"],
            delta_prob=ocfg["delta"],
            omega=ocfg.get("omega", 5.0),
            k_const=ocfg.get("k_const", 0.125),
            c_w=rcfg.get("burn_in_c", 1.0),
            beta_c=beta_c if beta_c is not None else 1.0,
            epsilon=kind.epsilon,
        )
        eta, r, t_thresh, W, S, beta, beta_c = (
            hp_auto.eta, hp_auto.r, hp_auto.t_thresh, hp_auto.W, hp_auto.S, hp_auto.beta, None,
        )
    if eta is None:
        raise ConfigError("optimizer.eta: required (or supply optimizer.auto)")

    burn_in = spec.burn_in and source == "estimated"
    if burn_in and W is None:
        W = burn_in_length(eta, rcfg.get("burn_in_c", 1.0))
    if spec.large_steps:
        if r is None or t_thresh is None:
            raise ConfigError("optimizer.r and optimizer.t_thresh: required for large_step")
        if source == "estimated" and S is None:
            S = max(1, _ceil_int(r / eta))

    hp = HyperParams(
        eta=eta,
        beta=beta,
        epsilon=kind.epsilon,
        r=r,
        t_thresh=t_thresh,
        W=W or 0,
        S=S,
        tau=ocfg.get("tau"),
        delta_prob=ocfg.get("delta"),
        omega=ocfg.get("omega", 5.0),
        K_const=ocfg.get("k_const", 0.125),
    )

    eta_schedule = None
    if ocfg.get("eta_decay", "none") == "inv_sqrt":
        eta_schedule = lambda t: eta / math.sqrt(t + 1.0)  # noqa: E731

    x0_cfg = cfg.problem.get("x0")
    if x0_cfg is not None and len(x0_cfg) != problem.dim:
        raise ConfigError("problem.x0: length must equal the problem dimension")
    x0 = np.asarray(x0_cfg, dtype=np.float64) if x0_cfg is not None else np.zeros(problem.dim)

    return ResolvedRun(
        algorithm=algo,
        kind=kind,
        source=source,
        bias_corrected=ocfg.get("bias_corrected", False),
        burn_in=hp.W if burn_in else 0,
        large_steps=spec.large_steps,
        hp=hp,
        T=T,
        beta_c=beta_c,
        eta_schedule=eta_schedule,
        x0=x0,
        log_every=rcfg.get("log_every", 1),
        track_est_error=rcfg.get("track_est_error", False),
        lambda_min_every=rcfg.get("lambda_min_every", 0),
    )


def execute_records(cfg: ExperimentConfig, seeds):
    """Run a group of seeds of one condition in lockstep.

    Returns the problem, the resolved run and one Trajectory per seed.
    """
    problem = build_problem(cfg.problem)
    run = resolve_run(cfg, problem)
    pre = Preconditioner(run.kind, problem.dim, run.source, run.bias_corrected, batch=len(seeds))
    trajectories = run_sgd(
        problem,
        pre,
        run.hp,
        run.T,
        [make_rng(seed) for seed in seeds],
        x0=run.x0,
        burn_in=run.burn_in,
        large_steps=run.large_steps,
        eta_schedule=run.eta_schedule,
        beta_c=run.beta_c,
        log_every=run.log_every,
        track_est_error=run.track_est_error,
        lambda_min_every=run.lambda_min_every,
    )
    return problem, run, trajectories


def trajectory_columns(dim: int) -> list[str]:
    cols = ["iter", "step_kind", "f", "grad_norm", "lambda_min_H", "est_error"]
    if dim <= 8:
        cols += [f"x_{i}" for i in range(dim)]
    return cols


def _fmt_logged(value: float) -> str:
    """A column that is NaN where nothing was evaluated: written empty there."""
    return "" if value != value else repr(value)


def write_trajectory(path, traj: Trajectory, dim: int) -> None:
    columns = [
        traj.iteration.tolist(),
        traj.step_kind.tolist(),
        traj.f.tolist(),
        traj.grad_norm.tolist(),
        traj.lambda_min_h.tolist(),
        traj.est_error.tolist(),
    ]
    if dim <= 8:
        columns += traj.x.T.tolist()

    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(trajectory_columns(dim))
        writer.writerows(
            (str(it), kind, repr(f), repr(gn), _fmt_logged(lam), _fmt_logged(err), *map(repr, x))
            for it, kind, f, gn, lam, err, *x in zip(*columns)
        )

    _atomic_write(path, write)


def read_trajectory(path) -> Trajectory:
    """The logged columns of a trajectory CSV (without x)."""
    with open(path, newline="", encoding="utf-8") as fh:
        raw = list(csv.DictReader(fh))

    def floats(name):
        return np.array([float(r[name]) if r[name] else np.nan for r in raw], dtype=np.float64)

    return Trajectory(
        iteration=np.array([int(r["iter"]) for r in raw], dtype=np.int64),
        step_kind=np.array([r["step_kind"] for r in raw], dtype=object),
        f=floats("f"),
        grad_norm=floats("grad_norm"),
        lambda_min_h=floats("lambda_min_H"),
        est_error=floats("est_error"),
    )


def summarize(traj: Trajectory, run_id: str, seed: int, escape_level: float, f_threshold, trajectory: str) -> dict:
    """Summary of one trajectory; derived only from logged columns, so the
    summary is exactly recomputable from the trajectory CSV."""
    steps = traj.steps()
    if not steps.any():
        raise ConfigError("trajectory contains no optimization steps")
    fs = traj.f[steps]
    iters = traj.iteration[steps]

    def first_iter_at_or_below(level):
        hit = np.flatnonzero(fs <= level)
        return int(iters[hit[0]]) if hit.size else None

    est_errors = traj.est_error[steps]
    est_errors = est_errors[~np.isnan(est_errors)]
    return {
        "run_id": run_id,
        "seed": seed,
        "final_f": float(fs[-1]),
        "min_f": float(fs.min()),
        "iters_to_threshold": None if f_threshold is None else first_iter_at_or_below(f_threshold),
        "escape_time": first_iter_at_or_below(escape_level),
        "mean_last_1000_f": float(fs[-min(1000, len(fs)):].mean()),
        "sup_est_error": float(est_errors.max()) if est_errors.size else None,
        "trajectory": trajectory,
    }


def _safe_name(value: str) -> str:
    return "".join(c if (c.isalnum() or c in "._=-") else "-" for c in value)


def run_group(cfg: ExperimentConfig, run_id: str, seeds, out_dir: str):
    """Run a seed group in lockstep and write one trajectory per seed.

    Returns the summary rows of the seeds that finished and the
    (seed, error) pairs of those that failed numerically; a failed seed's
    trajectory holds the events logged before its failure.
    """
    problem, _, trajectories = execute_records(cfg, seeds)
    rows, failures = [], []
    for seed, traj in zip(seeds, trajectories):
        traj_name = f"{_safe_name(run_id)}_seed{seed}.csv"
        write_trajectory(os.path.join(out_dir, traj_name), traj, problem.dim)
        if traj.error is not None:
            failures.append((seed, traj.error))
            continue
        rows.append(
            summarize(
                traj,
                run_id,
                seed,
                cfg.run.get("escape_level", DEFAULT_ESCAPE_LEVEL),
                cfg.run.get("f_threshold"),
                traj_name,
            )
        )
    return rows, failures


def write_summary(path, rows, extra_columns=()) -> None:
    cols = list(extra_columns) + list(SUMMARY_COLUMNS)

    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in cols])

    _atomic_write(path, write)


def read_summary(path) -> tuple[list[str], list[dict]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty summary") from None
        rows = [dict(zip(header, row)) for row in reader]
    return header, rows


def _seeds(cfg: ExperimentConfig, seed_offset: int) -> list[int]:
    """The configured seeds plus the offset: each must be >= 0 and occur once."""
    seeds = [s + seed_offset for s in cfg.run["seeds"]]
    if min(seeds) < 0:
        raise ConfigError(f"run.seeds: seed {min(seeds)} is negative (after --seed-offset {seed_offset})")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise ConfigError(f"run.seeds: seed {repeated[0]} occurs more than once (after --seed-offset {seed_offset})")
    return seeds


def _execute_conditions(conditions, seeds, out_dir: str, jobs: int) -> list[dict]:
    """Run each (run_id, cfg) condition over the seeds; return the summary rows.

    The seeds are split into ``jobs`` contiguous lockstep groups per
    condition. Every group runs and writes its trajectories before the
    first numeric failure, in condition and seed order, is raised.
    """
    n_groups = max(1, min(jobs, len(seeds)))
    groups = [g.tolist() for g in np.array_split(np.array(seeds), n_groups)]
    tasks = [(cfg, run_id, group, out_dir) for run_id, cfg in conditions for group in groups]
    if jobs <= 1 or len(tasks) <= 1:
        results = [run_group(*task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_group, *zip(*tasks)))
    rows = []
    for (_, run_id, _, _), (group_rows, failures) in zip(tasks, results):
        if failures:
            seed, err = failures[0]
            raise type(err)(f"{run_id} seed {seed}: {err}")
        rows += group_rows
    return rows


def cmd_run(cfg: ExperimentConfig, out_dir: str, jobs: int = 1, seed_offset: int = 0) -> str:
    """One condition x all seeds; returns the summary path."""
    seeds = _seeds(cfg, seed_offset)
    os.makedirs(out_dir, exist_ok=True)
    rows = _execute_conditions([("run", cfg)], seeds, out_dir, jobs)
    rows.sort(key=lambda r: r["seed"])
    path = os.path.join(out_dir, "summary.csv")
    write_summary(path, rows)
    return path


def cmd_sweep(
    cfg: ExperimentConfig, axis: str, values: list[str], out_dir: str, jobs: int = 1, seed_offset: int = 0
) -> str:
    """Cross-product of axis values and seeds, merged into one summary."""
    if not values:
        raise ConfigError("sweep: empty value list")
    resolve_axis(axis)
    seeds = _seeds(cfg, seed_offset)
    os.makedirs(out_dir, exist_ok=True)
    conditions = []
    for value in values:
        sub = cfg.clone()
        sub.set_axis_value(axis, value)
        conditions.append((f"{axis}={value}", sub))
    rows = _execute_conditions(conditions, seeds, out_dir, jobs)

    def sort_key(row):
        value = row["run_id"].split("=", 1)[1]
        try:
            return (0, float(value), row["seed"])
        except ValueError:
            return (1, value, row["seed"])

    rows.sort(key=sort_key)
    for row in rows:
        row["axis"] = axis
        row["axis_value"] = row["run_id"].split("=", 1)[1]
    path = os.path.join(out_dir, "summary.csv")
    write_summary(path, rows, extra_columns=("axis", "axis_value"))
    return path


def cmd_estimation_scaling(cfg: ExperimentConfig, out_dir: str, seed_offset: int = 0) -> str:
    """Sup preconditioner-estimation error versus eta, with the fitted slope.

    For each eta, runs RMSProp with burn-in under beta = 1 - C eta^(2/3),
    tracking ||Ahat_t - A(x_t)|| over a window of ~est_window_factor EMA
    time constants, and fits the log-log slope of the sup error.
    """
    etas = cfg.run.get("etas")
    if not etas or len(etas) < 2:
        raise ConfigError("run.etas: estimation scaling needs at least two stepsizes")
    seed = _seeds(cfg, seed_offset)[0]
    problem_probe = build_problem(cfg.problem)
    if not problem_probe.has_exact_g:
        raise ConfigError("problem: estimation scaling needs an exact_G oracle")
    os.makedirs(out_dir, exist_ok=True)
    c_sched = cfg.run.get("beta_c", 1.0)
    factor = cfg.run.get("est_window_factor", 40.0)

    rows = []
    for eta in sorted(etas, reverse=True):
        beta = beta_schedule(eta, c_sched)
        window = max(cfg.run.get("t", 1), math.ceil(factor / (1.0 - beta)))
        sub = cfg.clone()
        sub.optimizer["algorithm"] = "rmsprop_burnin"
        sub.optimizer["eta"] = eta
        sub.optimizer["beta_spec"] = ("fixed", beta)
        sub.optimizer.pop("auto", None)
        sub.run["t"] = window
        sub.run["track_est_error"] = True
        sub.run["log_every"] = 1
        _, run, (traj,) = execute_records(sub, [seed])
        if traj.error is not None:
            raise traj.error
        rows.append(
            {
                "eta": eta,
                "beta": beta,
                "T": window,
                "W": run.hp.W,
                "sup_error": float(traj.est_error[traj.steps()].max()),
                "max_x_norm": float(np.sqrt(np.vecdot(traj.x, traj.x)).max()),
                "seed": seed,
            }
        )

    finite = [r for r in rows if r["sup_error"] > 0.0]
    if len(finite) >= 2:
        slope = float(
            np.polyfit(
                np.log([r["eta"] for r in finite]), np.log([r["sup_error"] for r in finite]), 1
            )[0]
        )
    else:
        slope = 0.0

    path = os.path.join(out_dir, "scaling.csv")

    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        cols = ["eta", "beta", "T", "W", "sup_error", "max_x_norm", "seed"]
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in cols])

    _atomic_write(path, write)

    fit_path = os.path.join(out_dir, "scaling_fit.csv")
    _atomic_write(
        fit_path,
        lambda fh: fh.write("slope\n" + _fmt(slope) + "\n"),
    )
    return path


def cmd_report(summary_paths, out_dir: str) -> str:
    """Per-condition f-vs-iteration quantile bands (p10/p50/p90 over seeds)."""
    if not summary_paths:
        raise ConfigError("report: no summary files given")
    header0 = None
    groups: dict[str, list[tuple[int, str, str]]] = {}
    for path in summary_paths:
        header, rows = read_summary(path)
        if header0 is None:
            header0 = header
        elif header != header0:
            raise ConfigError(f"{path}: summary schema does not match {summary_paths[0]}")
        base = os.path.dirname(os.path.abspath(path))
        for row in rows:
            groups.setdefault(row["run_id"], []).append(
                (int(row["seed"]), os.path.join(base, row["trajectory"]), path)
            )

    os.makedirs(out_dir, exist_ok=True)
    out_rows = []
    for run_id in sorted(groups):
        iters_ref = None
        f_by_seed = []
        for seed, traj_path, _src in sorted(groups[run_id]):
            traj = read_trajectory(traj_path)
            steps = traj.steps()
            iters = traj.iteration[steps].tolist()
            if iters_ref is None:
                iters_ref = iters
            elif iters != iters_ref:
                raise ConfigError(f"{traj_path}: iteration grid differs within condition {run_id!r}")
            f_by_seed.append(traj.f[steps])
        f_mat = np.asarray(f_by_seed)
        p10, p50, p90 = np.quantile(f_mat, [0.1, 0.5, 0.9], axis=0)
        for i, it in enumerate(iters_ref):
            out_rows.append((run_id, it, p10[i], p50[i], p90[i]))

    path = os.path.join(out_dir, "bands.csv")

    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["run_id", "iter", "f_p10", "f_p50", "f_p90"])
        for run_id, it, a, b, c in out_rows:
            writer.writerow([run_id, str(it), _fmt(float(a)), _fmt(float(b)), _fmt(float(c))])

    _atomic_write(path, write)
    return path
