"""Experiment execution: runs, sweeps, scaling studies, and report data.

Builds problems and optimizer runs from an ExperimentConfig and executes
each condition (a run, a sweep value, a scaling study's eta) in seed
groups: contiguous runs of its seeds that advance in lockstep in one
process (``jobs`` groups per condition, optionally in a process pool).
Writes one trajectory CSV per seed plus a merged summary CSV (or one
scaling row per eta), and turns summaries back into quantile-band plot
data. A seed's bytes do not depend on the group it ran in, so the output
does not depend on ``jobs``. A seed that fails numerically still gets
its partial trajectory; the other seeds finish, and the first failure in
condition and seed order is raised once everything is written (without
a summary). All files are written atomically (temp + rename) and floats
are formatted with their shortest round-trip representation, so
re-running a config reproduces byte-identical output.
"""

from __future__ import annotations

import csv
import functools
import math
import os
import tempfile

import numpy as np

from .config import AUTO_KEYS, ExperimentConfig, resolve_axis
from .errors import ConfigError, DataFormatError, NumericError
from .estimation import beta_schedule, burn_in_length, hallucination_count
from .optimizer import (
    ALGORITHMS,
    AUTO_MODES,
    HyperParams,
    Run,
    Trajectory,
    first_order_params,
    run_sgd,
    second_order_params,
)
from .precond import PreconditionerConstants, PreconditionerKind, estimates
from .problems import PROBLEMS

# The paper-scale escape level (-0.1) is below the saddle problem's global
# minimum (~ -0.01265), so escape is declared at -0.01 instead.
DEFAULT_ESCAPE_LEVEL = -0.01


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


def write_csv(path, columns, rows) -> None:
    """A header of ``columns``, then one line per row dict, each value as ``_fmt`` gives it (absent: empty)."""

    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(row.get(c)) for c in columns] for row in rows)

    _atomic_write(path, write)


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
    """The problem a [problem] dict names, built by its ``problems.PROBLEMS`` entry."""
    if pcfg["name"] not in PROBLEMS:
        raise ConfigError(f"problem.name: unknown problem {pcfg['name']!r}")
    return PROBLEMS[pcfg["name"]].build(pcfg)


def resolve_run(cfg: ExperimentConfig, problem) -> Run:
    """The run a condition asks for, each setting read once and checked by ``Run``.

    ``hp`` holds only what the algorithm runs: W only with burn-in, r and
    t_thresh only for ``large_step``, S only when it hallucinates, beta or
    beta_c only when estimating; plus the f_thresh/g_thresh of
    ``auto = second_order``. Under ``optimizer.auto``, setting a key its
    mode computes (``optimizer.AUTO_MODES``; second_order also computes a
    fixed beta) or an auto key the mode does not read, or leaving out one
    it requires, or one outside (0, inf) ((0, 1) for k_const, (0, 1] for
    the probability delta), is a
    ConfigError; so is a run needing the exact_G oracle the problem lacks."""
    ocfg, rcfg = cfg.optimizer, cfg.run
    algo = ocfg["algorithm"]
    spec = ALGORITHMS[algo]
    variant = "identity" if algo == "sgd" else ocfg.get("kind", "full_matrix")
    kind = PreconditionerKind(variant, ocfg.get("epsilon", 0.0), ocfg.get("exponent", -0.5))
    source = ocfg.get("source", spec.source) if spec.source_configurable else spec.source
    estimating = estimates(kind, source)
    track_est_error = rcfg.get("track_est_error", False)
    if kind.variant != "identity" and (source == "idealized" or track_est_error) and not problem.has_exact_g:
        needs = "idealized preconditioning" if source == "idealized" else "est_error tracking"
        raise ConfigError(f"problem.name: {cfg.problem['name']} has no exact_G oracle, which {needs} needs")

    beta, beta_c = None, None
    if "beta_spec" in ocfg:
        mode, value = ocfg["beta_spec"]
        if mode == "fixed":
            beta = value
        else:
            beta_c = value
    elif estimating:
        raise ConfigError("optimizer.beta_spec: required for estimated preconditioning")

    eta, r, t_thresh, W, S = (ocfg.get(key) for key in ("eta", "r", "t_thresh", "w", "s"))
    T = rcfg["t"]
    # The calculators' optional constants, passed only when set: each default is the calculator's own.
    burn_in_c = {"c_w": rcfg["burn_in_c"]} if "burn_in_c" in rcfg else {}
    f_thresh = g_thresh = None

    auto = ocfg.get("auto")
    if auto is not None:
        calc = AUTO_MODES[auto]
        for key in calc.computes:
            if key in ocfg:
                raise ConfigError(f"optimizer.{key}: computed by optimizer.auto={auto}, so it may not be set")
        for key in AUTO_KEYS:
            if key in ocfg and key not in calc.requires + calc.reads:
                raise ConfigError(f"optimizer.{key}: not read by optimizer.auto={auto}")
        if auto == "second_order" and beta is not None:
            raise ConfigError("optimizer.beta_spec: a fixed beta is computed by optimizer.auto=second_order; "
                              "set schedule:C or nothing")
        for key in calc.requires:
            if key not in ocfg:
                raise ConfigError(f"optimizer.{key}: required for auto={auto}")
        for key in calc.requires + calc.reads:
            # Every calculator input is a positive constant; k_const is also below 1, the probability delta at most 1.
            top, closed = {"k_const": (1.0, False), "delta": (1.0, True)}.get(key, (math.inf, False))
            if key in ocfg and not (0.0 < ocfg[key] < top or closed and ocfg[key] == top):
                raise ConfigError(f"optimizer.{key}: must be in (0, {top}{']' if closed else ')'} for auto={auto}, "
                                  f"got {ocfg[key]}")
    if auto in ("first_order_exact", "first_order_inexact"):
        eta, T = first_order_params(
            ocfg["l"], ocfg["c3"], ocfg["lambda_minus"], ocfg["delta_f"], ocfg["tau"],
            exact=auto == "first_order_exact",
        )
    elif auto == "second_order":
        consts = PreconditionerConstants(
            nu1=ocfg.get("nu1", 1.0),
            nu2=ocfg.get("nu2", 1.0),
            c3=ocfg["c3"],
            c4=ocfg["c4"],
            lambda_minus=ocfg["lambda_minus"],
            M_bound=ocfg.get("m_bound", math.sqrt(ocfg["c3"])),
        )
        found = second_order_params(
            consts, ocfg["l"], ocfg["rho"], ocfg["tau"], ocfg["delta"],
            **{key: ocfg[key] for key in ("omega", "k_const") if key in ocfg},
            **burn_in_c,
            **({"beta_c": beta_c} if beta_c is not None else {}),
        )
        eta, beta, beta_c, r, t_thresh = found.eta, found.beta, found.beta_c, found.r, found.t_thresh
        W, S, f_thresh, g_thresh = found.W, found.S, found.f_thresh, found.g_thresh
    if eta is None:
        raise ConfigError("optimizer.eta: required (or supply optimizer.auto)")

    if not (spec.burn_in and source == "estimated"):
        W = 0
    elif W is None:
        W = burn_in_length(eta, **burn_in_c)
    if not spec.large_steps:
        r = t_thresh = None
    elif r is None or t_thresh is None:
        raise ConfigError("optimizer.r and optimizer.t_thresh: required for large_step")
    if not (spec.large_steps and estimating):
        S = None
    elif S is None:
        S = hallucination_count(r, eta)
    if not estimating:
        beta = beta_c = None

    x0 = cfg.problem.get("x0", [0.0] * problem.dim)
    if len(x0) != problem.dim:
        raise ConfigError("problem.x0: length must equal the problem dimension")

    return Run(
        kind=kind,
        source=source,
        bias_corrected=ocfg.get("bias_corrected", False),
        hp=HyperParams(
            eta=eta, eta_decay=ocfg.get("eta_decay", "none"), beta=beta, beta_c=beta_c, r=r, t_thresh=t_thresh,
            W=W, S=S, f_thresh=f_thresh, g_thresh=g_thresh,
        ),
        T=T,
        x0=x0,
        log_every=rcfg.get("log_every", 1),
        track_est_error=track_est_error,
        lambda_min_every=rcfg.get("lambda_min_every", 0),
    )


def execute_records(cfg: ExperimentConfig, seeds):
    """Run a group of seeds of one condition in lockstep.

    Returns the problem, the resolved run and one Trajectory per seed.
    """
    problem = build_problem(cfg.problem)
    run = resolve_run(cfg, problem)
    return problem, run, run_sgd(problem, run, [make_rng(seed) for seed in seeds])


def trajectory_columns(dim: int) -> list[str]:
    cols = ["iter", "step_kind", "f", "grad_norm", "lambda_min_H", "est_error"]
    if dim <= 8:
        cols += [f"x_{i}" for i in range(dim)]
    return cols


# Trajectory rows formatted and written at a time: memory stays flat
# however long the run.
TRAJECTORY_CHUNK_ROWS = 256


def _reprs(column, blank_nan: bool = False) -> list[str]:
    """repr() of each value of a 1-D numeric array, from one repr of its list.

    The list repr calls repr on each element, so floats get their shortest
    round-trip form, formatted in C rather than one call per value. With
    ``blank_nan``, NaN (a value that was not evaluated) is the empty field.
    """
    text = repr(column.tolist())[1:-1]
    return (text.replace("nan", "") if blank_nan else text).split(", ")


def write_trajectory(path, traj: Trajectory, dim: int) -> None:
    """One CSV row per logged event. No field needs quoting: they are numbers
    and the STEP_* names."""
    x_columns = traj.x.T if dim <= 8 else ()

    def write(fh):
        fh.write(",".join(trajectory_columns(dim)) + "\n")
        for start in range(0, len(traj), TRAJECTORY_CHUNK_ROWS):
            rows = slice(start, start + TRAJECTORY_CHUNK_ROWS)
            fields = [
                _reprs(traj.iteration[rows]),
                traj.step_kind[rows].tolist(),
                _reprs(traj.f[rows]),
                _reprs(traj.grad_norm[rows]),
                _reprs(traj.lambda_min_h[rows], blank_nan=True),
                _reprs(traj.est_error[rows], blank_nan=True),
                *(_reprs(x[rows]) for x in x_columns),
            ]
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")

    _atomic_write(path, write)


def read_trajectory(path) -> Trajectory:
    """The logged columns of a trajectory CSV (without x)."""
    _, raw = read_summary(path, trajectory_columns(0))

    def floats(name):
        return np.array(_column(path, raw, name, lambda v: float(v) if v else np.nan), dtype=np.float64)

    return Trajectory(
        iteration=np.array(_column(path, raw, "iter", int), dtype=np.int64),
        step_kind=np.array(_column(path, raw, "step_kind"), dtype=object),
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


def run_group(cfg: ExperimentConfig, run_id: str, seeds, out_dir: str) -> list:
    """Run a seed group in lockstep and write one trajectory per seed.

    Returns, per seed, its summary row or, if it failed numerically, its
    error; a failed seed's trajectory holds the events logged before its
    failure.
    """
    problem, _, trajectories = execute_records(cfg, seeds)
    outcomes = []
    for seed, traj in zip(seeds, trajectories):
        traj_name = f"{_safe_name(run_id)}_seed{seed}.csv"
        write_trajectory(os.path.join(out_dir, traj_name), traj, problem.dim)
        outcomes.append(traj.error if traj.error is not None else summarize(
            traj, run_id, seed, cfg.run.get("escape_level", DEFAULT_ESCAPE_LEVEL), cfg.run.get("f_threshold"),
            traj_name))
    return outcomes


def _scaling_group(cfg: ExperimentConfig, run_id: str, seeds) -> list:
    """Run a seed group of a scaling study's eta; return per seed its scaling.csv row or its NumericError."""
    _, run, trajectories = execute_records(cfg, seeds)
    return [traj.error if traj.error is not None else {
        "eta": run.hp.eta, "beta": run.hp.beta, "T": run.T, "W": run.hp.W,
        "sup_error": float(traj.est_error[traj.steps()].max()),
        "max_x_norm": float(np.sqrt(np.vecdot(traj.x, traj.x)).max()), "seed": seed,
    } for seed, traj in zip(seeds, trajectories)]


def read_summary(path, required=()) -> tuple[list[str], list[dict]]:
    """The header and row dicts of a CSV file with the ``required`` columns; else a DataFormatError."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [name for name in required if name not in header]
        if not header or missing:
            raise DataFormatError(f"{path}: no {missing[0]} column" if missing else f"{path}: empty file")
        rows = [dict(zip(header, row)) for row in reader]
    return header, rows


def _column(path, rows, name, parse=str) -> list:
    """parse(row[name]) for the rows of the CSV file ``path``; a field it cannot parse is a DataFormatError."""
    values = []
    for line, row in enumerate(rows, start=2):
        try:
            values.append(parse(row[name]))
        except (KeyError, ValueError):
            raise DataFormatError(f"{path}:{line}: bad {name} field {row.get(name)!r}") from None
    return values


def _seeds(cfg: ExperimentConfig) -> list[int]:
    """The configured seeds: each must be >= 0 and occur once."""
    seeds = cfg.run["seeds"]
    if min(seeds) < 0:
        raise ConfigError(f"run.seeds: seed {min(seeds)} is negative")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise ConfigError(f"run.seeds: seed {repeated[0]} occurs more than once")
    return seeds


def _refuse_unread(cfg: ExperimentConfig, command: str) -> None:
    """A ConfigError naming the first part of cfg that only a subcommand other than ``command`` reads."""
    read_only_by = {
        ("estimation-scaling",): [f"run.{key}" for key in ("etas", "est_window_factor") if key in cfg.run],
        ("sweep",): ["[sweep]"] if cfg.sweep else [],
        ("run", "sweep"): [f"run.{key}" for key in ("escape_level", "f_threshold", "lambda_min_every")
                           if key in cfg.run],
    }
    for readers, parts in read_only_by.items():
        if command not in readers and parts:
            raise ConfigError(f"{parts[0]}: read only by {' and '.join(readers)}, not by {command}")


def _execute_conditions(group, conditions, seeds, jobs: int) -> list[dict]:
    """Run each (run_id, cfg) condition over the seeds with ``group``; return the rows.

    The seeds are split into ``jobs`` contiguous lockstep groups per
    condition; ``group(cfg, run_id, seeds)`` runs one and returns per seed
    its row or its NumericError. Every group runs (and writes its files)
    before the first failure, in condition and seed order, is raised.
    """
    n_groups = max(1, min(jobs, len(seeds)))
    groups = [g.tolist() for g in np.array_split(np.array(seeds), n_groups)]
    tasks = [(cfg, run_id, seed_group) for run_id, cfg in conditions for seed_group in groups]
    if jobs <= 1 or len(tasks) <= 1:
        results = [group(*task) for task in tasks]
    else:
        # Imported here: a serial run need not load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(group, *zip(*tasks)))
    rows = []
    for (_, run_id, seed_group), outcomes in zip(tasks, results):
        for seed, outcome in zip(seed_group, outcomes):
            if isinstance(outcome, NumericError):
                raise type(outcome)(f"{run_id} seed {seed}: {outcome}")
            rows.append(outcome)
    return rows


def cmd_run(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> str:
    """One condition x all seeds; returns the summary path."""
    _refuse_unread(cfg, "run")
    seeds = _seeds(cfg)
    rows = _execute_conditions(functools.partial(run_group, out_dir=out_dir), [("run", cfg)], seeds, jobs)
    rows.sort(key=lambda r: r["seed"])
    path = os.path.join(out_dir, "summary.csv")
    write_csv(path, SUMMARY_COLUMNS, rows)
    return path


def cmd_sweep(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> str:
    """Cross-product of the values of sweep.axis (both from [sweep]) and the seeds, merged into one summary."""
    _refuse_unread(cfg, "sweep")
    for key in ("axis", "values"):
        if key not in cfg.sweep:
            raise ConfigError(f"sweep.{key}: required for sweep")
    axis, values = cfg.sweep["axis"], cfg.sweep["values"]
    section, key, _ = resolve_axis(axis)
    seeds = _seeds(cfg)
    conditions = []
    for value in values:
        sub = cfg.clone()
        sub.set_axis_value(axis, value)
        if any(getattr(sub, section)[key] == getattr(done, section)[key] for _, done in conditions):
            raise ConfigError(f"sweep.values: {axis} value {value} occurs more than once")
        name = _safe_name(f"{axis}={value}")
        clash = [run_id.split("=", 1)[1] for run_id, _ in conditions if _safe_name(run_id) == name]
        if clash:
            raise ConfigError(f"sweep.values: {axis} values {clash[0]} and {value} would both write {name}_seed*.csv")
        resolve_run(sub, build_problem(sub.problem))  # a bad condition stops the sweep before any runs
        conditions.append((f"{axis}={value}", sub))
    rows = _execute_conditions(functools.partial(run_group, out_dir=out_dir), conditions, seeds, jobs)

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
    write_csv(path, ("axis", "axis_value") + SUMMARY_COLUMNS, rows)
    return path


def cmd_estimation_scaling(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> str:
    """Sup preconditioner-estimation error versus eta, with the fitted slope.

    For each eta of run.etas, runs RMSProp with burn-in under
    beta = 1 - C eta^(2/3), C from optimizer.beta_spec = schedule:C (1 if
    the key is unset), tracking ||Ahat_t - A(x_t)|| over a window of
    ~est_window_factor EMA time constants, and fits the log-log slope of
    the sup error. Each eta is a condition ``eta <eta>``, largest first,
    and ``jobs`` of them run at once. Each run replaces
    optimizer.algorithm (by rmsprop_burnin), optimizer.eta,
    optimizer.beta_spec (by the fixed beta(eta)), run.t (by the window if
    longer), run.track_est_error and run.log_every. A fixed beta_spec
    (one beta cannot serve several etas), kind = identity (no estimate),
    optimizer.auto (which would set eta), an eta_decay other than none
    (each row is fitted against its constant eta), an eta that repeats
    or has no beta(eta) in (0, 1), and a [sweep] section, run.escape_level,
    run.f_threshold or run.lambda_min_every (which it would not read) are
    ConfigErrors. Neither a ConfigError nor a numeric failure writes a
    file.
    """
    _refuse_unread(cfg, "estimation-scaling")
    etas = cfg.run.get("etas")
    if not etas or len(etas) < 2:
        raise ConfigError("run.etas: estimation scaling needs at least two stepsizes")
    mode, c_sched = cfg.optimizer.get("beta_spec", ("schedule", 1.0))
    if mode == "fixed":
        raise ConfigError("optimizer.beta_spec: one fixed beta cannot serve several etas; set schedule:C or nothing")
    for eta in etas:
        if etas.count(eta) > 1:
            raise ConfigError(f"run.etas: eta {eta} occurs more than once")
        if not eta > 0.0 or not c_sched * eta ** (2.0 / 3.0) < 1.0:  # beta(eta) must lie in (0, 1)
            raise ConfigError(f"run.etas: eta {eta} must be positive with C eta^(2/3) < 1, C = {c_sched}")
    if cfg.optimizer.get("kind") == "identity":
        raise ConfigError("optimizer.kind: identity has no estimate for estimation scaling to measure")
    if "auto" in cfg.optimizer:
        raise ConfigError("optimizer.auto: estimation scaling takes each eta from run.etas, so auto may not be set")
    if cfg.optimizer.get("eta_decay", "none") != "none":
        raise ConfigError("optimizer.eta_decay: estimation scaling runs each eta as a constant stepsize")
    seeds = _seeds(cfg)
    if len(seeds) > 1:
        raise ConfigError(f"run.seeds: estimation scaling runs one seed, got {len(seeds)}")
    factor = cfg.run.get("est_window_factor", 40.0)

    conditions = []
    for eta in sorted(etas, reverse=True):
        beta = beta_schedule(eta, c_sched)
        sub = cfg.clone()
        sub.optimizer["algorithm"] = "rmsprop_burnin"
        sub.optimizer["eta"] = eta
        sub.optimizer["beta_spec"] = ("fixed", beta)
        sub.run["t"] = max(cfg.run.get("t", 1), math.ceil(factor / (1.0 - beta)))
        sub.run["track_est_error"] = True
        sub.run["log_every"] = 1
        conditions.append((f"eta {eta}", sub))
    rows = _execute_conditions(_scaling_group, conditions, seeds, jobs)

    finite = [r for r in rows if r["sup_error"] > 0.0]
    slope = 0.0
    if len(finite) >= 2:
        slope = float(np.polyfit(np.log([r["eta"] for r in finite]), np.log([r["sup_error"] for r in finite]), 1)[0])

    path = os.path.join(out_dir, "scaling.csv")
    write_csv(path, ("eta", "beta", "T", "W", "sup_error", "max_x_norm", "seed"), rows)
    write_csv(os.path.join(out_dir, "scaling_fit.csv"), ("slope",), [{"slope": slope}])
    return path


def cmd_report(summary_paths, out_dir: str) -> str:
    """Per-condition f-vs-iteration quantile bands (p10/p50/p90 over seeds).

    Conditions are keyed by run_id across the summaries given, so shards
    of one condition with disjoint seeds merge into one band; a seed that
    occurs twice in one condition is a ConfigError naming both summaries.
    """
    if not summary_paths:
        raise ConfigError("report: no summary files given")
    header0 = None
    groups: dict[str, dict[int, tuple[str, str]]] = {}  # run_id -> seed -> (summary, trajectory)
    for path in summary_paths:
        header, rows = read_summary(path, ("run_id", "seed", "trajectory"))
        if header0 is None:
            header0 = header
        elif header != header0:
            raise ConfigError(f"{path}: summary schema does not match {summary_paths[0]}")
        base = os.path.dirname(os.path.abspath(path))
        seeds = _column(path, rows, "seed", int)
        for run_id, seed, trajectory in zip(_column(path, rows, "run_id"), seeds, _column(path, rows, "trajectory")):
            condition = groups.setdefault(run_id, {})
            if seed in condition:
                raise ConfigError(f"{path}: run_id {run_id!r} seed {seed} also occurs in {condition[seed][0]}")
            condition[seed] = (path, os.path.join(base, trajectory))

    out_rows = []
    for run_id in sorted(groups):
        iters_ref = None
        f_by_seed = []
        for _, (_, traj_path) in sorted(groups[run_id].items()):
            traj = read_trajectory(traj_path)
            steps = traj.steps()
            iters = traj.iteration[steps].tolist()
            if iters_ref is None:
                iters_ref = iters
            elif iters != iters_ref:
                raise ConfigError(f"{traj_path}: iteration grid differs within condition {run_id!r}")
            f_by_seed.append(traj.f[steps])
        f_mat = np.asarray(f_by_seed)
        p10, p50, p90 = np.quantile(f_mat, [0.1, 0.5, 0.9], axis=0).tolist()
        out_rows += (
            {"run_id": run_id, "iter": it, "f_p10": a, "f_p50": b, "f_p90": c}
            for it, a, b, c in zip(iters_ref, p10, p50, p90)
        )

    path = os.path.join(out_dir, "bands.csv")
    write_csv(path, ("run_id", "iter", "f_p10", "f_p50", "f_p90"), out_rows)
    return path
