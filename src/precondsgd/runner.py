"""Experiment execution: runs, sweeps, scaling studies, and report data.

Holds no config rule: ``config.conditions`` gives a subcommand's
conditions, each with its resolved run, and the output directory is
checked after them; both before the first seed runs, so whatever exits 2
runs nothing. Each condition (a run, a sweep value, a scaling study's
eta) runs in seed groups: contiguous runs of its seeds that advance in
lockstep in one process (``jobs`` groups per condition, optionally in a
pool of freshly started worker processes). Every process runs one BLAS
thread per LAPACK call unless the user set OPENBLAS_NUM_THREADS or
OMP_NUM_THREADS (see ``linalg``); inside a process, ``linalg.eigh``
spreads a group's large matrices over the cores. Writes one trajectory
CSV per seed plus a merged summary CSV (or one scaling row per eta), and
turns summaries back into quantile-band plot data. Each chunk of rows
that ``optimizer.run_sgd`` hands over goes, a seed at a time, to that
seed's trajectory file and into its running ``Summary``, and is then
dropped, so memory stays flat however long the run. A seed's bytes do
not depend on the group it ran in, so the output does not depend on
``jobs``. A seed that fails numerically still gets its partial
trajectory; the other seeds finish, and the first failure in condition
and seed order is raised once everything is written (without a summary).
All files are written atomically (temp + rename) and floats are
formatted with their shortest round-trip representation, so re-running
a config reproduces byte-identical output."""

from __future__ import annotations

import contextlib
import csv
import functools
import os
import signal

import numpy as np

from .config import ExperimentConfig, _safe_name, conditions
from .errors import ConfigError, DataFormatError, NumericError, Terminated
from .linalg import one_thread
from .optimizer import Trajectory, run_sgd
from .problems import PROBLEMS

# The paper-scale escape level (-0.1) is below the saddle problem's global
# minimum (~ -0.01265), so escape is declared at -0.01 instead.
DEFAULT_ESCAPE_LEVEL = -0.01

# A trajectory has columns x_0, x_1, ... of the iterate up to this dimension.
X_COLUMNS_MAX_DIM = 8


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
    with _atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(row.get(c)) for c in columns] for row in rows)


@contextlib.contextmanager
def _atomic_write(path):
    """A temp file beside ``path``, open to write in the block, renamed to ``path`` when the block ends; an
    exception in the block removes it and leaves ``path`` as it was."""
    with _atomic_paths([path]) as (tmp,), open(tmp, "w", encoding="utf-8", newline="") as fh:
        yield fh


@contextlib.contextmanager
def _atomic_paths(paths):
    """The paths of an empty, closed temp file beside each of ``paths``, for the block to write; each is
    renamed to its path when the block ends. An exception in the block (Ctrl-C and SIGTERM in ``cli``
    included) removes them and leaves every path as it was."""
    temps = []
    try:
        for path in paths:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
            os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))  # mode 0666 less the umask
            temps.append(tmp)
        yield temps
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def make_rng(seed: int):
    """The per-run RNG: a counter-based Philox stream keyed by the seed."""
    return np.random.Generator(np.random.Philox(seed))


def build_problem(pcfg: dict):
    """The problem a [problem] dict names, built by its ``problems.PROBLEMS`` entry."""
    return PROBLEMS[pcfg["name"]].build(pcfg)


def execute_records(cfg: ExperimentConfig, run, seeds, sink=None) -> list:
    """Run a group of seeds of one condition (its cfg and resolved run) in lockstep: ``optimizer.run_sgd``'s one
    Trajectory per seed or, with a sink, each seed's error."""
    return run_sgd(build_problem(cfg.problem), run, [make_rng(seed) for seed in seeds], sink)


def trajectory_columns(dim: int) -> list[str]:
    cols = ["iter", "step_kind", "f", "grad_norm", "lambda_min_H", "est_error"]
    if dim <= X_COLUMNS_MAX_DIM:
        cols += [f"x_{i}" for i in range(dim)]
    return cols


def _reprs(column, blank_nan: bool = False) -> list[str]:
    """repr() of each value of a 1-D numeric array, from one repr of its list.

    The list repr calls repr on each element, so floats get their shortest
    round-trip form, formatted in C rather than one call per value. With
    ``blank_nan``, NaN (a value that was not evaluated) is the empty field.
    """
    text = repr(column.tolist())[1:-1]
    return (text.replace("nan", "") if blank_nan else text).split(", ")


def write_trajectory(fh, rows: Trajectory) -> None:
    """Append one CSV row per logged event of ``rows`` to the trajectory file ``fh``, whose header
    ``trajectory_columns`` gives. No field needs quoting: they are numbers and the STEP_* names."""
    if len(rows):
        fields = [
            _reprs(rows.iteration),
            rows.step_kind.tolist(),
            _reprs(rows.f),
            _reprs(rows.grad_norm),
            _reprs(rows.lambda_min_h, blank_nan=True),
            _reprs(rows.est_error, blank_nan=True),
            *(_reprs(x) for x in (rows.x.T if rows.x.shape[1] <= X_COLUMNS_MAX_DIM else ())),
        ]
        fh.write("\n".join(map(",".join, zip(*fields))) + "\n")


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


class Summary:
    """One seed's summary, folded from its rows a chunk at a time, with the bits of the same formulas
    over the whole trajectory. It reads only logged columns, so a summary.csv row is exactly recomputable
    from the trajectory CSV. Over the steps (normal and large events): the last and least f, the first
    iteration at or below each of ``levels`` (None: not set, or not reached), the mean of the last 1,000
    f's, and the sup of est_error, without NaN (``sup_est_error``) or with it (``sup_error``); over all
    rows, the sup of ||x|| (``max_x_norm``)."""

    def __init__(self, levels=()):
        self.levels, self.hits = levels, [None] * len(levels)
        self.final_f, self.min_f, self.last_fs = None, np.inf, np.empty(0)
        self.sup_est_error, self.sup_error, self.max_x_norm = np.nan, -np.inf, -np.inf

    def add(self, rows: Trajectory) -> None:
        steps = rows.steps()
        fs, iters, errors = rows.f[steps], rows.iteration[steps], rows.est_error[steps]
        self.final_f = fs[-1] if fs.size else self.final_f
        self.min_f = np.minimum.reduce(fs, initial=self.min_f)
        self.last_fs = np.concatenate((self.last_fs, fs))[-1000:]
        self.sup_est_error = np.fmax.reduce(errors, initial=self.sup_est_error)  # fmax passes over NaN
        self.sup_error = np.maximum.reduce(errors, initial=self.sup_error)
        self.max_x_norm = np.maximum.reduce(np.sqrt(np.vecdot(rows.x, rows.x)), initial=self.max_x_norm)
        for i, level in enumerate(self.levels):
            hit = iters[fs <= level] if self.hits[i] is None and level is not None else ()
            self.hits[i] = int(hit[0]) if len(hit) else self.hits[i]

    def row(self, run_id: str, seed: int, trajectory: str) -> dict:
        """The summary.csv row of a seed that ran without error, so logged its last step, with levels
        (f_threshold, escape_level)."""
        return {"run_id": run_id, "seed": seed, "final_f": float(self.final_f), "min_f": float(self.min_f),
                "iters_to_threshold": self.hits[0], "escape_time": self.hits[1],
                "mean_last_1000_f": float(self.last_fs.mean()),
                "sup_est_error": None if np.isnan(self.sup_est_error) else float(self.sup_est_error),
                "trajectory": trajectory}


def run_group(run_id: str, cfg: ExperimentConfig, run, seeds, out_dir: str) -> list:
    """Run a seed group in lockstep, each seed's rows streamed to its trajectory file and its Summary.

    Returns, per seed, its summary row or, if it failed numerically, its
    error; a failed seed's trajectory holds the events logged before its
    failure. At most one file is open at a time, however many the seeds:
    each sink call appends to its seed's temp file.
    """
    names = [f"{_safe_name(run_id)}_seed{seed}.csv" for seed in seeds]
    summaries = [Summary((cfg.run.get("f_threshold"), cfg.run.get("escape_level", DEFAULT_ESCAPE_LEVEL)))
                 for _ in seeds]
    header = ",".join(trajectory_columns(len(run.x0))) + "\n"  # a resolved run's x0 sets the dimension
    with _atomic_paths([os.path.join(out_dir, name) for name in names]) as temps:
        for tmp in temps:
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                fh.write(header)

        def sink(b, rows):
            with open(temps[b], "a", encoding="utf-8", newline="") as fh:
                write_trajectory(fh, rows)
            summaries[b].add(rows)

        errors = execute_records(cfg, run, seeds, sink)
    return [error or s.row(run_id, seed, name) for error, s, seed, name in zip(errors, summaries, seeds, names)]


def _scaling_group(run_id: str, cfg: ExperimentConfig, run, seeds) -> list:
    """Run a seed group of a scaling study's eta; return per seed its scaling.csv row or its NumericError."""
    summaries = [Summary() for _ in seeds]
    errors = execute_records(cfg, run, seeds, lambda b, rows: summaries[b].add(rows))
    return [error or {"eta": run.eta, "beta": run.beta, "T": run.T, "W": run.W, "sup_error": float(s.sup_error),
                      "max_x_norm": float(s.max_x_norm), "seed": seed}
            for error, s, seed in zip(errors, summaries, seeds)]


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


# A pool worker's state: whether it runs a group, and whether SIGTERM came.
_worker = {"running": False, "terminated": False}


def _worker_start() -> None:
    """A pool worker's initializer: SIGTERM unwinds the group it runs, as in ``cli.main``, so that the group's
    temp files are removed, and the worker runs no group after it."""
    signal.signal(signal.SIGTERM, _worker_sigterm)


def _worker_sigterm(signum, frame):
    _worker["terminated"] = True
    if _worker["running"]:  # between groups, the worker is in the pool's own code: the next group raises
        raise Terminated


def _worker_group(group, *task):
    """``group(*task)`` in a pool worker, unless SIGTERM came."""
    try:
        _worker["running"] = True
        if _worker["terminated"]:
            raise Terminated
        return group(*task)
    finally:
        _worker["running"] = False


def _execute_conditions(group, cfg: ExperimentConfig, command: str, out_dir: str, jobs: int) -> list[dict]:
    """Resolve ``command``'s conditions and check out_dir, then run each with ``group``; return the rows.

    The seeds are split into ``jobs`` contiguous lockstep groups per
    condition; ``group(run_id, cfg, run, seeds)`` runs one and returns per
    seed its row or its NumericError. Every group runs (and writes its files)
    before the first failure, in condition and seed order, is raised.
    """
    runs = conditions(cfg, command)
    path = os.path.abspath(out_dir)
    while not os.path.isdir(path):  # the first write makes it; a file on its path is refused now
        if os.path.lexists(path):
            raise NotADirectoryError(f"output directory {out_dir}: {path} is not a directory")
        path = os.path.dirname(path)
    n_groups = max(1, min(jobs, len(cfg.run["seeds"])))
    groups = [g.tolist() for g in np.array_split(np.array(cfg.run["seeds"]), n_groups)]
    tasks = [(*condition, seed_group) for condition in runs for seed_group in groups]
    if jobs <= 1 or len(tasks) <= 1:
        results = [group(*task) for task in tasks]
    else:
        # Imported here: a serial run need not load multiprocessing.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor, as_completed

        # Fresh workers, each loading its BLAS with one thread unless the user
        # chose a count: a forked one would keep this process's BLAS.
        children = set(multiprocessing.active_children())
        with one_thread(), ProcessPoolExecutor(max_workers=min(jobs, len(tasks)), initializer=_worker_start,
                                               mp_context=multiprocessing.get_context("spawn")) as pool:
            try:
                futures = [pool.submit(_worker_group, group, *task) for task in tasks]
                for done in as_completed(futures):  # a worker's SIGTERM, whichever group it stopped
                    if isinstance(done.exception(), Terminated):
                        raise done.exception()
                results = [future.result() for future in futures]
            except (Terminated, KeyboardInterrupt):
                # Stop now, not once the running groups end: cancel the groups not handed out and
                # SIGTERM the workers, which unwind theirs; leaving the block waits for them.
                pool.shutdown(wait=False, cancel_futures=True)
                for worker in set(multiprocessing.active_children()) - children:
                    worker.terminate()
                raise
    rows = []
    for (run_id, _, _, seed_group), outcomes in zip(tasks, results):
        for seed, outcome in zip(seed_group, outcomes):
            if isinstance(outcome, NumericError):
                raise type(outcome)(f"{run_id} seed {seed}: {outcome}")
            rows.append(outcome)
    return rows


def cmd_run(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> str:
    """One condition x all seeds; returns the summary path."""
    return _cmd_summary(cfg, "run", out_dir, jobs)


def cmd_sweep(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> str:
    """Cross-product of the values of sweep.axis (both from [sweep]) and the seeds, merged into one summary."""
    return _cmd_summary(cfg, "sweep", out_dir, jobs)


def _cmd_summary(cfg: ExperimentConfig, command: str, out_dir: str, jobs: int) -> str:
    """Run the conditions of ``run`` or ``sweep`` and write the summary, by axis value (numbers first) and seed."""
    rows = _execute_conditions(functools.partial(run_group, out_dir=out_dir), cfg, command, out_dir, jobs)
    for row in rows:
        row["axis"], row["axis_value"] = cfg.sweep.get("axis"), row["run_id"].partition("=")[2]

    def sort_key(row):
        try:
            return (0, float(row["axis_value"]), row["seed"])
        except ValueError:
            return (1, row["axis_value"], row["seed"])

    rows.sort(key=sort_key)
    path = os.path.join(out_dir, "summary.csv")
    write_csv(path, (("axis", "axis_value") if command == "sweep" else ()) + SUMMARY_COLUMNS, rows)
    return path


def cmd_estimation_scaling(cfg: ExperimentConfig, out_dir: str, jobs: int = 1) -> str:
    """Sup preconditioner-estimation error versus eta, with the fitted slope.

    Runs the conditions of ``config.conditions(cfg, "estimation-scaling")``,
    one per eta, ``jobs`` of them at once, and writes one scaling.csv row
    per eta and the log-log slope of sup_error in scaling_fit.csv. Neither
    a ConfigError nor a numeric failure writes a file.
    """
    rows = _execute_conditions(_scaling_group, cfg, "estimation-scaling", out_dir, jobs)

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
