"""Record the sha256 of the CLI output for tiny configs covering every run path.

    PYTHONPATH=src python3 tests/make_golden.py

Runs ``precondsgd.cli.main`` in this process for each config in
``CONFIGS`` and writes ``tests/golden_cli.json``: the exit code and the
sha256 of every file the command left in its output directory.
``tests/test_golden_cli.py`` re-runs the configs and compares. The
configs cover each algorithm, each preconditioner kind (and d=1), both
sources, bias correction, a beta schedule, the inv_sqrt eta decay,
est_error tracking, lambda_min(H) logging, a sweep, an estimation-scaling
study and a run that diverges, and runs three or more seeds of a
condition on each path where seeds share work (one sweep with
``--jobs 2``; every other config runs with ``--jobs 1``). Regenerate the file only for a change
meant to alter the program's results, and say so with the change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")

SADDLE = "[problem]\nname = saddle\nx0 = 0.1,0.05\n"
COUNTER = "[problem]\nname = counterexample\nc = 3.0\nzeta = 0.5\nx0 = 0.5\n"
QUAD3 = (
    "[problem]\nname = quadratic_gaussian\ndim = 3\nh_diag = 1.0,0.5,0.2\n"
    "noise_diag = 1.0,0.3,0.1\nx0 = 1.0,-1.0,0.5\n"
)
LOGISTIC = "[problem]\nname = logistic_synthetic\nn = 200\nd = 4\ndata_seed = 3\nbatch = 20\n"

# name -> (subcommand, extra CLI arguments, config text)
CONFIGS = {
    "sgd": ("run", (), SADDLE + """
[optimizer]
algorithm = sgd
eta = 0.05
[run]
seeds = 0,1
t = 40
lambda_min_every = 3
"""),
    "psgd-idealized-full": ("run", (), SADDLE + """
[optimizer]
algorithm = preconditioned_sgd
source = idealized
kind = full_matrix
eta = 0.02
epsilon = 1e-3
[run]
seeds = 0,1
t = 40
lambda_min_every = 1
"""),
    "psgd-idealized-diagonal-exp1": ("run", (), QUAD3 + """
[optimizer]
algorithm = preconditioned_sgd
source = idealized
kind = diagonal
exponent = -1.0
eta = 0.01
epsilon = 0.1
[run]
seeds = 2
t = 40
"""),
    "psgd-idealized-covariance": ("run", (), QUAD3 + """
[optimizer]
algorithm = preconditioned_sgd
source = idealized
kind = covariance_full_matrix
eta = 0.02
epsilon = 0.1
eta_decay = inv_sqrt
[run]
seeds = 3
t = 40
"""),
    "psgd-idealized-d1": ("run", (), COUNTER + """
[optimizer]
algorithm = preconditioned_sgd
source = idealized
kind = full_matrix
eta = 0.01
[run]
seeds = 4
t = 40
"""),
    "psgd-estimated-identity": ("run", (), SADDLE + """
[optimizer]
algorithm = preconditioned_sgd
source = estimated
kind = identity
eta = 0.05
beta_spec = 0.9
[run]
seeds = 5
t = 40
track_est_error = true
"""),
    "psgd-estimated-full": ("run", (), QUAD3 + """
[optimizer]
algorithm = preconditioned_sgd
source = estimated
kind = full_matrix
eta = 0.02
beta_spec = 0.9
epsilon = 1e-3
[run]
seeds = 6
t = 40
track_est_error = true
"""),
    "rmsprop-full-bias": ("run", (), SADDLE + """
[optimizer]
algorithm = rmsprop
kind = full_matrix
eta = 0.01
beta_spec = 0.9
epsilon = 1e-8
bias_corrected = true
[run]
seeds = 7,8
t = 40
track_est_error = true
lambda_min_every = 2
"""),
    "rmsprop-diagonal-schedule-bias": ("run", (), QUAD3 + """
[optimizer]
algorithm = rmsprop
kind = diagonal
eta = 0.02
beta_spec = schedule:0.5
epsilon = 1e-8
bias_corrected = true
eta_decay = inv_sqrt
[run]
seeds = 9
t = 40
track_est_error = true
"""),
    "rmsprop-covariance": ("run", (), QUAD3 + """
[optimizer]
algorithm = rmsprop
kind = covariance_full_matrix
eta = 0.02
beta_spec = 0.9
epsilon = 0.1
[run]
seeds = 10
t = 40
track_est_error = true
"""),
    "rmsprop-d1": ("run", (), COUNTER + """
[optimizer]
algorithm = rmsprop
kind = full_matrix
eta = 0.01
beta_spec = 0.9
epsilon = 1e-8
[run]
seeds = 11
t = 40
track_est_error = true
"""),
    "rmsprop-burnin": ("run", (), QUAD3 + """
[optimizer]
algorithm = rmsprop_burnin
kind = full_matrix
eta = 0.05
beta_spec = schedule
epsilon = 1e-6
[run]
seeds = 12
t = 30
track_est_error = true
lambda_min_every = 5
log_every = 3
"""),
    "large-step-idealized": ("run", (), SADDLE + """
[optimizer]
algorithm = large_step
source = idealized
kind = full_matrix
eta = 0.01
epsilon = 1e-3
r = 0.05
t_thresh = 10
[run]
seeds = 13
t = 40
"""),
    "large-step-estimated-diagonal": ("run", (), QUAD3 + """
[optimizer]
algorithm = large_step
source = estimated
kind = diagonal
eta = 0.01
beta_spec = schedule
epsilon = 1e-8
r = 0.05
t_thresh = 10
[run]
seeds = 14
t = 40
track_est_error = true
"""),
    "large-step-estimated-full-logistic": ("run", (), LOGISTIC + """
[optimizer]
algorithm = large_step
source = estimated
kind = full_matrix
eta = 0.01
beta_spec = 0.9
epsilon = 1e-6
r = 0.04
t_thresh = 8
w = 5
[run]
seeds = 15
t = 40
log_every = 7
"""),
    "sweep-kind": ("sweep", ("--axis", "optimizer.kind", "--values",
                             "identity,full_matrix,diagonal,covariance_full_matrix"), QUAD3 + """
[optimizer]
algorithm = rmsprop
eta = 0.02
beta_spec = 0.8
epsilon = 0.01
[run]
seeds = 16
t = 25
track_est_error = true
"""),
    "estimation-scaling": ("estimation-scaling", (), QUAD3 + """
[optimizer]
algorithm = rmsprop_burnin
kind = full_matrix
epsilon = 1e-6
[run]
seeds = 17
t = 1
etas = 0.01,0.003
est_window_factor = 0.5
"""),
    # Three or more seeds per condition: the paths a run of several seeds
    # at once takes must give each seed the bytes of its own run.
    "multi-rmsprop-full-saddle": ("run", (), SADDLE + """
[optimizer]
algorithm = rmsprop
kind = full_matrix
eta = 0.01
beta_spec = 0.99
epsilon = 1e-8
[run]
seeds = 20,21,22,23
t = 60
lambda_min_every = 1
"""),
    "multi-rmsprop-diagonal-schedule": ("run", (), QUAD3 + """
[optimizer]
algorithm = rmsprop
kind = diagonal
eta = 0.02
beta_spec = schedule:0.5
epsilon = 1e-8
bias_corrected = true
eta_decay = inv_sqrt
[run]
seeds = 24,25,26
t = 40
track_est_error = true
lambda_min_every = 4
"""),
    "multi-rmsprop-covariance": ("run", (), QUAD3 + """
[optimizer]
algorithm = rmsprop
kind = covariance_full_matrix
eta = 0.02
beta_spec = 0.9
epsilon = 0.1
[run]
seeds = 27,28,29
t = 40
track_est_error = true
"""),
    "multi-psgd-idealized-full-quad": ("run", (), QUAD3 + """
[optimizer]
algorithm = preconditioned_sgd
source = idealized
kind = full_matrix
eta = 0.02
epsilon = 1e-3
[run]
seeds = 30,31,32
t = 40
lambda_min_every = 2
"""),
    "multi-rmsprop-burnin": ("run", (), QUAD3 + """
[optimizer]
algorithm = rmsprop_burnin
kind = full_matrix
eta = 0.05
beta_spec = schedule
epsilon = 1e-6
[run]
seeds = 33,34,35
t = 30
track_est_error = true
lambda_min_every = 5
log_every = 3
"""),
    "multi-large-step-estimated-logistic": ("run", (), LOGISTIC + """
[optimizer]
algorithm = large_step
source = estimated
kind = full_matrix
eta = 0.01
beta_spec = 0.9
epsilon = 1e-6
r = 0.04
t_thresh = 8
w = 5
[run]
seeds = 36,37,38
t = 40
log_every = 3
lambda_min_every = 4
"""),
    "multi-counterexample-clipped": ("run", (), COUNTER + """
[optimizer]
algorithm = rmsprop
kind = diagonal
eta = 0.2
beta_spec = 0.9
epsilon = 1e-8
[run]
seeds = 39,40,41
t = 60
track_est_error = true
lambda_min_every = 7
"""),
    "multi-sweep-eta-jobs2": ("sweep", ("--axis", "optimizer.eta", "--values", "0.01,0.03",
                                        "--jobs", "2"), QUAD3 + """
[optimizer]
algorithm = rmsprop
kind = full_matrix
beta_spec = 0.9
epsilon = 1e-6
[run]
seeds = 42,43,44,45,46
t = 25
track_est_error = true
lambda_min_every = 3
"""),
    "diverges": ("run", (), """
[problem]
name = saddle
x0 = 1.5,1.5
[optimizer]
algorithm = sgd
eta = 1.0
[run]
seeds = 18
t = 40
"""),
}


def run_config(name: str, work_dir: str) -> dict:
    """Run one config through the CLI; return its exit code and output digests."""
    from precondsgd.cli import main

    subcommand, extra, text = CONFIGS[name]
    cfg_path = os.path.join(work_dir, f"{name}.ini")
    out_dir = os.path.join(work_dir, name)
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        jobs = () if "--jobs" in extra else ("--jobs", "1")
        rc = main([subcommand, cfg_path, *extra, "--out", out_dir, *jobs])
    files = {}
    for fname in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, fname), "rb") as fh:
            files[fname] = hashlib.sha256(fh.read()).hexdigest()
    return {"rc": rc, "files": files}


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        golden = {name: run_config(name, work) for name in CONFIGS}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(GOLDEN_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
