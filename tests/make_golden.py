"""Record the sha256 of the CLI output for tiny configs covering every run path.

    PYTHONPATH=src python3 tests/make_golden.py

Runs ``precondsgd.cli.main`` in this process for each config in
``CONFIGS`` and writes ``tests/golden_cli.json``: the exit code and the
sha256 of every file the command left in its output directory.
``tests/test_golden_cli.py`` re-runs the configs and compares. The
configs cover each algorithm, each preconditioner kind (and d=1), both
sources, bias correction, a beta schedule, the inv_sqrt eta decay,
est_error tracking, lambda_min(H) logging, sweeps (each a ``run`` of a
config whose [sweep] section holds its axis and values), a report on a
sweep's summary, three estimation-scaling studies (one full-matrix at
d=10 from the origin), each ``optimizer.auto`` mode
(second-order with three algorithms, once with every optional constant),
the summary levels, label noise and two runs that diverge (one through
numpy overflow), and runs three or more seeds of a condition on each
path where seeds share work (one sweep with ``--jobs 2``; every other
config but a report, which takes no ``--jobs``, runs with ``--jobs 1``).
One full-matrix run is at d = 80, where ``linalg.eigh`` decomposes the
seeds' matrices in threads: the digests are made with those threads off,
and ``tests/test_golden_cli.py`` checks them with the threads on.
A numpy RuntimeWarning during a config is an error. Regenerate the file
only for a change meant to alter the program's results, and say so with
the change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")

SADDLE = "[problem]\nname = saddle\nx0 = 0.1,0.05\n"
COUNTER = "[problem]\nname = counterexample\nc = 3.0\nzeta = 0.5\nx0 = 0.5\n"
QUAD3 = (
    "[problem]\nname = quadratic_gaussian\ndim = 3\nh_diag = 1.0,0.5,0.2\n"
    "noise_diag = 1.0,0.3,0.1\nx0 = 1.0,-1.0,0.5\n"
)
LOGISTIC = "[problem]\nname = logistic_synthetic\nn = 200\nd = 4\ndata_seed = 3\nbatch = 20\n"
# d = 80 with the spectra 1.0, 0.99, ..., 0.21 and x0 = 1.
SPECTRUM80 = ",".join(str((100 - i) / 100) for i in range(80))
QUAD80 = (
    f"[problem]\nname = quadratic_gaussian\ndim = 80\nh_diag = {SPECTRUM80}\n"
    f"noise_diag = {SPECTRUM80}\nx0 = {','.join(['1.0'] * 80)}\n"
)

# name -> (subcommand, extra CLI arguments, config text); a "report" entry
# instead names the config whose summary it reads, and has no text.
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
[run]
burn_in_c = 0.2
seeds = 15
t = 40
log_every = 7
"""),
    "sweep-kind": ("run", (), QUAD3 + """
[optimizer]
algorithm = rmsprop
eta = 0.02
beta_spec = 0.8
epsilon = 0.01
[run]
seeds = 16
t = 25
track_est_error = true
[sweep]
axis = optimizer.kind
values = identity,full_matrix,diagonal,covariance_full_matrix
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
    # At x0 = 0 the d=10 quadratic's G(x0) is diagonal, so the burn-in
    # eigenvectors hold exact zeros; the full-matrix est_error tracks them.
    "estimation-scaling-d10-origin": ("estimation-scaling", (), """
[problem]
name = quadratic_gaussian
dim = 10
h_diag = 1.0,0.774,0.599,0.464,0.359,0.278,0.215,0.167,0.129,0.1
noise_diag = 1.0,0.774,0.599,0.464,0.359,0.278,0.215,0.167,0.129,0.1
x0 = 0,0,0,0,0,0,0,0,0,0
[optimizer]
algorithm = rmsprop_burnin
kind = full_matrix
epsilon = 1e-8
[run]
seeds = 57
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
[run]
burn_in_c = 0.2
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
    "multi-sweep-eta-jobs2": ("run", ("--jobs", "2"), QUAD3 + """
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
[sweep]
axis = optimizer.eta
values = 0.01,0.03
"""),
    # report on the summary of the sweep its arguments name (run first):
    # the quantile bands over that sweep's five seeds per condition.
    "report-multi-sweep-eta-jobs2": ("report", ("multi-sweep-eta-jobs2",), None),
    # optimizer.auto: the second-order settings resolve to W=36,
    # t_thresh=43 and S=3 (eta ~ 0.0047); the first-order ones derive T=247
    # from their formula, whatever run.t says.
    "auto-second-order-rmsprop": ("run", (), SADDLE + """
[optimizer]
algorithm = rmsprop
auto = second_order
l = 1
rho = 1
c3 = 2
c4 = 0.5
lambda_minus = 0.5
tau = 100
delta = 1
omega = 1
beta_spec = schedule
epsilon = 1e-8
[run]
seeds = 50,51
t = 100
"""),
    "auto-second-order-rmsprop-burnin": ("run", (), SADDLE + """
[optimizer]
algorithm = rmsprop_burnin
auto = second_order
l = 1
rho = 1
c3 = 2
c4 = 0.5
lambda_minus = 0.5
tau = 100
delta = 1
omega = 1
beta_spec = schedule
epsilon = 1e-8
[run]
seeds = 52
t = 100
"""),
    "auto-second-order-large-step": ("run", (), SADDLE + """
[optimizer]
algorithm = large_step
auto = second_order
l = 1
rho = 1
c3 = 2
c4 = 0.5
lambda_minus = 0.5
tau = 100
delta = 1
omega = 1
beta_spec = schedule
epsilon = 1e-8
[run]
seeds = 53,54
t = 100
"""),
    "auto-first-order-exact": ("run", (), QUAD3 + """
[optimizer]
algorithm = preconditioned_sgd
source = idealized
kind = full_matrix
auto = first_order_exact
l = 1
c3 = 1
lambda_minus = 1
delta_f = 1
tau = 0.3
[run]
seeds = 55
t = 10
"""),
    "auto-first-order-inexact": ("run", (), QUAD3 + """
[optimizer]
algorithm = rmsprop
kind = diagonal
beta_spec = 0.9
epsilon = 1e-8
auto = first_order_inexact
l = 1
c3 = 1
lambda_minus = 1
delta_f = 1
tau = 0.6
[run]
seeds = 56
t = 10
"""),
    # Every optional second-order constant, a beta schedule constant, the
    # eta decay, a burn-in constant and both summary levels: resolves to
    # W=46, t_thresh=22 and S=2, and seed 1 escapes at iteration 55.
    "auto-second-order-large-step-all-constants": ("run", (), SADDLE + """
[optimizer]
algorithm = large_step
auto = second_order
l = 1
rho = 1
c3 = 2
c4 = 0.5
lambda_minus = 0.5
tau = 100
delta = 1
omega = 1
nu1 = 1.2
nu2 = 0.9
m_bound = 1.5
k_const = 0.2
beta_spec = schedule:0.5
eta_decay = inv_sqrt
epsilon = 1e-8
[run]
seeds = 0,1
t = 100
burn_in_c = 2
escape_level = -0.0002
f_threshold = 0.003
"""),
    "estimation-scaling-diagonal-constants": ("estimation-scaling", (), QUAD3 + """
[optimizer]
algorithm = rmsprop_burnin
kind = diagonal
epsilon = 1e-6
beta_spec = schedule:0.5
[run]
seeds = 18
t = 1
etas = 0.01,0.003
est_window_factor = 0.5
burn_in_c = 2
"""),
    # The axis and its values come from the [sweep] section alone.
    "sweep-section-logistic-label-noise": ("run", (), LOGISTIC + """label_noise = 0.2
[optimizer]
algorithm = rmsprop
kind = diagonal
beta_spec = 0.9
epsilon = 1e-6
[run]
seeds = 19
t = 50
log_every = 10
[sweep]
axis = optimizer.eta
values = 0.05,0.1
"""),
    # Two of three seeds overflow x**9 and x**10 before the divergence
    # guard stops them; the run must stay silent apart from its exit code.
    "diverges-overflow": ("run", (), """
[problem]
name = saddle
x0 = 0.98,0
[optimizer]
algorithm = sgd
eta = 0.2
[run]
seeds = 0,1,2
t = 40
"""),
    # Above linalg.THREADS_MIN_DIM: the two seeds' eigh calls run in threads.
    "rmsprop-full-d80": ("run", (), QUAD80 + """
[optimizer]
algorithm = rmsprop
kind = full_matrix
eta = 0.01
beta_spec = 0.9
epsilon = 1e-8
[run]
seeds = 20,21
t = 20
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
    out_dir = os.path.join(work_dir, name)
    if subcommand == "report":
        (source,) = extra
        run_config(source, work_dir)
        argv = [subcommand, os.path.join(work_dir, source, "summary.csv")]
    else:
        cfg_path = os.path.join(work_dir, f"{name}.ini")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [subcommand, cfg_path, *extra]
    # A run prints nothing but its result: a numpy RuntimeWarning (an
    # overflow on a diverging seed, say) fails the config.
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        jobs = () if "--jobs" in extra or subcommand == "report" else ("--jobs", "1")
        rc = main([*argv, "--out", out_dir, *jobs])
    files = {}
    for fname in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, fname), "rb") as fh:
            files[fname] = hashlib.sha256(fh.read()).hexdigest()
    return {"rc": rc, "files": files}


def main() -> int:
    from precondsgd import linalg

    linalg._WORKERS = 0  # one eigh call after another: the reference the threaded runs must match
    with tempfile.TemporaryDirectory() as work:
        golden = {name: run_config(name, work) for name in CONFIGS}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(GOLDEN_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
