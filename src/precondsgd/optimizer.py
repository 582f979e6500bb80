"""The run loop and theorem-driven parameter calculators.

``run_sgd(problem, run, rngs)`` is preconditioned SGD x <- x - eta A g,
and every algorithm is one ``Run`` of it: SGD (identity), preconditioned
SGD with the oracle A(x), full-matrix / diagonal RMSProp (the
EMA-estimated A), RMSProp with burn-in, and the increasing-stepsize
variant that takes a large step every t_thresh iterations and, when
estimating, hallucinates interpolated samples to keep the estimate
accurate. Also the first- and second-order stepsize/iteration
calculators and a stationarity check. This module reads no config:
``config.resolve_run`` turns a config into the ``Run``, and ``config``
names each algorithm and calculator mode a config may pick.

A run advances B seeds in lockstep: iterates are a (B, d) stack, the
preconditioner holds one estimate per seed, and the exact oracles take
the whole stack at once; ``linalg.eigh`` makes one LAPACK call per seed,
on that seed's one estimate or on its deferred G(x) of a batch of logged
events, and from d = ``linalg.THREADS_MIN_DIM`` on it runs the seeds'
calls at the same time on the cores. Each seed draws from its own
caller-owned RNG stream, one ``sample_grad`` call per seed and sample in
program order, and every stacked operation gives each row the bits of
its own single-seed computation. So a seed's trajectory is bitwise
identical whichever seeds run beside it, and identical (problem, Run,
seed) triples produce bitwise-identical trajectories. A seed that fails
(divergence, a singular matrix, a failing oracle) stops at its first
failing check, in the order a logged event makes them: the divergence
guard, lambda_min(H), ||grad f||, Ahat's spectrum, est_error's reference
side. The others run on.

Logged events go into one chunk of rows, reused for the whole run, so
memory stays flat however long it is. Per logged event the loop
evaluates only what its control reads: f, for the divergence guard. The
columns it never reads back, ||grad f||, lambda_min(H) and the reference
side of est_error, are filled a batch of events at a time (and when the
run ends), from the iterates (and Ahat's spectra) kept, and each row
keeps the bits of its own per-event call. Once the chunk is full, every
row of it is final, and each seed's rows go to the caller's sink before
the chunk is reused.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import KW_ONLY, astuple, dataclass

import numpy as np

from .errors import InvalidParamError, NonFiniteError, NumericError
from .estimation import _ceil_int, beta_schedule
from .linalg import eigvalsh
from .precond import (
    COVARIANCE_FULL_MATRIX,
    Preconditioner,
    PreconditionerConstants,
    PreconditionerKind,
    _dense,
    estimates,
)
from .problems import StochasticProblem

STEP_NORMAL = "normal"
STEP_LARGE = "large"
STEP_BURNIN = "burnin"
STEP_HALLUCINATED = "hallucinated"

# Abort threshold for the divergence guard; the exponent -1 instability
# demo relies on it to terminate cleanly.
DIVERGENCE_F_LIMIT = 1e100

ETA_DECAYS = ("none", "inv_sqrt")


@dataclass
class Run:
    """Everything ``run_sgd`` executes, checked once: plain data that pickles.

    ``kind`` and ``source`` pick the Preconditioner (``bias_corrected`` its
    EMA correction); T optimization steps from x0, held as a tuple of
    floats (None: the origin). eta is the base stepsize; with eta_decay
    "inv_sqrt" step t takes eta_t = eta / sqrt(t + 1), with "none"
    eta_t = eta. An estimating preconditioner's EMA uses the fixed beta
    or, with beta_c, the schedule beta(eta_t) = 1 - beta_c eta_t^(2/3). W
    estimate-only samples at x0 (burn-in) precede the run. When t_thresh
    is set, every t_thresh-th step has stepsize r and an estimating
    preconditioner then observes S+1 samples along it. The run does not
    read f_thresh/g_thresh, the second-order calculator's outputs. Every
    log_every-th event is logged, with lambda_min(H) at every
    lambda_min_every-th step (0: never) and, if track_est_error and
    estimating, ||Ahat - A(x)||.
    """

    kind: PreconditionerKind
    source: str
    bias_corrected: bool
    T: int
    eta: float
    _: KW_ONLY
    eta_decay: str = "none"
    beta: float | None = None
    beta_c: float | None = None
    r: float | None = None
    t_thresh: int | None = None
    W: int = 0
    S: int | None = None
    f_thresh: float | None = None
    g_thresh: float | None = None
    x0: tuple[float, ...] | None = None
    log_every: int = 1
    track_est_error: bool = False
    lambda_min_every: int = 0

    def __post_init__(self):
        if self.x0 is not None:
            self.x0 = tuple(map(float, self.x0))
        # eta = 0 is allowed as a degenerate run (the trajectory stays put).
        if self.eta < 0.0:
            raise InvalidParamError("eta must be nonnegative")
        if self.eta_decay not in ETA_DECAYS:
            raise InvalidParamError(f"eta_decay must be one of {ETA_DECAYS}, got {self.eta_decay!r}")
        if self.beta is not None and not 0.0 <= self.beta < 1.0:
            raise InvalidParamError("beta must be in [0, 1)")
        if self.beta is not None and self.beta_c is not None:
            raise InvalidParamError("set beta or beta_c, not both")
        if self.t_thresh is not None and self.t_thresh < 1:
            raise InvalidParamError("t_thresh must be >= 1")
        if self.W < 0:
            raise InvalidParamError("W must be >= 0")
        if self.S is not None and self.S < 1:
            raise InvalidParamError("S must be >= 1")
        if self.T < 1:
            raise InvalidParamError("T must be >= 1")
        if self.log_every < 1:
            raise InvalidParamError("log_every must be >= 1")
        if self.lambda_min_every < 0:
            raise InvalidParamError("lambda_min_every must be >= 0")
        estimating = estimates(self.kind, self.source)
        if estimating and self.beta is None and self.beta_c is None:
            raise InvalidParamError("estimated preconditioning needs beta or a beta schedule")
        if estimating and self.beta_c is not None:
            # Each step's eta_t is in (0, eta], so its beta(eta_t) is in (0, 1) too.
            beta_schedule(self.eta, self.beta_c)
        if self.t_thresh is not None and (self.r is None or self.r < self.eta):
            raise InvalidParamError("large-step mode needs r >= eta")
        if self.t_thresh is not None and estimating and self.S is None:
            raise InvalidParamError("estimated large-step mode needs S >= 1")


@dataclass
class Trajectory:
    """The events one seed logged, as columns of equal length n.

    ``iteration`` is a strictly increasing event index: burn-in events
    occupy -W..-1 and the first optimization step is 0. When hallucinated
    events interleave (estimated large-step mode) they consume indices
    too, so the index equals the optimization step count only in runs
    without hallucination. ``step_kind`` holds one of the STEP_* names.
    ``lambda_min_h`` and ``est_error`` are NaN where they were not
    evaluated. ``x`` is (n, d); a trajectory read back from CSV has none.
    ``error`` is the numeric failure that stopped the seed, if any; the
    columns then end with the last event logged before it.
    """

    iteration: np.ndarray
    step_kind: np.ndarray
    f: np.ndarray
    grad_norm: np.ndarray
    lambda_min_h: np.ndarray
    est_error: np.ndarray
    x: np.ndarray | None = None
    error: NumericError | None = None

    def __len__(self) -> int:
        return len(self.iteration)

    def steps(self) -> np.ndarray:
        """Boolean mask of the optimization steps (normal and large events)."""
        return (self.step_kind == STEP_NORMAL) | (self.step_kind == STEP_LARGE)


@dataclass
class StationarityReport:
    """Second-order stationarity check at a point."""

    tau_g: float
    tau_h: float
    is_stationary: bool
    grad_norm: float
    lambda_min_h: float


# The one unit of the log: a chunk of logged events is filled, checked and
# handed to the sink at once, and the run keeps no other rows. Its deferred
# oracles take it a batch of events at a time, each batch holding about this
# many bytes of (d, d) matrices, one per seed and event: Ahat's captured
# spectra, and the stacked G(x) and Hessians of its oracle calls. The chunk
# holds as many batches as fit about this many bytes of rows, d + 6 floats
# per seed and event, and at least one; so from d = 23 with 8 seeds, where a
# batch is one event, a sink call still takes several rows.
LOG_CHUNK_BYTES = 65536

# The checks of a logged event in the order it makes them. A seed stops at
# its first failing check, held as the code _CHECKS * slot + check.
_GUARD, _HESSIAN, _GRAD, _SPECTRUM, _REFERENCE = range(5)
_CHECKS = _REFERENCE + 1
_RUNNING = np.iinfo(np.int64).max


# Overflow on a diverging seed is expected: the divergence guard and the
# finite-iterate check stop that seed and name the event, so numpy's
# warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def run_sgd(problem: StochasticProblem, run: Run, rngs, sink=None) -> list:
    """Preconditioned SGD x <- x - eta A g: the one run loop of every algorithm.

    Runs ``run`` for one seed per RNG stream in ``rngs``, all from run.x0,
    in lockstep. Once the rows of a chunk of logged events (see
    LOG_CHUNK_BYTES: as many batches of the deferred oracles as fit its
    bytes of rows) are final, sink(b, rows) gets those of each seed b that
    has any there: a Trajectory without error, whose columns are views that
    the next chunk overwrites. run_sgd then returns each seed's error (or
    None); without a sink, one whole Trajectory per seed. Every sample (of
    burn-in, of a step, or hallucinated) is one event: drawn, observed and
    logged if due. A is one Preconditioner for all seeds: an estimating one
    observes each sample before preconditioning it, with the EMA parameter
    run.beta or, with run.beta_c, beta(eta_t), where eta_t is run.eta or,
    with run.eta_decay "inv_sqrt", run.eta / sqrt(t + 1). run.W
    estimate-only samples at x0 precede the loop. When run.t_thresh is set
    the stepsize is run.r every run.t_thresh steps, and an estimating
    preconditioner then observes run.S+1 hallucinated samples interpolated
    between the step's endpoints. A seed whose objective passes
    DIVERGENCE_F_LIMIT, whose iterate stops being finite or whose matrix
    power fails stops with that error; the other seeds run on.

    A logged event evaluates f at once, for the divergence guard, and
    keeps its iterate and, when est_error is tracked, Ahat's spectrum
    there. ||grad f||, lambda_min(H) and est_error's reference side
    (G(x), its matrix power and the difference's eigenvalues) are filled
    in after the event, for a batch of logged events at a time, in one
    stacked call per oracle (and one LAPACK call per seed for G(x)'s
    eigendecompositions). A seed stops at the first check that fails for
    it, in the order a logged event makes them: the divergence guard (or,
    at a step, the direction before it and the finite iterate after it),
    lambda_min(H), ||grad f||, Ahat's spectrum, est_error's reference
    side. So a seed whose deferred oracle fails at a logged event ends as
    it would had it been evaluated there: stopped at that event, unlogged,
    with that error, in place of any later stop, and at once if it still
    runs. A call that fails for some rows reruns on the rows before every
    stop.
    """
    rngs = list(rngs)
    if sink is None:
        # Each seed's chunks after an empty one (a seed may log no row); astuple copies them out of the buffers.
        parts = [[(np.empty(0, np.int64), np.empty(0, object), *np.empty((4, 0)), np.empty((0, problem.dim)))]
                 for _ in rngs]
        errors = run_sgd(problem, run, rngs, lambda b, rows: parts[b].append(astuple(rows)[:-1]))
        return [Trajectory(*map(np.concatenate, zip(*p)), error=e) for p, e in zip(parts, errors)]
    n_seeds = len(rngs)
    if n_seeds < 1:
        raise InvalidParamError("run_sgd needs at least one RNG stream")
    dim = problem.dim
    x = np.zeros(dim) if run.x0 is None else np.array(run.x0, dtype=np.float64)
    if x.shape != (dim,) or not np.all(np.isfinite(x)):
        raise InvalidParamError("x0 must be a finite point of the problem dimension")

    pre = Preconditioner(run.kind, dim, run.source, run.bias_corrected, batch=n_seeds)
    T, log_every, lambda_min_every = run.T, run.log_every, run.lambda_min_every
    estimating = pre.estimating
    covariance = estimating and run.kind.variant == COVARIANCE_FULL_MATRIX
    large_steps = run.t_thresh is not None
    hallucinating = large_steps and estimating
    decaying = run.eta_decay == "inv_sqrt"
    tracking = run.track_est_error and estimating
    hessian_logged = lambda_min_every > 0 and problem.has_hessian

    # The chunk's columns for every seed, by slot mod chunk (the slot counts logged events), and for the
    # batch of events its oracles take next, by slot mod batch, whether lambda_min(H) is due and Ahat's
    # spectrum.
    batch = max(1, LOG_CHUNK_BYTES // (n_seeds * dim * dim * 8))
    chunk = batch * max(1, LOG_CHUNK_BYTES // (n_seeds * (dim + 6) * 8 * batch))
    iteration = np.empty(chunk, dtype=np.int64)
    step_kind = np.empty(chunk, dtype=object)
    hessian_due = np.empty(batch, dtype=bool)
    f_col, grad_norm_col, lambda_col, error_col = np.full((4, n_seeds, chunk), np.nan)
    x_col = np.empty((n_seeds, chunk, dim))
    logged = flushed = sent = 0  # slots logged, filled and handed to the sink
    ev = -run.W  # the current event's index: burn-in takes -W..-1
    # Each seed's first failing check as _CHECKS * slot + check, and its error.
    stop = np.full(n_seeds, _RUNNING, dtype=np.int64)
    errors: list[NumericError | None] = [None] * n_seeds
    if tracking:
        a_kept = np.empty((batch, n_seeds, dim))
        v_kept = None if pre.diagonal else np.empty((batch, n_seeds, dim, dim))

    # The seeds still running: their positions in rngs and their rows of
    # every per-seed array in flight ("x" the iterates).
    live = np.arange(n_seeds)
    rows = {"x": np.tile(x, (n_seeds, 1))}

    def halt(bad, b, code, error_for) -> None:
        """Stop the seeds b[bad] at code (one per row of b, or one for all) unless they stop earlier;
        error_for(i) is row i's error. A seed that still runs leaves the loop."""
        nonlocal live, rngs
        code = np.broadcast_to(code, b.shape)
        for i in np.flatnonzero(bad):
            if code[i] < stop[b[i]]:
                stop[b[i]], errors[b[i]] = code[i], error_for(i)
        keep = stop[live] == _RUNNING
        if keep.all():
            return
        live = live[keep]
        rngs = [rng for rng, k in zip(rngs, keep) if k]
        pre.keep(keep)
        for name, value in rows.items():
            rows[name] = value[keep]

    def attempt(op, b, s, check):
        """op(b, s) over the rows (seed b, slot s); a NumericError stops the seeds of the rows it
        marks at that check, and op reruns on the rows before every stop."""
        while b.size:
            try:
                return op(b, s)
            except NumericError as err:
                code = _CHECKS * s + check
                halt(np.ones(b.size, dtype=bool) if err.rows is None else err.rows, b, code, lambda i: err)
                before = code < stop[b]
                b, s = b[before], s if np.ndim(s) == 0 else s[before]
        return None

    def draws(at):
        """One sample_grad call per live seed at its row of the points at."""
        g = np.empty(at.shape)
        for i, rng in enumerate(rngs):
            g[i] = problem.sample_grad(at[i], rng)
        return g

    def hessian(b, s) -> None:
        """lambda_min(H) at the logged (seed, slot) rows (b, s)."""
        lambda_col[b, s % chunk] = problem.hessian(x_col[b, s % chunk])

    def grad_norm(b, s) -> None:
        """||grad f|| at the logged rows (b, s)."""
        g = problem.grad(x_col[b, s % chunk])
        grad_norm_col[b, s % chunk] = np.sqrt(np.vecdot(g, g))

    def reference(b, s) -> None:
        """est_error at the logged rows (b, s), from Ahat's spectra kept there: for the full
        matrix, the largest |eigenvalue| of Ahat - _defect_reference, whose G(x) has one LAPACK
        call per seed."""
        a, points = a_kept[s % batch, b], x_col[b, s % chunk]
        if v_kept is None:
            error_col[b, s % chunk] = pre.est_error(problem, points, (a, None))
            return
        diff = _dense(a, v_kept[s % batch, b])
        diff -= _defect_reference(*pre._ideal_spectrum(problem, points, b))
        error_col[b, s % chunk] = np.abs(eigvalsh(diff)).max(axis=-1)

    def flush(end=False) -> None:
        """Fill the deferred columns of the batch of slots logged since the last flush, in one call per
        oracle. When that fills the chunk, or at the end, every row of the chunk is final, and each seed's
        rows go to the sink."""
        nonlocal flushed, sent
        first, flushed = flushed, logged
        slots = np.arange(first, logged)
        ops = [(_HESSIAN, hessian, slots[hessian_due[:logged - first]]), (_GRAD, grad_norm, slots)]
        if tracking:
            ops.append((_REFERENCE, reference, slots))
        for check, op, due in ops:
            b, i = np.nonzero(_CHECKS * due + check < stop[:, None])
            attempt(op, b, due[i], check)
        if not end and logged - sent < chunk:
            return
        first, sent = sent, logged
        for b, n in enumerate((np.minimum(stop // _CHECKS, logged) - first).tolist()):
            if n > 0:
                sink(b, Trajectory(iteration[:n], step_kind[:n], f_col[b, :n], grad_norm_col[b, :n],
                                   lambda_col[b, :n], error_col[b, :n], x_col[b, :n]))
        lambda_col[:] = error_col[:] = np.nan

    def log(at: str, kind_label: str, t: int | None) -> None:
        """Log the current event ev at the points rows[at] of the live seeds."""
        nonlocal logged
        rows["f"] = f_val = problem.eval_f(rows[at])
        if not np.abs(f_val).max() <= DIVERGENCE_F_LIMIT:  # also for NaN and inf
            halt(~(np.abs(f_val) <= DIVERGENCE_F_LIMIT), live, _CHECKS * logged + _GUARD,
                 lambda i: NonFiniteError(f"objective diverged (f={float(f_val[i])}) at event {ev}"))
        if not live.size:
            return
        seeds = slice(None) if live.size == n_seeds else live
        slot = logged % chunk
        iteration[slot] = ev
        step_kind[slot] = kind_label
        hessian_due[logged % batch] = hessian_logged and t is not None and t % lambda_min_every == 0
        f_col[seeds, slot] = rows["f"]
        x_col[seeds, slot] = rows[at]
        if tracking:
            spectrum = attempt(lambda b, s: pre.spectrum(problem, rows[at]), live, logged, _SPECTRUM)
            if spectrum is not None:
                seeds = slice(None) if live.size == n_seeds else live
                a_kept[logged % batch, seeds] = spectrum[0]
                if v_kept is not None:
                    v_kept[logged % batch, seeds] = spectrum[1]
        logged += 1
        if logged - flushed == batch:
            flush()

    def event(at: str, kind_label: str, eta_t: float, t: int | None = None) -> None:
        """One event at rows[at]: draw, observe, and at step t keep the sample
        and its direction; log if due; advance ev."""
        nonlocal ev
        g = draws(rows[at])  # drawn whether or not it is observed, so streams stay aligned
        if estimating:  # the covariance variant observes the difference of two draws, over sqrt(2)
            pre.observe((g - draws(rows[at])) / math.sqrt(2.0) if covariance else g,
                        beta_schedule(eta_t, run.beta_c) if run.beta_c is not None else run.beta)
        if t is not None:
            rows["g"] = g
            rows["direction"] = attempt(lambda b, s: pre.direction(problem, rows["x"], rows["g"]), live, logged, _GUARD)
        if live.size and (ev % log_every == 0 or t == T - 1):
            log(at, kind_label, t)
        ev += 1

    # Burn-in: update the estimate at x0 without moving x.
    for _ in range(run.W):
        if not live.size:
            break
        event("x", STEP_BURNIN, run.eta)

    for t in range(T):
        if not live.size:
            break
        eta_t = run.eta / math.sqrt(t + 1.0) if decaying else run.eta
        is_large = large_steps and t % run.t_thresh == 0
        event("x", STEP_LARGE if is_large else STEP_NORMAL, eta_t, t)
        if not live.size:
            break

        rows["x_start"] = rows["x"]
        x_new = rows["x"] - (run.r if is_large else eta_t) * rows["direction"]
        if problem.clip_bounds is not None:
            x_new = np.clip(x_new, problem.clip_bounds[0], problem.clip_bounds[1])
        rows["x"] = x_new
        if not np.isfinite(x_new).all():  # a check of the next logged event
            halt(~np.isfinite(x_new).all(axis=1), live, _CHECKS * logged + _GUARD,
                 lambda i: NonFiniteError(f"iterate diverged at step {t}"))

        if is_large and hallucinating:
            # Hallucinate S+1 interpolated samples so the estimate keeps
            # up despite the large displacement (per-sample move <= r/S).
            for s in range(run.S + 1):
                if not live.size:
                    break
                rows["xs"] = rows["x_start"] + (s / run.S) * (rows["x"] - rows["x_start"])
                event("xs", STEP_HALLUCINATED, eta_t)

    flush(end=True)
    return errors


def _defect_reference(a, v):
    """The reference the logged full-matrix est_error compares Ahat with: V (a * V^T).

    Known defect, kept so recorded outputs stay byte-identical: it scales
    the columns of V^T rather than its rows by a = lambda^p, so it is
    diag(lambda^p) in eigenvalue order, not A(x) = V diag(a) V^T.
    Preconditioner.est_error is the correct ||Ahat - A(x)||_op. The
    contiguous copy of V^T has the layout, and so the bits, of the product
    V^T I it replaces.
    """
    return v @ (a[..., None, :] * np.ascontiguousarray(v.swapaxes(-1, -2)))


def first_order_params(
    L: float, c3: float, lambda_minus: float, f0_minus_fstar: float, tau: float, exact: bool = True
) -> tuple[float, int]:
    """Stepsize and iteration count for first-order convergence.

    Exact preconditioner: eta = tau^2 lambda_- / (L c3) and
    T = 2 (f0 - f*) L c3 / (tau^4 lambda_-^2); the inexact variant pays
    4 sqrt(2) in the stepsize and 16x in the iteration count.
    """
    for name, v in (("L", L), ("c3", c3), ("lambda_minus", lambda_minus),
                    ("f0_minus_fstar", f0_minus_fstar), ("tau", tau)):
        if v <= 0.0:
            raise InvalidParamError(f"{name} must be positive")
    if exact:
        eta = tau**2 * lambda_minus / (L * c3)
        T = 2.0 * f0_minus_fstar * L * c3 / (tau**4 * lambda_minus**2)
    else:
        eta = tau**2 * lambda_minus / (4.0 * math.sqrt(2.0) * L * c3)
        T = 32.0 * f0_minus_fstar * L * c3 / (tau**4 * lambda_minus**2)
    return eta, max(1, _ceil_int(T))


def second_order_params(
    k: PreconditionerConstants,
    L: float,
    rho: float,
    tau: float,
    delta_prob: float,
    omega: float = 5.0,
    k_const: float = 0.125,
    beta_c: float | None = 1.0,
) -> dict:
    """The ``Run`` fields of the second-order theorem: eta, beta, r, t_thresh, f_thresh and g_thresh.

    W and S follow from eta and r (``estimation.burn_in_length`` and
    ``hallucination_count``), and ``config.resolve_run`` derives them for
    every run. beta is beta(eta) of the schedule with constant ``beta_c``
    (None: no beta).
    L and rho, the gradient- and Hessian-Lipschitz constants, are plain
    numbers that must be finite and positive, as must tau, delta_prob and
    omega. With gamma = lambda_- sqrt(rho tau):
      r        = gamma^2 delta c4 K / (54 nu1 nu2 c3 L rho M)
      eta      = gamma^5 delta^2 c4^2 K^2 / (324 M^2 L^2 nu1^2 nu2^2 c3^2 rho^2 omega)
      f_thresh = gamma^4 delta c4^2 K^2 / (54*12 nu1^2 nu2^2 c3 L rho^2 M^2)
    plus t_thresh = ceil(omega/(eta gamma)) and g_thresh = f_thresh/t_thresh.
    """
    for name, v in (("L", L), ("rho", rho), ("tau", tau), ("delta_prob", delta_prob), ("omega", omega)):
        if not 0.0 < v < math.inf:
            raise InvalidParamError(f"{name} must be finite and positive")
    if not 0.0 < k_const < 1.0:
        raise InvalidParamError("k_const must be in (0, 1)")
    for name in ("nu1", "nu2", "c3", "c4", "lambda_minus", "M_bound"):
        if getattr(k, name) <= 0.0:
            raise InvalidParamError(f"constant {name} must be positive")

    M = k.M_bound
    gamma = k.lambda_minus * math.sqrt(rho * tau)
    nn = k.nu1 * k.nu2
    r = gamma**2 * delta_prob * k.c4 * k_const / (54.0 * nn * k.c3 * L * rho * M)
    eta = (
        gamma**5
        * delta_prob**2
        * k.c4**2
        * k_const**2
        / (324.0 * M**2 * L**2 * nn**2 * k.c3**2 * rho**2 * omega)
    )
    f_thresh = (
        gamma**4
        * delta_prob
        * k.c4**2
        * k_const**2
        / (54.0 * 12.0 * nn**2 * k.c3 * L * rho**2 * M**2)
    )
    if r < eta:
        warnings.warn(
            f"second_order_params: r={r:.3g} < eta={eta:.3g}; the regime assumes small tau",
            stacklevel=2,
        )
    t_thresh = max(1, _ceil_int(omega / (eta * gamma)))
    beta = beta_schedule(eta, beta_c) if beta_c is not None else None
    return {
        "eta": eta,
        "beta": beta,
        "r": r,
        "t_thresh": t_thresh,
        "f_thresh": f_thresh,
        "g_thresh": f_thresh / t_thresh,
    }


def check_stationarity(problem, x, tau_g: float, tau_h: float) -> StationarityReport:
    """Is x a (tau_g, tau_h)-stationary point of the problem objective?"""
    if tau_g <= 0.0 or tau_h <= 0.0:
        raise InvalidParamError("tolerances must be positive")
    grad_norm = float(np.linalg.norm(problem.grad(x)))
    lam = problem.hessian(x)
    return StationarityReport(
        tau_g=tau_g,
        tau_h=tau_h,
        is_stationary=grad_norm <= tau_g and lam >= -tau_h,
        grad_norm=grad_norm,
        lambda_min_h=lam,
    )
