"""The run loop and theorem-driven parameter calculators.

``run_sgd`` is preconditioned SGD x <- x - eta A g with any
``Preconditioner``, and every algorithm is one configuration of it: SGD
(identity), preconditioned SGD with the oracle A(x), full-matrix /
diagonal RMSProp (the EMA-estimated A), RMSProp with burn-in, and the
increasing-stepsize variant that takes a large step every t_thresh
iterations and, when estimating, hallucinates interpolated samples to
keep the estimate accurate. Also the first-order and second-order
stepsize/iteration calculators and a stationarity check.

A run advances B seeds in lockstep: iterates are a (B, d) stack, the
preconditioner holds one estimate per seed, and the exact oracles and
the eigendecompositions take the whole stack at once. Each seed draws
from its own caller-owned RNG stream, one ``sample_grad`` call per seed
and sample in program order, and every stacked operation gives each row
the bits of its own single-seed computation. So a seed's trajectory is
bitwise identical whichever seeds run beside it, and identical
(problem, hyperparameters, seed) triples produce bitwise-identical
trajectories. A seed that fails (divergence, a singular matrix) stops
there; the others run on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, InvalidParamError, MissingOracleError, NonFiniteError, NumericError
from .estimation import _ceil_int, beta_schedule, burn_in_length
from .precond import COVARIANCE_FULL_MATRIX, Preconditioner, PreconditionerConstants
from .problems import ProblemSmoothness, StochasticProblem

STEP_NORMAL = "normal"
STEP_LARGE = "large"
STEP_BURNIN = "burnin"
STEP_HALLUCINATED = "hallucinated"

# Abort threshold for the divergence guard; the exponent -1 instability
# demo relies on it to terminate cleanly.
DIVERGENCE_F_LIMIT = 1e100


@dataclass
class HyperParams:
    """Everything governing one optimizer run.

    eta is the base stepsize, r the occasional large stepsize applied
    every t_thresh steps, W the burn-in length, S the hallucination
    divisor (S+1 interpolated samples per large step), omega the
    logarithmic threshold constant and K_const the universal constant of
    the second-order analysis. f_thresh/g_thresh are carried along when
    produced by the second-order calculator.
    """

    eta: float
    beta: float | None = None
    epsilon: float = 0.0
    r: float | None = None
    t_thresh: int | None = None
    W: int = 0
    S: int | None = None
    tau: float | None = None
    delta_prob: float | None = None
    omega: float = 5.0
    K_const: float = 0.125
    f_thresh: float | None = None
    g_thresh: float | None = None

    def __post_init__(self):
        # eta = 0 is allowed as a degenerate run (the trajectory stays put).
        if self.eta < 0.0:
            raise InvalidParamError("eta must be nonnegative")
        if self.beta is not None and not 0.0 <= self.beta < 1.0:
            raise InvalidParamError("beta must be in [0, 1)")
        if self.epsilon < 0.0:
            raise InvalidParamError("epsilon must be nonnegative")
        if self.t_thresh is not None and self.t_thresh < 1:
            raise InvalidParamError("t_thresh must be >= 1")
        if self.W < 0:
            raise InvalidParamError("W must be >= 0")
        if self.S is not None and self.S < 1:
            raise InvalidParamError("S must be >= 1")
        if not 0.0 < self.K_const < 1.0:
            raise InvalidParamError("K_const must be in (0, 1)")


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


def hessian_tolerance(rho: float, tau_g: float) -> float:
    """The conventional second tolerance sqrt(rho * tau_g)."""
    if rho < 0 or tau_g < 0:
        raise InvalidParamError("rho and tau_g must be nonnegative")
    return math.sqrt(rho * tau_g)


def run_sgd(
    problem: StochasticProblem,
    pre: Preconditioner,
    hp: HyperParams,
    T: int,
    rngs,
    *,
    x0=None,
    burn_in: int = 0,
    large_steps: bool = False,
    eta_schedule=None,
    beta_c: float | None = None,
    log_every: int = 1,
    track_est_error: bool = False,
    lambda_min_every: int = 0,
) -> list[Trajectory]:
    """Preconditioned SGD x <- x - eta A g: the one run loop of every algorithm.

    Runs one seed per RNG stream in ``rngs``, all from x0, in lockstep,
    and returns one Trajectory per seed. ``pre`` supplies A, is made with
    ``batch=len(rngs)`` and is updated in place: an estimating
    preconditioner observes each sample before preconditioning it.
    ``burn_in`` estimate-only samples at x0 precede the loop. With
    ``large_steps`` the stepsize is hp.r every hp.t_thresh steps, and an
    estimating preconditioner then observes hp.S+1 hallucinated samples
    interpolated between the step's endpoints. ``beta_c`` replaces hp.beta
    by the schedule beta(eta_t); ``eta_schedule`` maps t to eta_t. A seed
    whose objective passes DIVERGENCE_F_LIMIT, whose iterate stops being
    finite or whose matrix power fails stops with the error in its
    Trajectory; the other seeds run on.
    """
    if T < 1:
        raise InvalidParamError("T must be >= 1")
    if log_every < 1:
        raise InvalidParamError("log_every must be >= 1")
    rngs = list(rngs)
    n_seeds = len(rngs)
    if n_seeds < 1:
        raise InvalidParamError("run_sgd needs at least one RNG stream")
    dim = problem.dim
    x = np.zeros(dim) if x0 is None else np.array(x0, dtype=np.float64)
    if x.shape != (dim,) or not np.all(np.isfinite(x)):
        raise InvalidParamError("x0 must be a finite point of the problem dimension")

    if pre.dim != dim:
        raise DimMismatchError(f"preconditioner dim {pre.dim} vs problem dim {dim}")
    if pre.batch != n_seeds:
        raise DimMismatchError(f"preconditioner batch {pre.batch} vs {n_seeds} RNG streams")
    estimating = pre.estimating
    covariance = estimating and pre.kind.variant == COVARIANCE_FULL_MATRIX
    if estimating and hp.beta is None and beta_c is None:
        raise InvalidParamError("estimated preconditioning needs beta or a beta schedule")
    if large_steps:
        if hp.t_thresh is None:
            raise InvalidParamError("large-step mode needs t_thresh")
        if hp.r is None or hp.r < hp.eta:
            raise InvalidParamError("large-step mode needs r >= eta")
        if pre.source == "estimated" and hp.S is None:
            raise InvalidParamError("estimated large-step mode needs S >= 1")
    hallucinating = large_steps and estimating

    # Columns for every seed, one slot per event that can be logged.
    n_events = burn_in + T + (((T - 1) // hp.t_thresh + 1) * (hp.S + 1) if hallucinating else 0)
    capacity = (n_events - 1) // log_every + 2
    iteration = np.empty(capacity, dtype=np.int64)
    step_kind = np.empty(capacity, dtype=object)
    f_col = np.empty((n_seeds, capacity))
    grad_norm_col = np.empty((n_seeds, capacity))
    lambda_col = np.full((n_seeds, capacity), np.nan)
    error_col = np.full((n_seeds, capacity), np.nan)
    x_col = np.empty((n_seeds, capacity, dim))
    logged = 0
    lengths = np.zeros(n_seeds, dtype=np.int64)
    errors: list[NumericError | None] = [None] * n_seeds

    # The seeds still running: their positions in rngs and their rows of
    # every per-seed array in flight ("x" the iterates).
    live = np.arange(n_seeds)
    rows = {"x": np.tile(x, (n_seeds, 1))}

    def freeze(bad, error_for) -> None:
        """Stop the live seeds marked in ``bad``; error_for(i) is live seed i's error."""
        nonlocal live, rngs
        for i in np.flatnonzero(bad):
            errors[live[i]] = error_for(i)
            lengths[live[i]] = logged
        keep = ~bad
        live = live[keep]
        rngs = [rng for rng, k in zip(rngs, keep) if k]
        pre.keep(keep)
        for name, value in rows.items():
            rows[name] = value[keep]

    def guarded(op):
        """op() over the live seeds; the seeds it fails for stop, and it reruns on the rest."""
        while live.size:
            try:
                return op()
            except NumericError as err:
                freeze(np.ones(live.size, dtype=bool) if err.rows is None else err.rows, lambda i: err)
        return None

    ideal = Preconditioner(pre.kind, dim) if track_est_error and estimating else None

    def current_beta(eta_t: float) -> float:
        if beta_c is not None:
            return beta_schedule(eta_t, beta_c)
        return hp.beta if hp.beta is not None else 0.0

    def draw_sample(at):
        g = np.array([problem.sample_grad(x_i, rng) for x_i, rng in zip(at, rngs)])
        if covariance:
            g2 = np.array([problem.sample_grad(x_i, rng) for x_i, rng in zip(at, rngs)])
            return g, (g - g2) / math.sqrt(2.0)
        return g, g

    def tracked_error(at):
        if ideal is None:
            return np.nan
        if pre.diagonal:
            return pre.est_error(problem, at)
        # Known defect, kept so recorded outputs stay byte-identical: applied
        # to I, direction() scales columns rather than rows by lambda^p, so
        # this reference is diag(lambda^p) in eigenvalue order, not A(x).
        # pre.est_error is the correct ||Ahat - A(x)||_op.
        a, v = ideal._spectrum(problem, at)
        reference = v @ (a[..., None, :] * (v.swapaxes(-1, -2) @ np.eye(dim)))
        return np.abs(np.linalg.eigvalsh(pre.dense(problem, at) - reference)).max(axis=-1)

    def log(ev: int, at: str, kind_label: str, t_for_hess: int | None) -> None:
        """Log event ev at the points rows[at] of the live seeds."""
        nonlocal logged
        rows["f"] = f_val = problem.eval_f(rows[at])
        within = np.abs(f_val) <= DIVERGENCE_F_LIMIT  # False for NaN and inf
        if not within.all():
            freeze(~within, lambda i: NonFiniteError(f"objective diverged (f={float(f_val[i])}) at event {ev}"))

        def oracles():
            points = rows[at]
            lam_h = np.nan
            if (
                lambda_min_every > 0
                and t_for_hess is not None
                and t_for_hess % lambda_min_every == 0
                and problem.has_hessian
            ):
                lam_h = problem.hessian(points).lambda_min()
            g = problem.grad(points)
            return lam_h, np.sqrt(np.vecdot(g, g)), tracked_error(points)

        values = guarded(oracles)
        if values is None:
            return
        seeds = slice(None) if live.size == n_seeds else live
        iteration[logged] = ev
        step_kind[logged] = kind_label
        f_col[seeds, logged] = rows["f"]
        lambda_col[seeds, logged], grad_norm_col[seeds, logged], error_col[seeds, logged] = values
        x_col[seeds, logged] = rows[at]
        logged += 1

    def should_log(ev: int, is_last: bool) -> bool:
        return is_last or ev % log_every == 0

    ev = -burn_in
    # Burn-in: update the estimate at x0 without moving x.
    for _ in range(burn_in):
        if not live.size:
            break
        _, upd = draw_sample(rows["x"])  # drawn by every form, so streams stay aligned
        if estimating:
            pre.observe(upd, current_beta(hp.eta))
        if should_log(ev, False):
            log(ev, "x", STEP_BURNIN, None)
        ev += 1

    for t in range(T):
        if not live.size:
            break
        eta_t = hp.eta if eta_schedule is None else eta_schedule(t)
        is_large = large_steps and t % hp.t_thresh == 0
        step_size = hp.r if is_large else eta_t

        rows["g"], upd = draw_sample(rows["x"])
        if estimating:
            pre.observe(upd, current_beta(eta_t))
        rows["direction"] = guarded(lambda: pre.direction(problem, rows["x"], rows["g"]))
        if not live.size:
            break

        if should_log(ev, t == T - 1):
            log(ev, "x", STEP_LARGE if is_large else STEP_NORMAL, t)
        ev += 1
        if not live.size:
            break

        rows["x_start"] = rows["x"]
        x_new = rows["x"] - step_size * rows["direction"]
        if problem.clip_bounds is not None:
            x_new = np.clip(x_new, problem.clip_bounds[0], problem.clip_bounds[1])
        rows["x"] = x_new
        finite = np.isfinite(x_new).all(axis=1)
        if not finite.all():
            freeze(~finite, lambda i: NonFiniteError(f"iterate diverged at step {t}"))

        if is_large and hallucinating:
            # Hallucinate S+1 interpolated samples so the estimate keeps
            # up despite the large displacement (per-sample move <= r/S).
            for s in range(hp.S + 1):
                if not live.size:
                    break
                rows["xs"] = rows["x_start"] + (s / hp.S) * (rows["x"] - rows["x_start"])
                _, upd = draw_sample(rows["xs"])
                pre.observe(upd, current_beta(eta_t))
                if should_log(ev, False):
                    log(ev, "xs", STEP_HALLUCINATED, None)
                ev += 1

    lengths[live] = logged
    return [
        Trajectory(
            iteration=iteration[:n],
            step_kind=step_kind[:n],
            f=f_col[b, :n],
            grad_norm=grad_norm_col[b, :n],
            lambda_min_h=lambda_col[b, :n],
            est_error=error_col[b, :n],
            x=x_col[b, :n],
            error=errors[b],
        )
        for b, n in enumerate(lengths)
    ]


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
    smooth: ProblemSmoothness,
    tau: float,
    delta_prob: float,
    omega: float = 5.0,
    k_const: float = 0.125,
    c_w: float = 1.0,
    beta_c: float | None = 1.0,
    epsilon: float = 0.0,
) -> HyperParams:
    """Second-order parameter settings (r, eta, f_thresh, t_thresh, W, S).

    With gamma = lambda_- sqrt(rho tau):
      r        = gamma^2 delta c4 K / (54 nu1 nu2 c3 L rho M)
      eta      = gamma^5 delta^2 c4^2 K^2 / (324 M^2 L^2 nu1^2 nu2^2 c3^2 rho^2 omega)
      f_thresh = gamma^4 delta c4^2 K^2 / (54*12 nu1^2 nu2^2 c3 L rho^2 M^2)
    plus t_thresh = ceil(omega/(eta gamma)), g_thresh = f_thresh/t_thresh,
    W = ceil(c_w eta^-2/3) and S = ceil(r/eta) so each hallucinated
    sample moves at most eta.
    """
    for name, v in (("tau", tau), ("delta_prob", delta_prob), ("omega", omega)):
        if v <= 0.0:
            raise InvalidParamError(f"{name} must be positive")
    if not 0.0 < k_const < 1.0:
        raise InvalidParamError("k_const must be in (0, 1)")
    if smooth.L is None or smooth.L <= 0.0 or smooth.rho is None or smooth.rho <= 0.0:
        raise InvalidParamError("second-order parameters need positive L and rho")
    for name in ("nu1", "nu2", "c3", "c4", "lambda_minus", "M_bound"):
        if getattr(k, name) <= 0.0:
            raise InvalidParamError(f"constant {name} must be positive")

    L, rho, M = smooth.L, smooth.rho, k.M_bound
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
    return HyperParams(
        eta=eta,
        beta=beta,
        epsilon=epsilon,
        r=r,
        t_thresh=t_thresh,
        W=burn_in_length(eta, c_w),
        S=max(1, _ceil_int(r / eta)),
        tau=tau,
        delta_prob=delta_prob,
        omega=omega,
        K_const=k_const,
        f_thresh=f_thresh,
        g_thresh=f_thresh / t_thresh,
    )


def check_stationarity(problem, x, tau_g: float, tau_h: float) -> StationarityReport:
    """Is x a (tau_g, tau_h)-stationary point of the problem objective?"""
    if tau_g <= 0.0 or tau_h <= 0.0:
        raise InvalidParamError("tolerances must be positive")
    if not problem.has_hessian:
        raise MissingOracleError("stationarity check needs a Hessian oracle")
    grad_norm = float(np.linalg.norm(problem.grad(x)))
    lam = problem.hessian(x).lambda_min()
    return StationarityReport(
        tau_g=tau_g,
        tau_h=tau_h,
        is_stationary=grad_norm <= tau_g and lam >= -tau_h,
        grad_norm=grad_norm,
        lambda_min_h=lam,
    )
