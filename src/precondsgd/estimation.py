"""Estimation from moving sequences.

EMA weightings, the explicit bias/variance bound on the EMA estimate of
a matrix-valued function along a slowly moving sequence, the
beta(eta) = 1 - C eta^(2/3) schedule that optimizes it, and empirical
measurement of the estimation error against the idealized preconditioner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParamError, MissingOracleError, PreconditionViolatedError
from .linalg import op_norm
from .precond import Preconditioner


def _ceil_int(x: float) -> int:
    # Guarded ceil: formulas like eta**(-2/3) land a hair above exact
    # integers in floats; do not let that bump the count by one.
    return int(math.ceil(x - 1e-12 - 1e-9 * abs(x)))


@dataclass(frozen=True)
class EmaWeighting:
    """Normalized weights w_t proportional to beta^(T-t), t = 1..T."""

    beta: float
    T: int
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise InvalidParamError("beta must be in (0, 1)")
        if self.T < 1:
            raise InvalidParamError("T must be >= 1")
        w = self.beta ** np.arange(self.T - 1, -1, -1, dtype=np.float64)
        w /= w.sum()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def sq_norm(self) -> float:
        return float(np.sum(self.weights**2))


@dataclass(frozen=True)
class EstimationBoundInputs:
    """Inputs of the moving-sequence estimation bound.

    sigma_max bounds the conditional per-sample variance, R the
    per-sample deviation, M_step the per-step movement ||x_t - x_{t-1}||
    / eta, L_G the Lipschitz constant of x -> G(x); d is the matrix
    dimension and delta_prob the failure probability.
    """

    sigma_max: float
    R: float
    M_step: float
    L_G: float
    eta: float
    beta: float
    T: int
    d: int
    delta_prob: float

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise InvalidParamError("beta must be in (0, 1)")
        if not 0.0 < self.delta_prob < 1.0:
            raise InvalidParamError("delta_prob must be in (0, 1)")
        if self.sigma_max < 0 or self.R < 0 or self.M_step < 0 or self.L_G < 0 or self.eta < 0:
            raise InvalidParamError("sigma_max, R, M_step, L_G, eta must be nonnegative")
        if self.d < 1 or self.T < 1:
            raise InvalidParamError("d and T must be >= 1")


def beta_schedule(eta: float, C: float = 1.0) -> float:
    """The EMA parameter beta = 1 - C eta^(2/3) that balances bias and variance."""
    if eta <= 0.0 or C <= 0.0:
        raise InvalidParamError("eta and C must be positive")
    step = C * eta ** (2.0 / 3.0)
    if step >= 1.0:
        raise InvalidParamError(f"C * eta^(2/3) = {step} must be < 1")
    return 1.0 - step


def estimation_error_bound(inputs: EstimationBoundInputs) -> float:
    """High-probability bound on ||sum w_t Y_t - G(x_T)|| with EMA weights.

    The explicit-constant form
    [2^(3/2) sigma_max sqrt(1-beta) sqrt(log(d/delta)) + M L_G eta/(1-beta)]
    / (1 - beta^T), valid for T > 4/(1-beta).
    """
    if inputs.T <= 4.0 / (1.0 - inputs.beta):
        raise PreconditionViolatedError(
            f"need T > 4/(1-beta) = {4.0 / (1.0 - inputs.beta):.1f}, got T={inputs.T}"
        )
    one_minus = 1.0 - inputs.beta
    variance = 2.0**1.5 * inputs.sigma_max * math.sqrt(one_minus) * math.sqrt(
        math.log(inputs.d / inputs.delta_prob)
    )
    bias = inputs.M_step * inputs.L_G * inputs.eta / one_minus
    return (variance + bias) / (1.0 - inputs.beta**inputs.T)


def burn_in_length(eta: float, c_w: float = 1.0) -> int:
    """Burn-in length ceil(c_w * eta^(-2/3))."""
    if eta <= 0.0 or c_w <= 0.0:
        raise InvalidParamError("eta and c_w must be positive")
    return max(1, _ceil_int(c_w * eta ** (-2.0 / 3.0)))


def measure_estimation_error(problem, pre: Preconditioner, xs, gs, beta: float):
    """Per-step ||Ahat_t - A(x_t)||_op and its running supremum.

    Replays a run: ``pre`` observes each sample g_t (drawn at x_t) with the
    EMA parameter ``beta`` and is then compared with the idealized
    preconditioner at x_t.
    """
    if not problem.has_exact_g and pre.kind.variant != "identity":
        raise MissingOracleError("measuring estimation error needs an exact_G oracle")
    xs = list(xs)
    gs = list(gs)
    if len(xs) != len(gs):
        raise InvalidParamError("xs and gs must have equal length")
    errs = []
    for x, g in zip(xs, gs):
        pre.observe(g, beta)
        errs.append(pre.est_error(problem, x))
    errs = np.array(errs)
    return errs, np.maximum.accumulate(errs) if errs.size else errs


def estimate_sigma_max(problem, x, n_samples: int, rng) -> float:
    """Monte-Carlo estimate of sigma_max = ||E[(Y - G)^2]||^(1/2), Y = g g^T."""
    if not problem.has_exact_g:
        raise MissingOracleError("sigma_max estimation needs an exact_G oracle")
    if n_samples < 2:
        raise InvalidParamError("n_samples must be >= 2")
    G = problem.exact_G(x).a
    gs = problem.sample_grad_batch(x, n_samples, rng)
    acc = np.zeros_like(G)
    for g in gs:
        Z = np.outer(g, g) - G
        acc += Z @ Z
    return math.sqrt(op_norm(acc / n_samples))
