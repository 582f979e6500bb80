"""Estimation from moving sequences.

The explicit bias/variance bound on the EMA estimate of a matrix-valued
function along a slowly moving sequence, the beta(eta) = 1 - C eta^(2/3)
schedule that optimizes it, the counts that follow from eta (the burn-in
length W and the hallucination count S), and a Monte-Carlo estimate of the bound's variance input sigma_max. The
run loop measures the estimation error itself (``track_est_error``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamError, PreconditionViolatedError
from .linalg import op_norm


def _ceil_int(x: float) -> int:
    # Guarded ceil: formulas like eta**(-2/3) land a hair above exact
    # integers in floats; do not let that bump the count by one.
    return int(math.ceil(x - 1e-12 - 1e-9 * abs(x)))


@dataclass(frozen=True)
class EstimationBoundInputs:
    """Inputs of the moving-sequence estimation bound.

    sigma_max bounds the conditional per-sample variance, M_step the
    per-step movement ||x_t - x_{t-1}|| / eta, L_G the Lipschitz constant
    of x -> G(x); d is the matrix dimension and delta_prob the failure
    probability.
    """

    sigma_max: float
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
        if self.sigma_max < 0 or self.M_step < 0 or self.L_G < 0 or self.eta < 0:
            raise InvalidParamError("sigma_max, M_step, L_G, eta must be nonnegative")
        if self.d < 1 or self.T < 1:
            raise InvalidParamError("d and T must be >= 1")


def beta_schedule(eta: float, C: float = 1.0) -> float:
    """The EMA parameter beta = 1 - C eta^(2/3) that balances bias and variance.

    It must lie in (0, 1) once rounded: a beta that rounds to 1 would
    freeze the estimate, so a C eta^(2/3) that small raises too.
    """
    if eta <= 0.0 or C <= 0.0:
        raise InvalidParamError("eta and C must be positive")
    step = C * eta ** (2.0 / 3.0)
    if step >= 1.0:
        raise InvalidParamError(f"C * eta^(2/3) = {step} must be < 1")
    beta = 1.0 - step
    if beta == 1.0:
        raise InvalidParamError(f"C * eta^(2/3) = {step} is too small: beta = 1 - C eta^(2/3) rounds to 1")
    return beta


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


def hallucination_count(r: float, eta: float) -> int:
    """S = ceil(r/eta): a large step of length r observed at S+1 points moves at most eta between them."""
    if eta <= 0.0 or r <= 0.0:
        raise InvalidParamError("r and eta must be positive")
    return max(1, _ceil_int(r / eta))


def estimate_sigma_max(problem, x, n_samples: int, rng) -> float:
    """Monte-Carlo estimate of sigma_max = ||E[(Y - G)^2]||^(1/2), Y = g g^T, from n_samples draws of g at x."""
    if n_samples < 2:
        raise InvalidParamError("n_samples must be >= 2")
    G = problem.exact_G(x)
    gs = problem.sample_grad(x, rng, n_samples)
    acc = np.zeros_like(G)
    for g in gs:
        Z = np.outer(g, g) - G
        acc += Z @ Z
    return math.sqrt(op_norm(acc / n_samples))
