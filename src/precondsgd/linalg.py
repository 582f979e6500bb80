"""Dense symmetric-matrix numerics on plain arrays.

The LAPACK entry points ``eigh`` and ``eigvalsh``, the operator norm of a
symmetric (d, d) array (d <~ 200 in the package), and closed-form
operator-norm bounds on how much the inverse, square root, and inverse
square root of a positive matrix can move under a small symmetric
perturbation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    InvalidParamError,
    NonFiniteError,
    PreconditionViolatedError,
)


def eigh(a):
    """``np.linalg.eigh`` of a (d, d) matrix or of each matrix of a (B, d, d) stack.

    A stack is decomposed one matrix per call. A stacked call gives the
    same bits; the per-call form keeps the work of every ``eigh`` call at
    one d^3, which the traced split of ``perfbench`` counts per call.
    """
    if a.ndim == 2 or len(a) == 1:
        return np.linalg.eigh(a)
    w = np.empty(a.shape[:-1])
    v = np.empty(a.shape)
    for b, m in enumerate(a):
        w[b], v[b] = np.linalg.eigh(m)
    return w, v


def eigvalsh(a):
    """``np.linalg.eigvalsh``, looked up at call time; with ``eigh``, the package's only LAPACK caller."""
    return np.linalg.eigvalsh(a)


def op_norm(a) -> float:
    """Operator norm max |lambda_i| of the symmetric part a/2 + a^T/2 of a finite (d, d) array; 0 when empty."""
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        return 0.0
    if not np.isfinite(a).all():
        raise NonFiniteError("matrix entries must be finite")
    return float(np.abs(eigvalsh(a / 2.0 + a.T / 2.0)).max())


def inv_perturbation_bound(lambda_min_g: float, eps: float) -> float:
    """Bound on ||G^-1 - Ghat^-1|| given ||G - Ghat|| <= eps.

    Requires eps < lambda_min(G)/2 (equivalently eps*||G^-1|| < 1/2). The
    constant is the proof-consistent 2*eps/lambda_min^2; the nominally
    stated eps/(2*lambda_min^2) fails already for G=I, Ghat=1.1*I.
    """
    if lambda_min_g <= 0.0:
        raise InvalidParamError("lambda_min_g must be positive")
    if eps < 0.0:
        raise InvalidParamError("eps must be nonnegative")
    if eps >= 0.5 * lambda_min_g:
        raise PreconditionViolatedError(
            f"need eps < lambda_min/2, got eps={eps}, lambda_min={lambda_min_g}"
        )
    return 2.0 * eps / lambda_min_g**2


def sqrt_perturbation_bound(lambda_min_g: float, eps: float) -> float:
    """Bound on ||G^1/2 - Ghat^1/2|| given ||G - Ghat|| <= eps < (3/4) lambda_min(G)."""
    if lambda_min_g <= 0.0:
        raise InvalidParamError("lambda_min_g must be positive")
    if eps < 0.0:
        raise InvalidParamError("eps must be nonnegative")
    if eps >= 0.75 * lambda_min_g:
        raise PreconditionViolatedError(
            f"need eps < 3/4 lambda_min, got eps={eps}, lambda_min={lambda_min_g}"
        )
    return eps / math.sqrt(lambda_min_g)


def invsqrt_preconditioner_bound(lambda_min_g: float, delta_reg: float, eps: float) -> float:
    """Bound on ||(G+dI)^-1/2 - (Ghat+dI)^-1/2|| given ||G - Ghat|| <= eps.

    Chains the square-root bound and the corrected inverse bound applied
    to G + delta_reg*I, giving 2*eps/(delta_reg + lambda_min)^(3/2); the
    nominal eps/(2 h^(3/2)) is only first-order tight and fails for
    perturbations concentrated below the minimal eigenvalue. Both
    underlying preconditions reduce to eps < (delta_reg + lambda_min)/2.
    """
    if lambda_min_g < 0.0 or delta_reg < 0.0:
        raise InvalidParamError("lambda_min_g and delta_reg must be nonnegative")
    if eps < 0.0:
        raise InvalidParamError("eps must be nonnegative")
    h = delta_reg + lambda_min_g
    if h <= 0.0:
        raise InvalidParamError("delta_reg + lambda_min_g must be positive")
    if eps >= 0.5 * h:
        raise PreconditionViolatedError(
            f"need eps < (delta_reg + lambda_min)/2, got eps={eps}, floor={h}"
        )
    return 2.0 * eps / h**1.5
