"""Dense symmetric-matrix numerics.

The LAPACK entry points ``eigh`` and ``eigvalsh``, ``SymMatrix`` and operator
norms for the small (d <~ 200) symmetric matrices of the package, plus
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


def eigvalsh(a):
    """``np.linalg.eigvalsh``, looked up at call time; with ``eigh``, the package's only LAPACK caller."""
    return np.linalg.eigvalsh(a)


# The range of the largest |entry| in which LAPACK's eigensolvers do not
# rescale the matrix: [sqrt(safmin/eps), sqrt(eps/safmin)] in LAPACK's
# dsyevd, with safmin = 2^-1022 and eps = 2^-52.
_LAPACK_UNSCALED = (2.0**-485, 2.0**485)

# No sum of two entries at most this large in magnitude overflows.
_HALF_MAX = np.finfo(np.float64).max / 2.0


def _symmetrized(a):
    """(a + a^T)/2 of a matrix or a (B, d, d) stack; a/2 + a^T/2 where a + a^T overflows.

    Raises NonFiniteError (rows: the failing matrices of a stack) unless
    the result, and so every entry of a, is finite.
    """
    at = a.swapaxes(-1, -2)
    if np.abs(a).max() <= _HALF_MAX:  # False when an entry is NaN or inf
        return (a + at) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        s = (a + at) / 2.0
        s = np.where(np.isfinite(s), s, a / 2.0 + at / 2.0)
    finite = np.isfinite(s).all(axis=(-2, -1))
    if not finite.all():
        raise NonFiniteError("matrix entries must be finite", rows=None if a.ndim == 2 else ~finite)
    return s


class SymMatrix:
    """Dense symmetric matrix, or a (B, d, d) stack of them, with a cached eigendecomposition.

    Entries are symmetrized to (M + M^T)/2 on construction (see
    ``_symmetrized``): repeated rank-one updates accumulate asymmetric
    rounding otherwise. A stack holds one matrix per point of a stacked
    oracle call; its ``lambda_min``/``lambda_max`` are arrays, and the
    module functions below take single matrices only. Instances are
    immutable after construction and safe to share across threads.

    A matrix built by ``from_diagonal`` knows its eigenvalues without a
    decomposition: they are its diagonal in ascending order. That is
    exactly what LAPACK returns for a diagonal input unless it rescales
    the matrix first, which it does when the largest |entry| lies outside
    ``_LAPACK_UNSCALED``: a diagonal has no off-diagonal entries to
    reduce, so its entries come back sorted and untouched. So when every
    matrix's largest |entry| lies in that range, ``eigenvalues``,
    ``lambda_min`` and ``lambda_max`` skip ``eigh`` and give its bits; the
    one difference is the order of +0.0 and -0.0 within a tie of zeros.
    Otherwise (an all-zero matrix included) they call ``eigh``.
    ``eigendecomposition`` always calls ``eigh``: for tied eigenvalues
    LAPACK orders the eigenvectors differently from a stable sort.

    ``outer_plus(g, base)`` builds g g^T + base, the second moment of a
    mean g and a covariance base, without the copy and the averaging:
    the sum is already exactly symmetric, because floating-point products
    commute and base is symmetric, and (a + a^T)/2 of a symmetric a with
    no entry above ``_HALF_MAX`` returns a's own bits.
    """

    __slots__ = ("_a", "_eig", "_w")

    def __init__(self, entries) -> None:
        a = np.array(entries, dtype=np.float64)
        if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
            raise InvalidParamError(f"expected a nonempty square matrix or a stack of them, got shape {a.shape}")
        self._own(_symmetrized(a))

    def _own(self, a) -> None:
        """Take the symmetric array a, which nothing else holds, as the read-only entries."""
        a.setflags(write=False)
        self._a = a
        self._eig = None
        self._w = None

    @classmethod
    def outer_plus(cls, g, base: "SymMatrix") -> "SymMatrix":
        """g g^T + base for a (d,) vector g, or a (B, d, d) stack of them from a (B, d) stack.

        Gives the bits of ``SymMatrix(g g^T + base.a)`` and raises as it does.
        """
        g = np.asarray(g, dtype=np.float64)
        if g.ndim not in (1, 2) or g.shape[-1] != base.dim:
            raise InvalidParamError(f"expected a vector or a stack of them of dim {base.dim}, got shape {g.shape}")
        a = g[..., :, None] * g[..., None, :]
        a += base.a
        if not np.abs(a).max() <= _HALF_MAX:  # NaN, inf or an entry whose double overflows
            a = _symmetrized(a)
        m = cls.__new__(cls)
        m._own(a)
        return m

    @classmethod
    def from_diagonal(cls, diag) -> "SymMatrix":
        """diag(d) of a (d,) vector, or a (B, d, d) stack of them from a (B, d) stack."""
        d = np.array(diag, dtype=np.float64)
        if d.ndim not in (1, 2) or d.shape[-1] == 0:
            raise InvalidParamError(f"expected a nonempty diagonal or a stack of them, got shape {d.shape}")
        top = np.abs(d).max(axis=-1)  # NaN or inf when an entry is
        if not np.isfinite(top).all():
            raise NonFiniteError("matrix entries must be finite", rows=None if d.ndim == 1 else ~np.isfinite(top))
        n = d.shape[-1]
        a = np.zeros(d.shape + (n,))
        a.reshape(d.shape[:-1] + (n * n,))[..., :: n + 1] = d
        m = cls.__new__(cls)
        m._own(a)
        lo, hi = _LAPACK_UNSCALED
        if lo <= top.min() and top.max() <= hi:
            d.sort(axis=-1)
            m._w = d
        return m

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

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues, (d,) or (B, d); without ``eigh`` when built from a diagonal."""
        if self._w is None:
            self._w = self.eigendecomposition().eigenvalues
        return self._w

    def lambda_min(self):
        """The smallest eigenvalue: a float, or one per matrix of a stack."""
        w = self.eigenvalues()[..., 0]
        return float(w) if w.ndim == 0 else w

    def lambda_max(self):
        """The largest eigenvalue: a float, or one per matrix of a stack."""
        w = self.eigenvalues()[..., -1]
        return float(w) if w.ndim == 0 else w

    def __repr__(self) -> str:
        return f"SymMatrix(dim={self.dim})"


def op_norm(m) -> float:
    """Operator norm max |lambda_i| of a symmetric matrix (SymMatrix or array)."""
    if isinstance(m, SymMatrix):
        w = m.eigendecomposition().eigenvalues
    else:
        a = np.asarray(m, dtype=np.float64)
        if a.size == 0:
            return 0.0
        w = eigvalsh(_symmetrized(a))
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
