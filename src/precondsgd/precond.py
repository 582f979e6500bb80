"""Preconditioners and their scalar constants.

One type, ``Preconditioner``, builds A = (G + eps I)^exponent for every
form the paper uses: the identity, the idealized A(x) from the exact
second-moment oracle G(x), and the estimate from the EMA
Ghat_t = beta_t Ghat_{t-1} + (1-beta_t) g g^T, each in a diagonal and a
full (or covariance) variant. Also ``constants``, the one calculator of
the (nu1, nu2, c3, c4, lambda_-) constants that the convergence rates are
expressed in: it takes a PreconditionerKind (the identity, or the full-matrix
or diagonal variant at exponent -1/2) and reads eps from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, InvalidParamError, SingularMatrixError
from .linalg import eigh, eigvalsh

IDENTITY = "identity"
FULL_MATRIX = "full_matrix"
DIAGONAL = "diagonal"
COVARIANCE_FULL_MATRIX = "covariance_full_matrix"
VARIANTS = (IDENTITY, FULL_MATRIX, DIAGONAL, COVARIANCE_FULL_MATRIX)
SOURCES = ("idealized", "estimated")

# Exponent -1 exists only for the instability demonstration; -1/2 is the
# stable adaptive-method exponent.
ALLOWED_EXPONENTS = (-0.5, -1.0)


@dataclass(frozen=True)
class PreconditionerKind:
    """Which preconditioner to build, its regularizer, and its exponent."""

    variant: str = FULL_MATRIX
    epsilon: float = 0.0
    exponent: float = -0.5

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidParamError(f"unknown preconditioner variant {self.variant!r}")
        if self.epsilon < 0.0:
            raise InvalidParamError("epsilon must be nonnegative")
        if self.exponent not in ALLOWED_EXPONENTS:
            raise InvalidParamError(f"exponent must be one of {ALLOWED_EXPONENTS}")


def estimates(kind: PreconditionerKind, source: str) -> bool:
    """Whether a preconditioner of this kind and source estimates G from samples."""
    return source == "estimated" and kind.variant != IDENTITY


@dataclass(frozen=True)
class PreconditionerConstants:
    """Scalar summary (nu1, nu2, c3, c4, lambda_-, M) of a preconditioner.

    nu1/nu2 relate ||A v|| to ||A^1/2 v||, c3 bounds the rescaled noise
    magnitude E||A g||^2, c4 lower-bounds lambda_min(A G A^T), lambda_-
    lower-bounds lambda_min(A). M_bound is the uniform step bound ||A g||,
    problem-specific; ``constants`` sets it to sqrt(c3), the scale it
    should have (``tests/lemmas.py::estimate_m_bound`` measures it).
    """

    nu1: float
    nu2: float
    c3: float
    c4: float
    lambda_minus: float
    M_bound: float


class Preconditioner:
    """A = (G + eps I)^exponent, from the oracle G(x) or from the EMA estimate.

    Three forms share this type: the identity (A = I), the idealized form
    (G = G(x) from the problem's exact_G oracle; Sigma = G - grad grad^T
    for the covariance variant) and the estimated form (G = Ghat, fed by
    ``observe``; the run loop feeds the covariance variant differences
    (g1 - g2)/sqrt(2) of two samples). Each keeps only diag G in the
    diagonal variant and at d=1, and takes the matrix power through eigh
    otherwise.

    With ``batch`` = B the preconditioner serves B seeds in lockstep: the
    estimate is a (B, d, d) stack (B, d when diagonal), and points and
    gradients are (B, d) stacks, one row per seed. Without it, points
    and gradients are single vectors. Each row gets the bits of its own
    unbatched computation.

    ``observe(g, beta)`` applies Ghat <- beta Ghat + (1-beta) g g^T (a no-op
    unless estimating); with ``bias_corrected`` Ghat is divided by
    1 - prod(beta_t), which is exact under a changing beta.
    ``direction(problem, x, g)`` returns A g, ``spectrum(problem, x)`` the
    (a, V) with A = V diag(a) V^T of a non-identity form, and
    ``est_error(problem, x)`` returns ||Ahat - A(x)||_op against the
    idealized form. The estimated form keeps its eigendecomposition until
    the next ``observe``. A SingularMatrixError marks in ``rows`` the seeds
    whose matrix failed; ``keep`` drops seeds. Instances are mutable: use
    one per run.
    """

    def __init__(self, kind: PreconditionerKind, dim: int, source: str = "idealized",
                 bias_corrected: bool = False, batch: int | None = None):
        if source not in SOURCES:
            raise InvalidParamError(f"unknown preconditioner source {source!r}")
        if dim < 1:
            raise InvalidParamError("dim must be >= 1")
        if batch is not None and batch < 1:
            raise InvalidParamError("batch must be >= 1")
        self.kind = kind
        self.dim = dim
        self.source = source
        self.estimating = estimates(kind, source)
        self.bias_corrected = bias_corrected
        self.diagonal = kind.variant == DIAGONAL or dim == 1
        self._point_shape = (dim,) if batch is None else (batch, dim)
        self._g_hat = np.zeros(self._point_shape if self.diagonal else self._point_shape + (dim,))
        self._beta_prod = 1.0
        self._spectrum_cache = None

    def observe(self, g, beta: float) -> None:
        """One EMA step Ghat <- beta Ghat + (1-beta) g g^T."""
        if not self.estimating:
            return
        if g.shape != self._point_shape:
            raise DimMismatchError(f"gradient shape {g.shape} vs preconditioner shape {self._point_shape}")
        if self.bias_corrected:
            self._beta_prod *= beta
        self._g_hat *= beta
        if self.diagonal:
            self._g_hat += (1.0 - beta) * g * g
        else:
            update = g[..., :, None] * g[..., None, :]
            update *= 1.0 - beta
            self._g_hat += update
        self._spectrum_cache = None

    def keep(self, rows) -> None:
        """Keep only the seeds marked in the boolean mask ``rows`` (batched form)."""
        self._g_hat = self._g_hat[rows]
        if self._spectrum_cache is not None:
            a, v = self._spectrum_cache
            self._spectrum_cache = (a[rows], None if v is None else v[rows])
        self._point_shape = (int(np.count_nonzero(rows)), self.dim)

    def direction(self, problem, x, g):
        """The preconditioned direction A g, for a vector g or a stack of them."""
        if self.kind.variant == IDENTITY:
            return g
        a, v = self.spectrum(problem, x)
        if v is None:
            return a * g
        return np.matvec(v, a * np.vecmat(g, v))

    def est_error(self, problem, x, spectrum=None):
        """||Ahat - A(x)||_op with the idealized form as ground truth; 0 unless estimating.

        ``spectrum``, when given, is Ahat's (a, V) as ``spectrum`` returned
        it, kept from earlier estimates (one row per point of x); by default
        it is the current estimate's.
        """
        if not self.estimating:
            return 0.0
        a, v = self.spectrum(problem, x) if spectrum is None else spectrum
        a_ref, v_ref = self._ideal_spectrum(problem, x)
        if v is None:
            return np.abs(a - a_ref).max(axis=-1)
        diff = _dense(a, v) - _dense(a_ref, v_ref)
        return np.abs(eigvalsh(diff)).max(axis=-1)

    def spectrum(self, problem, x):
        """(a, V) with A = V diag(a) V^T, of a non-identity form; V is None when diagonal."""
        if not self.estimating:
            return self._ideal_spectrum(problem, x)
        if self._spectrum_cache is None:
            # Dividing by 1 changes no bit: skip the copy when uncorrected.
            g_hat = self._g_hat / (1.0 - self._beta_prod) if self._beta_prod < 1.0 else self._g_hat
            self._spectrum_cache = self._power(g_hat, "Ghat")
        return self._spectrum_cache

    def _ideal_spectrum(self, problem, x, seeds=None):
        """The (a, V) of A(x) from the oracle G(x); ``seeds`` as in ``_power``."""
        G = problem.exact_G(x)
        covariance = self.kind.variant == COVARIANCE_FULL_MATRIX
        if self.diagonal:
            base = np.diagonal(G, axis1=-2, axis2=-1)
            if covariance:
                base = base - problem.grad(x) ** 2
        else:
            base = G
            if covariance:
                gr = problem.grad(x)
                base = base - gr[..., :, None] * gr[..., None, :]
        return self._power(base, "G", seeds)

    def _power(self, base, name: str, seeds=None):
        """(lambda^exponent, V) for the eigenpairs of base + eps I; V is None when diagonal. A lambda that
        is not positive, NaN included, raises a SingularMatrixError that marks its rows. A stack is one
        matrix per seed or, with ``seeds``, matrix i is seed seeds[i]'s, as ``linalg.eigh`` takes it."""
        if self.diagonal:
            lam, v = base + self.kind.epsilon, None
        else:
            w, v = eigh(base, seeds)
            lam = w + self.kind.epsilon
        if not (lam > 0.0).all():
            bad = ~(lam > 0.0).all(axis=-1)
            raise SingularMatrixError(f"lambda_min({name}) + eps not positive", rows=bad if bad.ndim else None)
        return lam**self.kind.exponent, v


def _dense(a, v):
    """V diag(a) V^T from the output of ``_power``, for one matrix or a stack."""
    if v is None:
        out = np.zeros(a.shape + a.shape[-1:])
        diag = np.arange(a.shape[-1])
        out[..., diag, diag] = a
        return out
    return (v * a[..., None, :]) @ v.swapaxes(-1, -2)


def constants(problem, x, kind: PreconditionerKind) -> PreconditionerConstants:
    """The constants of the idealized preconditioner of ``kind`` at x, with eps = kind.epsilon.

    Identity (A = I, whatever the exponent): nu1 = nu2 = lambda_- = 1,
    c3 = tr G, c4 = lambda_min(G). Full matrix, A = (G + eps I)^-1/2, and
    diagonal, A = diag(G + eps)^-1/2, from the extreme eigenvalues lo, hi
    of G (of diag G when diagonal): nu1 = nu2 = (lo + eps)^-1/2,
    c3 = d hi/(hi + eps), c4 = corr lo/(lo + eps), lambda_- = (hi + eps)^-1/2,
    where corr = lambda_min(G diag(G)^-1) when diagonal and 1 otherwise.
    The covariance variant and exponent -1 have no constants.
    """
    if kind.variant == COVARIANCE_FULL_MATRIX or (kind.variant != IDENTITY and kind.exponent != -0.5):
        raise InvalidParamError(f"the {kind.variant} preconditioner with exponent {kind.exponent} has no constants")
    G = problem.exact_G(x)
    eps = kind.epsilon
    if kind.variant == DIAGONAL:
        dg = np.diagonal(G)
        lo, hi = float(dg.min()), float(dg.max())
        if lo <= 0.0:
            raise SingularMatrixError("diagonal entries of G must be positive")
        # lambda_min(G diag(G)^-1) via the similar symmetric D^-1/2 G D^-1/2.
        dinvsqrt = 1.0 / np.sqrt(dg)
        corr = float(eigvalsh(G * np.outer(dinvsqrt, dinvsqrt))[0])
    else:
        w = eigh(G)[0]
        lo, hi, corr = float(w[0]), float(w[-1]), 1.0
    if kind.variant == IDENTITY:
        c3 = float(np.trace(G))
        return PreconditionerConstants(1.0, 1.0, c3, lo, 1.0, math.sqrt(c3))
    if lo + eps <= 0.0:
        raise SingularMatrixError("lambda_min(G) + eps must be positive")
    nu = (lo + eps) ** -0.5
    c3 = problem.dim * hi / (eps + hi)
    c4 = corr * lo / (lo + eps)
    lambda_minus = (hi + eps) ** -0.5
    return PreconditionerConstants(nu, nu, c3, c4, lambda_minus, math.sqrt(c3))
