"""Preconditioners and their scalar constants.

One type, ``Preconditioner``, builds A = (G + eps I)^exponent for every
form the paper uses: the identity, the idealized A(x) from the exact
second-moment oracle G(x), and the estimate from the EMA
Ghat_t = beta_t Ghat_{t-1} + (1-beta_t) g g^T, each in a diagonal and a
full (or covariance) variant. Also calculators for the (nu1, nu2, c3, c4,
lambda_-) constants that the convergence rates are expressed in, for the
identity / full-matrix / diagonal variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatchError,
    InvalidParamError,
    MissingOracleError,
    SingularMatrixError,
)
from .linalg import SymMatrix, eigh

IDENTITY = "identity"
FULL_MATRIX = "full_matrix"
DIAGONAL = "diagonal"
COVARIANCE_FULL_MATRIX = "covariance_full_matrix"
VARIANTS = (IDENTITY, FULL_MATRIX, DIAGONAL, COVARIANCE_FULL_MATRIX)

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


@dataclass(frozen=True)
class PreconditionerConstants:
    """Scalar summary (nu1, nu2, c3, c4, lambda_-, M) of a preconditioner.

    nu1/nu2 relate ||A v|| to ||A^1/2 v||, c3 bounds the rescaled noise
    magnitude E||A g||^2, c4 lower-bounds lambda_min(A G A^T), lambda_-
    lower-bounds lambda_min(A). M_bound is the uniform step bound ||A g||,
    problem-specific; calculators default it to sqrt(c3), which is the
    scale it should have.
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
    ``direction(problem, x, g)`` returns A g, ``dense(problem, x)`` returns
    A, and ``est_error(problem, x)`` returns ||Ahat - A(x)||_op against the
    idealized form. The estimated form keeps its eigendecomposition until
    the next ``observe``. A SingularMatrixError marks in ``rows`` the seeds
    whose matrix failed; ``keep`` drops seeds. Instances are mutable: use
    one per run.
    """

    def __init__(self, kind: PreconditionerKind, dim: int, source: str = "idealized",
                 bias_corrected: bool = False, batch: int | None = None):
        if source not in ("idealized", "estimated"):
            raise InvalidParamError(f"unknown preconditioner source {source!r}")
        if dim < 1:
            raise InvalidParamError("dim must be >= 1")
        if batch is not None and batch < 1:
            raise InvalidParamError("batch must be >= 1")
        self.kind = kind
        self.dim = dim
        self.source = source
        self.batch = batch
        self.estimating = source == "estimated" and kind.variant != IDENTITY
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
        self.batch = int(np.count_nonzero(rows))
        self._point_shape = (self.batch, self.dim)

    def direction(self, problem, x, g):
        """The preconditioned direction A g, for a vector g or a stack (use ``dense`` for A itself)."""
        if self.kind.variant == IDENTITY:
            return g
        a, v = self._spectrum(problem, x)
        if v is None:
            return a * g
        return np.matvec(v, a * np.vecmat(g, v))

    def dense(self, problem, x) -> np.ndarray:
        """A as a dense matrix, or a stack of them."""
        if self.kind.variant == IDENTITY:
            return np.eye(self.dim)
        return _dense(*self._spectrum(problem, x))

    def est_error(self, problem, x):
        """||Ahat - A(x)||_op with the idealized form as ground truth; 0 unless estimating."""
        if not self.estimating:
            return 0.0
        a, v = self._spectrum(problem, x)
        a_ref, v_ref = self._ideal_spectrum(problem, x)
        if v is None:
            return np.abs(a - a_ref).max(axis=-1)
        diff = _dense(a, v) - _dense(a_ref, v_ref)
        return np.abs(np.linalg.eigvalsh(diff)).max(axis=-1)

    def _spectrum(self, problem, x):
        if not self.estimating:
            return self._ideal_spectrum(problem, x)
        if self._spectrum_cache is None:
            # Dividing by 1 changes no bit: skip the copy when uncorrected.
            g_hat = self._g_hat / (1.0 - self._beta_prod) if self._beta_prod < 1.0 else self._g_hat
            self._spectrum_cache = self._power(g_hat, "Ghat")
        return self._spectrum_cache

    def _ideal_spectrum(self, problem, x):
        if not problem.has_exact_g:
            raise MissingOracleError("idealized preconditioner needs an exact_G oracle")
        G = problem.exact_G(x)
        covariance = self.kind.variant == COVARIANCE_FULL_MATRIX
        if self.diagonal:
            base = G.diagonal()
            if covariance:
                base = base - problem.grad(x) ** 2
        else:
            base = G.a
            if covariance:
                gr = problem.grad(x)
                base = base - gr[..., :, None] * gr[..., None, :]
        return self._power(base, "G")

    def _power(self, base, name: str):
        """(lambda^exponent, V) for the eigenpairs of base + eps I; V is None when diagonal."""
        if self.diagonal:
            lam, v = base + self.kind.epsilon, None
        else:
            w, v = eigh(base)
            lam = w + self.kind.epsilon
        if (lam <= 0.0).any():
            bad = (lam <= 0.0).any(axis=-1)
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


def _require_exact_g(problem, x) -> SymMatrix:
    if not problem.has_exact_g:
        raise MissingOracleError("constants need an exact_G oracle")
    return problem.exact_G(x)


def constants_identity(problem, x, m_bound: float | None = None) -> PreconditionerConstants:
    """Constants for A = I: nu1 = nu2 = lambda_- = 1, c3 = tr G, c4 = lambda_min(G)."""
    G = _require_exact_g(problem, x)
    c3 = float(np.trace(G.a))
    return PreconditionerConstants(
        nu1=1.0,
        nu2=1.0,
        c3=c3,
        c4=G.lambda_min(),
        lambda_minus=1.0,
        M_bound=math.sqrt(c3) if m_bound is None else m_bound,
    )


def constants_full_matrix(problem, x, eps: float, m_bound: float | None = None) -> PreconditionerConstants:
    """Constants for A = (G + eps I)^-1/2."""
    G = _require_exact_g(problem, x)
    lmin, lmax = G.lambda_min(), G.lambda_max()
    if lmin + eps <= 0.0:
        raise SingularMatrixError("lambda_min(G) + eps must be positive")
    nu = (lmin + eps) ** -0.5
    c3 = problem.dim * lmax / (eps + lmax)
    return PreconditionerConstants(
        nu1=nu,
        nu2=nu,
        c3=c3,
        c4=lmin / (lmin + eps),
        lambda_minus=(lmax + eps) ** -0.5,
        M_bound=math.sqrt(c3) if m_bound is None else m_bound,
    )


def constants_diagonal(problem, x, eps: float, m_bound: float | None = None) -> PreconditionerConstants:
    """Constants for A = diag(G + eps)^-1/2 (coincides with full-matrix for diagonal G)."""
    G = _require_exact_g(problem, x)
    dg = G.diagonal()
    mn, mx = float(dg.min()), float(dg.max())
    if mn + eps <= 0.0 or mn <= 0.0:
        raise SingularMatrixError("diagonal entries of G (+ eps) must be positive")
    # lambda_min(G diag(G)^-1) via the similar symmetric D^-1/2 G D^-1/2.
    dinvsqrt = 1.0 / np.sqrt(dg)
    normalized = G.a * np.outer(dinvsqrt, dinvsqrt)
    corr_lmin = float(np.linalg.eigvalsh(normalized)[0])
    c3 = problem.dim * mx / (eps + mx)
    return PreconditionerConstants(
        nu1=(eps + mn) ** -0.5,
        nu2=(eps + mn) ** -0.5,
        c3=c3,
        c4=corr_lmin * mn / (eps + mn),
        lambda_minus=(eps + mx) ** -0.5,
        M_bound=math.sqrt(c3) if m_bound is None else m_bound,
    )


def second_order_complexity_factor(k: PreconditionerConstants) -> float:
    """The preconditioner-dependent factor nu1^4 nu2^4 c3^4 / (lambda_-^10 c4^4)."""
    for name in ("nu1", "nu2", "c3", "c4", "lambda_minus"):
        if getattr(k, name) <= 0.0:
            raise InvalidParamError(f"constant {name} must be positive")
    return (k.nu1**4 * k.nu2**4 * k.c3**4) / (k.lambda_minus**10 * k.c4**4)


def estimate_m_bound(problem, kind: PreconditionerKind, x, n_samples: int, rng) -> float:
    """Monte-Carlo estimate of the uniform step bound M = max ||A g||.

    Returns the empirical maximum over ``n_samples`` draws with the
    idealized preconditioner at x. The theorems assume a deterministic
    bound; for unbounded noise this is a working surrogate on the same
    scale as sqrt(c3).
    """
    if n_samples < 1:
        raise InvalidParamError("n_samples must be >= 1")
    A = Preconditioner(kind, problem.dim).dense(problem, x)
    gs = problem.sample_grad_batch(x, n_samples, rng)
    return float(np.max(np.linalg.norm(gs @ A.T, axis=1)))
