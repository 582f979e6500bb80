"""Test helpers: seeded random instances and oracles for the paper's auxiliary lemmas.

No run of the package uses anything here. The random-instance helpers
and the property-test settings are declared once for every test module.
Each lemma oracle evaluates both sides of one inequality exactly (or by
Monte Carlo where the statement is an expectation) and returns an
InequalityCase, so tests can assert lhs <= rhs on randomized inputs.
Deterministic cases carry only rounding slack; Monte-Carlo cases build a
4-standard-error margin into the right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from hypothesis import settings

from precondsgd import InvalidParamError, SingularMatrixError

# Relative slack for deterministic inequalities: rounding only.
REL_SLACK = 1e-12

# Property tests draw the same examples on every run and store none.
PROPERTY = settings(derandomize=True, database=None, deadline=None)


def dense(pre, problem, x):
    """A of a Preconditioner as a dense matrix, or a stack of them: V diag(a) V^T of its spectrum."""
    from precondsgd.precond import _dense

    if pre.kind.variant == "identity":
        return np.eye(pre.dim)
    return _dense(*pre.spectrum(problem, x))


def rng_for(seed):
    """The Philox stream of ``runner.make_rng``."""
    return np.random.Generator(np.random.Philox(seed))


def random_spd(rng, dim, lam_lo=0.1, lam_hi=3.0):
    """Q diag(lam) Q^T with a random orthogonal Q and dim eigenvalues uniform in [lam_lo, lam_hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    lam = rng.uniform(lam_lo, lam_hi, size=dim)
    return (q * lam) @ q.T


def random_sym_with_norm(rng, dim, norm):
    """Random symmetric matrix with the given operator norm (zero norm allowed)."""
    raw = rng.standard_normal((dim, dim))
    sym = (raw + raw.T) / 2.0
    cur = float(np.max(np.abs(np.linalg.eigvalsh(sym))))
    if cur == 0.0:
        return np.zeros((dim, dim))
    return sym * (norm / cur)


def random_spd_spanning(rng, dim, lam_lo, lam_hi):
    """Random SPD matrix whose spectrum spans [lam_lo, lam_hi] exactly."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    if dim == 1:
        lam = np.array([lam_lo])
    else:
        lam = np.sort(rng.uniform(lam_lo, lam_hi, size=dim))
        lam[0], lam[-1] = lam_lo, lam_hi
    return (q * lam) @ q.T


def sym_power(m: np.ndarray, p: float, clamp_floor: float = 0.0) -> np.ndarray:
    """Spectral power V diag(max(lambda_i, clamp_floor)^p) V^T of a symmetric array.

    Eigenvalues are clamped at ``clamp_floor`` before the power is taken.
    Raises SingularMatrixError when a negative power is requested with
    ``clamp_floor`` 0 and a nonpositive eigenvalue present.
    """
    if clamp_floor < 0.0:
        raise InvalidParamError("clamp_floor must be nonnegative")
    w, v = np.linalg.eigh(m)
    lam = np.maximum(w, clamp_floor)
    if p < 0.0 and np.any(lam <= 0.0):
        raise SingularMatrixError(
            f"negative power {p} of a matrix with min clamped eigenvalue {lam.min()}"
        )
    return (v * lam**p) @ v.T


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
class InequalityCase:
    """One evaluated inequality lhs <= rhs with its inputs for diagnostics."""

    name: str
    lhs: float
    rhs: float
    inputs: dict = field(default_factory=dict)

    def holds(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + REL_SLACK)


def series_bounds(beta_pos: float, t: int) -> tuple[InequalityCase, InequalityCase, InequalityCase]:
    """Three geometric-series bounds for growth factor (1 + beta_pos).

    sum (1+b)^(t-i)       <= 2 b^-1 (1+b)^t
    sum (1+b)^(t-i) * i   <= 2 b^-2 (1+b)^t
    sum (1+b)^(t-i) * i^2 <= 6 b^-3 (1+b)^t

    ``beta_pos`` is the growth-factor argument of these sums, distinct
    from the EMA parameter beta.
    """
    if not 0.0 < beta_pos < 1.0:
        raise InvalidParamError("beta_pos must be in (0, 1)")
    if t < 1:
        raise InvalidParamError("t must be >= 1")
    i = np.arange(1, t + 1, dtype=np.float64)
    pow_terms = (1.0 + beta_pos) ** (t - i)
    grow = (1.0 + beta_pos) ** t
    inputs = {"beta_pos": beta_pos, "t": t}
    return (
        InequalityCase("series_sum", float(pow_terms.sum()), 2.0 / beta_pos * grow, inputs),
        InequalityCase("series_sum_i", float((pow_terms * i).sum()), 2.0 / beta_pos**2 * grow, inputs),
        InequalityCase("series_sum_i2", float((pow_terms * i * i).sum()), 6.0 / beta_pos**3 * grow, inputs),
    )


def quadratic_sqrt_bound(A: float, B: float, C: float, z: float) -> InequalityCase:
    """sqrt(A z^2 + B z + C) <= sqrt(A) (2z + B/(2A) + sqrt(C/A)) for nonneg inputs.

    The right-hand side is evaluated with sqrt(A) sqrt(C/A) = sqrt(C): C/A
    underflows for a subnormal C, which made the rhs 0 at B = z = 0.
    """
    if A <= 0.0:
        raise InvalidParamError("A must be positive")
    if B < 0.0 or C < 0.0 or z < 0.0:
        raise InvalidParamError("B, C, z must be nonnegative")
    lhs = math.sqrt(A * z**2 + B * z + C)
    rhs = math.sqrt(A) * (2.0 * z + B / (2.0 * A)) + math.sqrt(C)
    return InequalityCase("quadratic_sqrt", lhs, rhs, {"A": A, "B": B, "C": C, "z": z})


def exp_growth_bound(x: float, C_target: float) -> InequalityCase:
    """(1+x)^t >= C for t = ceil(2 log(C) / x), 0 < x < 1, C > 1.

    (1+x)^t is evaluated as exp(t log1p(x)): 1 + x rounds to 1 for x below
    about 1e-16, which made the rhs 1.
    """
    if not 0.0 < x < 1.0:
        raise InvalidParamError("x must be in (0, 1)")
    if C_target <= 1.0:
        raise InvalidParamError("C_target must be > 1")
    t = max(1, math.ceil(2.0 * math.log(C_target) / x))
    return InequalityCase(
        "exp_growth", C_target, math.exp(t * math.log1p(x)), {"x": x, "C_target": C_target, "t": t}
    )


def inexact_noise_amplification(
    c3: float, dim: int, rng, n_samples: int = 4000
) -> InequalityCase:
    """Monte-Carlo check that a mu-perturbed preconditioner keeps E||Ahat g||^2 <= 9/4 c3.

    Builds a random positive-definite A, a symmetric perturbation of norm
    mu < lambda_min(A)/2, and a Gaussian g whose covariance is scaled so
    that E||A g||^2 equals c3 exactly; the right-hand side carries a
    4-standard-error margin.
    """
    if c3 <= 0.0:
        raise InvalidParamError("c3 must be positive")
    if dim < 1 or n_samples < 10:
        raise InvalidParamError("need dim >= 1 and n_samples >= 10")
    A = random_spd_spanning(rng, dim, 0.5, 2.0)
    lam_min = float(np.linalg.eigvalsh(A)[0])
    mu = rng.uniform(0.0, 0.5) * lam_min / 2.0 * 0.999
    E = random_sym_with_norm(rng, dim, mu)
    A_hat = A + E

    cov = random_spd_spanning(rng, dim, 0.2, 1.0)
    # Scale the gradient covariance so trace(A cov A) = c3 exactly.
    cov *= c3 / float(np.trace(A @ cov @ A))
    factor = np.linalg.cholesky(cov)
    g = rng.standard_normal((n_samples, dim)) @ factor.T
    sq = np.sum((g @ A_hat.T) ** 2, axis=1)
    mean = float(sq.mean())
    se = float(sq.std(ddof=1)) / math.sqrt(n_samples)
    return InequalityCase(
        "inexact_noise_amplification",
        mean,
        2.25 * c3 + 4.0 * se,
        {"c3": c3, "mu": mu, "dim": dim, "n_samples": n_samples},
    )


def negative_eigenvalue_bound(A: np.ndarray, H: np.ndarray) -> InequalityCase:
    """A^1/2 H A^1/2 has a negative eigenvalue of magnitude >= lambda_min(A)|lambda_min(H)| (symmetric arrays)."""
    lam_a, lam_h = float(np.linalg.eigvalsh(A)[0]), float(np.linalg.eigvalsh(H)[0])
    if lam_a <= 0.0:
        raise InvalidParamError("A must be positive definite")
    if lam_h >= 0.0:
        raise InvalidParamError("H must have a negative eigenvalue")
    a_half = sym_power(A, 0.5)
    most_negative = float(np.linalg.eigvalsh(a_half @ H @ a_half)[0])
    return InequalityCase("negative_eigenvalue", lam_a * abs(lam_h), abs(most_negative), {"dim": len(A)})


def isotropy_covariance_check(problem, x, n_samples: int, rng) -> float:
    """Max entrywise gap between Cov(G^-1/2 (g - grad)) and I - G^-1/2 grad grad^T G^-1/2.

    Raises SingularMatrixError when G(x) is numerically singular (for a
    noiseless problem the rescaling is undefined).
    """
    if n_samples < 2:
        raise InvalidParamError("n_samples must be >= 2")
    G = problem.exact_G(x)
    w = np.linalg.eigvalsh(G)
    if w[0] <= 1e-12 * max(1.0, w[-1]):
        raise SingularMatrixError("G(x) is numerically singular")
    g_inv_half = sym_power(G, -0.5)
    grad = problem.grad(x)
    u = g_inv_half @ grad
    closed_form = np.eye(problem.dim) - np.outer(u, u)
    samples = problem.sample_grad(x, rng, n_samples)
    xi = (samples - grad) @ g_inv_half.T
    empirical = xi.T @ xi / n_samples  # E[xi] = 0, so the raw second moment
    return float(np.max(np.abs(empirical - closed_form)))
