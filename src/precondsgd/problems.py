"""Stochastic optimization test problems.

Each problem exposes the exact objective and gradient, an unbiased
stochastic-gradient sampler driven by a caller-owned RNG, and, where it
is available in closed form, the exact second-moment matrix
G(x) = E[g g^T] and the Hessian. The exact oracles take one point of
shape (d,) or a (B, d) stack of points, one row per seed of a run, and
give each row the bits of its own single-point call. Problems are
immutable; parallel runs should use independent RNG streams.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, InvalidParamError, MissingOracleError
from .linalg import SymMatrix


@dataclass(frozen=True)
class ProblemSmoothness:
    """Smoothness/noise constants a problem declares, where known.

    L: gradient-Lipschitz constant; rho: Hessian-Lipschitz constant;
    L_G: Lipschitz constant of x -> G(x); sigma_max: conditional
    per-sample variance bound; R: per-sample deviation bound; M_step:
    uniform bound on the preconditioned step ||A g||. Any field may be
    None when the constant is unknown or unbounded on the full domain.
    """

    L: float | None = None
    rho: float | None = None
    L_G: float | None = None
    sigma_max: float | None = None
    R: float | None = None
    M_step: float | None = None

    def __post_init__(self):
        for name in ("L", "rho", "L_G", "sigma_max", "R", "M_step"):
            v = getattr(self, name)
            if v is not None and (not np.isfinite(v) or v < 0):
                raise InvalidParamError(f"smoothness constant {name} must be finite and >= 0")


class StochasticProblem:
    """Base class: objective, exact gradient, stochastic gradient sampler.

    Subclasses must set ``dim`` and implement ``eval_f``, ``grad`` and
    ``sample_grad``. ``exact_G`` and ``hessian`` raise MissingOracleError
    unless overridden. ``eval_f``, ``grad``, ``exact_G`` and ``hessian``
    take a point x of shape (d,) or a stack of shape (B, d): ``eval_f``
    then returns a float or B values, ``grad`` the same shape as x, and
    the matrix oracles a SymMatrix of one matrix (which, for a stack,
    applies to every row) or a (B, d, d) stack. ``sample_grad`` takes one
    point. ``clip_bounds``, when set, asks the optimizer to project
    iterates onto [lo, hi] after every step.
    """

    dim: int = 0
    smoothness: ProblemSmoothness = ProblemSmoothness()
    clip_bounds: tuple[float, float] | None = None
    has_exact_g: bool = False
    has_hessian: bool = False

    def eval_f(self, x) -> float:
        raise NotImplementedError

    def grad(self, x) -> np.ndarray:
        raise NotImplementedError

    def sample_grad(self, x, rng) -> np.ndarray:
        raise NotImplementedError

    def sample_grad_batch(self, x, n, rng) -> np.ndarray:
        """n stochastic gradients at x, shape (n, dim). Default: loop."""
        return np.stack([self.sample_grad(x, rng) for _ in range(n)])

    def exact_G(self, x) -> SymMatrix:
        raise MissingOracleError(f"{type(self).__name__} has no exact second-moment oracle")

    def hessian(self, x) -> SymMatrix:
        raise MissingOracleError(f"{type(self).__name__} has no Hessian oracle")

    def _check_dim(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise InvalidParamError(f"expected a point of shape ({self.dim},) or a stack (B, {self.dim}), got {x.shape}")
        return x


class SaddleProblem2D(StochasticProblem):
    """2-D saddle with ill-conditioned gradient noise.

    f(x) = 1/2 x^T H x + E[b]^T x + sum_j x_j^10 with H = diag(1, -0.1)
    and b drawn uniformly from a 4-point set with mean 0 and covariance
    diag(1, 0.01), so the origin is a saddle with almost no noise along
    the escape direction. The degree-10 regularizer keeps f coercive.
    """

    H_DIAG = np.array([1.0, -0.1])
    # Mean exactly 0, covariance exactly diag(1, 0.01).
    B_SUPPORT = np.array(
        [[1.0, 0.1], [1.0, -0.1], [-1.0, 0.1], [-1.0, -0.1]]
    )

    dim = 2
    has_exact_g = True
    has_hessian = True

    def __init__(self):
        self.B_SUPPORT.setflags(write=False)
        self.H_DIAG.setflags(write=False)
        self._noise_cov = np.diag([1.0, 0.01])

    def eval_f(self, x):
        x = self._check_dim(x)
        f = 0.5 * np.vecdot(self.H_DIAG * x, x) + np.sum(x**10, axis=-1)
        return float(f) if x.ndim == 1 else f

    def grad(self, x) -> np.ndarray:
        x = self._check_dim(x)
        return self.H_DIAG * x + 10.0 * x**9

    def sample_grad(self, x, rng) -> np.ndarray:
        b = self.B_SUPPORT[rng.integers(4)]
        return self.grad(x) + b

    def sample_grad_batch(self, x, n, rng) -> np.ndarray:
        b = self.B_SUPPORT[rng.integers(4, size=n)]
        return self.grad(x)[None, :] + b

    def exact_G(self, x) -> SymMatrix:
        g = self.grad(x)
        return SymMatrix(_outer(g) + self._noise_cov)

    def hessian(self, x) -> SymMatrix:
        x = self._check_dim(x)
        h = np.zeros(x.shape + (2,))
        h[..., [0, 1], [0, 1]] = self.H_DIAG + 90.0 * x**8
        return SymMatrix(h)


class CounterexampleProblem(StochasticProblem):
    """1-D convex problem on [-1, 1] that defeats EMA-estimated RMSProp.

    The stochastic oracle returns gradient C with probability
    p = (1+zeta)/(C+1) and -1 otherwise, so F(x) = zeta*x is minimized at
    x = -1 while E[g^2] = C(1+zeta) - zeta is constant in x. Domain
    projection is applied by the optimizer via ``clip_bounds``.
    """

    dim = 1
    has_exact_g = True
    has_hessian = True
    clip_bounds = (-1.0, 1.0)

    def __init__(self, C: float, zeta: float):
        if not C > 1.0:
            raise InvalidParamError("need C > 1")
        if not 0.0 < zeta < C:
            raise InvalidParamError("need 0 < zeta < C")
        self.C = float(C)
        self.zeta = float(zeta)
        self.p = (1.0 + zeta) / (C + 1.0)
        # Constant in x: one matrix serves every point of a stack.
        self._G = SymMatrix([[C * (1.0 + zeta) - zeta]])
        self._H = SymMatrix([[0.0]])

    def eval_f(self, x):
        x = self._check_dim(x)
        f = self.zeta * x[..., 0]
        return float(f) if x.ndim == 1 else f

    def grad(self, x) -> np.ndarray:
        return np.full(self._check_dim(x).shape, self.zeta)

    def sample_grad(self, x, rng) -> np.ndarray:
        self._check_dim(x)
        g = self.C if rng.random() < self.p else -1.0
        return np.array([g])

    def sample_grad_batch(self, x, n, rng) -> np.ndarray:
        self._check_dim(x)
        g = np.where(rng.random(n) < self.p, self.C, -1.0)
        return g[:, None]

    def exact_G(self, x) -> SymMatrix:
        self._check_dim(x)
        return self._G

    def hessian(self, x) -> SymMatrix:
        self._check_dim(x)
        return self._H


class QuadraticGaussianProblem(StochasticProblem):
    """f(x) = 1/2 x^T H x with additive Gaussian gradient noise.

    sample_grad = Hx + N(0, noise_cov), so G(x) = Hx x^T H + noise_cov in
    closed form. The workhorse fixture for the convergence theorems.
    """

    has_exact_g = True
    has_hessian = True

    def __init__(self, dim: int, H, noise_cov):
        if dim < 1:
            raise InvalidParamError("dim must be >= 1")
        self.dim = int(dim)
        h = H.a if isinstance(H, SymMatrix) else np.asarray(H, dtype=np.float64)
        c = noise_cov.a if isinstance(noise_cov, SymMatrix) else np.asarray(noise_cov, dtype=np.float64)
        if h.shape != (dim, dim) or c.shape != (dim, dim):
            raise InvalidParamError("H and noise_cov must be dim x dim")
        self._H = SymMatrix(h)
        self._cov = SymMatrix(c)
        w, v = self._cov.eigendecomposition()
        if w[0] < -1e-12 * max(1.0, w[-1]):
            raise InvalidParamError("noise_cov must be positive semidefinite")
        # PSD factor (handles singular covariances, unlike Cholesky).
        self._noise_factor = v * np.sqrt(np.maximum(w, 0.0))
        hw = self._H.eigendecomposition().eigenvalues
        self.smoothness = ProblemSmoothness(L=float(np.max(np.abs(hw))), rho=0.0)

    def eval_f(self, x):
        x = self._check_dim(x)
        f = 0.5 * np.vecdot(x, np.matvec(self._H.a, x))
        return float(f) if x.ndim == 1 else f

    def grad(self, x) -> np.ndarray:
        return np.matvec(self._H.a, self._check_dim(x))

    def sample_grad(self, x, rng) -> np.ndarray:
        return self.grad(x) + self._noise_factor @ rng.standard_normal(self.dim)

    def sample_grad_batch(self, x, n, rng) -> np.ndarray:
        z = rng.standard_normal((n, self.dim))
        return self.grad(x)[None, :] + z @ self._noise_factor.T

    def exact_G(self, x) -> SymMatrix:
        g = self.grad(x)
        return SymMatrix(_outer(g) + self._cov.a)

    def hessian(self, x) -> SymMatrix:
        self._check_dim(x)
        return self._H


def _outer(g):
    """g g^T of a vector, or of each row of a stack."""
    return g[..., :, None] * g[..., None, :]


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class LogisticRegressionProblem(StochasticProblem):
    """Mean cross-entropy of a linear classifier on a fixed dataset.

    Minibatch gradients are uniform without-replacement batches; with
    batch equal to the sample count the sampler reproduces the exact
    gradient (same summation order, no RNG draw). No exact second-moment
    oracle.
    """

    has_exact_g = False
    has_hessian = True

    def __init__(self, features, labels, batch: int):
        X = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise DataFormatError(f"features {X.shape} and labels {y.shape} do not align")
        if X.shape[0] == 0:
            raise DataFormatError("dataset is empty")
        if not np.all(np.isin(y, (0.0, 1.0))):
            raise DataFormatError("labels must be 0/1")
        if not 1 <= batch <= X.shape[0]:
            raise InvalidParamError(f"batch must be in [1, {X.shape[0]}]")
        self._X = X
        self._y = y
        self.batch = int(batch)
        self.n_samples = X.shape[0]
        self.dim = X.shape[1]

    # X @ x has no stacked form with the bits of the single product, so
    # the exact oracles take a stack one row at a time.

    def eval_f(self, x):
        x = self._check_dim(x)
        if x.ndim == 2:
            return np.array([self.eval_f(row) for row in x])
        z = self._X @ x
        # mean of log(1 + e^z) - y z, computed stably
        return float(np.mean(np.logaddexp(0.0, z) - self._y * z))

    def grad(self, x) -> np.ndarray:
        x = self._check_dim(x)
        if x.ndim == 2:
            return np.array([self.grad(row) for row in x])
        z = self._X @ x
        return self._X.T @ (_sigmoid(z) - self._y) / self.n_samples

    def _batch_grad(self, x, idx) -> np.ndarray:
        Xb = self._X[idx]
        z = Xb @ x
        return Xb.T @ (_sigmoid(z) - self._y[idx]) / len(idx)

    def sample_grad(self, x, rng) -> np.ndarray:
        x = self._check_dim(x)
        if self.batch == self.n_samples:
            return self.grad(x)
        idx = rng.choice(self.n_samples, size=self.batch, replace=False)
        return self._batch_grad(x, idx)

    def hessian(self, x) -> SymMatrix:
        x = self._check_dim(x)
        if x.ndim == 2:
            return SymMatrix([self._hessian_entries(row) for row in x])
        return SymMatrix(self._hessian_entries(x))

    def _hessian_entries(self, x) -> np.ndarray:
        s = _sigmoid(self._X @ x)
        w = s * (1.0 - s)
        return (self._X.T * w) @ self._X / self.n_samples


def make_saddle_problem() -> SaddleProblem2D:
    """The 2-D saddle-escape experiment problem."""
    return SaddleProblem2D()


def make_counterexample(C: float, zeta: float) -> CounterexampleProblem:
    """The non-convergence counterexample with gap zeta and spike C."""
    return CounterexampleProblem(C, zeta)


def make_quadratic_gaussian(dim: int, H, noise_cov) -> QuadraticGaussianProblem:
    """Quadratic objective with Gaussian gradient noise of known covariance."""
    return QuadraticGaussianProblem(dim, H, noise_cov)


def make_logistic_regression(features, labels, batch: int) -> LogisticRegressionProblem:
    """Binary logistic regression with uniform minibatch gradients."""
    return LogisticRegressionProblem(features, labels, batch)


def make_synthetic_logistic(
    n_samples: int,
    n_features: int,
    seed: int,
    label_noise: float = 0.05,
    batch: int = 100,
    feature_scale: float = 1.0,
) -> LogisticRegressionProblem:
    """Separable-with-noise logistic regression instance.

    Gaussian features (scaled by ``feature_scale``, which sets how close
    the population optimum sits to the origin), labels from a random
    linear separator with a ``label_noise`` fraction flipped, generated
    deterministically from ``seed`` (independent of any run RNG).
    """
    if not 0.0 <= label_noise < 0.5:
        raise InvalidParamError("label_noise must be in [0, 0.5)")
    if feature_scale <= 0.0:
        raise InvalidParamError("feature_scale must be positive")
    rng = np.random.Generator(np.random.Philox(seed))
    X = rng.standard_normal((n_samples, n_features)) * feature_scale
    w_star = rng.standard_normal(n_features)
    y = (X @ w_star > 0).astype(np.float64)
    n_flip = int(round(label_noise * n_samples))
    if n_flip:
        flip = rng.choice(n_samples, size=n_flip, replace=False)
        y[flip] = 1.0 - y[flip]
    return LogisticRegressionProblem(X, y, batch)


def load_dataset_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Load a (features, labels) pair from CSV.

    Expected format: UTF-8, header row, feature columns first, final
    column named ``label``, decimal-point numbers.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        if not header or header[-1] != "label":
            raise DataFormatError(f"{path}: last column must be named 'label'")
        n_cols = len(header)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != n_cols:
                raise DataFormatError(f"{path}:{lineno}: expected {n_cols} columns, got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=np.float64)
    return data[:, :-1], data[:, -1]
