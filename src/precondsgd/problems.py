"""Stochastic optimization test problems.

Each problem exposes the exact objective and gradient, an unbiased
stochastic-gradient sampler driven by a caller-owned RNG, and, where it
is available in closed form, the exact second-moment matrix
G(x) = E[g g^T] as an array and the smallest Hessian eigenvalue
lambda_min(H(x)), the one curvature number a run reads. A problem has an
exact oracle exactly when its class defines it; the base class's raises
MissingOracleError. The exact oracles take one point of shape (d,) or a
(B, d) stack of points, one row per seed of a run, and give each row the
bits of its own single-point call. ``sample_grad`` takes one point, and
with a count n it takes n draws there: each problem writes its noise law
once, and each row has the bits of one call on the same stream.
Problems are immutable (every array they cache is read-only); parallel
runs should use independent RNG streams.

``PROBLEMS`` is the one list of the problems a config can name: it maps
each ``problem.name`` to the ``[problem]`` keys that problem requires and
to the builder that takes the ``[problem]`` dict.
"""

from __future__ import annotations

import csv
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataFormatError, InvalidParamError, MissingOracleError, NonFiniteError
from .linalg import eigh


class StochasticProblem:
    """Base class: objective, exact gradient, stochastic gradient sampler.

    Subclasses must set ``dim`` and implement ``eval_f``, ``grad`` and
    ``sample_grad``; they may define ``exact_G`` and ``hessian``, which
    here raise MissingOracleError, and ``has_exact_g``/``has_hessian``
    say whether they did. ``eval_f``, ``grad``, ``exact_G`` and ``hessian``
    take a point x of shape (d,) or a stack of shape (B, d): ``eval_f``
    then returns a float or B values, ``grad`` the same shape as x,
    ``exact_G`` the symmetric (d, d) array G(x) or a (B, d, d) stack, and
    ``hessian`` lambda_min(H(x)), a float or B values. A constant oracle
    answers a stack with one (d, d) array or one float that applies to
    every row. ``sample_grad`` takes one point x and gives one draw of
    shape (d,), or, with a count n, the (n, d) stack of n draws at x, each
    row with the bits of one call on the same stream. ``clip_bounds``,
    when set, asks the optimizer to project iterates onto [lo, hi] after
    every step.
    """

    dim: int = 0
    clip_bounds: tuple[float, float] | None = None

    @property
    def has_exact_g(self) -> bool:
        return type(self).exact_G is not StochasticProblem.exact_G

    @property
    def has_hessian(self) -> bool:
        return type(self).hessian is not StochasticProblem.hessian

    def eval_f(self, x) -> float:
        raise NotImplementedError

    def grad(self, x) -> np.ndarray:
        raise NotImplementedError

    def sample_grad(self, x, rng, n=None) -> np.ndarray:
        raise NotImplementedError

    def exact_G(self, x) -> np.ndarray:
        """G(x) = E[g g^T]: (d, d), or (B, d, d) for a stack."""
        raise MissingOracleError(f"{type(self).__name__} has no exact second-moment oracle")

    def hessian(self, x):
        """lambda_min of the Hessian at x: a float, or B values for a stack."""
        raise MissingOracleError(f"{type(self).__name__} has no Hessian oracle")

    def _check_dim(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise InvalidParamError(f"expected a point of shape ({self.dim},) or a stack (B, {self.dim}), got {x.shape}")
        return x


def _read_only(a) -> np.ndarray:
    a.setflags(write=False)
    return a


def _second_moment(g, cov) -> np.ndarray:
    """g g^T + cov, the second moment of mean g and covariance cov, for a (d,) g or a (B, d) stack.

    The sum is exactly symmetric, since floating-point products commute
    and cov is symmetric. Raises NonFiniteError (rows: the failing points
    of a stack) unless every entry is finite.
    """
    G = g[..., :, None] * g[..., None, :]
    G += cov
    if not np.isfinite(G).all():
        rows = None if g.ndim == 1 else ~np.isfinite(G).all(axis=(-2, -1))
        raise NonFiniteError("matrix entries must be finite", rows=rows)
    return G


class SaddleProblem2D(StochasticProblem):
    """2-D saddle with ill-conditioned gradient noise.

    f(x) = 1/2 x^T H x + E[b]^T x + sum_j x_j^10 with H = diag(1, -0.1)
    and b drawn uniformly from a 4-point set with mean 0 and covariance
    diag(1, 0.01), so the origin is a saddle with almost no noise along
    the escape direction. The degree-10 regularizer keeps f coercive.
    """

    H_DIAG = _read_only(np.array([1.0, -0.1]))
    # Mean exactly 0, covariance exactly diag(1, 0.01).
    B_SUPPORT = _read_only(np.array([[1.0, 0.1], [1.0, -0.1], [-1.0, 0.1], [-1.0, -0.1]]))
    NOISE_COV = _read_only(np.diag([1.0, 0.01]))

    dim = 2

    def eval_f(self, x):
        x = self._check_dim(x)
        f = 0.5 * np.vecdot(self.H_DIAG * x, x) + np.sum(x**10, axis=-1)
        return float(f) if x.ndim == 1 else f

    def grad(self, x) -> np.ndarray:
        x = self._check_dim(x)
        return self.H_DIAG * x + 10.0 * x**9

    def sample_grad(self, x, rng, n=None) -> np.ndarray:
        return self.grad(x) + self.B_SUPPORT[rng.integers(4, size=n)]

    def exact_G(self, x) -> np.ndarray:
        return _second_moment(self.grad(x), self.NOISE_COV)

    def hessian(self, x):
        """The smallest entry of the diagonal Hessian H + 90 diag(x^8): exact, with no eigh."""
        x = self._check_dim(x)
        lam = (self.H_DIAG + 90.0 * x**8).min(axis=-1)
        return float(lam) if x.ndim == 1 else lam


class CounterexampleProblem(StochasticProblem):
    """1-D convex problem on [-1, 1] that defeats EMA-estimated RMSProp.

    The stochastic oracle returns gradient C with probability
    p = (1+zeta)/(C+1) and -1 otherwise, so F(x) = zeta*x is minimized at
    x = -1 while E[g^2] = C(1+zeta) - zeta is constant in x. Domain
    projection is applied by the optimizer via ``clip_bounds``.
    """

    dim = 1
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
        self._G = _read_only(np.array([[C * (1.0 + zeta) - zeta]]))

    def eval_f(self, x):
        x = self._check_dim(x)
        f = self.zeta * x[..., 0]
        return float(f) if x.ndim == 1 else f

    def grad(self, x) -> np.ndarray:
        return np.full(self._check_dim(x).shape, self.zeta)

    def sample_grad(self, x, rng, n=None) -> np.ndarray:
        self._check_dim(x)
        return np.where(rng.random(n) < self.p, self.C, -1.0)[..., None]

    def exact_G(self, x) -> np.ndarray:
        self._check_dim(x)
        return self._G

    def hessian(self, x) -> float:
        self._check_dim(x)
        return 0.0


class QuadraticGaussianProblem(StochasticProblem):
    """f(x) = 1/2 x^T H x with additive Gaussian gradient noise.

    sample_grad = Hx + N(0, noise_cov), so G(x) = Hx x^T H + noise_cov in
    closed form. The workhorse fixture for the convergence theorems. H
    and noise_cov are stored as (M + M^T)/2, which must be finite;
    lambda_min(H) comes from one eigh, on the first ``hessian`` call.
    """

    def __init__(self, dim: int, H, noise_cov):
        if dim < 1:
            raise InvalidParamError("dim must be >= 1")
        self.dim = int(dim)
        h = np.asarray(H, dtype=np.float64)
        c = np.asarray(noise_cov, dtype=np.float64)
        if h.shape != (dim, dim) or c.shape != (dim, dim):
            raise InvalidParamError("H and noise_cov must be dim x dim")
        with np.errstate(over="ignore", invalid="ignore"):
            h, c = (h + h.T) / 2.0, (c + c.T) / 2.0
        if not (np.isfinite(h).all() and np.isfinite(c).all()):
            raise NonFiniteError("H and noise_cov entries must be finite")
        self._H = _read_only(h)
        self._cov = _read_only(c)
        self._lambda_min_h = None
        w, v = eigh(c)
        if w[0] < -1e-12 * max(1.0, w[-1]):
            raise InvalidParamError("noise_cov must be positive semidefinite")
        # PSD factor (handles singular covariances, unlike Cholesky).
        self._noise_factor = v * np.sqrt(np.maximum(w, 0.0))

    def eval_f(self, x):
        x = self._check_dim(x)
        f = 0.5 * np.vecdot(x, np.matvec(self._H, x))
        return float(f) if x.ndim == 1 else f

    def grad(self, x) -> np.ndarray:
        return np.matvec(self._H, self._check_dim(x))

    def sample_grad(self, x, rng, n=None) -> np.ndarray:
        z = rng.standard_normal(self.dim if n is None else (n, self.dim))
        # matvec gives each row of a stack the bits of one draw's F @ z; z @ F^T can differ in the last bit.
        return self.grad(x) + np.matvec(self._noise_factor, z)

    def exact_G(self, x) -> np.ndarray:
        return _second_moment(self.grad(x), self._cov)

    def hessian(self, x) -> float:
        self._check_dim(x)
        if self._lambda_min_h is None:
            self._lambda_min_h = float(eigh(self._H)[0][0])
        return self._lambda_min_h


def _sigmoid(z):
    """1/(1 + e^-z), computed as e^min(z, 0)/(1 + e^-|z|) so that no exp overflows.

    The numerator is exactly 1 where z >= 0 and e^z = e^-|z| elsewhere,
    the bits of where(z >= 0, 1, e^-|z|) / (1 + e^-|z|) for every z but a
    signaling NaN, which no product X @ x holds. ``copysign(z, -1)`` is
    -|z| bit for bit. ``fmin`` gives 0 where z is NaN: the NaN result then
    comes from the denominator, with the sign bit of -|z|, as in the where
    form, while ``minimum`` would pass on z's NaN with z's sign. z is left
    as it is; the temporaries are updated in place.
    """
    e = np.copysign(z, -1.0)
    np.exp(e, out=e)
    e += 1.0
    s = np.fmin(z, 0.0)
    np.exp(s, out=s)
    s /= e
    return s


class LogisticRegressionProblem(StochasticProblem):
    """Mean cross-entropy of a linear classifier on a fixed dataset.

    Minibatch gradients are uniform without-replacement batches of
    ``batch`` samples, by default all of them; with batch equal to the
    sample count the sampler reproduces the exact gradient (same summation
    order, no RNG draw). No exact second-moment oracle.
    """

    def __init__(self, features, labels, batch: int | None = None):
        X = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise DataFormatError(f"features {X.shape} and labels {y.shape} do not align")
        if X.shape[0] == 0:
            raise DataFormatError("dataset is empty")
        if X.shape[1] == 0:
            raise DataFormatError("dataset has no feature columns")
        if not np.all(np.isin(y, (0.0, 1.0))):
            raise DataFormatError("labels must be 0/1")
        finite = np.isfinite(X)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise DataFormatError(f"features must be finite: row {row} (counting from 0) holds {X[row, col]}")
        batch = X.shape[0] if batch is None else batch
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
        return self._batch_grad(x, None)

    def _batch_grad(self, x, idx) -> np.ndarray:
        """The mean gradient over the rows of the indices ``idx``, or over every row if idx is None."""
        Xb, yb = (self._X, self._y) if idx is None else (self._X.take(idx, axis=0), self._y.take(idx))
        residual = _sigmoid(Xb @ x)
        residual -= yb
        g = Xb.T @ residual
        g /= len(Xb)
        return g

    def sample_grad(self, x, rng, n=None) -> np.ndarray:
        x = self._check_dim(x)
        if n is not None:  # one minibatch at a time: choice(replace=False) draws a varying amount of the stream
            return np.array([self.sample_grad(x, rng) for _ in range(n)]).reshape(n, self.dim)
        if self.batch == self.n_samples:
            return self.grad(x)
        idx = rng.choice(self.n_samples, size=self.batch, replace=False)
        return self._batch_grad(x, idx)

    def hessian(self, x):
        """lambda_min of (X^T diag(w) X)/n, symmetrized first: the product is not bitwise symmetric."""
        x = self._check_dim(x)
        h = np.array([self._hessian_entries(row) for row in x]) if x.ndim == 2 else self._hessian_entries(x)
        lam = eigh((h + h.swapaxes(-1, -2)) / 2.0)[0][..., 0]
        return float(lam) if x.ndim == 1 else lam

    def _hessian_entries(self, x) -> np.ndarray:
        s = _sigmoid(self._X @ x)
        w = s * (1.0 - s)
        return (self._X.T * w) @ self._X / self.n_samples


def make_synthetic_logistic(
    n_samples: int,
    n_features: int,
    seed: int,
    label_noise: float = 0.05,
    batch: int | None = None,
) -> LogisticRegressionProblem:
    """Separable-with-noise logistic regression instance.

    Standard Gaussian features, labels from a random linear separator
    with a ``label_noise`` fraction flipped, generated deterministically
    from ``seed`` (independent of any run RNG).
    Minibatches of ``batch`` samples (default: 100, or all if fewer).
    """
    for name, value in (("n_samples", n_samples), ("n_features", n_features), ("seed", seed)):
        if value < 0:
            raise InvalidParamError(f"{name} must be >= 0, got {value}")
    if not 0.0 <= label_noise < 0.5:
        raise InvalidParamError("label_noise must be in [0, 0.5)")
    rng = np.random.Generator(np.random.Philox(seed))
    X = rng.standard_normal((n_samples, n_features))
    w_star = rng.standard_normal(n_features)
    y = (X @ w_star > 0).astype(np.float64)
    n_flip = int(round(label_noise * n_samples))
    if n_flip:
        flip = rng.choice(n_samples, size=n_flip, replace=False)
        y[flip] = 1.0 - y[flip]
    return LogisticRegressionProblem(X, y, min(100, n_samples) if batch is None else batch)


def read_csv(path, required=()) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header and the (line, fields) rows of a UTF-8 CSV file, a byte-order mark allowed and blank lines
    skipped. An empty file, a missing ``required`` column and a row whose field count is not the header's are
    each a DataFormatError."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    (_, header), rows = rows[0], rows[1:]
    missing = [name for name in required if name not in header]
    if missing:
        raise DataFormatError(f"{path}: no {missing[0]} column")
    for line, row in rows:
        if len(row) != len(header):
            raise DataFormatError(f"{path}:{line}: expected {len(header)} columns, got {len(row)}")
    return header, rows


def load_dataset_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Load a (features, labels) pair from CSV, as ``read_csv`` reads it.

    Expected format: header row, feature columns first, final column
    named ``label``, decimal-point numbers.
    """
    header, rows = read_csv(path)
    if header[-1] != "label":
        raise DataFormatError(f"{path}: last column must be named 'label'")
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    data = []
    for line, row in rows:
        try:
            data.append([float(v) for v in row])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{line}: {exc}") from None
    data = np.asarray(data, dtype=np.float64)
    return data[:, :-1], data[:, -1]


def _quadratic_gaussian(p: dict) -> QuadraticGaussianProblem:
    dim, h_diag, noise_diag = p["dim"], p["h_diag"], p["noise_diag"]
    if len(h_diag) != dim or len(noise_diag) != dim:
        raise ConfigError("problem.h_diag/noise_diag must have length problem.dim")
    try:
        return QuadraticGaussianProblem(dim, np.diag(h_diag), np.diag(noise_diag))
    except NonFiniteError as exc:  # finite entries whose symmetrized sum overflows, such as 1e308
        raise ConfigError(f"problem.h_diag/noise_diag: {exc}") from exc


class ProblemEntry(NamedTuple):
    requires: tuple[str, ...]  # the [problem] keys a config of this problem must set
    build: Callable[[dict], StochasticProblem]  # the problem, from the [problem] dict


# Every problem a config can name. The default of an optional key is
# declared once, in the builder or in the function it calls.
PROBLEMS = {
    "saddle": ProblemEntry((), lambda p: SaddleProblem2D()),
    "counterexample": ProblemEntry(("c", "zeta"), lambda p: CounterexampleProblem(p["c"], p["zeta"])),
    "quadratic_gaussian": ProblemEntry(("dim", "h_diag", "noise_diag"), _quadratic_gaussian),
    "logistic_synthetic": ProblemEntry(("n", "d", "data_seed"), lambda p: make_synthetic_logistic(
        p["n"], p["d"], p["data_seed"], **{key: p[key] for key in ("label_noise", "batch") if key in p})),
    "logistic_csv": ProblemEntry(("path",), lambda p: LogisticRegressionProblem(
        *load_dataset_csv(p["path"]), p.get("batch"))),
}
