import functools
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemmas import PROPERTY, random_spd, rng_for
from precondsgd import (
    CounterexampleProblem,
    DataFormatError,
    InvalidParamError,
    LogisticRegressionProblem,
    MissingOracleError,
    NonFiniteError,
    QuadraticGaussianProblem,
    SaddleProblem2D,
    load_dataset_csv,
    make_synthetic_logistic,
)
from precondsgd.problems import read_csv


def central_difference_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


class TestSaddleProblem:
    def test_values_at_origin(self):
        p = SaddleProblem2D()
        origin = np.zeros(2)
        assert p.eval_f(origin) == 0.0
        assert np.array_equal(p.grad(origin), np.zeros(2))
        assert p.hessian(origin) == -0.1
        assert np.array_equal(p.exact_G(origin), np.diag([1.0, 0.01]))

    def test_b_support_moments_exact(self):
        b = SaddleProblem2D().B_SUPPORT
        assert np.array_equal(b.mean(axis=0), np.zeros(2))
        assert np.allclose(b.T @ b / 4.0, np.diag([1.0, 0.01]), atol=0)

    def test_gradient_matches_finite_differences(self):
        p = SaddleProblem2D()
        rng = rng_for(11)
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, size=2)
            fd = central_difference_grad(p.eval_f, x)
            assert np.allclose(p.grad(x), fd, rtol=1e-5, atol=1e-7)

    def test_sample_mean_near_zero_at_origin(self):
        p = SaddleProblem2D()
        gs = p.sample_grad(np.zeros(2), rng_for(12), 100_000)
        mean = gs.mean(axis=0)
        se = gs.std(axis=0, ddof=1) / np.sqrt(gs.shape[0])
        assert np.all(np.abs(mean) <= 3.0 * se)

    def test_empirical_covariance_at_origin(self):
        p = SaddleProblem2D()
        gs = p.sample_grad(np.zeros(2), rng_for(13), 100_000)
        emp = gs.T @ gs / gs.shape[0]
        true = np.diag([1.0, 0.01])
        scale = np.sqrt(np.outer(np.diag(true), np.diag(true)))
        assert np.all(np.abs(emp - true) <= 0.05 * scale)


class TestCounterexample:
    def test_two_point_moments(self):
        p = CounterexampleProblem(C=2.0, zeta=0.1)
        assert p.p == pytest.approx(1.1 / 3.0)
        # enumeration over the two outcomes
        enumerated = p.p * 2.0**2 + (1.0 - p.p) * 1.0
        assert enumerated == pytest.approx(2.1)
        assert p.exact_G(np.array([0.0]))[0, 0] == pytest.approx(2.1)

    def test_gradient_is_constant_zeta(self):
        p = CounterexampleProblem(C=2.0, zeta=0.1)
        for x in (-1.0, -0.3, 0.8):
            assert p.grad(np.array([x]))[0] == 0.1
            assert p.eval_f(np.array([x])) == pytest.approx(0.1 * x)

    def test_exact_g_independent_of_x(self):
        p = CounterexampleProblem(C=2.0, zeta=0.1)
        assert p.exact_G(np.array([-1.0])) == pytest.approx(p.exact_G(np.array([1.0])))

    def test_empirical_second_moment(self):
        p = CounterexampleProblem(C=10.0, zeta=0.05)
        g = p.sample_grad(np.array([0.0]), rng_for(14), 100_000)[:, 0]
        target = 10.0 * 1.05 - 0.05
        se = np.std(g**2, ddof=1) / np.sqrt(len(g))
        assert abs(np.mean(g**2) - target) <= 3.0 * se

    def test_parameter_validation(self):
        with pytest.raises(InvalidParamError):
            CounterexampleProblem(C=0.5, zeta=0.1)
        with pytest.raises(InvalidParamError):
            CounterexampleProblem(C=2.0, zeta=0.0)
        with pytest.raises(InvalidParamError):
            CounterexampleProblem(C=2.0, zeta=3.0)


class TestQuadraticGaussian:
    def test_exact_g_at_origin(self):
        p = QuadraticGaussianProblem(3, np.eye(3), np.eye(3))
        assert np.allclose(p.exact_G(np.zeros(3)), np.eye(3))

    def test_gradient_matches_finite_differences(self):
        rng = rng_for(15)
        raw = rng.standard_normal((4, 4))
        h = (raw + raw.T) / 2.0
        p = QuadraticGaussianProblem(4, h, np.eye(4))
        for _ in range(20):
            x = rng.standard_normal(4)
            fd = central_difference_grad(p.eval_f, x)
            rel = np.linalg.norm(p.grad(x) - fd) / max(1e-12, np.linalg.norm(fd))
            assert rel <= 1e-5

    def test_hessian_spectrum(self):
        h = np.diag([2.0, -0.5])
        p = QuadraticGaussianProblem(2, h, np.eye(2))
        assert p.hessian(np.zeros(2)) == pytest.approx(-0.5)

    def test_singular_noise_cov_allowed(self):
        p = QuadraticGaussianProblem(2, np.eye(2), np.zeros((2, 2)))
        g = p.sample_grad(np.ones(2), rng_for(16))
        assert np.array_equal(g, np.ones(2))

    @pytest.mark.parametrize("dim", [0, -1])
    def test_a_dimension_below_1_raises(self, dim):
        with pytest.raises(InvalidParamError, match="dim must be >= 1"):
            QuadraticGaussianProblem(dim, np.zeros((0, 0)), np.zeros((0, 0)))

    def test_noise_cov_must_be_psd(self):
        with pytest.raises(InvalidParamError):
            QuadraticGaussianProblem(2, np.eye(2), np.diag([1.0, -0.5]))


def test_unbiasedness_all_oracle_problems():
    problems = [
        (SaddleProblem2D(), 2),
        (CounterexampleProblem(C=3.0, zeta=0.2), 1),
        (QuadraticGaussianProblem(3, np.diag([1.0, 2.0, 0.5]), 0.5 * np.eye(3)), 3),
    ]
    rng = rng_for(17)
    for p, dim in problems:
        for _ in range(5):
            x = rng.uniform(-0.8, 0.8, size=dim)
            gs = p.sample_grad(x, rng, 100_000)
            se = gs.std(axis=0, ddof=1) / np.sqrt(gs.shape[0])
            assert np.all(np.abs(gs.mean(axis=0) - p.grad(x)) <= 4.0 * se + 1e-12)


def test_second_moment_dominates_squared_mean():
    problems = [
        (SaddleProblem2D(), 2),
        (CounterexampleProblem(C=3.0, zeta=0.2), 1),
        (QuadraticGaussianProblem(3, np.eye(3), 0.1 * np.eye(3)), 3),
    ]
    rng = rng_for(18)
    for p, dim in problems:
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, size=dim)
            g = p.grad(x)
            gap = p.exact_G(x) - np.outer(g, g)
            assert np.linalg.eigvalsh(gap)[0] >= -1e-10


class TestLogisticRegression:
    def test_zero_weights_loss_is_log_two(self):
        rng = rng_for(19)
        p = LogisticRegressionProblem(rng.standard_normal((20, 4)), (rng.random(20) < 0.5).astype(float), 5)
        assert p.eval_f(np.zeros(4)) == pytest.approx(np.log(2.0))

    def test_full_batch_equals_exact_gradient(self):
        rng = rng_for(20)
        X = rng.standard_normal((12, 3))
        y = (rng.random(12) < 0.5).astype(float)
        p = LogisticRegressionProblem(X, y, batch=12)
        w = rng.standard_normal(3)
        assert np.array_equal(p.sample_grad(w, rng), p.grad(w))

    def test_gradient_matches_finite_differences(self):
        rng = rng_for(21)
        X = rng.standard_normal((10, 5))
        y = (rng.random(10) < 0.5).astype(float)
        p = LogisticRegressionProblem(X, y, batch=10)
        for _ in range(5):
            w = rng.standard_normal(5)
            fd = central_difference_grad(p.eval_f, w)
            rel = np.linalg.norm(p.grad(w) - fd) / max(1e-12, np.linalg.norm(fd))
            assert rel <= 1e-5

    def test_minibatch_unbiased(self):
        rng = rng_for(22)
        X = rng.standard_normal((50, 3))
        y = (rng.random(50) < 0.5).astype(float)
        p = LogisticRegressionProblem(X, y, batch=10)
        w = rng.standard_normal(3)
        gs = p.sample_grad(w, rng, 40_000)
        se = gs.std(axis=0, ddof=1) / np.sqrt(gs.shape[0])
        assert np.all(np.abs(gs.mean(axis=0) - p.grad(w)) <= 4.0 * se)

    def test_a_minibatch_repeats_no_sample(self):
        """With 3 samples and batch 2, each draw is the mean gradient of two distinct samples, never of one twice."""
        rng = rng_for(23)
        X = rng.standard_normal((3, 2))
        p = LogisticRegressionProblem(X, np.array([0.0, 1.0, 1.0]), batch=2)
        w = rng.standard_normal(2)
        pairs = [p._batch_grad(w, list(pair)) for pair in itertools.combinations(range(3), 2)]
        for g in p.sample_grad(w, rng, 100):
            assert sum(np.allclose(g, pair, rtol=1e-12, atol=0.0) for pair in pairs) == 1

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DataFormatError):
            LogisticRegressionProblem(np.ones((4, 2)), np.zeros(5), 2)
        with pytest.raises(DataFormatError):
            LogisticRegressionProblem(np.ones((4, 2)), np.array([0.0, 1.0, 2.0, 0.0]), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_feature_that_is_not_finite_is_refused_by_its_row(self, bad):
        X = np.ones((4, 2))
        X[2, 1] = bad
        X[3, 0] = np.nan
        with pytest.raises(DataFormatError, match=rf"^features must be finite: row 2 \(counting from 0\) holds {bad}$"):
            LogisticRegressionProblem(X, np.array([0.0, 1.0, 1.0, 0.0]), 2)

    def test_synthetic_generator_deterministic(self):
        p1 = make_synthetic_logistic(100, 5, seed=42, label_noise=0.1, batch=10)
        p2 = make_synthetic_logistic(100, 5, seed=42, label_noise=0.1, batch=10)
        w = np.ones(5)
        assert p1.eval_f(w) == p2.eval_f(w)
        assert p1.eval_f(w) != make_synthetic_logistic(100, 5, seed=43, batch=10).eval_f(w)


class TestCsvLoader:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f0,f1,label\n1.0,2.0,1\n-0.5,0.25,0\n", encoding="utf-8")
        X, y = load_dataset_csv(path)
        assert np.array_equal(X, [[1.0, 2.0], [-0.5, 0.25]])
        assert np.array_equal(y, [1.0, 0.0])

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(DataFormatError):
            load_dataset_csv(path)

    @pytest.mark.parametrize("text, line, got", [("a,label\n1,2\n3\n", 3, 1), ("a,label\n1,2,3\n", 2, 3),
                                                 ("\n\na,label\n\n1,2\n\n3,4,5\n", 7, 3)])
    def test_ragged_row(self, tmp_path, text, line, got):
        path = tmp_path / "ragged.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}:{line}: expected 2 columns, got {got}$"):
            load_dataset_csv(path)

    @pytest.mark.parametrize("text, line", [("a,label\nx,1\n", 2), ("a,label\n\r\n1,0\n\n\nx,1\n", 6)])
    def test_non_numeric(self, tmp_path, text, line):
        path = tmp_path / "nan.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}:{line}: could not convert"):
            load_dataset_csv(path)

    @pytest.mark.parametrize("text", ["\ufefff0,f1,label\n1.0,2.0,1\n-0.5,0.25,0\n",
                                      "\n\nf0,f1,label\n\n1.0,2.0,1\n\n\n-0.5,0.25,0\n\n",
                                      "\ufefff0,f1,label\r\n\r\n1.0,2.0,1\r\n-0.5,0.25,0\r\n\r\n"],
                             ids=("byte-order-mark", "blank-lines", "both-crlf"))
    def test_blank_lines_and_a_byte_order_mark_read_as_before(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8", newline="")
        header, rows = read_csv(path)
        assert header == ["f0", "f1", "label"]
        assert [row for _, row in rows] == [["1.0", "2.0", "1"], ["-0.5", "0.25", "0"]]
        X, y = load_dataset_csv(path)
        assert np.array_equal(X, [[1.0, 2.0], [-0.5, 0.25]])
        assert np.array_equal(y, [1.0, 0.0])

    def test_read_csv_gives_each_row_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('\ufeffa,b\n\n1,"x,y"\n\n2,\n', encoding="utf-8", newline="")
        assert read_csv(path, ("b", "a")) == (["a", "b"], [(3, ["1", "x,y"]), (5, ["2", ""])])

    @pytest.mark.parametrize("text, message", [("", "empty file"), ("\n\r\n", "empty file"), ("\ufeff", "empty file"),
                                               ("a,b\n1,2\n", "no c column"), ("\ufeffa,b\n", "no c column")])
    def test_read_csv_refuses_a_file_without_the_required_columns(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: {message}$"):
            read_csv(path, ("a", "c"))


STACKED_PROBLEMS = {
    "saddle": SaddleProblem2D,
    "counterexample": lambda: CounterexampleProblem(3.0, 0.5),
    "quadratic": lambda: QuadraticGaussianProblem(
        5, np.diag([1.0, 0.7, 0.4, -0.2, 0.1]) + 0.05, np.diag([1.0, 0.5, 0.3, 0.2, 0.1]) + 0.01
    ),
    "logistic": lambda: make_synthetic_logistic(60, 4, seed=3, batch=10),
}


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 7, 81, 4096])
@pytest.mark.parametrize("name", sorted(STACKED_PROBLEMS))
def test_stacked_oracles_match_per_point_calls(name, n):
    """Each row of a stacked oracle call has the bits of its own single-point call.

    n spans the stacks a run makes: one seed's event, a few seeds, and
    the chunks of logged events whose oracles run in one call.
    """
    p = STACKED_PROBLEMS[name]()
    points = rng_for(40).uniform(-1.2, 1.2, size=(n, p.dim))
    n, d = points.shape
    f, g = p.eval_f(points), p.grad(points)
    assert f.shape == (n,) and g.shape == (n, d)
    # a constant oracle answers a stack with one value (one (d, d) array, or one float) for every row
    lam = np.broadcast_to(p.hessian(points), (n,))
    G = np.broadcast_to(p.exact_G(points), (n, d, d)) if p.has_exact_g else None
    for i, x in enumerate(points):
        assert same_bits(f[i], p.eval_f(x))
        assert same_bits(g[i], p.grad(x))
        assert type(p.hessian(x)) is float
        assert same_bits(lam[i], p.hessian(x))
        if G is not None:
            assert same_bits(G[i], p.exact_G(x))


def count_eigh_calls(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def saddle_points(rng, shape):
    """|x_i| from 1e-320 to 1e10 (so |f| <= 1e100, as the run's divergence guard keeps it), with +-0."""
    x = 10.0 ** rng.uniform(-320.0, 10.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    x[rng.random(shape) < 0.1] = rng.choice([0.0, -0.0, 1e10, -1e10])
    return x


@pytest.mark.parametrize("batch", [None, 8])
def test_saddle_lambda_min_has_the_bits_of_eigh_without_calling_it(monkeypatch, batch):
    p = SaddleProblem2D()
    rng = rng_for(42 + (batch or 0))
    points = [saddle_points(rng, (2,) if batch is None else (batch, 2)) for _ in range(200)]
    diagonals = [np.zeros(x.shape + (2,)) for x in points]
    for x, dense in zip(points, diagonals):
        dense[..., [0, 1], [0, 1]] = p.H_DIAG + 90.0 * x**8
    refs = [np.linalg.eigh(dense).eigenvalues[..., 0] for dense in diagonals]
    calls = count_eigh_calls(monkeypatch)
    for x, ref in zip(points, refs):
        assert same_bits(p.hessian(x), ref if batch is not None else float(ref))
    assert calls == []


def test_logistic_lambda_min_is_eigh_of_the_symmetric_part_of_its_hessian():
    rng = rng_for(43)
    X = rng.standard_normal((30, 4))
    p = LogisticRegressionProblem(X, (rng.random(30) < 0.5).astype(float))
    points = rng.standard_normal((50, 4))

    def reference(x):
        s = masked_sigmoid(X @ x)
        h = (X.T * (s * (1.0 - s))) @ X / 30
        return np.linalg.eigh((h + h.T) / 2.0).eigenvalues[0]

    refs = np.array([reference(x) for x in points])
    assert same_bits(p.hessian(points), refs)
    for x, ref in zip(points, refs):
        assert same_bits(p.hessian(x), float(ref))


def test_quadratic_decomposes_h_once_on_the_first_lambda_min(monkeypatch):
    calls = count_eigh_calls(monkeypatch)
    p = QuadraticGaussianProblem(3, np.diag([2.0, -0.5, 1.0]), np.eye(3))
    assert calls == [(3, 3)]  # the noise factor
    assert p.hessian(np.zeros(3)) == -0.5
    assert p.hessian(np.ones((4, 3))) == -0.5
    assert calls == [(3, 3), (3, 3)]


def special_entries(rng, shape):
    """Entries of magnitude 1e-3 to 1e3, a third of them +-0.0 or subnormal."""
    a = 10.0 ** rng.uniform(-3.0, 3.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    pick = rng.random(shape) < 0.3
    a[pick] = rng.choice([0.0, -0.0, 5e-324, -5e-324, -3e-320, 2.2e-308], size=np.count_nonzero(pick))
    return a


@pytest.mark.parametrize("dim", [1, 2, 3, 10])
def test_exact_g_has_the_bits_of_the_outer_product_plus_the_covariance(dim):
    """G(x) = grad grad^T + Sigma in the bits of np.outer, signed zeros and subnormals included."""
    rng = rng_for(44 + dim)
    problems = [(SaddleProblem2D(), np.diag([1.0, 0.01]))] if dim == 2 else []
    for _ in range(20):
        h = special_entries(rng, (dim, dim))
        off = np.triu(special_entries(rng, (dim, dim)) * 1e-6, 1)
        cov = np.diag(rng.uniform(1.0, 2.0, size=dim)) + off + off.T
        problems.append((QuadraticGaussianProblem(dim, np.triu(h) + np.triu(h, 1).T, cov), cov))
    for p, cov in problems:
        points = special_entries(rng, (5, dim))
        stacked = p.exact_G(points)
        for i, x in enumerate(points):
            g = p.grad(x)
            expected = np.outer(g, g) + cov
            assert same_bits(p.exact_G(x), expected) and same_bits(stacked[i], expected)


def test_exact_g_keeps_a_negative_zero_and_a_subnormal():
    p = QuadraticGaussianProblem(2, np.eye(2), [[1.0, -0.0], [-0.0, 5e-324]])
    G = p.exact_G(np.array([0.0, -3e-320]))  # grad = (0.0, -3e-320), so grad_0 grad_1 = -0.0
    assert np.signbit(G[0, 1]) and np.signbit(G[1, 0]) and G[1, 1] == 5e-324


def test_a_non_finite_second_moment_names_the_failing_points():
    p = SaddleProblem2D()
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError) as info:
            p.exact_G(np.array([[0.5, 0.1], [1e30, 0.0], [0.0, -0.2]]))
        assert info.value.rows.tolist() == [False, True, False]
        with pytest.raises(NonFiniteError) as info:
            p.exact_G(np.array([1e30, 0.0]))
    assert info.value.rows is None


def test_cached_arrays_are_read_only():
    # The saddle's class arrays, which every instance shares.
    for shared in (SaddleProblem2D.H_DIAG, SaddleProblem2D.B_SUPPORT, SaddleProblem2D.NOISE_COV):
        with pytest.raises(ValueError):
            shared[0, ...] = 5.0
    with pytest.raises(ValueError):
        CounterexampleProblem(3.0, 0.5).exact_G(np.zeros(1))[0, 0] = 1.0
    p = QuadraticGaussianProblem(2, np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        p._H[0, 0] = 5.0
    assert p.hessian(np.zeros(2)) == 1.0


def test_a_quadratic_keeps_the_symmetric_part_of_its_matrices():
    p = QuadraticGaussianProblem(2, [[1.0, 2.0], [0.0, 3.0]], [[1.0, 0.5], [-0.5, 2.0]])
    assert np.array_equal(p.grad(np.array([1.0, 0.0])), [1.0, 1.0])
    assert np.array_equal(p.exact_G(np.zeros(2)), np.diag([1.0, 2.0]))
    with pytest.raises(InvalidParamError):
        QuadraticGaussianProblem(2, np.eye(3), np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["H", "noise_cov"])
def test_a_quadratic_with_a_non_finite_matrix_raises(bad, which):
    m = np.eye(2)
    m[0, 1] = bad
    with pytest.raises(NonFiniteError):
        QuadraticGaussianProblem(2, m if which == "H" else np.eye(2), m if which == "noise_cov" else np.eye(2))


def masked_sigmoid(z):
    """The boolean-mask logistic function: 1/(1+e^-z) where z >= 0, e^z/(1+e^z) elsewhere."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_has_the_bits_of_the_masked_formula():
    from precondsgd.problems import _sigmoid

    rng = rng_for(41)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0, 745.2, -745.2, 36.7, -36.7])
    for _ in range(300):
        z = rng.standard_normal(100) * 10.0 ** rng.uniform(-3.0, 3.0)
        z[rng.integers(0, 100, size=10)] = rng.choice(specials, size=10)
        got, want = _sigmoid(z), masked_sigmoid(z)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()


def where_sigmoid(z):
    """The reference logistic function: np.where(z >= 0, 1, e^-|z|) / (1 + e^-|z|), in numpy's own ufuncs."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def where_batch_grad(X, y, x, idx):
    """The reference minibatch gradient: rows by fancy indexing, residual from where_sigmoid, mean by division."""
    Xb = X[idx]
    residual = where_sigmoid(Xb @ x)
    residual -= y[idx]
    return Xb.T @ residual / len(Xb)


# Signed zeros and infinities, a NaN of each sign (and two quiet NaNs with a payload), subnormals, and normals at
# the edges of exp's range.
SIGMOID_EDGES = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 709.0, -709.0, 745.2, -745.2,
     1e308, -1e308],
    np.array([0x7FF8000000000123, 0xFFF8000000000456], dtype=np.uint64).view(np.float64),
])


def test_sigmoid_has_the_bits_of_the_where_formula_nans_included():
    """Every bit, the sign of a NaN included, on the edge values and on each length from 1 to 4,099; z is kept."""
    from precondsgd.problems import _sigmoid

    assert np.signbit(SIGMOID_EDGES[5]) and not np.signbit(SIGMOID_EDGES[4])
    kept = SIGMOID_EDGES.copy()
    assert same_bits(_sigmoid(SIGMOID_EDGES), where_sigmoid(SIGMOID_EDGES))
    assert same_bits(SIGMOID_EDGES, kept)
    rng = rng_for(47)
    for n in range(1, 4100):
        z = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
        z[rng.integers(0, n, size=2)] = rng.choice(SIGMOID_EDGES, size=2)
        assert same_bits(_sigmoid(z), where_sigmoid(z)), n


@pytest.mark.parametrize("batch", [1, 10, 60])
def test_logistic_oracles_have_the_bits_of_the_where_formula(batch):
    """sample_grad (on the same stream), grad and the Hessian at points of scale 1e-3 to 1e3, some not finite."""
    p = make_synthetic_logistic(60, 4, seed=5, batch=batch)
    X, y = p._X, p._y
    rng = rng_for(48)
    for i in range(300):
        x = rng.standard_normal(4) * 10.0 ** rng.uniform(-3.0, 3.0)
        if i % 10 == 0:
            x[rng.integers(4)] = rng.choice([np.nan, -np.nan, np.inf, -np.inf])
        draws, ref_draws = rng_for(i), rng_for(i)
        with np.errstate(all="ignore"):
            idx = slice(None) if batch == 60 else ref_draws.choice(60, size=batch, replace=False)
            assert same_bits(p.sample_grad(x, draws), where_batch_grad(X, y, x, idx))
            assert draws.random() == ref_draws.random()
            assert same_bits(p.grad(x), where_batch_grad(X, y, x, slice(None)))
            s = where_sigmoid(X @ x)
            h = (X.T * (s * (1.0 - s))) @ X / 60
            assert same_bits(p._hessian_entries(x), h)
        if np.isfinite(x).all():
            assert same_bits(p.hessian(x), float(np.linalg.eigh((h + h.T) / 2.0).eigenvalues[0]))


@pytest.mark.parametrize("name", sorted(STACKED_PROBLEMS))
def test_a_point_of_the_wrong_shape_raises(name):
    """Every oracle takes a point (d,) or a stack (B, d), and refuses any other shape."""
    p = STACKED_PROBLEMS[name]()
    oracles = [p.eval_f, p.grad, p.hessian, lambda x: p.sample_grad(x, rng_for(0))]
    for oracle in oracles + [p.exact_G] * p.has_exact_g:
        for bad in (np.zeros(p.dim + 1), np.zeros((2, p.dim - 1)), np.zeros((2, 2, p.dim)), 0.0):
            with pytest.raises(InvalidParamError, match="expected a point of shape"):
                oracle(bad)


@pytest.mark.parametrize("name", sorted(STACKED_PROBLEMS))
def test_an_oracle_exists_when_the_class_defines_it(name):
    """has_exact_g/has_hessian follow the class, also when an instance's oracle is replaced (as a tracer does)."""
    p = STACKED_PROBLEMS[name]()
    flags = (p.has_exact_g, p.has_hessian)
    assert flags == (name != "logistic", True)
    for oracle in ("exact_G", "hessian"):
        setattr(p, oracle, functools.partial(getattr(p, oracle)))
    assert (p.has_exact_g, p.has_hessian) == flags
    if not p.has_exact_g:
        with pytest.raises(MissingOracleError):
            p.exact_G(np.zeros(p.dim))


def non_diagonal_quadratic(dim):
    rng = rng_for(dim)
    return QuadraticGaussianProblem(dim, random_spd(rng, dim), random_spd(rng, dim))


SAMPLED_PROBLEMS = {
    "saddle": SaddleProblem2D,
    "counterexample": lambda: CounterexampleProblem(3.0, 0.5),
    **{f"quadratic-d{d}": functools.partial(non_diagonal_quadratic, d) for d in (1, 2, 3, 5, 10, 20, 64, 200)},
    "logistic": lambda: make_synthetic_logistic(60, 4, seed=3, batch=10),
    "logistic-full-batch": lambda: make_synthetic_logistic(12, 3, seed=4),
}


@pytest.mark.parametrize("name", SAMPLED_PROBLEMS)
@settings(PROPERTY, max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40))
def test_a_batch_of_samples_has_the_bits_of_one_call_per_sample(name, seed, n):
    """sample_grad(x, rng, n) is the (n, d) stack of n single calls on the same stream, and leaves it where they do."""
    p = SAMPLED_PROBLEMS[name]()
    x = rng_for(seed).uniform(-1.0, 1.0, size=p.dim)
    batch_rng, single_rng = rng_for(seed + 1), rng_for(seed + 1)
    batch = p.sample_grad(x, batch_rng, n)
    singles = np.array([p.sample_grad(x, single_rng) for _ in range(n)]).reshape(n, p.dim)
    assert same_bits(batch, singles)
    assert batch_rng.random() == single_rng.random()
