import numpy as np
import pytest

from precondsgd import (
    DataFormatError,
    InvalidParamError,
    load_dataset_csv,
    make_counterexample,
    make_logistic_regression,
    make_quadratic_gaussian,
    make_saddle_problem,
    make_synthetic_logistic,
)


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def central_difference_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


class TestSaddleProblem:
    def test_values_at_origin(self):
        p = make_saddle_problem()
        origin = np.zeros(2)
        assert p.eval_f(origin) == 0.0
        assert np.array_equal(p.grad(origin), np.zeros(2))
        assert np.allclose(p.hessian(origin).a, np.diag([1.0, -0.1]))
        assert np.allclose(p.exact_G(origin).a, np.diag([1.0, 0.01]))

    def test_b_support_moments_exact(self):
        b = make_saddle_problem().B_SUPPORT
        assert np.array_equal(b.mean(axis=0), np.zeros(2))
        assert np.allclose(b.T @ b / 4.0, np.diag([1.0, 0.01]), atol=0)

    def test_gradient_matches_finite_differences(self):
        p = make_saddle_problem()
        rng = rng_for(11)
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, size=2)
            fd = central_difference_grad(p.eval_f, x)
            assert np.allclose(p.grad(x), fd, rtol=1e-5, atol=1e-7)

    def test_sample_mean_near_zero_at_origin(self):
        p = make_saddle_problem()
        gs = p.sample_grad_batch(np.zeros(2), 100_000, rng_for(12))
        mean = gs.mean(axis=0)
        se = gs.std(axis=0, ddof=1) / np.sqrt(gs.shape[0])
        assert np.all(np.abs(mean) <= 3.0 * se)

    def test_empirical_covariance_at_origin(self):
        p = make_saddle_problem()
        gs = p.sample_grad_batch(np.zeros(2), 100_000, rng_for(13))
        emp = gs.T @ gs / gs.shape[0]
        true = np.diag([1.0, 0.01])
        scale = np.sqrt(np.outer(np.diag(true), np.diag(true)))
        assert np.all(np.abs(emp - true) <= 0.05 * scale)


class TestCounterexample:
    def test_two_point_moments(self):
        p = make_counterexample(C=2.0, zeta=0.1)
        assert p.p == pytest.approx(1.1 / 3.0)
        # enumeration over the two outcomes
        enumerated = p.p * 2.0**2 + (1.0 - p.p) * 1.0
        assert enumerated == pytest.approx(2.1)
        assert p.exact_G(np.array([0.0])).a[0, 0] == pytest.approx(2.1)

    def test_gradient_is_constant_zeta(self):
        p = make_counterexample(C=2.0, zeta=0.1)
        for x in (-1.0, -0.3, 0.8):
            assert p.grad(np.array([x]))[0] == 0.1
            assert p.eval_f(np.array([x])) == pytest.approx(0.1 * x)

    def test_exact_g_independent_of_x(self):
        p = make_counterexample(C=2.0, zeta=0.1)
        assert p.exact_G(np.array([-1.0])).a == pytest.approx(p.exact_G(np.array([1.0])).a)

    def test_empirical_second_moment(self):
        p = make_counterexample(C=10.0, zeta=0.05)
        g = p.sample_grad_batch(np.array([0.0]), 100_000, rng_for(14))[:, 0]
        target = 10.0 * 1.05 - 0.05
        se = np.std(g**2, ddof=1) / np.sqrt(len(g))
        assert abs(np.mean(g**2) - target) <= 3.0 * se

    def test_parameter_validation(self):
        with pytest.raises(InvalidParamError):
            make_counterexample(C=0.5, zeta=0.1)
        with pytest.raises(InvalidParamError):
            make_counterexample(C=2.0, zeta=0.0)
        with pytest.raises(InvalidParamError):
            make_counterexample(C=2.0, zeta=3.0)


class TestQuadraticGaussian:
    def test_exact_g_at_origin(self):
        p = make_quadratic_gaussian(3, np.eye(3), np.eye(3))
        assert np.allclose(p.exact_G(np.zeros(3)).a, np.eye(3))

    def test_gradient_matches_finite_differences(self):
        rng = rng_for(15)
        raw = rng.standard_normal((4, 4))
        h = (raw + raw.T) / 2.0
        p = make_quadratic_gaussian(4, h, np.eye(4))
        for _ in range(20):
            x = rng.standard_normal(4)
            fd = central_difference_grad(p.eval_f, x)
            rel = np.linalg.norm(p.grad(x) - fd) / max(1e-12, np.linalg.norm(fd))
            assert rel <= 1e-5

    def test_hessian_spectrum(self):
        h = np.diag([2.0, -0.5])
        p = make_quadratic_gaussian(2, h, np.eye(2))
        assert p.hessian(np.zeros(2)).lambda_min() == pytest.approx(-0.5)

    def test_singular_noise_cov_allowed(self):
        p = make_quadratic_gaussian(2, np.eye(2), np.zeros((2, 2)))
        g = p.sample_grad(np.ones(2), rng_for(16))
        assert np.array_equal(g, np.ones(2))

    def test_noise_cov_must_be_psd(self):
        with pytest.raises(InvalidParamError):
            make_quadratic_gaussian(2, np.eye(2), np.diag([1.0, -0.5]))


def test_unbiasedness_all_oracle_problems():
    problems = [
        (make_saddle_problem(), 2),
        (make_counterexample(C=3.0, zeta=0.2), 1),
        (make_quadratic_gaussian(3, np.diag([1.0, 2.0, 0.5]), 0.5 * np.eye(3)), 3),
    ]
    rng = rng_for(17)
    for p, dim in problems:
        for _ in range(5):
            x = rng.uniform(-0.8, 0.8, size=dim)
            gs = p.sample_grad_batch(x, 100_000, rng)
            se = gs.std(axis=0, ddof=1) / np.sqrt(gs.shape[0])
            assert np.all(np.abs(gs.mean(axis=0) - p.grad(x)) <= 4.0 * se + 1e-12)


def test_second_moment_dominates_squared_mean():
    problems = [
        (make_saddle_problem(), 2),
        (make_counterexample(C=3.0, zeta=0.2), 1),
        (make_quadratic_gaussian(3, np.eye(3), 0.1 * np.eye(3)), 3),
    ]
    rng = rng_for(18)
    for p, dim in problems:
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, size=dim)
            g = p.grad(x)
            gap = p.exact_G(x).a - np.outer(g, g)
            assert np.linalg.eigvalsh(gap)[0] >= -1e-10


class TestLogisticRegression:
    def test_zero_weights_loss_is_log_two(self):
        rng = rng_for(19)
        p = make_logistic_regression(rng.standard_normal((20, 4)), (rng.random(20) < 0.5).astype(float), 5)
        assert p.eval_f(np.zeros(4)) == pytest.approx(np.log(2.0))

    def test_full_batch_equals_exact_gradient(self):
        rng = rng_for(20)
        X = rng.standard_normal((12, 3))
        y = (rng.random(12) < 0.5).astype(float)
        p = make_logistic_regression(X, y, batch=12)
        w = rng.standard_normal(3)
        assert np.array_equal(p.sample_grad(w, rng), p.grad(w))

    def test_gradient_matches_finite_differences(self):
        rng = rng_for(21)
        X = rng.standard_normal((10, 5))
        y = (rng.random(10) < 0.5).astype(float)
        p = make_logistic_regression(X, y, batch=10)
        for _ in range(5):
            w = rng.standard_normal(5)
            fd = central_difference_grad(p.eval_f, w)
            rel = np.linalg.norm(p.grad(w) - fd) / max(1e-12, np.linalg.norm(fd))
            assert rel <= 1e-5

    def test_minibatch_unbiased(self):
        rng = rng_for(22)
        X = rng.standard_normal((50, 3))
        y = (rng.random(50) < 0.5).astype(float)
        p = make_logistic_regression(X, y, batch=10)
        w = rng.standard_normal(3)
        gs = p.sample_grad_batch(w, 40_000, rng)
        se = gs.std(axis=0, ddof=1) / np.sqrt(gs.shape[0])
        assert np.all(np.abs(gs.mean(axis=0) - p.grad(w)) <= 4.0 * se)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DataFormatError):
            make_logistic_regression(np.ones((4, 2)), np.zeros(5), 2)
        with pytest.raises(DataFormatError):
            make_logistic_regression(np.ones((4, 2)), np.array([0.0, 1.0, 2.0, 0.0]), 2)

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

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,label\n1,2\n3\n", encoding="utf-8")
        with pytest.raises(DataFormatError):
            load_dataset_csv(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("a,label\nx,1\n", encoding="utf-8")
        with pytest.raises(DataFormatError):
            load_dataset_csv(path)


STACKED_PROBLEMS = {
    "saddle": make_saddle_problem,
    "counterexample": lambda: make_counterexample(3.0, 0.5),
    "quadratic": lambda: make_quadratic_gaussian(
        5, np.diag([1.0, 0.7, 0.4, -0.2, 0.1]) + 0.05, np.diag([1.0, 0.5, 0.3, 0.2, 0.1]) + 0.01
    ),
    "logistic": lambda: make_synthetic_logistic(60, 4, seed=3, batch=10),
}


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(STACKED_PROBLEMS))
def test_stacked_oracles_match_per_point_calls(name):
    """Each row of a stacked oracle call has the bits of its own single-point call."""
    p = STACKED_PROBLEMS[name]()
    points = rng_for(40).uniform(-1.2, 1.2, size=(7, p.dim))
    n, d = points.shape
    f, g = p.eval_f(points), p.grad(points)
    assert f.shape == (n,) and g.shape == (n, d)
    matrices = {}
    if p.has_hessian:
        matrices["hessian"] = p.hessian(points)
    if p.has_exact_g:
        matrices["exact_G"] = p.exact_G(points)
    for i, x in enumerate(points):
        assert same_bits(f[i], p.eval_f(x))
        assert same_bits(g[i], p.grad(x))
        for oracle, stacked in matrices.items():
            single = getattr(p, oracle)(x)
            # a single matrix answers for every point of the stack
            assert same_bits(np.broadcast_to(stacked.a, (n, d, d))[i], single.a), oracle
            assert same_bits(np.broadcast_to(stacked.lambda_min(), (n,))[i], single.lambda_min()), oracle
