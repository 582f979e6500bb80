import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lemmas import (
    PROPERTY,
    exp_growth_bound,
    inexact_noise_amplification,
    isotropy_covariance_check,
    negative_eigenvalue_bound,
    quadratic_sqrt_bound,
    rng_for,
    series_bounds,
)
from precondsgd import InvalidParamError, QuadraticGaussianProblem, SaddleProblem2D, SingularMatrixError


class TestSeriesBounds:
    def test_single_term(self):
        c1, c2, c3 = series_bounds(0.5, 1)
        assert c1.lhs == 1.0 and c1.rhs == pytest.approx(6.0)
        assert c2.lhs == 1.0 and c2.rhs == pytest.approx(2.0 / 0.25 * 1.5)
        assert all(c.holds() for c in (c1, c2, c3))

    def test_long_sum(self):
        for case in series_bounds(0.9, 100):
            assert case.holds()

    def test_random_cases(self):
        rng = rng_for(50)
        for _ in range(200):
            beta = float(rng.uniform(0.01, 0.99))
            t = int(rng.integers(1, 300))
            for case in series_bounds(beta, t):
                assert case.holds(), case

    def test_direct_sum_matches_compensated_summation(self):
        rng = rng_for(51)
        for _ in range(50):
            beta = float(rng.uniform(0.05, 0.95))
            t = int(rng.integers(1, 250))
            cases = series_bounds(beta, t)
            exact = [
                math.fsum((1 + beta) ** (t - i) for i in range(1, t + 1)),
                math.fsum((1 + beta) ** (t - i) * i for i in range(1, t + 1)),
                math.fsum((1 + beta) ** (t - i) * i * i for i in range(1, t + 1)),
            ]
            for case, ref in zip(cases, exact):
                assert case.lhs == pytest.approx(ref, rel=1e-10)

    @settings(PROPERTY, max_examples=100)
    @given(beta_pos=st.floats(1e-3, 0.999), t=st.integers(1, 900))
    def test_property_over_its_domain(self, beta_pos, t):
        # t <= 900 keeps (1 + beta_pos)^t finite
        for case in series_bounds(beta_pos, t):
            assert case.holds(), case

    def test_domain(self):
        with pytest.raises(InvalidParamError):
            series_bounds(1.0, 5)
        with pytest.raises(InvalidParamError):
            series_bounds(0.5, 0)


class TestQuadraticSqrtBound:
    def test_pure_quadratic(self):
        case = quadratic_sqrt_bound(1.0, 0.0, 0.0, 3.0)
        assert case.lhs == pytest.approx(3.0)
        assert case.rhs == pytest.approx(6.0)

    def test_arithmetic_example(self):
        case = quadratic_sqrt_bound(1.0, 4.0, 4.0, 1.0)
        assert case.lhs == pytest.approx(3.0)
        assert case.rhs == pytest.approx(6.0)

    def test_random_cases(self):
        rng = rng_for(52)
        for _ in range(1000):
            case = quadratic_sqrt_bound(
                float(rng.uniform(1e-3, 10.0)),
                float(rng.uniform(0.0, 10.0)),
                float(rng.uniform(0.0, 10.0)),
                float(rng.uniform(0.0, 10.0)),
            )
            assert case.holds(), case

    @settings(PROPERTY, max_examples=100)
    @given(
        A=st.floats(0.0, 1e3, exclude_min=True), B=st.floats(0.0, 1e3), C=st.floats(0.0, 1e3), z=st.floats(0.0, 1e3)
    )
    @example(A=2.0, B=0.0, C=5e-324, z=0.0)
    def test_property_over_its_domain(self, A, B, C, z):
        # B = z = 0 is the equality case lhs = rhs = sqrt(C); in the example C/A underflows
        case = quadratic_sqrt_bound(A, B, C, z)
        assert case.holds(), case

    def test_zero_a_rejected(self):
        with pytest.raises(InvalidParamError):
            quadratic_sqrt_bound(0.0, 1.0, 1.0, 1.0)


class TestExpGrowthBound:
    def test_example(self):
        case = exp_growth_bound(0.5, 2.0)
        assert case.inputs["t"] == 3
        assert case.rhs == pytest.approx(1.5**3)
        assert case.holds()

    def test_c_near_one(self):
        case = exp_growth_bound(0.3, 1.0 + 1e-9)
        assert case.rhs >= 1.0
        assert case.holds()

    def test_random_cases(self):
        rng = rng_for(53)
        for _ in range(1000):
            case = exp_growth_bound(float(rng.uniform(1e-3, 0.999)), float(rng.uniform(1.001, 50.0)))
            assert case.holds(), case

    @settings(PROPERTY, max_examples=100)
    @given(x=st.floats(1e-300, 0.999), C_target=st.floats(1.0, 1e6, exclude_min=True))
    @example(x=1e-17, C_target=2.0)
    def test_property_over_its_domain(self, x, C_target):
        # x >= 1e-300 keeps t = ceil(2 log(C) / x) finite
        case = exp_growth_bound(x, C_target)
        assert case.holds(), case


class TestInexactNoiseAmplification:
    def test_zero_perturbation_below_c3(self):
        rng = rng_for(54)
        a = np.diag([1.0, 0.5])
        cov = np.diag([0.5, 1.0])
        c3 = float(np.trace(a @ cov @ a))
        g = rng.standard_normal((20_000, 2)) * np.sqrt(np.diag(cov))
        sq = np.sum((g @ a) ** 2, axis=1)
        se = sq.std(ddof=1) / math.sqrt(len(sq))
        assert sq.mean() <= c3 + 4.0 * se
        assert sq.mean() <= 2.25 * c3

    def test_extremal_scaling_hits_nine_fourths(self):
        # Ahat = (3/2) A is the extreme allowed by mu < lambda_min/2 for A = c I
        rng = rng_for(55)
        a = 0.8 * np.eye(3)
        c3 = float(np.trace(a @ a))  # unit-covariance g
        g = rng.standard_normal((40_000, 3))
        sq = np.sum((g @ (1.5 * a)) ** 2, axis=1)
        se = sq.std(ddof=1) / math.sqrt(len(sq))
        assert abs(sq.mean() - 2.25 * c3) <= 4.0 * se

    def test_random_cases(self):
        rng = rng_for(56)
        for i in range(50):
            case = inexact_noise_amplification(
                c3=float(rng.uniform(0.5, 4.0)), dim=int(rng.integers(1, 6)), rng=rng
            )
            assert case.holds(), (i, case)


class TestNegativeEigenvalueBound:
    def test_identity_preconditioner_equality(self):
        case = negative_eigenvalue_bound(np.eye(2), np.diag([1.0, -0.7]))
        assert case.lhs == pytest.approx(0.7)
        assert case.rhs == pytest.approx(0.7)
        assert case.holds()

    def test_two_by_two_example(self):
        case = negative_eigenvalue_bound(np.diag([2.0, 0.5]), np.diag([1.0, -1.0]))
        assert case.lhs == pytest.approx(0.5)
        assert case.rhs == pytest.approx(0.5)
        assert case.holds()

    def test_random_cases(self):
        rng = rng_for(57)
        count = 0
        while count < 200:
            dim = int(rng.integers(2, 7))
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            a = (q * rng.uniform(0.1, 3.0, size=dim)) @ q.T
            raw = rng.standard_normal((dim, dim))
            h = (raw + raw.T) / 2.0
            if np.linalg.eigvalsh(h)[0] >= 0:
                continue
            assert negative_eigenvalue_bound(a, h).holds()
            count += 1

    def test_requires_negative_curvature(self):
        with pytest.raises(InvalidParamError):
            negative_eigenvalue_bound(np.eye(2), np.eye(2))


class TestIsotropyCovariance:
    def test_saddle_at_origin_identity_covariance(self):
        n = 100_000
        dev = isotropy_covariance_check(SaddleProblem2D(), np.zeros(2), n, rng_for(58))
        assert dev <= 5.0 * math.sqrt(2.0 / n)

    def test_noiseless_problem_raises_singular(self):
        p = QuadraticGaussianProblem(2, np.eye(2), np.zeros((2, 2)))
        with pytest.raises(SingularMatrixError):
            isotropy_covariance_check(p, np.array([1.0, 0.5]), 100, rng_for(59))

    def test_quadratic_gaussian_random_point(self):
        rng = rng_for(60)
        p = QuadraticGaussianProblem(3, np.diag([1.0, 0.5, 2.0]), np.diag([1.0, 0.3, 0.7]))
        n = 100_000
        for _ in range(3):
            x = rng.standard_normal(3)
            dev = isotropy_covariance_check(p, x, n, rng)
            assert dev <= 5.0 * math.sqrt(2.0 / n)
