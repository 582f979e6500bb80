import numpy as np
import pytest

from precondsgd import (
    DimMismatchError,
    InvalidParamError,
    MissingOracleError,
    Preconditioner,
    PreconditionerConstants,
    PreconditionerKind,
    SingularMatrixError,
    SymMatrix,
    constants_diagonal,
    constants_full_matrix,
    constants_identity,
    estimate_m_bound,
    make_counterexample,
    make_quadratic_gaussian,
    make_saddle_problem,
    op_norm,
    second_order_complexity_factor,
    sym_power,
)


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def random_spd(rng, dim, lam_lo=0.05, lam_hi=3.0):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    lam = rng.uniform(lam_lo, lam_hi, size=dim)
    return (q * lam) @ q.T


def idealized_A(problem, kind, x):
    return Preconditioner(kind, problem.dim).dense(problem, x)


def estimated_with(g_hat, kind, bias_corrected=False):
    """An estimated preconditioner whose Ghat is the given PSD matrix.

    Observes sqrt(n lambda_i) v_i with beta_i = i/(i+1): the running mean
    of the n rank-one samples is sum lambda_i v_i v_i^T.
    """
    w, v = np.linalg.eigh(g_hat)
    n = len(w)
    pre = Preconditioner(kind, n, "estimated", bias_corrected)
    for i in range(n):
        pre.observe(np.sqrt(n * max(w[i], 0.0)) * v[:, i], i / (i + 1.0))
    return pre


# With A = (Ghat + I)^-1 the estimate is recoverable as A^-1 - I.
RECOVERABLE = PreconditionerKind(variant="full_matrix", epsilon=1.0, exponent=-1.0)


def g_hat_of(pre):
    return np.linalg.inv(pre.dense(None, None)) - np.eye(pre.dim)


def problem_with_g(g):
    """Zero objective whose exact second moment is the given constant matrix."""
    d = g.shape[0]
    return make_quadratic_gaussian(d, np.zeros((d, d)), g)


class TestKindValidation:
    def test_rejects_bad_variant(self):
        with pytest.raises(InvalidParamError):
            PreconditionerKind(variant="nope")

    def test_rejects_bad_epsilon_and_exponent(self):
        with pytest.raises(InvalidParamError):
            PreconditionerKind(epsilon=-1.0)
        with pytest.raises(InvalidParamError):
            PreconditionerKind(exponent=-2.0)


class TestIdealizedA:
    def test_identity_kind(self):
        p = make_saddle_problem()
        a = idealized_A(p, PreconditionerKind(variant="identity"), np.array([0.3, -0.2]))
        assert np.array_equal(a, np.eye(2))

    def test_counterexample_constant_scalar(self):
        p = make_counterexample(C=2.0, zeta=0.1)
        kind = PreconditionerKind(variant="full_matrix", epsilon=0.0, exponent=-0.5)
        for x in (-0.9, 0.0, 0.7):
            a = idealized_A(p, kind, np.array([x]))
            assert a[0, 0] == pytest.approx(1.0 / np.sqrt(2.1), rel=1e-12)

    def test_saddle_origin_full_matrix(self):
        p = make_saddle_problem()
        a = idealized_A(p, PreconditionerKind(variant="full_matrix"), np.zeros(2))
        assert np.allclose(a, np.diag([1.0, 10.0]), rtol=1e-12)

    def test_covariance_kind_removes_mean_term(self):
        p = make_saddle_problem()
        kind = PreconditionerKind(variant="covariance_full_matrix")
        for x in (np.zeros(2), np.array([0.4, -0.3])):
            a = idealized_A(p, kind, x)
            assert np.allclose(a, np.diag([1.0, 10.0]), rtol=1e-10)

    def test_missing_oracle(self):
        from precondsgd import make_synthetic_logistic

        p = make_synthetic_logistic(30, 3, seed=0, batch=5)
        with pytest.raises(MissingOracleError):
            idealized_A(p, PreconditionerKind(), np.zeros(3))
        with pytest.raises(MissingOracleError):
            Preconditioner(PreconditionerKind(), 3).direction(p, np.zeros(3), np.ones(3))

    def test_direction_is_dense_times_g(self):
        rng = rng_for(36)
        p = make_quadratic_gaussian(3, random_spd(rng, 3), random_spd(rng, 3))
        x, g = rng.standard_normal(3), rng.standard_normal(3)
        for variant in ("identity", "full_matrix", "diagonal", "covariance_full_matrix"):
            pre = Preconditioner(PreconditionerKind(variant=variant, epsilon=0.1), 3)
            assert np.allclose(pre.direction(p, x, g), pre.dense(p, x) @ g, rtol=1e-12, atol=1e-14)


class TestEmaUpdate:
    def test_single_update_from_zero(self):
        pre = Preconditioner(RECOVERABLE, 2, "estimated")
        pre.observe(np.array([1.0, 0.0]), 0.9)
        assert np.allclose(g_hat_of(pre), 0.1 * np.diag([1.0, 0.0]), atol=1e-15)

    def test_repeated_identical_gradient_geometric_series(self):
        g = np.array([0.5, -1.5])
        beta, T = 0.8, 17
        pre = Preconditioner(RECOVERABLE, 2, "estimated")
        for _ in range(T):
            pre.observe(g, beta)
        assert np.allclose(g_hat_of(pre), (1.0 - beta**T) * np.outer(g, g), rtol=1e-12)

    def test_beta_zero_keeps_no_memory(self):
        pre = Preconditioner(RECOVERABLE, 2, "estimated")
        pre.observe(np.array([1.0, 2.0]), 0.0)
        pre.observe(np.array([3.0, 0.0]), 0.0)
        assert np.allclose(g_hat_of(pre), np.outer([3.0, 0.0], [3.0, 0.0]), atol=1e-14)

    def test_dim_mismatch(self):
        pre = Preconditioner(PreconditionerKind(), 2, "estimated")
        with pytest.raises(DimMismatchError):
            pre.observe(np.ones(3), 0.5)

    def test_observe_is_a_no_op_unless_estimating(self):
        p = make_saddle_problem()
        x, g = np.array([0.3, -0.2]), np.array([1.0, 2.0])
        for pre in (
            Preconditioner(PreconditionerKind(epsilon=0.1), 2),
            Preconditioner(PreconditionerKind(variant="identity"), 2, "estimated"),
        ):
            before = pre.direction(p, x, g)
            pre.observe(np.array([5.0, -5.0]), 0.5)
            assert np.array_equal(pre.direction(p, x, g), before)
            assert pre.est_error(p, x) == 0.0

    def test_one_eigh_per_observe(self, monkeypatch):
        p = make_quadratic_gaussian(2, np.eye(2), np.eye(2))
        x = np.array([0.5, -0.5])
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        pre = Preconditioner(PreconditionerKind(epsilon=0.1), 2, "estimated")
        pre.observe(np.array([1.0, 2.0]), 0.9)
        pre.direction(p, x, np.ones(2))
        pre.dense(p, x)
        assert len(calls) == 1
        pre.est_error(p, x)  # decomposes G(x) only
        assert len(calls) == 2
        pre.observe(np.array([1.0, -1.0]), 0.9)
        pre.direction(p, x, np.ones(2))
        assert len(calls) == 3


class TestEstimatedA:
    def test_diagonal_example(self):
        pre = estimated_with(np.diag([3.0, 0.0]), PreconditionerKind(variant="full_matrix", epsilon=1.0))
        assert np.allclose(pre.dense(None, None), np.diag([0.5, 1.0]), rtol=1e-12)

    def test_identity_g_hat(self):
        pre = estimated_with(np.eye(3), PreconditionerKind(variant="full_matrix", epsilon=0.0))
        assert np.allclose(pre.dense(None, None), np.eye(3), rtol=1e-12)

    def test_inverse_square_root_identity(self):
        rng = rng_for(30)
        for _ in range(10):
            g = random_spd(rng, 4)
            eps = float(rng.choice([0.0, 0.3]))
            a = estimated_with(g, PreconditionerKind(epsilon=eps)).dense(None, None)
            prod = a @ a @ (g + eps * np.eye(4))
            assert op_norm(prod - np.eye(4)) <= 1e-8

    def test_singular_raises(self):
        pre = Preconditioner(PreconditionerKind(epsilon=0.0), 2, "estimated")
        with pytest.raises(SingularMatrixError):
            pre.dense(None, None)

    def test_bias_correction_rescales(self):
        g = np.array([1.0, 2.0])
        beta, T = 0.9, 8
        pre = Preconditioner(PreconditionerKind(epsilon=1.0), 2, "estimated", bias_corrected=True)
        for _ in range(T):
            pre.observe(g, beta)
        expected = estimated_with(np.outer(g, g), PreconditionerKind(epsilon=1.0))
        assert np.allclose(pre.dense(None, None), expected.dense(None, None), rtol=1e-12)

    @pytest.mark.parametrize("variant", ["full_matrix", "diagonal"])
    def test_bias_correction_under_changing_beta(self, variant):
        # Dividing by 1 - prod(beta_t) recovers g g^T exactly for a constant
        # g; 1 - beta^t with the latest beta would give 2.89 g g^T here.
        g = np.array([0.6, -1.2])
        pre = Preconditioner(PreconditionerKind(variant=variant, epsilon=1.0, exponent=-1.0), 2, "estimated", True)
        for beta in (0.5, 0.9):
            pre.observe(g, beta)
        recovered = np.linalg.inv(pre.dense(None, None)) - np.eye(2)
        expected = np.outer(g, g) if variant == "full_matrix" else np.diag(g * g)
        assert np.allclose(recovered, expected, rtol=1e-12, atol=1e-14)


class TestConstants:
    def test_identity_saddle_origin(self):
        k = constants_identity(make_saddle_problem(), np.zeros(2))
        assert (k.nu1, k.nu2, k.lambda_minus) == (1.0, 1.0, 1.0)
        assert k.c3 == pytest.approx(1.01)
        assert k.c4 == pytest.approx(0.01)

    def test_identity_isotropic(self):
        k = constants_identity(problem_with_g(np.eye(3)), np.zeros(3))
        assert k.c3 == pytest.approx(3.0)
        assert k.c4 == pytest.approx(1.0)

    def test_identity_unit_constants_for_any_g(self):
        rng = rng_for(31)
        for _ in range(5):
            k = constants_identity(problem_with_g(random_spd(rng, 4)), np.zeros(4))
            assert (k.nu1, k.nu2, k.lambda_minus) == (1.0, 1.0, 1.0)

    def test_full_matrix_plugin(self):
        k = constants_full_matrix(problem_with_g(np.diag([1.0, 0.01])), np.zeros(2), eps=0.0)
        assert k.nu1 == pytest.approx(10.0)
        assert k.nu2 == pytest.approx(10.0)
        assert k.c3 == pytest.approx(2.0)
        assert k.c4 == pytest.approx(1.0)
        assert k.lambda_minus == pytest.approx(1.0)

    def test_full_matrix_identity_g(self):
        k = constants_full_matrix(problem_with_g(np.eye(4)), np.zeros(4), eps=0.0)
        assert (k.nu1, k.c3, k.c4, k.lambda_minus) == (1.0, 4.0, 1.0, 1.0)

    def test_full_matrix_large_eps_limit(self):
        p = problem_with_g(np.diag([0.8, 0.2]))
        k0 = constants_full_matrix(p, np.zeros(2), eps=0.0)
        k = constants_full_matrix(p, np.zeros(2), eps=1e12)
        assert k.c3 <= 1e-6 * k0.c3
        assert k.c4 <= 1e-6 * k0.c4
        assert k.lambda_minus <= 1e-6 * k0.lambda_minus

    def test_diagonal_matches_full_for_diagonal_g(self):
        p = problem_with_g(np.diag([1.0, 0.01]))
        kd = constants_diagonal(p, np.zeros(2), eps=0.0)
        kf = constants_full_matrix(p, np.zeros(2), eps=0.0)
        assert kd.nu1 == pytest.approx(kf.nu1)
        assert kd.c3 == pytest.approx(kf.c3)
        assert kd.c4 == pytest.approx(kf.c4)
        assert kd.lambda_minus == pytest.approx(kf.lambda_minus)
        assert kd.nu1 == pytest.approx(10.0)
        assert kd.c3 == pytest.approx(2.0)
        assert kd.c4 == pytest.approx(1.0)

    def test_diagonal_correlation_factor(self):
        k = constants_diagonal(problem_with_g(np.array([[2.0, 1.0], [1.0, 2.0]])), np.zeros(2), eps=0.0)
        # lambda_min(G diag(G)^-1) = lambda_min([[1, .5], [.5, 1]]) = 0.5
        assert k.c4 == pytest.approx(0.5)


class TestComplexityFactor:
    def test_unit_constants(self):
        k = PreconditionerConstants(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert second_order_complexity_factor(k) == 1.0

    def test_full_matrix_closed_form(self):
        rng = rng_for(32)
        for _ in range(10):
            dim = int(rng.integers(2, 7))
            g = random_spd(rng, dim)
            lam = np.linalg.eigvalsh(g)
            kappa = lam[-1] / lam[0]
            k = constants_full_matrix(problem_with_g(g), np.zeros(dim), eps=0.0)
            closed = dim**4 * kappa**4 * lam[-1]
            assert second_order_complexity_factor(k) == pytest.approx(closed, rel=1e-9)

    def test_sgd_comparison_small_lambda_max(self):
        # lambda_max(G) <= 1 regime: the full-matrix bound d^4 k^4 lambda_max
        # beats the d^4 k^4 bound that caps the identity factor
        g = np.diag([0.5, 0.005])
        p = problem_with_g(g)
        kappa = 0.5 / 0.005
        sgd_bound = 2**4 * kappa**4
        k_rms = constants_full_matrix(p, np.zeros(2), eps=0.0)
        rms_factor = second_order_complexity_factor(k_rms)
        assert rms_factor == pytest.approx(2**4 * kappa**4 * 0.5, rel=1e-9)
        assert rms_factor < sgd_bound
        k_sgd = constants_identity(p, np.zeros(2))
        assert second_order_complexity_factor(k_sgd) <= sgd_bound * (1 + 1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParamError):
            second_order_complexity_factor(PreconditionerConstants(1, 1, 0, 1, 1, 1))


def constants_for(variant, problem, x, eps):
    if variant == "identity":
        return constants_identity(problem, x)
    if variant == "full_matrix":
        return constants_full_matrix(problem, x, eps)
    return constants_diagonal(problem, x, eps)


def test_definitional_inequalities_hold():
    """The (nu1, c3, c4, lambda_-) inequalities hold for each calculator."""
    rng = rng_for(33)
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        g = random_spd(rng, dim)
        problem = problem_with_g(g)
        x = np.zeros(dim)
        eps = float(rng.choice([0.0, 0.1, 1.0]))
        grad = rng.standard_normal(dim)
        for variant in ("identity", "full_matrix", "diagonal"):
            k = constants_for(variant, problem, x, eps)
            a = SymMatrix(idealized_A(problem, PreconditionerKind(variant=variant, epsilon=eps), x))
            a_half = sym_power(a, 0.5, 0.0)
            lhs = np.linalg.norm(a.a @ grad) ** 2
            rhs = k.nu1 * np.linalg.norm(a_half.a @ grad) ** 2
            assert lhs <= rhs * (1 + 1e-9)
            aga = a.a @ g @ a.a.T
            assert np.linalg.eigvalsh(aga)[0] >= k.c4 * (1 - 1e-9)
            assert np.trace(aga) <= k.c3 * (1 + 1e-9)
            assert a.lambda_min() >= k.lambda_minus * (1 - 1e-9)


def test_covariance_rank_one_estimator_unbiased():
    """E[(g1-g2)(g1-g2)^T / 2] equals the gradient covariance."""
    p = make_saddle_problem()
    x = np.array([0.5, -0.2])
    rng = rng_for(34)
    n = 100_000
    g1 = p.sample_grad_batch(x, n, rng)
    g2 = p.sample_grad_batch(x, n, rng)
    v = (g1 - g2) / np.sqrt(2.0)
    emp = v.T @ v / n
    sigma = np.diag([1.0, 0.01])
    scale = np.sqrt(np.outer(np.diag(sigma), np.diag(sigma)))
    assert np.all(np.abs(emp - sigma) <= 0.08 * scale)


def test_estimate_m_bound_scale():
    p = problem_with_g(np.eye(3))
    m = estimate_m_bound(p, PreconditionerKind(epsilon=0.0), np.zeros(3), 2000, rng_for(35))
    # ||A g|| with A = G^-1/2 is a standard 3-d Gaussian norm: max of 2000
    # draws lands in a narrow band around 4-5
    assert 3.0 <= m <= 7.0
