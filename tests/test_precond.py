import numpy as np
import pytest

from lemmas import dense, random_spd, rng_for, sym_power
from precondsgd import (
    CounterexampleProblem,
    DimMismatchError,
    InvalidParamError,
    MissingOracleError,
    Preconditioner,
    PreconditionerKind,
    QuadraticGaussianProblem,
    SaddleProblem2D,
    SingularMatrixError,
    constants,
    op_norm,
)


def idealized_A(problem, kind, x):
    return dense(Preconditioner(kind, problem.dim), problem, x)


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
    return np.linalg.inv(dense(pre, None, None)) - np.eye(pre.dim)


def problem_with_g(g):
    """Zero objective whose exact second moment is the given constant matrix."""
    d = g.shape[0]
    return QuadraticGaussianProblem(d, np.zeros((d, d)), g)


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
        p = SaddleProblem2D()
        a = idealized_A(p, PreconditionerKind(variant="identity"), np.array([0.3, -0.2]))
        assert np.array_equal(a, np.eye(2))

    def test_counterexample_constant_scalar(self):
        p = CounterexampleProblem(C=2.0, zeta=0.1)
        kind = PreconditionerKind(variant="full_matrix", epsilon=0.0, exponent=-0.5)
        for x in (-0.9, 0.0, 0.7):
            a = idealized_A(p, kind, np.array([x]))
            assert a[0, 0] == pytest.approx(1.0 / np.sqrt(2.1), rel=1e-12)

    def test_saddle_origin_full_matrix(self):
        p = SaddleProblem2D()
        a = idealized_A(p, PreconditionerKind(variant="full_matrix"), np.zeros(2))
        assert np.allclose(a, np.diag([1.0, 10.0]), rtol=1e-12)

    def test_covariance_kind_removes_mean_term(self):
        p = SaddleProblem2D()
        kind = PreconditionerKind(variant="covariance_full_matrix")
        for x in (np.zeros(2), np.array([0.4, -0.3])):
            a = idealized_A(p, kind, x)
            assert np.allclose(a, np.diag([1.0, 10.0]), rtol=1e-10)

    def test_covariance_kind_at_one_dimension_removes_the_squared_gradient(self):
        # At d = 1 the covariance form is diagonal: G(x) - grad(x)^2 = (1.5 x)^2 + 0.25 - (1.5 x)^2, so A = 2.
        p = QuadraticGaussianProblem(1, np.array([[1.5]]), np.array([[0.25]]))
        kind = PreconditionerKind(variant="covariance_full_matrix", epsilon=0.0)
        for x in (0.0, 2.0):
            assert idealized_A(p, kind, np.array([x]))[0, 0] == pytest.approx(2.0, rel=1e-12)

    def test_missing_oracle(self):
        from precondsgd import make_synthetic_logistic

        p = make_synthetic_logistic(30, 3, seed=0, batch=5)
        with pytest.raises(MissingOracleError):
            idealized_A(p, PreconditionerKind(), np.zeros(3))
        with pytest.raises(MissingOracleError):
            Preconditioner(PreconditionerKind(), 3).direction(p, np.zeros(3), np.ones(3))

    def test_direction_is_dense_times_g(self):
        rng = rng_for(36)
        p = QuadraticGaussianProblem(3, random_spd(rng, 3, lam_lo=0.05), random_spd(rng, 3, lam_lo=0.05))
        x, g = rng.standard_normal(3), rng.standard_normal(3)
        for variant in ("identity", "full_matrix", "diagonal", "covariance_full_matrix"):
            pre = Preconditioner(PreconditionerKind(variant=variant, epsilon=0.1), 3)
            assert np.allclose(pre.direction(p, x, g), dense(pre, p, x) @ g, rtol=1e-12, atol=1e-14)


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
        p = SaddleProblem2D()
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
        p = QuadraticGaussianProblem(2, np.eye(2), np.eye(2))
        x = np.array([0.5, -0.5])
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        pre = Preconditioner(PreconditionerKind(epsilon=0.1), 2, "estimated")
        pre.observe(np.array([1.0, 2.0]), 0.9)
        pre.direction(p, x, np.ones(2))
        pre.spectrum(p, x)
        assert len(calls) == 1
        pre.est_error(p, x)  # decomposes G(x) only
        assert len(calls) == 2
        pre.observe(np.array([1.0, -1.0]), 0.9)
        pre.direction(p, x, np.ones(2))
        assert len(calls) == 3


class TestEstimatedA:
    def test_diagonal_example(self):
        pre = estimated_with(np.diag([3.0, 0.0]), PreconditionerKind(variant="full_matrix", epsilon=1.0))
        assert np.allclose(dense(pre, None, None), np.diag([0.5, 1.0]), rtol=1e-12)

    def test_identity_g_hat(self):
        pre = estimated_with(np.eye(3), PreconditionerKind(variant="full_matrix", epsilon=0.0))
        assert np.allclose(dense(pre, None, None), np.eye(3), rtol=1e-12)

    def test_inverse_square_root_identity(self):
        rng = rng_for(30)
        for _ in range(10):
            g = random_spd(rng, 4, lam_lo=0.05)
            eps = float(rng.choice([0.0, 0.3]))
            a = dense(estimated_with(g, PreconditionerKind(epsilon=eps)), None, None)
            prod = a @ a @ (g + eps * np.eye(4))
            assert op_norm(prod - np.eye(4)) <= 1e-8

    def test_singular_raises(self):
        pre = Preconditioner(PreconditionerKind(epsilon=0.0), 2, "estimated")
        with pytest.raises(SingularMatrixError):
            pre.spectrum(None, None)

    @pytest.mark.parametrize("variant, bad, epsilon",
                             [("full_matrix", np.inf, 1e-8), ("diagonal", np.nan, 1e-8), ("diagonal", 0.0, 0.0)])
    def test_an_eigenvalue_that_is_not_positive_marks_only_its_seed(self, variant, bad, epsilon):
        """An inf in one seed's full-matrix Ghat makes eigh return NaN eigenvalues, a NaN sample a NaN
        diagonal, and a zero sample without eps a zero one: none is positive, so only that seed's row is marked."""
        pre = Preconditioner(PreconditionerKind(variant, epsilon=epsilon), 2, "estimated", batch=3)
        pre.observe(np.array([[1.0, 0.5], [bad, 1.0], [0.3, -2.0]]), 0.5)
        with pytest.raises(SingularMatrixError, match=r"lambda_min\(Ghat\) \+ eps not positive") as info:
            pre.spectrum(None, None)
        assert info.value.rows.tolist() == [False, True, False]

    @pytest.mark.parametrize("variant", ["full_matrix", "diagonal"])
    @pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
    def test_keep_drops_seeds_from_the_estimate_and_its_cached_spectrum(self, variant, cached):
        rng = rng_for(38)
        kind = PreconditionerKind(variant, epsilon=0.1)
        samples, g = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))

        def observed():
            pre = Preconditioner(kind, 2, "estimated", batch=3)
            pre.observe(samples, 0.5)
            return pre

        expected = observed().direction(None, None, g)[[0, 2]]
        pre = observed()
        if cached:
            pre.spectrum(None, None)
        pre.keep(np.array([True, False, True]))
        assert np.array_equal(pre.direction(None, None, g[[0, 2]]), expected)
        pre.observe(samples[[0, 2]], 0.5)  # the kept seeds are the batch now

    def test_bias_correction_rescales(self):
        g = np.array([1.0, 2.0])
        beta, T = 0.9, 8
        pre = Preconditioner(PreconditionerKind(epsilon=1.0), 2, "estimated", bias_corrected=True)
        for _ in range(T):
            pre.observe(g, beta)
        expected = estimated_with(np.outer(g, g), PreconditionerKind(epsilon=1.0))
        assert np.allclose(dense(pre, None, None), dense(expected, None, None), rtol=1e-12)

    @pytest.mark.parametrize("variant", ["full_matrix", "diagonal"])
    def test_bias_correction_under_changing_beta(self, variant):
        # Dividing by 1 - prod(beta_t) recovers g g^T exactly for a constant
        # g; 1 - beta^t with the latest beta would give 2.89 g g^T here.
        g = np.array([0.6, -1.2])
        pre = Preconditioner(PreconditionerKind(variant=variant, epsilon=1.0, exponent=-1.0), 2, "estimated", True)
        for beta in (0.5, 0.9):
            pre.observe(g, beta)
        recovered = np.linalg.inv(dense(pre, None, None)) - np.eye(2)
        expected = np.outer(g, g) if variant == "full_matrix" else np.diag(g * g)
        assert np.allclose(recovered, expected, rtol=1e-12, atol=1e-14)


class TestEstimationError:
    @pytest.mark.parametrize("variant", ["full_matrix", "diagonal"])
    def test_it_is_the_norm_of_the_difference_not_of_the_spectra(self, variant):
        # Ghat = diag(4, 1) and G(x) = diag(1, 4) share a spectrum, but Ahat = diag(1/2, 1) and
        # A(x) = diag(1, 1/2) differ by diag(-1/2, 1/2).
        pre = estimated_with(np.diag([4.0, 1.0]), PreconditionerKind(variant, epsilon=0.0))
        assert pre.est_error(problem_with_g(np.diag([1.0, 4.0])), np.zeros(2)) == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("variant", ["full_matrix", "diagonal"])
    def test_a_batch_gets_each_seeds_own_est_error(self, variant):
        rng = rng_for(37)
        p = QuadraticGaussianProblem(2, random_spd(rng, 2), random_spd(rng, 2))
        kind = PreconditionerKind(variant, epsilon=0.1)
        samples, xs = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
        together = Preconditioner(kind, 2, "estimated", batch=3)
        together.observe(samples, 0.5)
        errors = together.est_error(p, xs)
        assert errors.shape == (3,)
        for sample, x, error in zip(samples, xs, errors):
            alone = Preconditioner(kind, 2, "estimated")
            alone.observe(sample, 0.5)
            assert error == alone.est_error(p, x)


IDENTITY_KIND = PreconditionerKind("identity")
FULL_KIND = PreconditionerKind("full_matrix")
DIAGONAL_KIND = PreconditionerKind("diagonal")


class TestConstants:
    def test_identity_saddle_origin(self):
        k = constants(SaddleProblem2D(), np.zeros(2), IDENTITY_KIND)
        assert (k.nu1, k.nu2, k.lambda_minus) == (1.0, 1.0, 1.0)
        assert k.c3 == pytest.approx(1.01)
        assert k.c4 == pytest.approx(0.01)

    def test_identity_isotropic(self):
        k = constants(problem_with_g(np.eye(3)), np.zeros(3), IDENTITY_KIND)
        assert k.c3 == pytest.approx(3.0)
        assert k.c4 == pytest.approx(1.0)

    def test_identity_unit_constants_for_any_g(self):
        rng = rng_for(31)
        for _ in range(5):
            k = constants(problem_with_g(random_spd(rng, 4, lam_lo=0.05)), np.zeros(4), IDENTITY_KIND)
            assert (k.nu1, k.nu2, k.lambda_minus) == (1.0, 1.0, 1.0)

    def test_full_matrix_plugin(self):
        k = constants(problem_with_g(np.diag([1.0, 0.01])), np.zeros(2), FULL_KIND)
        assert k.nu1 == pytest.approx(10.0)
        assert k.nu2 == pytest.approx(10.0)
        assert k.c3 == pytest.approx(2.0)
        assert k.c4 == pytest.approx(1.0)
        assert k.lambda_minus == pytest.approx(1.0)

    def test_full_matrix_identity_g(self):
        k = constants(problem_with_g(np.eye(4)), np.zeros(4), FULL_KIND)
        assert (k.nu1, k.c3, k.c4, k.lambda_minus) == (1.0, 4.0, 1.0, 1.0)

    def test_full_matrix_large_eps_limit(self):
        p = problem_with_g(np.diag([0.8, 0.2]))
        k0 = constants(p, np.zeros(2), FULL_KIND)
        k = constants(p, np.zeros(2), PreconditionerKind(epsilon=1e12))
        assert k.c3 <= 1e-6 * k0.c3
        assert k.c4 <= 1e-6 * k0.c4
        assert k.lambda_minus <= 1e-6 * k0.lambda_minus

    def test_diagonal_matches_full_for_diagonal_g(self):
        p = problem_with_g(np.diag([1.0, 0.01]))
        kd = constants(p, np.zeros(2), DIAGONAL_KIND)
        kf = constants(p, np.zeros(2), FULL_KIND)
        assert kd.nu1 == pytest.approx(kf.nu1)
        assert kd.c3 == pytest.approx(kf.c3)
        assert kd.c4 == pytest.approx(kf.c4)
        assert kd.lambda_minus == pytest.approx(kf.lambda_minus)
        assert kd.nu1 == pytest.approx(10.0)
        assert kd.c3 == pytest.approx(2.0)
        assert kd.c4 == pytest.approx(1.0)

    def test_diagonal_correlation_factor(self):
        k = constants(problem_with_g(np.array([[2.0, 1.0], [1.0, 2.0]])), np.zeros(2), DIAGONAL_KIND)
        # lambda_min(G diag(G)^-1) = lambda_min([[1, .5], [.5, 1]]) = 0.5
        assert k.c4 == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "kind",
        [
            PreconditionerKind("covariance_full_matrix"),
            PreconditionerKind("full_matrix", exponent=-1.0),
            PreconditionerKind("diagonal", exponent=-1.0),
        ],
        ids=("covariance", "full_matrix-exponent-1", "diagonal-exponent-1"),
    )
    def test_kinds_without_constants_are_rejected(self, kind):
        with pytest.raises(InvalidParamError, match="no constants"):
            constants(problem_with_g(np.eye(2)), np.zeros(2), kind)

    def test_identity_ignores_the_exponent(self):
        p = problem_with_g(np.diag([1.0, 0.01]))
        k = constants(p, np.zeros(2), PreconditionerKind("identity", exponent=-1.0))
        assert k == constants(p, np.zeros(2), IDENTITY_KIND)


def test_definitional_inequalities_hold():
    """The (nu1, c3, c4, lambda_-) inequalities hold for each calculator."""
    rng = rng_for(33)
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        g = random_spd(rng, dim, lam_lo=0.05)
        problem = problem_with_g(g)
        x = np.zeros(dim)
        eps = float(rng.choice([0.0, 0.1, 1.0]))
        grad = rng.standard_normal(dim)
        for variant in ("identity", "full_matrix", "diagonal"):
            kind = PreconditionerKind(variant=variant, epsilon=eps)
            k = constants(problem, x, kind)
            a = idealized_A(problem, kind, x)
            a_half = sym_power(a, 0.5, 0.0)
            lhs = np.linalg.norm(a @ grad) ** 2
            rhs = k.nu1 * np.linalg.norm(a_half @ grad) ** 2
            assert lhs <= rhs * (1 + 1e-9)
            aga = a @ g @ a.T
            assert np.linalg.eigvalsh(aga)[0] >= k.c4 * (1 - 1e-9)
            assert np.trace(aga) <= k.c3 * (1 + 1e-9)
            assert np.linalg.eigvalsh(a)[0] >= k.lambda_minus * (1 - 1e-9)


def test_covariance_rank_one_estimator_unbiased():
    """E[(g1-g2)(g1-g2)^T / 2] equals the gradient covariance."""
    p = SaddleProblem2D()
    x = np.array([0.5, -0.2])
    rng = rng_for(34)
    n = 100_000
    g1 = p.sample_grad(x, rng, n)
    g2 = p.sample_grad(x, rng, n)
    v = (g1 - g2) / np.sqrt(2.0)
    emp = v.T @ v / n
    sigma = np.diag([1.0, 0.01])
    scale = np.sqrt(np.outer(np.diag(sigma), np.diag(sigma)))
    assert np.all(np.abs(emp - sigma) <= 0.08 * scale)


@pytest.mark.parametrize(
    "args, message",
    [(dict(dim=2, source="guessed"), "unknown preconditioner source 'guessed'"), (dict(dim=0), "dim must be >= 1"),
     (dict(dim=2, batch=0), "batch must be >= 1")],
    ids=("source", "dim", "batch"),
)
def test_a_preconditioner_refuses_a_source_dim_or_batch_outside_its_domain(args, message):
    with pytest.raises(InvalidParamError, match=message):
        Preconditioner(PreconditionerKind(), **args)
    assert Preconditioner(PreconditionerKind(), 1, "estimated", batch=1).dim == 1  # the smallest that builds


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: constants(problem_with_g(np.diag([1.0, 0.0])), np.zeros(2), DIAGONAL_KIND), SingularMatrixError,
         "diagonal entries of G must be positive"),
        (lambda: constants(problem_with_g(np.diag([1.0, 0.0])), np.zeros(2), FULL_KIND), SingularMatrixError,
         "lambda_min(G) + eps must be positive"),  # FULL_KIND has eps = 0
    ],
    ids=("constants-diagonal", "constants-full"),
)
def test_a_calculator_refuses_an_input_outside_its_domain(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message
