import math
from dataclasses import asdict, replace
from functools import partial

import numpy as np
import pytest

from lemmas import dense, rng_for
from precondsgd import (
    CounterexampleProblem,
    InvalidParamError,
    NonFiniteError,
    Preconditioner,
    PreconditionerConstants,
    PreconditionerKind,
    QuadraticGaussianProblem,
    Run,
    SaddleProblem2D,
    SingularMatrixError,
    StochasticProblem,
    check_stationarity,
    constants,
    first_order_params,
    hessian_tolerance,
    run_sgd,
    second_order_params,
)
from precondsgd.estimation import (
    EstimationBoundInputs,
    beta_schedule,
    burn_in_length,
    estimation_error_bound,
    hallucination_count,
)


def identity_source():
    return partial(Run, PreconditionerKind(variant="identity"), "idealized", False)


def idealized(kind):
    return partial(Run, kind, "idealized", False)


def estimated(kind=None):
    return partial(Run, PreconditionerKind() if kind is None else kind, "estimated", False)


def run1(problem, make_run, hp, T, rng, **options):
    """The one Trajectory of a single-seed run of make_run(T, **hp, **options)."""
    return run_sgd(problem, make_run(T, **hp, **options), [rng])[0]


class ConstantGradientProblem(StochasticProblem):
    """Noiseless 1-d linear objective f = c x: constant gradient c."""

    dim = 1

    def __init__(self, c):
        self.c = float(c)

    def eval_f(self, x):
        f = self.c * np.asarray(x)[..., 0]
        return float(f) if np.ndim(x) == 1 else f

    def grad(self, x):
        return np.full(np.shape(x), self.c)

    def sample_grad(self, x, rng):
        return np.array([self.c])

    def exact_G(self, x):
        return np.array([[self.c**2]])

    def hessian(self, x):
        return 0.0


def test_a_run_rejects_an_unknown_eta_decay():
    sgd = partial(Run, PreconditionerKind("identity"), "idealized", False, 10, 0.1)
    assert sgd(eta_decay="inv_sqrt").eta_decay == "inv_sqrt"
    with pytest.raises(InvalidParamError, match="eta_decay"):
        sgd(eta_decay="inv_square")


@pytest.mark.parametrize(
    "source, fields, message",
    [
        ("idealized", dict(T=0), "T must be >= 1"),
        ("idealized", dict(log_every=0), "log_every must be >= 1"),
        ("idealized", dict(lambda_min_every=-3), "lambda_min_every must be >= 0"),
        ("estimated", {}, "needs beta or a beta schedule"),
        ("idealized", dict(r=0.05, t_thresh=5), "large-step mode needs r >= eta"),
        ("estimated", dict(beta=0.9, r=0.5, t_thresh=5), "estimated large-step mode needs S"),
        ("idealized", dict(eta=-0.1), "eta must be nonnegative"),
        ("idealized", dict(beta=1.0), r"beta must be in \[0, 1\)"),
        ("idealized", dict(beta=-0.1), r"beta must be in \[0, 1\)"),
        ("idealized", dict(beta=0.9, beta_c=1.0), "set beta or beta_c, not both"),
        ("idealized", dict(r=0.2, t_thresh=0), "t_thresh must be >= 1"),
        ("idealized", dict(W=-1), "W must be >= 0"),
        ("idealized", dict(S=0), "S must be >= 1"),
    ],
    ids=("T", "log_every", "lambda_min_every", "no-beta", "r-below-eta", "no-S",
         "eta", "beta-1", "beta-negative", "beta-and-beta_c", "t_thresh", "W", "S"),
)
def test_a_run_is_checked_when_it_is_built(source, fields, message):
    with pytest.raises(InvalidParamError, match=message):
        Run(PreconditionerKind(variant="diagonal"), source, False, **{"T": 10, "eta": 0.1, **fields})


def test_a_run_takes_each_domain_boundary():
    run = Run(PreconditionerKind(), "estimated", False, 1, 0.0, beta=0.0, r=0.1, t_thresh=1, W=0, S=1)
    assert (run.T, run.eta, run.beta, run.t_thresh, run.W, run.S, run.lambda_min_every) == (1, 0.0, 0.0, 1, 0, 1, 0)


@pytest.mark.parametrize("x0", [(0.0,), (0.0, 0.0, 0.0), (math.nan, 0.0), (0.0, -math.inf)],
                         ids=("short", "long", "nan", "inf"))
def test_run_sgd_refuses_an_x0_that_is_not_a_finite_point_of_the_problem(x0):
    run = Run(PreconditionerKind("identity"), "idealized", False, 5, 0.1, x0=x0)
    with pytest.raises(InvalidParamError, match="x0 must be a finite point of the problem dimension"):
        run_sgd(SaddleProblem2D(), run, [rng_for(0)])


def test_run_sgd_needs_an_rng_stream():
    run = Run(PreconditionerKind("identity"), "idealized", False, 5, 0.1)
    with pytest.raises(InvalidParamError, match="at least one RNG stream"):
        run_sgd(SaddleProblem2D(), run, [])


def test_equal_runs_compare_equal_and_hold_plain_data():
    def run(x0):
        return Run(PreconditionerKind(), "estimated", False, 10, 0.1, beta=0.9, x0=x0)

    assert run(np.zeros(2)) == run(np.zeros(2)) == run([0.0, 0.0])
    assert run(np.zeros(2)) != run(np.array([0.0, 1.0])) != replace(run(None), x0=(0.0, 1.0, 2.0))
    assert asdict(run(np.array([0.5, -1.0])))["x0"] == (0.5, -1.0)
    assert type(run(np.ones(2)).x0[0]) is float


class TestPreconditionedSgd:
    def test_identity_noiseless_geometric_decay(self):
        p = QuadraticGaussianProblem(2, np.eye(2), np.zeros((2, 2)))
        traj = run1(p, identity_source(), dict(eta=0.1), 15, rng_for(0), x0=[1.0, 0.0])
        assert np.array_equal(traj.iteration, np.arange(15))
        for t, x in enumerate(traj.x):
            assert np.allclose(x, [0.9**t, 0.0], rtol=1e-10)

    def test_zero_stepsize_stays_put(self):
        p = QuadraticGaussianProblem(2, np.eye(2), np.eye(2))
        traj = run1(p, identity_source(), dict(eta=0.0), 20, rng_for(1), x0=[0.4, -0.2])
        assert len(traj) == 20
        for x in traj.x:
            assert np.array_equal(x, [0.4, -0.2])

    def test_idealized_full_matrix_on_counterexample(self):
        # A is the constant 1/sqrt(E[g^2]), so the run is SGD up to scale
        # and drifts to the boundary -1
        p = CounterexampleProblem(C=2.0, zeta=0.1)
        kind = PreconditionerKind(variant="full_matrix", epsilon=0.0)
        hp = dict(eta=0.005)
        xs = run1(p, idealized(kind), hp, 8000, rng_for(2), x0=[0.0]).x[:, 0]
        scale = 1.0 / math.sqrt(2.1)
        moves = np.diff(xs)
        away = moves[moves > 0]
        # every unclipped move away from -1 is the -1-gradient step eta * A
        assert away.size and np.all(np.abs(away - hp["eta"] * scale) <= 1e-12)
        assert np.all((-1.0 <= xs) & (xs <= 1.0))
        assert xs[-1] <= -0.9

    def test_determinism_bitwise(self):
        p = SaddleProblem2D()
        hp = dict(eta=0.01, beta=0.95)
        kind = PreconditionerKind(variant="diagonal", epsilon=1e-8)
        a = run1(p, estimated(kind), hp, 300, rng_for(7), x0=[0.1, 0.1])
        b = run1(p, estimated(kind), hp, 300, rng_for(7), x0=[0.1, 0.1])
        assert len(a) == len(b) == 300
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.f, b.f) and np.array_equal(a.grad_norm, b.grad_norm)

    def test_estimated_identity_matches_idealized_identity(self):
        p = SaddleProblem2D()
        hp = dict(eta=0.01)
        a = run1(p, identity_source(), hp, 100, rng_for(8), x0=[0.2, 0.0])
        src = estimated(PreconditionerKind(variant="identity"))
        b = run1(p, src, hp, 100, rng_for(8), x0=[0.2, 0.0])
        assert np.array_equal(a.x, b.x)


class TestRmsprop:
    def test_beta_zero_is_sign_sgd(self):
        p = QuadraticGaussianProblem(1, np.eye(1), np.eye(1))
        hp = dict(eta=0.01, beta=0.0)
        traj = run1(p, estimated(PreconditionerKind(epsilon=0.0)), hp, 50, rng_for(3), x0=[2.0])
        assert np.allclose(np.abs(np.diff(traj.x[:, 0])), hp["eta"], rtol=1e-12, atol=0.0)

    def test_constant_gradient_approaches_normalized_step(self):
        p = ConstantGradientProblem(c=3.0)
        hp = dict(eta=0.05, beta=0.9)
        traj = run1(p, estimated(PreconditionerKind(epsilon=0.0)), hp, 120, rng_for(4), x0=[0.0])
        late = np.abs(np.diff(traj.x[-21:, 0]))
        assert np.allclose(late, hp["eta"], rtol=1e-4, atol=0.0)

    def test_exponent_minus_one_step_blows_past_ten_eta(self):
        # near stationarity the -1 exponent takes steps eta/|grad| >> eta
        p = QuadraticGaussianProblem(1, np.eye(1), np.zeros((1, 1)))
        hp = dict(eta=1e-3, beta=0.0)
        kind = PreconditionerKind(epsilon=0.0, exponent=-1.0)
        traj = run1(p, estimated(kind), hp, 3, rng_for(5), x0=[5e-5])
        assert traj.grad_norm[0] < 0.1 * hp["eta"]
        step = abs(traj.x[1, 0] - traj.x[0, 0])
        assert step > 10.0 * hp["eta"]

    def test_exponent_minus_one_near_stationary_start_diverges(self):
        p = QuadraticGaussianProblem(1, np.eye(1), np.zeros((1, 1)))
        hp = dict(eta=1e-3, beta=0.0)
        kind = PreconditionerKind(epsilon=0.0, exponent=-1.0)
        traj = run1(p, estimated(kind), hp, 10, rng_for(6), x0=[1e-60])
        assert isinstance(traj.error, NonFiniteError)
        assert len(traj) >= 1  # partial trajectory retained

    def test_covariance_kind_converges_near_stationarity(self):
        # Sigma^(-1/2) preconditioning: stable on the quadratic where the
        # noise covariance is constant (its intended near-stationary use)
        p = QuadraticGaussianProblem(2, np.diag([1.0, 0.5]), np.diag([0.5, 0.1]))
        hp = dict(eta=0.01, beta=0.95)
        kind = PreconditionerKind(variant="covariance_full_matrix", epsilon=1e-6)
        traj = run1(p, estimated(kind), hp, 1500, rng_for(9), x0=[2.0, -2.0])
        assert len(traj) == 1500
        assert traj.f[-1] < 0.05 * traj.f[0]


class TestBurnIn:
    def test_w_zero_identical_to_plain_rmsprop(self):
        p = SaddleProblem2D()
        kind = PreconditionerKind(variant="diagonal", epsilon=1e-8)
        a = run1(p, estimated(kind), dict(eta=0.005, beta=0.9), 200, rng_for(10))
        b = run1(p, estimated(kind), dict(eta=0.005, beta=0.9, W=0), 200, rng_for(10))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.f, b.f)

    def test_burnin_records_precede_iteration_zero(self):
        p = SaddleProblem2D()
        hp = dict(eta=0.005, beta=0.9, W=25)
        traj = run1(p, estimated(PreconditionerKind(epsilon=1e-8)), hp, 50, rng_for(11))
        burn = traj.step_kind == "burnin"
        assert np.count_nonzero(burn) == 25
        assert traj.iteration[burn].tolist() == list(range(-25, 0))
        assert np.all(traj.x[burn] == traj.x[0])
        assert traj.iteration[~burn][0] == 0
        assert np.all(np.diff(traj.iteration) > 0)

    def test_post_burnin_estimate_meets_bound(self):
        p = SaddleProblem2D()
        x0 = np.array([2.0, 1.0])
        eta, c_w = 0.01, 5.0
        W = burn_in_length(eta, c_w)
        beta = beta_schedule(eta, 1.0)
        hp = dict(eta=eta, beta=beta, W=W)
        traj = run1(
            p, estimated(PreconditionerKind(epsilon=0.5)), hp, 1, rng_for(12),
            x0=x0, track_est_error=True,
        )
        burn_err = traj.est_error[traj.step_kind == "burnin"][-1]

        grad = p.grad(x0)
        g_true = p.exact_G(x0)
        acc = np.zeros((2, 2))
        for b in p.B_SUPPORT:
            g = grad + b
            z = np.outer(g, g) - g_true
            acc += z @ z / 4.0
        sigma_max = math.sqrt(np.max(np.abs(np.linalg.eigvalsh(acc))))
        phi = estimation_error_bound(
            EstimationBoundInputs(
                sigma_max=sigma_max, M_step=0.0, L_G=0.0, eta=0.0,
                beta=beta, T=W, d=2, delta_prob=0.05,
            )
        )
        assert burn_err <= 5.0 * phi


class TestLargeStep:
    def test_degenerate_schedule_matches_plain_run(self):
        p = SaddleProblem2D()
        kind = PreconditionerKind(variant="full_matrix", epsilon=0.0)
        hp = dict(eta=0.01, r=0.01, t_thresh=1)
        a = run1(p, idealized(kind), dict(eta=0.01), 150, rng_for(13), x0=[0.3, 0.1])
        b = run1(p, idealized(kind), hp, 150, rng_for(13), x0=[0.3, 0.1])
        assert np.all(b.step_kind == "large")
        assert np.array_equal(a.x, b.x) and np.array_equal(a.f, b.f)

    def test_large_step_cadence(self):
        p = SaddleProblem2D()
        kind = PreconditionerKind(variant="full_matrix", epsilon=0.0)
        hp = dict(eta=0.001, r=0.01, t_thresh=40)
        traj = run1(p, idealized(kind), hp, 200, rng_for(14), x0=[0.0, 0.0])
        assert traj.iteration[traj.step_kind == "large"].tolist() == [0, 40, 80, 120, 160]

    def test_hallucination_s_one_samples_both_endpoints(self):
        p = SaddleProblem2D()
        kind = PreconditionerKind(variant="diagonal", epsilon=1e-8)
        hp = dict(eta=0.001, beta=0.9, r=0.01, t_thresh=50, S=1, W=0)
        traj = run1(p, estimated(kind), hp, 120, rng_for(15), x0=[0.0, 0.0])
        larges = np.flatnonzero(traj.step_kind == "large")
        # 3 large steps in 120 iterations at cadence 50, each hallucinating S+1 = 2
        assert np.count_nonzero(traj.step_kind == "hallucinated") == 2 * len(larges) == 6
        for i in larges:
            assert traj.step_kind[i + 1] == traj.step_kind[i + 2] == "hallucinated"
            # s=0 samples the step's start, s=S=1 its end: exactly one
            # hallucinated sample sits at the post-step point
            start, h0, h1, after = traj.x[i : i + 4]
            assert np.array_equal(h0, start)
            assert np.array_equal(h1, after)
            assert not np.array_equal(h1, h0)
        assert np.all(np.diff(traj.iteration) > 0)

    def test_estimated_mode_requires_s(self):
        p = SaddleProblem2D()
        hp = dict(eta=0.001, beta=0.9, r=0.01, t_thresh=10)
        with pytest.raises(InvalidParamError):
            run1(p, estimated(PreconditionerKind(epsilon=1e-8)), hp, 20, rng_for(16))

    def test_escape_acceleration_over_identity(self):
        p = SaddleProblem2D()
        kind = PreconditionerKind(variant="full_matrix", epsilon=0.0)
        hp = dict(eta=1e-3, r=1e-2, t_thresh=100)

        def escape_time(traj, level=-0.01):
            hit = np.flatnonzero(traj.f <= level)
            return traj.iteration[hit[0]] if hit.size else math.inf

        T, seeds = 6000, range(5)
        fm = [
            escape_time(run1(p, idealized(kind), hp, T, rng_for(100 + s), x0=[0.0, 0.0]))
            for s in seeds
        ]
        ident = [
            escape_time(run1(p, identity_source(), dict(eta=1e-3), T, rng_for(100 + s), x0=[0.0, 0.0]))
            for s in seeds
        ]
        assert np.median(fm) < np.median(ident)
        assert sum(t < math.inf for t in fm) >= 3
        assert all(t == math.inf for t in ident)


class TestProjection:
    def test_counterexample_iterates_stay_in_box(self):
        p = CounterexampleProblem(C=10.0, zeta=0.05)
        hp = dict(eta=0.05, beta=0.9)
        xs = run1(p, estimated(PreconditionerKind(epsilon=1e-8)), hp, 2000, rng_for(17), x0=[0.0]).x
        assert len(xs) == 2000
        assert np.all((-1.0 <= xs) & (xs <= 1.0))


class TestFirstOrderParams:
    def test_exact_variant(self):
        eta, T = first_order_params(1.0, 1.0, 1.0, 1.0, tau=0.1, exact=True)
        assert eta == pytest.approx(0.01)
        assert T == 20000

    def test_inexact_variant(self):
        eta, T = first_order_params(1.0, 1.0, 1.0, 1.0, tau=0.1, exact=False)
        assert eta == pytest.approx(0.01 / (4.0 * math.sqrt(2.0)))
        assert T == 320000

    def test_tau_fourth_power_law(self):
        _, t1 = first_order_params(1.0, 1.0, 1.0, 1.0, tau=0.1)
        _, t2 = first_order_params(1.0, 1.0, 1.0, 1.0, tau=0.05)
        assert t2 == 16 * t1

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParamError):
            first_order_params(0.0, 1.0, 1.0, 1.0, 0.1)


def unit_constants():
    return PreconditionerConstants(nu1=1.0, nu2=1.0, c3=1.0, c4=1.0, lambda_minus=1.0, M_bound=1.0)


class TestSecondOrderParams:
    def test_unit_substitution(self):
        hp = second_order_params(
            unit_constants(), 1.0, 1.0, tau=1.0,
            delta_prob=1.0, omega=1.0, k_const=0.125,
        )
        assert hp["r"] == pytest.approx((1.0 / 8.0) / 54.0, rel=1e-12)
        assert hp["eta"] == pytest.approx((1.0 / 64.0) / 324.0, rel=1e-12)
        assert hp["f_thresh"] == pytest.approx((1.0 / 64.0) / 648.0, rel=1e-12)
        assert hp["t_thresh"] == math.ceil(1.0 / (hp["eta"] * 1.0) - 1e-9)
        assert hp["g_thresh"] == pytest.approx(hp["f_thresh"] / hp["t_thresh"])

    def test_gamma_fifth_power_scaling(self):
        k = unit_constants()
        hp1 = second_order_params(k, 1.0, 1.0, tau=0.4, delta_prob=0.5)
        hp2 = second_order_params(k, 1.0, 1.0, tau=0.1, delta_prob=0.5)
        assert hp2["eta"] / hp1["eta"] == pytest.approx(1.0 / 32.0, rel=1e-9)
        assert hp2["r"] / hp1["r"] == pytest.approx(1.0 / 4.0, rel=1e-9)

    def test_amortized_increase_identity(self):
        rng = rng_for(18)
        for _ in range(100):
            k = PreconditionerConstants(
                nu1=float(rng.uniform(0.5, 5.0)),
                nu2=float(rng.uniform(0.5, 5.0)),
                c3=float(rng.uniform(0.1, 10.0)),
                c4=float(rng.uniform(0.1, 2.0)),
                lambda_minus=float(rng.uniform(0.1, 2.0)),
                M_bound=float(rng.uniform(0.5, 4.0)),
            )
            L, rho = float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 4.0))
            delta_prob = float(rng.uniform(0.05, 1.0))
            hp = second_order_params(k, L, rho, tau=float(rng.uniform(0.05, 1.0)), delta_prob=delta_prob)
            lhs = 9.0 * L * k.c3 / 8.0 * hp["r"]**2
            rhs = delta_prob * hp["f_thresh"] / 4.0
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_its_fields_run_burn_in_and_large_steps_as_they_stand(self):
        k = PreconditionerConstants(nu1=1.0, nu2=1.0, c3=2.0, c4=0.5, lambda_minus=0.5, M_bound=math.sqrt(2.0))
        hp = second_order_params(k, 1.0, 1.0, tau=100.0, delta_prob=1.0, omega=1.0)
        W, S = burn_in_length(hp["eta"]), hallucination_count(hp["r"], hp["eta"])
        assert (W, hp["t_thresh"], S) == (36, 43, 3)
        p = SaddleProblem2D()
        run = Run(PreconditionerKind(variant="diagonal", epsilon=1e-8), "estimated", False, 100, W=W, S=S, **hp)
        for traj in run_sgd(p, run, [rng_for(60), rng_for(61)]):
            kinds = traj.step_kind.tolist()
            assert traj.error is None
            assert [kinds.count(k) for k in ("burnin", "large", "hallucinated", "normal")] == [36, 3, 12, 97]
            assert traj.iteration[traj.step_kind == "large"].tolist() == [0, 43 + 4, 86 + 8]

    @pytest.mark.parametrize("L, rho", [(0.0, 1.0), (1.0, -1.0), (math.inf, 1.0), (1.0, math.nan)])
    def test_rejects_a_smoothness_constant_that_is_not_finite_and_positive(self, L, rho):
        with pytest.raises(InvalidParamError, match="must be finite and positive"):
            second_order_params(unit_constants(), L, rho, tau=1.0, delta_prob=0.5)

    def test_warns_when_r_below_eta(self):
        k = PreconditionerConstants(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.warns(UserWarning):
            second_order_params(
                k, 1.0, 1.0, tau=2e5, delta_prob=1.0, omega=1.0, beta_c=None
            )


class TestStationarity:
    def test_saddle_origin_detected_nonstationary(self):
        rep = check_stationarity(SaddleProblem2D(), np.zeros(2), tau_g=0.1, tau_h=0.05)
        assert not rep.is_stationary
        assert rep.grad_norm == 0.0
        assert rep.lambda_min_h == pytest.approx(-0.1)

    def test_quadratic_minimum_is_stationary(self):
        p = QuadraticGaussianProblem(2, np.eye(2), np.eye(2))
        rep = check_stationarity(p, np.zeros(2), tau_g=1e-6, tau_h=1e-6)
        assert rep.is_stationary

    def test_unit_gradient_point(self):
        p = QuadraticGaussianProblem(2, np.eye(2), np.eye(2))
        x = np.array([1.0, 0.0])
        rep = check_stationarity(p, x, tau_g=0.5, tau_h=0.5)
        assert rep.grad_norm == pytest.approx(1.0)
        assert not rep.is_stationary

    def test_tau_h_helper(self):
        assert hessian_tolerance(4.0, 0.01) == pytest.approx(0.2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: hessian_tolerance(-1.0, 0.01), "rho and tau_g must be nonnegative"),
        (lambda: hessian_tolerance(1.0, -0.01), "rho and tau_g must be nonnegative"),
        *((lambda k_const=k_const: second_order_params(unit_constants(), 1.0, 1.0, 1.0, 0.5, k_const=k_const),
           "k_const must be in (0, 1)") for k_const in (0.0, 1.0)),
        *((lambda name=name: second_order_params(replace(unit_constants(), **{name: 0.0}), 1.0, 1.0, 1.0, 0.5),
           f"constant {name} must be positive") for name in ("nu1", "nu2", "c3", "c4", "lambda_minus", "M_bound")),
        *((lambda tau_g=tau_g, tau_h=tau_h: check_stationarity(SaddleProblem2D(), np.zeros(2), tau_g, tau_h),
           "tolerances must be positive") for tau_g, tau_h in ((0.0, 0.1), (0.1, 0.0))),
    ],
)
def test_a_calculator_refuses_an_input_outside_its_domain(call, message):
    with pytest.raises(InvalidParamError) as raised:
        call()
    assert type(raised.value) is InvalidParamError and str(raised.value) == message


def test_one_step_descent_lemma_monte_carlo():
    """E[f(x1)] - f(x0) <= -(eta lam_-/2)||grad||^2 + 9 eta^2 L c3/8 + 4 SE."""
    rng = rng_for(19)
    dim, eta, n_mc = 3, 0.01, 4000
    for _ in range(50):
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        h_eigenvalues = rng.uniform(0.3, 2.0, size=dim)
        h = (q * h_eigenvalues) @ q.T
        cov = (q * rng.uniform(0.2, 1.0, size=dim)) @ q.T
        p = QuadraticGaussianProblem(dim, h, cov)
        x0 = rng.uniform(-1.0, 1.0, size=dim)
        k = constants(p, x0, PreconditionerKind(epsilon=0.0))
        a = dense(Preconditioner(PreconditionerKind(epsilon=0.0), dim), p, x0)
        lam_minus = float(np.linalg.eigvalsh(a)[0])
        mu = 0.4 * lam_minus
        raw = rng.standard_normal((dim, dim))
        e = (raw + raw.T) / 2.0
        e *= mu / np.max(np.abs(np.linalg.eigvalsh(e)))
        a_hat = a + e

        gs = p.sample_grad(x0, rng, n_mc)
        x1 = x0[None, :] - eta * gs @ a_hat.T
        f1 = 0.5 * np.einsum("ij,jk,ik->i", x1, h, x1)
        grad_sq = float(np.linalg.norm(p.grad(x0)) ** 2)
        se = f1.std(ddof=1) / math.sqrt(n_mc)
        L = float(h_eigenvalues.max())
        bound = -(eta * lam_minus / 2.0) * grad_sq + 9.0 * eta**2 * L * k.c3 / 8.0
        assert f1.mean() - p.eval_f(x0) <= bound + 4.0 * se


def test_large_step_amortized_increase_bound():
    """Mean f-increase across large steps stays under 9 L c3 r^2 / 8 + 4 SE."""
    rng = rng_for(20)
    p = QuadraticGaussianProblem(2, np.diag([1.0, 0.5]), 0.2 * np.eye(2))
    x0 = np.array([0.5, -0.5])
    k = constants(p, x0, PreconditionerKind(epsilon=0.0))
    L = 1.0  # the largest eigenvalue of H
    hp = second_order_params(k, L, 1.0, tau=0.15, delta_prob=0.5, omega=2.0)
    t_thresh = min(hp["t_thresh"], 40)  # keep the run short but with many large steps
    hp = dict(eta=hp["eta"], r=hp["r"], t_thresh=t_thresh)
    kind = PreconditionerKind(epsilon=0.0)
    deltas = []
    for s in range(25):
        traj = run1(p, idealized(kind), hp, 30 * t_thresh, rng_for(300 + s), x0=x0)
        large = np.flatnonzero(traj.step_kind[:-1] == "large")
        deltas += (traj.f[large + 1] - traj.f[large]).tolist()
    deltas = np.asarray(deltas)
    se = deltas.std(ddof=1) / math.sqrt(len(deltas))
    assert deltas.mean() <= 9.0 * L * k.c3 * hp["r"]**2 / 8.0 + 4.0 * se


def reference_power(G, kind, diagonal):
    """(G + eps I)^exponent by eigh, or on the diagonal for diagonal forms."""
    if diagonal:
        return np.diag((np.diag(G) + kind.epsilon) ** kind.exponent)
    w, v = np.linalg.eigh(G + kind.epsilon * np.eye(len(G)))
    return (v * w**kind.exponent) @ v.T


# name -> (source, Run fields from eta on, bias_corrected)
PARITY_CASES = {
    "idealized": ("idealized", dict(eta=0.05), False),
    "fixed-beta": ("estimated", dict(eta=0.05, beta=0.8), False),
    "bias-corrected": ("estimated", dict(eta=0.05, beta=0.8), True),
    "beta-schedule": ("estimated", dict(eta=0.05, eta_decay="inv_sqrt", beta_c=0.5), True),
    "burnin-hallucinated": ("estimated", dict(eta=0.02, beta=0.9, r=0.06, t_thresh=4, S=3, W=5), False),
}
PARITY_H = np.array([[1.0, 0.3, 0.0], [0.3, 0.8, 0.1], [0.0, 0.1, 0.5]])
PARITY_COV = np.array([[0.5, 0.1, 0.0], [0.1, 0.4, 0.05], [0.0, 0.05, 0.3]])


TRAJECTORY_COLUMNS = ("iteration", "step_kind", "f", "grad_norm", "lambda_min_h", "est_error", "x")
# One seed, and three seeds in lockstep (ids keep the one-seed names).
SEED_CASES = [pytest.param(name, 1, id=name) for name in sorted(PARITY_CASES)] + [
    pytest.param(name, 3, id=f"{name}-3seeds") for name in sorted(PARITY_CASES)
]


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("variant", ["identity", "full_matrix", "diagonal", "covariance_full_matrix"])
@pytest.mark.parametrize("case, n_seeds", SEED_CASES)
def test_run_matches_numpy_reference(case, n_seeds, variant, dim):
    """Every step of the loop is x - step A g with A from a plain numpy replay.

    The replay redraws each sample at the logged point, keeps the full EMA
    Ghat (bias-corrected by 1 - prod beta_t), and takes (Ghat + eps I)^p
    by eigh, or on the diagonal for the diagonal variant. With several
    seeds in lockstep, each seed's trajectory also equals, bit for bit,
    its own single-seed run.
    """
    source, hp, bias_corrected = PARITY_CASES[case]
    p = QuadraticGaussianProblem(dim, PARITY_H[:dim, :dim], PARITY_COV[:dim, :dim])
    kind = PreconditionerKind(variant=variant, epsilon=0.05)
    x0 = np.linspace(1.0, -0.5, dim)
    seeds = [21 + i for i in range(n_seeds)]
    run = Run(kind, source, bias_corrected, 30, **hp, x0=x0)
    trajectories = run_sgd(p, run, [rng_for(s) for s in seeds])
    assert len(trajectories) == n_seeds
    for seed, traj in zip(seeds, trajectories):
        if n_seeds > 1:
            (alone,) = run_sgd(p, run, [rng_for(seed)])
            for column in TRAJECTORY_COLUMNS:
                np.testing.assert_array_equal(getattr(traj, column), getattr(alone, column), err_msg=column)
        check_against_numpy_replay(p, traj, rng_for(seed), run)


def check_against_numpy_replay(p, traj, rng, run):
    kind, variant, dim = run.kind, run.kind.variant, p.dim
    estimating = run.source == "estimated" and variant != "identity"
    covariance = variant == "covariance_full_matrix"
    diagonal = variant == "diagonal"
    g_hat, beta_prod, t = np.zeros((dim, dim)), 1.0, -1
    steps = np.flatnonzero(traj.steps()).tolist()
    assert traj.error is None and len(steps) == 30
    for i, (x, kind_label) in enumerate(zip(traj.x, traj.step_kind)):
        g = upd = p.sample_grad(x, rng)
        if estimating and covariance:
            upd = (g - p.sample_grad(x, rng)) / math.sqrt(2.0)
        t += kind_label in ("normal", "large")
        eta_t = run.eta / math.sqrt(t + 1.0) if run.eta_decay == "inv_sqrt" and kind_label != "burnin" else run.eta
        if estimating:
            beta = beta_schedule(eta_t, run.beta_c) if run.beta_c is not None else run.beta
            g_hat = beta * g_hat + (1.0 - beta) * np.outer(upd, upd)
            beta_prod *= beta
        if i not in steps or i == steps[-1]:
            continue
        if variant == "identity":
            a = np.eye(dim)
        elif estimating:
            a = reference_power(g_hat / (1.0 - beta_prod) if run.bias_corrected else g_hat, kind, diagonal)
        else:
            G = p.exact_G(x)
            if covariance:
                G = G - np.outer(p.grad(x), p.grad(x))
            a = reference_power(G, kind, diagonal)
        step = run.r if kind_label == "large" else eta_t
        following = traj.x[steps[steps.index(i) + 1]]
        np.testing.assert_allclose(x - step * a @ g, following, rtol=1e-10, atol=1e-12)
    hallucinated = np.count_nonzero(traj.step_kind == "hallucinated")
    assert hallucinated == (32 if estimating and run.S is not None else 0)


class SingularPastOneProblem(StochasticProblem):
    """f = -x_0 with unit Gaussian gradient noise; G(x) turns singular once x_0 >= 1."""

    dim = 2

    def eval_f(self, x):
        f = -np.asarray(x)[..., 0]
        return float(f) if np.ndim(x) == 1 else f

    def grad(self, x):
        g = np.zeros(np.shape(x))
        g[..., 0] = -1.0
        return g

    def sample_grad(self, x, rng):
        return self.grad(x) + rng.standard_normal(2)

    def exact_G(self, x):
        x = np.asarray(x)
        G = np.zeros(x.shape + (2,))
        G[..., 0, 0] = 2.0
        G[..., 1, 1] = x[..., 0] < 1.0
        return G


def test_a_seed_that_fails_stops_alone_with_the_bits_of_its_own_run():
    p = SingularPastOneProblem()
    kind = PreconditionerKind(variant="full_matrix", epsilon=0.0)
    hp = dict(eta=0.05)
    seeds = range(50, 56)
    together = run_sgd(p, Run(kind, "idealized", False, 30, **hp), [rng_for(s) for s in seeds])
    failed = [t.error is not None for t in together]
    assert any(failed) and not all(failed)
    for seed, traj in zip(seeds, together):
        alone = run1(p, idealized(kind), hp, 30, rng_for(seed))
        for column in TRAJECTORY_COLUMNS:
            np.testing.assert_array_equal(getattr(traj, column), getattr(alone, column), err_msg=column)
        assert type(traj.error) is type(alone.error)
        assert str(traj.error) == str(alone.error)
        if traj.error is not None:
            assert isinstance(traj.error, SingularMatrixError) and 1 <= len(traj) < 30


def test_defect_reference_has_the_bits_of_the_identity_product():
    """The logged full-matrix est_error's reference V (a * V^T) equals V (a * (V^T I)) bit for bit.

    Over eigh outputs of random PSD stacks, of diagonal matrices (whose
    eigenvectors hold exact zeros) and of permuted block-diagonal ones
    (whose eigenvectors also hold -0.0), d from 1 to 10.
    """
    from precondsgd.linalg import eigh
    from precondsgd.optimizer import _defect_reference

    rng = rng_for(90)
    negative_zeros = 0
    for trial in range(600):
        dim, batch = int(rng.integers(1, 11)), int(rng.integers(1, 4))
        form = trial % 3
        if form == 0:
            m = rng.standard_normal((batch, dim, dim))
            m = m @ m.swapaxes(-1, -2)
        elif form == 1:
            m = np.zeros((batch, dim, dim))
            m[:, np.arange(dim), np.arange(dim)] = rng.random((batch, dim)) * 10.0 ** rng.integers(-5, 3)
        else:
            m = np.zeros((batch, dim, dim))
            k = int(rng.integers(0, dim + 1))
            for lo, hi in ((0, k), (k, dim)):
                f = rng.standard_normal((batch, hi - lo, hi - lo))
                m[:, lo:hi, lo:hi] = f @ f.swapaxes(-1, -2)
            perm = rng.permutation(dim)
            m = m[:, perm][:, :, perm]
        w, v = eigh(m)
        negative_zeros += np.count_nonzero((v == 0.0) & np.signbit(v))
        a = (np.maximum(w, 0.0) + 1e-8) ** -0.5
        if batch == 1 and trial % 2:
            a, v = a[0], v[0]
        old = v @ (a[..., None, :] * (v.swapaxes(-1, -2) @ np.eye(dim)))
        assert _defect_reference(a, v).tobytes() == old.tobytes()
    assert negative_zeros > 0
