import math
from functools import partial

import numpy as np
import pytest

from lemmas import EmaWeighting, rng_for
from precondsgd import (
    EstimationBoundInputs,
    InvalidParamError,
    Preconditioner,
    PreconditionerKind,
    PreconditionViolatedError,
    QuadraticGaussianProblem,
    SaddleProblem2D,
    beta_schedule,
    burn_in_length,
    estimate_sigma_max,
    estimation_error_bound,
    hallucination_count,
    op_norm,
)


def bound_inputs(**kw):
    base = dict(sigma_max=1.0, M_step=1.0, L_G=1.0, eta=0.01, beta=0.9, T=1000, d=4, delta_prob=0.05)
    base.update(kw)
    return EstimationBoundInputs(**base)


class TestEmaWeighting:
    def test_invariants_random(self):
        rng = rng_for(40)
        for _ in range(100):
            beta = float(rng.uniform(0.3, 0.999))
            T = int(math.ceil(4.0 / (1.0 - beta))) + int(rng.integers(1, 200))
            w = EmaWeighting(beta=beta, T=T)
            assert abs(w.weights.sum() - 1.0) <= 1e-12
            assert np.all(np.diff(w.weights) >= 0.0)
            cap = 2.0 * (1.0 - beta) / (1.0 - beta**T)
            assert w.sq_norm() <= cap
            assert cap - w.sq_norm() > 0.0

    def test_small_case_exact(self):
        w = EmaWeighting(beta=0.5, T=3)
        assert np.allclose(w.weights, np.array([0.25, 0.5, 1.0]) / 1.75)


class TestBetaSchedule:
    def test_paper_anchor_point(self):
        assert beta_schedule(0.001, 1.0) == pytest.approx(0.99, abs=1e-12)

    def test_boundary_rejected(self):
        with pytest.raises(InvalidParamError):
            beta_schedule(1.0, 1.0)
        with pytest.raises(InvalidParamError):
            beta_schedule(8.0, 0.5)

    @pytest.mark.parametrize("eta, C", [(1e-25, 1.0), (1e-300, 1.0), (0.5, 1e-17), (1e-3, 5e-15)])
    def test_a_beta_that_rounds_to_1_is_refused(self, eta, C):
        """1 - C eta^(2/3) == 1.0 once C eta^(2/3) <= 2^-54, half the gap below 1: the EMA would never move."""
        assert 1.0 - C * eta ** (2.0 / 3.0) == 1.0
        with pytest.raises(InvalidParamError, match="rounds to 1$"):
            beta_schedule(eta, C)

    def test_a_step_of_one_ulp_below_1_is_kept(self):
        """C eta^(2/3) = 2^-53 is one ulp of 1 from below: beta is 1 - 2^-53, the greatest float below 1."""
        assert beta_schedule(1.0, 2.0**-53) == 1.0 - 2.0**-53 == np.nextafter(1.0, 0.0)

    def test_arithmetic(self):
        assert beta_schedule(0.008, 0.5) == pytest.approx(0.98, abs=1e-12)


class TestEstimationErrorBound:
    def test_stationary_reduces_to_variance_term(self):
        inp = bound_inputs(eta=0.0, beta=0.99, T=100_000)
        expected = 2**1.5 * 1.0 * math.sqrt(0.01) * math.sqrt(math.log(4 / 0.05))
        expected /= 1.0 - 0.99**100_000
        assert estimation_error_bound(inp) == pytest.approx(expected, rel=1e-12)

    def test_noiseless_reduces_to_bias_term(self):
        inp = bound_inputs(sigma_max=0.0, M_step=2.0, L_G=3.0, eta=0.01, beta=0.9, T=500)
        expected = 2.0 * 3.0 * 0.01 / (0.1 * (1.0 - 0.9**500))
        assert estimation_error_bound(inp) == pytest.approx(expected, rel=1e-12)

    def test_short_window_rejected(self):
        with pytest.raises(PreconditionViolatedError):
            estimation_error_bound(bound_inputs(beta=0.999, T=100))

    def test_a_short_run_divides_by_its_total_weight(self):
        inp = bound_inputs(sigma_max=0.0, M_step=1.0, L_G=1.0, eta=0.01, beta=0.5, T=9)  # the first T > 4/(1-beta)
        assert estimation_error_bound(inp) == pytest.approx(0.01 / 0.5 / (1.0 - 0.5**9), rel=1e-12)

    def test_each_input_takes_its_boundary(self):
        inp = bound_inputs(sigma_max=0.0, M_step=0.0, L_G=0.0, eta=0.0, d=1, T=1)
        assert (inp.sigma_max, inp.M_step, inp.L_G, inp.eta, inp.d, inp.T) == (0.0, 0.0, 0.0, 0.0, 1, 1)

    def test_optimized_bound_scales_as_eta_one_third(self):
        def optimized(eta):
            betas = 1.0 - np.exp(np.linspace(np.log(1e-5), np.log(0.9), 20_000))
            vals = [
                estimation_error_bound(bound_inputs(eta=eta, beta=float(b), T=10**9))
                for b in betas
            ]
            return min(vals)

        ratio = optimized(0.02) / optimized(0.01)
        assert ratio == pytest.approx(2 ** (1.0 / 3.0), rel=0.05)


class TestBurnInLength:
    def test_examples(self):
        assert burn_in_length(0.001, 1.0) == 100
        assert burn_in_length(1.0, 1.0) == 1
        assert burn_in_length(0.008, 2.0) == 50
        assert burn_in_length(1e30) == 1  # at least one sample, however large eta


class TestHallucinationCount:
    def test_examples(self):
        # 0.07 / 0.01 lands a hair above 7 in floats; the count stays 7
        assert 0.07 / 0.01 > 7.0
        assert hallucination_count(0.07, 0.01) == 7
        assert hallucination_count(0.3, 0.1) == 3
        assert hallucination_count(0.015, 0.01) == 2
        assert hallucination_count(0.001, 0.01) == 1
        assert hallucination_count(1e-30, 1.0) == 1
        # a ratio within a relative 1e-9 above an integer counts as that integer; 1e-8 above, as the next
        assert hallucination_count(5.0 * (1.0 + 1e-9), 1.0) == 5
        assert hallucination_count(5.0 * (1.0 + 1e-8), 1.0) == 6


@pytest.mark.parametrize(
    "call, error, message",
    [
        *((partial(bound_inputs, beta=beta), InvalidParamError, "beta must be in (0, 1)") for beta in (0.0, 1.0)),
        *((partial(bound_inputs, delta_prob=p), InvalidParamError, "delta_prob must be in (0, 1)") for p in (0.0, 1.0)),
        *((partial(bound_inputs, **{key: -0.5}), InvalidParamError, "sigma_max, M_step, L_G, eta must be nonnegative")
          for key in ("sigma_max", "M_step", "L_G", "eta")),
        *((partial(bound_inputs, **{key: 0}), InvalidParamError, "d and T must be >= 1") for key in ("d", "T")),
        (lambda: estimation_error_bound(bound_inputs(beta=0.5, T=8)), PreconditionViolatedError,
         "need T > 4/(1-beta) = 8.0, got T=8"),
        (partial(beta_schedule, 0.0), InvalidParamError, "eta and C must be positive"),
        (partial(beta_schedule, 0.01, 0.0), InvalidParamError, "eta and C must be positive"),
        (partial(burn_in_length, 0.0), InvalidParamError, "eta and c_w must be positive"),
        (partial(burn_in_length, 0.01, 0.0), InvalidParamError, "eta and c_w must be positive"),
        *((partial(hallucination_count, r, eta), InvalidParamError, "r and eta must be positive")
          for r, eta in ((0.1, 0.0), (0.0, 0.1), (-0.1, 0.1))),
        (partial(estimate_sigma_max, SaddleProblem2D(), np.zeros(2), 1, None), InvalidParamError,
         "n_samples must be >= 2"),
    ],
)
def test_a_refused_input_raises_its_class_and_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message


def test_bias_chain_bound_deterministic():
    """|sum w_t G(x_t) - G(x_T)| <= M L_G eta / ((1-beta)(1-beta^T)) for Lipschitz G."""
    rng = rng_for(41)
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        beta = float(rng.uniform(0.5, 0.99))
        T = int(math.ceil(4.0 / (1.0 - beta))) + int(rng.integers(1, 100))
        eta, M, L_G = float(rng.uniform(0.001, 0.1)), float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))
        u = rng.standard_normal(dim)
        u /= np.linalg.norm(u)
        raw = rng.standard_normal((dim, dim))
        b = (raw + raw.T) / 2.0
        b /= np.max(np.abs(np.linalg.eigvalsh(b)))
        a0 = np.eye(dim) * float(rng.uniform(1.0, 3.0))

        def g_of(x):
            return a0 + L_G * float(u @ x) * b

        x = rng.standard_normal(dim)
        xs = [x.copy()]
        for _ in range(T - 1):
            step = rng.standard_normal(dim)
            step *= eta * M * rng.uniform(0.0, 1.0) / np.linalg.norm(step)
            x = x + step
            xs.append(x.copy())
        w = EmaWeighting(beta=beta, T=T).weights
        blended = sum(wt * g_of(xt) for wt, xt in zip(w, xs))
        lhs = op_norm(blended - g_of(xs[-1]))
        rhs = M * L_G * eta / ((1.0 - beta) * (1.0 - beta**T))
        assert lhs <= rhs * (1 + 1e-9)


def observed_errors(p, pre, x, gs, beta):
    """||Ahat_t - A(x)||_op after each sample g_t that ``pre`` observes."""
    errs = []
    for g in gs:
        pre.observe(g, beta)
        errs.append(pre.est_error(p, x))
    return np.array(errs)


class TestMeasureEstimationError:
    def test_identity_kind_error_is_zero(self):
        p = SaddleProblem2D()
        pre = Preconditioner(PreconditionerKind(variant="identity"), 2, "estimated")
        rng = rng_for(42)
        x = np.array([0.2, 0.1])
        gs = [p.sample_grad(x, rng) for _ in range(10)]
        errs = observed_errors(p, pre, x, gs, 0.9)
        assert np.all(errs == 0.0)

    def test_noiseless_error_decays_at_rate_beta(self):
        p = QuadraticGaussianProblem(2, np.eye(2), np.zeros((2, 2)))
        pre = Preconditioner(PreconditionerKind(epsilon=0.5), 2, "estimated")
        x = np.array([1.0, -0.5])
        beta = 0.9
        errs = observed_errors(p, pre, x, [p.grad(x)] * 150, beta)
        ratios = errs[100:140] / errs[99:139]
        assert np.allclose(ratios, beta, rtol=0.02)
        assert errs[-1] < 1e-4
        assert np.all(np.maximum.accumulate(errs) == errs[0])  # errors only decrease from the first step

    def test_stationary_saddle_error_under_bound(self):
        p = SaddleProblem2D()
        x = np.array([1.3, -0.7])
        beta, T = 0.99, 5000
        rng = rng_for(43)
        pre = Preconditioner(PreconditionerKind(epsilon=0.5), 2, "estimated")
        g_hat = np.zeros((2, 2))
        for _ in range(T):
            g = p.sample_grad(x, rng)
            g_hat = beta * g_hat + (1.0 - beta) * np.outer(g, g)
            pre.observe(g, beta)
        g_true = p.exact_G(x)
        g_err = op_norm(g_hat - g_true)

        # exact sigma_max by enumeration over the 4-point support
        grad = p.grad(x)
        acc = np.zeros((2, 2))
        for b in p.B_SUPPORT:
            g = grad + b
            z = np.outer(g, g) - g_true
            acc += z @ z / 4.0
        sigma_max = math.sqrt(op_norm(acc))

        phi = estimation_error_bound(
            EstimationBoundInputs(
                sigma_max=sigma_max, M_step=0.0, L_G=0.0, eta=0.0,
                beta=beta, T=T, d=2, delta_prob=0.05,
            )
        )
        assert g_err <= phi
        # variance-term form with slack 5
        assert g_err <= 5.0 * math.sqrt(1.0 - beta) * sigma_max * math.sqrt(math.log(2.0))

        assert pre.est_error(p, x) <= 5.0 * phi

    def test_mc_sigma_max_close_to_enumeration(self):
        p = SaddleProblem2D()
        x = np.array([0.4, 0.2])
        grad = p.grad(x)
        g_true = p.exact_G(x)
        acc = np.zeros((2, 2))
        for b in p.B_SUPPORT:
            g = grad + b
            z = np.outer(g, g) - g_true
            acc += z @ z / 4.0
        exact = math.sqrt(op_norm(acc))
        mc = estimate_sigma_max(p, x, 60_000, rng_for(44))
        assert mc == pytest.approx(exact, rel=0.05)
        assert 0.0 <= estimate_sigma_max(p, x, 2, rng_for(45)) < math.inf  # the fewest samples it takes


def test_moving_sequence_sup_error_scales_eta_one_third():
    """Sup estimation error under beta = 1 - eta^(2/3) scales like eta^(1/3)."""
    rng = rng_for(45)
    base = np.diag([2.0, 1.0])
    direction = np.array([1.0, 0.0])
    pert = np.array([[0.6, 0.3], [0.3, -0.2]])
    pert /= np.max(np.abs(np.linalg.eigvalsh(pert)))

    def g_of(pos):
        return base + 0.8 * math.sin(pos) * np.eye(2)

    etas = [1e-1, 1e-2, 1e-3, 1e-4]
    sups = []
    for eta in etas:
        beta = beta_schedule(eta, 1.0)
        warm = int(math.ceil(10.0 / (1.0 - beta)))
        window = int(math.ceil(30.0 / (1.0 - beta)))
        pos, acc = 0.0, np.zeros((2, 2))
        sup = 0.0
        for t in range(warm + window):
            pos += eta  # unit-speed drift per step
            y = g_of(pos) + float(rng.choice([-0.5, 0.5])) * pert
            acc = beta * acc + (1.0 - beta) * y
            if t >= warm:
                sup = max(sup, op_norm(acc - g_of(pos)))
        sups.append(sup)
    slope = np.polyfit(np.log(etas), np.log(sups), 1)[0]
    assert 0.18 <= slope <= 0.48
