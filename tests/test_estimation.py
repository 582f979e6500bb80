import math

import numpy as np
import pytest

from precondsgd import (
    EmaWeighting,
    EstimationBoundInputs,
    InvalidParamError,
    Preconditioner,
    PreconditionerKind,
    PreconditionViolatedError,
    beta_schedule,
    burn_in_length,
    estimate_sigma_max,
    estimation_error_bound,
    make_quadratic_gaussian,
    make_saddle_problem,
    measure_estimation_error,
    op_norm,
)


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def bound_inputs(**kw):
    base = dict(sigma_max=1.0, R=1.0, M_step=1.0, L_G=1.0, eta=0.01, beta=0.9, T=1000, d=4, delta_prob=0.05)
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

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParamError):
            burn_in_length(0.0)


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


class TestMeasureEstimationError:
    def test_identity_kind_error_is_zero(self):
        p = make_saddle_problem()
        pre = Preconditioner(PreconditionerKind(variant="identity"), 2, "estimated")
        rng = rng_for(42)
        x = np.array([0.2, 0.1])
        gs = [p.sample_grad(x, rng) for _ in range(10)]
        errs, sup = measure_estimation_error(p, pre, [x] * 10, gs, 0.9)
        assert np.all(errs == 0.0)
        assert np.all(sup == 0.0)

    def test_noiseless_error_decays_at_rate_beta(self):
        p = make_quadratic_gaussian(2, np.eye(2), np.zeros((2, 2)))
        pre = Preconditioner(PreconditionerKind(epsilon=0.5), 2, "estimated")
        x = np.array([1.0, -0.5])
        beta = 0.9
        errs, sup = measure_estimation_error(p, pre, [x] * 150, [p.grad(x)] * 150, beta)
        ratios = errs[100:140] / errs[99:139]
        assert np.allclose(ratios, beta, rtol=0.02)
        assert errs[-1] < 1e-4
        assert np.all(sup == errs[0])  # errors only decrease from the first step

    def test_stationary_saddle_error_under_bound(self):
        p = make_saddle_problem()
        x = np.array([1.3, -0.7])
        beta, T = 0.99, 5000
        rng = rng_for(43)
        pre = Preconditioner(PreconditionerKind(epsilon=0.5), 2, "estimated")
        g_hat = np.zeros((2, 2))
        for _ in range(T):
            g = p.sample_grad(x, rng)
            g_hat = beta * g_hat + (1.0 - beta) * np.outer(g, g)
            pre.observe(g, beta)
        g_true = p.exact_G(x).a
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
                sigma_max=sigma_max, R=1.0, M_step=0.0, L_G=0.0, eta=0.0,
                beta=beta, T=T, d=2, delta_prob=0.05,
            )
        )
        assert g_err <= phi
        # variance-term form with slack 5
        assert g_err <= 5.0 * math.sqrt(1.0 - beta) * sigma_max * math.sqrt(math.log(2.0))

        assert pre.est_error(p, x) <= 5.0 * phi

    def test_mc_sigma_max_close_to_enumeration(self):
        p = make_saddle_problem()
        x = np.array([0.4, 0.2])
        grad = p.grad(x)
        g_true = p.exact_G(x).a
        acc = np.zeros((2, 2))
        for b in p.B_SUPPORT:
            g = grad + b
            z = np.outer(g, g) - g_true
            acc += z @ z / 4.0
        exact = math.sqrt(op_norm(acc))
        mc = estimate_sigma_max(p, x, 60_000, rng_for(44))
        assert mc == pytest.approx(exact, rel=0.05)


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
