import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemmas import PROPERTY, random_spd, random_spd_spanning, random_sym_with_norm, rng_for, sym_power
from precondsgd import (
    InvalidParamError,
    NonFiniteError,
    PreconditionViolatedError,
    SingularMatrixError,
    inv_perturbation_bound,
    invsqrt_preconditioner_bound,
    op_norm,
    sqrt_perturbation_bound,
)
from precondsgd.linalg import eigh


def test_eigh_of_a_stack_has_the_bits_of_one_call_per_matrix_and_its_invariants(monkeypatch):
    calls, numpy_eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.size) or numpy_eigh(a))
    rng = np.random.default_rng(0)
    for k in range(20 + 3):  # 20 stacks of 3 matrices, then stacks of 0, 1 and 2
        dim = int(rng.integers(1, 9))
        size = 3 if k < 20 else k - 20
        stack = np.array([random_sym_with_norm(rng, dim, rng.uniform(0.1, 10.0)) for _ in range(size)])
        stack = stack.reshape(len(stack), dim, dim)
        calls.clear()
        w, v = eigh(stack)
        assert calls == [dim * dim] * len(stack)  # each call decomposes one matrix
        assert (w.shape, v.shape) == (stack.shape[:2], stack.shape)
        for m, wb, vb in zip(stack, w, v):
            calls.clear()
            single = eigh(m)  # one (d, d) matrix, in one call
            assert calls == [dim * dim]
            reference = numpy_eigh(m)
            for got_w, got_v in ((wb, vb), single):
                assert got_w.tobytes() == reference.eigenvalues.tobytes()
                assert got_v.tobytes() == reference.eigenvectors.tobytes()
            assert np.all(np.diff(wb) >= 0)
            scale = max(1.0, op_norm(m))
            assert op_norm((vb * wb) @ vb.T - m) <= 1e-10 * scale
            assert op_norm(vb.T @ vb - np.eye(dim)) <= 1e-10


class TestSymPower:
    def test_diagonal_case(self):
        r = sym_power(np.diag([4.0, 9.0]), -0.5, 0.0)
        assert np.allclose(r, np.diag([0.5, 1.0 / 3.0]), rtol=1e-14)

    def test_identity(self):
        r = sym_power(np.eye(3), -0.5, 0.0)
        assert np.allclose(r, np.eye(3), rtol=1e-14)

    def test_dense_inverse_square_root_round_trip(self):
        g = np.array([[2.0, 1.0], [1.0, 2.0]])
        r = sym_power(g, -0.5, 0.0)
        # squaring and inverting the result must reproduce g
        back = sym_power(r, -2.0, 0.0)
        assert op_norm(back - g) <= 1e-10 * op_norm(g)
        w = np.linalg.eigvalsh(r)
        assert np.allclose(np.sort(w), [1.0 / np.sqrt(3.0), 1.0], rtol=1e-12)

    def test_sqrt_square_round_trip_random_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            dim = int(rng.integers(2, 9))
            g = random_spd(rng, dim)
            back = sym_power(sym_power(g, 0.5, 0.0), 2.0, 0.0)
            assert op_norm(back - g) <= 1e-8 * op_norm(g)

    def test_singular_negative_power_raises(self):
        with pytest.raises(SingularMatrixError):
            sym_power(np.diag([1.0, 0.0]), -0.5, 0.0)
        with pytest.raises(SingularMatrixError):
            sym_power(np.diag([1.0, -0.5]), -1.0, 0.0)

    def test_clamp_floor_rescues_negative_power(self):
        r = sym_power(np.diag([4.0, -1.0]), -0.5, 1.0)
        assert np.allclose(r, np.diag([0.5, 1.0]), rtol=1e-14)

    def test_sqrt_lambda_min_monotone(self):
        # A <= B (Loewner) implies lambda_min(A^1/2) <= lambda_min(B^1/2)
        rng = np.random.default_rng(2)
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            a = random_spd(rng, dim)
            b = a + random_spd(rng, dim, lam_lo=0.0, lam_hi=1.0)
            la = np.linalg.eigvalsh(sym_power(a, 0.5, 0.0))[0]
            lb = np.linalg.eigvalsh(sym_power(b, 0.5, 0.0))[0]
            assert la <= lb * (1.0 + 1e-12)


def power_iteration_op_norm(a, iters=3000, seed=123):
    # independent oracle: power iteration on a @ a converges to ||a||^2
    rng = np.random.default_rng(seed)
    m2 = a @ a
    v = rng.standard_normal(a.shape[0])
    for _ in range(iters):
        v = m2 @ v
        v /= np.linalg.norm(v)
    return float(np.sqrt(v @ m2 @ v))


class TestOpNorm:
    def test_diagonal(self):
        assert op_norm(np.diag([-3.0, 2.0])) == 3.0

    def test_zero(self):
        assert op_norm(np.zeros((3, 3))) == 0.0
        assert op_norm(np.zeros((0, 0))) == 0.0

    def test_matches_power_iteration(self):
        rng = np.random.default_rng(3)
        a = random_sym_with_norm(rng, 5, 2.5)
        assert abs(op_norm(a) - power_iteration_op_norm(a)) <= 1e-8

    def test_rejects_nonfinite_array(self):
        with pytest.raises(NonFiniteError):
            op_norm(np.array([[np.nan]]))
        with pytest.raises(NonFiniteError):
            op_norm(np.array([[np.inf, 1e308], [1e308, 0.0]]))

    @pytest.mark.parametrize("entry", [1e308, -1e308, np.finfo(np.float64).max])
    def test_entries_near_the_float_maximum_survive(self, entry):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert op_norm(np.array([[entry, 0.0], [0.0, 1.0]])) == pytest.approx(abs(entry), rel=1e-15)
            assert op_norm(np.array([[1.0, 1.7e308], [1.6e308, 2.0]])) == pytest.approx(1.65e308, rel=1e-15)

    def test_reads_the_symmetric_part(self):
        assert op_norm(np.array([[0.0, 4.0], [0.0, 0.0]])) == 2.0

    def test_calls_np_linalg_eigvalsh_as_bound_at_call_time(self, monkeypatch):
        # A wrapper installed on numpy after import (as perfbench's tracer is) sees each call.
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or real(a))
        assert op_norm(np.diag([1.0, -3.0])) == 3.0
        assert calls == [(2, 2)]


class TestPerturbationBounds:
    def test_inv_examples(self):
        assert inv_perturbation_bound(1.0, 0.1) == pytest.approx(0.2)
        # G = I, Ghat = 1.1 I: actual gap ~0.0909 is inside the corrected bound
        assert abs(1.0 - 1.0 / 1.1) <= 0.2
        assert inv_perturbation_bound(1.0, 0.0) == 0.0
        assert inv_perturbation_bound(4.0, 0.5) == pytest.approx(0.0625)
        assert abs(0.25 - 1.0 / 4.5) <= 0.0625

    def test_inv_precondition(self):
        with pytest.raises(PreconditionViolatedError):
            inv_perturbation_bound(1.0, 0.5)
        with pytest.raises(InvalidParamError):
            inv_perturbation_bound(0.0, 0.1)

    def test_sqrt_examples(self):
        assert sqrt_perturbation_bound(4.0, 0.5) == pytest.approx(0.25)
        assert abs(np.sqrt(4.5) - 2.0) <= 0.25
        assert sqrt_perturbation_bound(1.0, 0.0) == 0.0
        assert sqrt_perturbation_bound(1.0, 0.5) == pytest.approx(0.5)
        assert abs(np.sqrt(1.5) - 1.0) <= 0.5
        with pytest.raises(PreconditionViolatedError):
            sqrt_perturbation_bound(1.0, 0.75)

    def test_invsqrt_examples(self):
        # corrected-chain constant: 4x the first-order-only eps/(2 h^3/2)
        assert invsqrt_preconditioner_bound(4.0, 0.0, 0.5) == pytest.approx(0.125)
        assert abs(0.5 - 1.0 / np.sqrt(4.5)) <= 0.125
        assert invsqrt_preconditioner_bound(1.0, 0.0, 0.0) == 0.0
        assert invsqrt_preconditioner_bound(0.0, 1.0, 0.1) == pytest.approx(0.2)
        # G = [0] (1x1), Ghat = [0.1], delta = 1
        assert abs(1.0 - 1.0 / np.sqrt(1.1)) <= 0.2
        with pytest.raises(PreconditionViolatedError):
            invsqrt_preconditioner_bound(1.0, 0.0, 0.5)
        with pytest.raises(InvalidParamError):
            invsqrt_preconditioner_bound(0.0, 0.0, 0.1)

    def test_invsqrt_first_order_constant_is_too_tight(self):
        # the concrete instance that rules out eps/(2 h^3/2): a downward
        # shift of the minimal eigenvalue exceeds it at second order
        h, eps = 1.0, 0.2
        gap = abs((h - eps) ** -0.5 - h**-0.5)
        assert gap > eps / (2.0 * h**1.5)
        assert gap <= invsqrt_preconditioner_bound(h, 0.0, eps)


@pytest.mark.parametrize(
    "bound, args, error, message",
    [
        (inv_perturbation_bound, (0.0, 0.1), InvalidParamError, "lambda_min_g must be positive"),
        (inv_perturbation_bound, (1.0, -0.1), InvalidParamError, "eps must be nonnegative"),
        (inv_perturbation_bound, (1.0, 0.5), PreconditionViolatedError,
         "need eps < lambda_min/2, got eps=0.5, lambda_min=1.0"),
        (sqrt_perturbation_bound, (0.0, 0.1), InvalidParamError, "lambda_min_g must be positive"),
        (sqrt_perturbation_bound, (-1.0, 0.1), InvalidParamError, "lambda_min_g must be positive"),
        (sqrt_perturbation_bound, (1.0, -0.1), InvalidParamError, "eps must be nonnegative"),
        (sqrt_perturbation_bound, (1.0, 0.75), PreconditionViolatedError,
         "need eps < 3/4 lambda_min, got eps=0.75, lambda_min=1.0"),
        (invsqrt_preconditioner_bound, (-0.1, 1.0, 0.1), InvalidParamError,
         "lambda_min_g and delta_reg must be nonnegative"),
        (invsqrt_preconditioner_bound, (1.0, -0.1, 0.1), InvalidParamError,
         "lambda_min_g and delta_reg must be nonnegative"),
        (invsqrt_preconditioner_bound, (1.0, 0.0, -0.1), InvalidParamError, "eps must be nonnegative"),
        (invsqrt_preconditioner_bound, (0.0, 0.0, 0.1), InvalidParamError, "delta_reg + lambda_min_g must be positive"),
        (invsqrt_preconditioner_bound, (0.5, 0.5, 0.5), PreconditionViolatedError,
         "need eps < (delta_reg + lambda_min)/2, got eps=0.5, floor=1.0"),
    ],
)
def test_a_bound_refuses_an_input_outside_its_domain(bound, args, error, message):
    with pytest.raises(error) as raised:
        bound(*args)
    assert type(raised.value) is error and str(raised.value) == message


def perturbation_bound_cases(n_cases, seed):
    """Random (G, E, delta) triples satisfying all three bound preconditions."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        dim = int(rng.integers(2, 9))
        g = random_spd(rng, dim, lam_lo=0.2, lam_hi=3.0)
        lam_min = float(np.linalg.eigvalsh(g)[0])
        delta = float(rng.choice([0.0, 0.3]))
        # eps below every precondition: lam/2 (inv, chained), 3lam/4 (sqrt)
        eps = float(rng.uniform(0.02, 0.9)) * 0.5 * lam_min
        e = random_sym_with_norm(rng, dim, eps)
        yield g, e, eps, delta, lam_min


def perturbation_gaps_and_bounds(g, e, eps, delta, lam_min):
    """(measured gap, bound) of the inverse, the square root and the regularized inverse square root."""
    gh = g + e
    d_eye = delta * np.eye(g.shape[0])
    return (
        (op_norm(np.linalg.inv(g) - np.linalg.inv(gh)), inv_perturbation_bound(lam_min, eps)),
        (
            op_norm(sym_power(g, 0.5, 0.0) - sym_power(gh, 0.5, 0.0)),
            sqrt_perturbation_bound(lam_min, eps),
        ),
        (
            op_norm(sym_power(g + d_eye, -0.5, 0.0) - sym_power(gh + d_eye, -0.5, 0.0)),
            invsqrt_preconditioner_bound(lam_min, delta, eps),
        ),
    )


def test_perturbation_bounds_hold_on_random_instances():
    checked = 0
    for g, e, eps, delta, lam_min in perturbation_bound_cases(200, seed=4):
        for gap, bound in perturbation_gaps_and_bounds(g, e, eps, delta, lam_min):
            assert gap <= bound * (1 + 1e-9)
        checked += 1
    assert checked == 200


@settings(PROPERTY, max_examples=200)
@given(
    dim=st.integers(2, 8),
    log10_cond=st.floats(0.0, 4.0),
    lam_lo=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32 - 1),
    eps_frac=st.floats(0.9, 0.999),
    direction=st.sampled_from(["random", "up", "down"]),
    delta=st.sampled_from([0.0, 0.3]),
)
def test_perturbation_bounds_hold_at_the_edge_of_their_preconditions(
    dim, log10_cond, lam_lo, seed, eps_frac, direction, delta
):
    # Condition numbers up to 1e4, ||E|| = eps in [0.9, 0.999] lambda_min/2,
    # and E random or the adversarial +-eps v_min v_min^T. Moving lambda_min
    # down by eps makes the inverse gap eps / (lambda (lambda - eps)), at
    # least 0.9 of the corrected bound 2 eps / lambda^2 here (the nominal
    # eps / (2 lambda^2) fails on every such instance).
    rng = rng_for(seed)
    g = random_spd_spanning(rng, dim, lam_lo, lam_lo * 10.0**log10_cond)
    w, v = np.linalg.eigh(g)
    lam_min = float(w[0])
    eps = eps_frac * lam_min / 2.0
    if direction == "random":
        e = random_sym_with_norm(rng, dim, eps)
    else:
        e = (eps if direction == "up" else -eps) * np.outer(v[:, 0], v[:, 0])
    gaps = perturbation_gaps_and_bounds(g, e, eps, delta, lam_min)
    for gap, bound in gaps:
        assert gap <= bound * (1 + 1e-9)
    if direction == "down":
        inv_gap, inv_bound = gaps[0]
        assert inv_gap >= 0.9 * inv_bound
