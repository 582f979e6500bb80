import math
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
    SymMatrix,
    inv_perturbation_bound,
    invsqrt_preconditioner_bound,
    op_norm,
    sqrt_perturbation_bound,
)


class TestSymMatrix:
    def test_symmetrized_on_construction(self):
        m = SymMatrix([[1.0, 2.0], [0.0, 3.0]])
        assert np.array_equal(m.a, m.a.T)
        assert m.a[0, 1] == 1.0

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteError):
            SymMatrix([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(NonFiniteError):
            SymMatrix([[np.inf, 0.0], [0.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidParamError):
            SymMatrix(np.ones((2, 3)))
        with pytest.raises(InvalidParamError):
            SymMatrix(np.ones(4))

    def test_eigendecomposition_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            dim = rng.integers(1, 9)
            m = SymMatrix(random_sym_with_norm(rng, dim, rng.uniform(0.1, 10.0)) if dim > 1
                          else [[rng.normal()]])
            w, v = m.eigendecomposition()
            assert np.all(np.diff(w) >= 0)
            scale = max(1.0, op_norm(m))
            assert op_norm((v * w) @ v.T - m.a) <= 1e-10 * scale
            assert op_norm(v.T @ v - np.eye(dim)) <= 1e-10


def random_entries_with_subnormals(rng, shape):
    """Random entries over many decades, a quarter of them subnormal, with +-0."""
    a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, size=shape)
    tiny = rng.random(shape) < 0.25
    a[tiny] = rng.standard_normal(np.count_nonzero(tiny)) * 5e-324 * rng.integers(1, 2**40, np.count_nonzero(tiny))
    a.flat[:2] = (0.0, -0.0)
    return a


class TestSymmetrization:
    """(M + M^T)/2 where the sum is finite; M/2 + M^T/2 where it overflows."""

    @pytest.mark.parametrize("entry", [1e308, -1e308, np.finfo(np.float64).max])
    def test_entries_near_the_float_maximum_survive(self, entry):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = SymMatrix([[entry, 0.0], [0.0, 1.0]])
            norm = op_norm(np.array([[entry, 0.0], [0.0, 1.0]]))
        assert m.a[0, 0] == entry
        # LAPACK rescales a matrix this large, which may cost its eigenvalues an ulp.
        assert m.lambda_max() == pytest.approx(max(entry, 1.0), rel=1e-15)
        assert m.lambda_min() == pytest.approx(min(entry, 1.0), rel=1e-15)
        assert norm == pytest.approx(abs(entry), rel=1e-15)

    def test_off_diagonal_pair_that_overflows_is_halved_first(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = SymMatrix([[1.0, 1.7e308], [1.6e308, 2.0]])
        assert m.a[0, 1] == m.a[1, 0] == 1.7e308 / 2.0 + 1.6e308 / 2.0
        assert m.a[0, 0] == 1.0 and m.a[1, 1] == 2.0

    @pytest.mark.parametrize("dim", [1, 2, 3, 10])
    def test_bits_of_the_plain_mean_on_random_matrices_with_subnormals(self, dim):
        rng = np.random.default_rng(40 + dim)
        for _ in range(50):
            a = random_entries_with_subnormals(rng, (dim, dim))
            expected = (a + a.T) / 2.0
            assert np.array_equal(SymMatrix(a).a, expected)
            assert op_norm(a) == np.abs(np.linalg.eigvalsh(expected)).max()
            stack = random_entries_with_subnormals(rng, (4, dim, dim))
            assert np.array_equal(SymMatrix(stack).a, (stack + stack.swapaxes(-1, -2)) / 2.0)

    def test_a_stack_names_the_matrices_that_are_not_finite(self):
        stack = np.ones((3, 2, 2))
        stack[1, 0, 1] = np.inf
        stack[2, 0, 0] = 1e308
        with pytest.raises(NonFiniteError) as info:
            SymMatrix(stack)
        assert info.value.rows.tolist() == [False, True, False]
        with pytest.raises(NonFiniteError):
            op_norm(np.array([[np.inf, 1e308], [1e308, 0.0]]))


def random_diagonal(rng, shape):
    """Entries of magnitude 1e-100 to 1e100, random signs, with ties and +0.0 entries."""
    d = 10.0 ** rng.uniform(-100.0, 100.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    n = shape[-1]
    for row in d.reshape(-1, n):
        if n > 1 and rng.random() < 0.5:
            row[rng.integers(0, n, size=rng.integers(2, n + 1))] = row[rng.integers(0, n)]
        if n > 1 and rng.random() < 0.3:  # an all-zero matrix would take the eigh path
            row[rng.integers(0, n, size=rng.integers(1, n))] = 0.0
    return d


def count_eigh_calls(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


class TestFromDiagonal:
    @pytest.mark.parametrize("batch", [None, 4])
    @pytest.mark.parametrize("dim", [1, 2, 3, 10, 30])
    def test_eigenvalues_have_the_bits_of_eigh_without_calling_it(self, monkeypatch, dim, batch):
        rng = np.random.default_rng(1000 * dim + (batch or 0))
        calls = count_eigh_calls(monkeypatch)
        for _ in range(40):
            d = random_diagonal(rng, (dim,) if batch is None else (batch, dim))
            dense = np.zeros(d.shape + (dim,))
            dense[..., np.arange(dim), np.arange(dim)] = d
            m = SymMatrix.from_diagonal(d)
            lam_min, lam_max, w = m.lambda_min(), m.lambda_max(), m.eigenvalues()
            assert calls == []
            ref = np.linalg.eigh(dense).eigenvalues
            assert w.tobytes() == ref.tobytes()
            if batch is None:
                assert type(lam_min) is float and type(lam_max) is float
            else:
                assert lam_min.shape == lam_max.shape == (batch,)
            assert np.asarray(lam_min).tobytes() == ref[..., 0].tobytes()
            assert np.asarray(lam_max).tobytes() == ref[..., -1].tobytes()
            assert m.a.tobytes() == dense.tobytes()
            calls.clear()

    @pytest.mark.parametrize("top", [1e200, 1e-200, 0.0])
    def test_where_lapack_rescales_eigh_gives_the_eigenvalues(self, monkeypatch, top):
        # Entries spanning many decades beside a largest entry outside
        # LAPACK's unscaled range: its rescaling rounds the small ones.
        d = top * np.array([[1.0, 3e-150, -7e-151], [0.5, -1e-140, 2e-160]])
        calls = count_eigh_calls(monkeypatch)
        m = SymMatrix.from_diagonal(d)
        w = m.eigenvalues()
        assert len(calls) == 2
        assert w.tobytes() == np.linalg.eigh(m.a).eigenvalues.tobytes()

    def test_eigendecomposition_still_calls_eigh(self, monkeypatch):
        calls = count_eigh_calls(monkeypatch)
        m = SymMatrix.from_diagonal([2.0, 2.0, 1.0])
        w, v = m.eigendecomposition()
        assert calls == [(3, 3)]
        assert np.allclose((v * w) @ v.T, m.a, rtol=0.0, atol=1e-15)

    def test_rejects_bad_input(self):
        with pytest.raises(NonFiniteError) as err:
            SymMatrix.from_diagonal([[1.0, 2.0], [np.nan, 0.0], [1.0, np.inf]])
        assert err.value.rows.tolist() == [False, True, True]
        with pytest.raises(NonFiniteError):
            SymMatrix.from_diagonal([np.inf, 1.0])
        with pytest.raises(InvalidParamError):
            SymMatrix.from_diagonal(np.ones((2, 2, 2)))
        with pytest.raises(InvalidParamError):
            SymMatrix.from_diagonal([])


HALF_MAX = np.finfo(np.float64).max / 2.0


def random_outer_entries(rng, shape, big, nonfinite=()):
    """Entries of magnitude 1e-3 to 1e3 with subnormals, +-0.0, some of magnitude ``big`` and ``nonfinite``."""
    x = 10.0 ** rng.uniform(-3.0, 3.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    special = np.array([0.0, -0.0, 5e-324, -3e-320, 2.2e-308, big, -big, 0.999 * big, -1.001 * big, *nonfinite])
    pick = rng.random(shape) < rng.uniform(0.0, 0.3)
    x[pick] = rng.choice(special, size=np.count_nonzero(pick))
    return x


class TestOuterPlus:
    """outer_plus(g, base) has the bits of SymMatrix(g g^T + base.a), and raises as it does."""

    @staticmethod
    def via_constructor(g, base):
        try:
            return SymMatrix(g[..., :, None] * g[..., None, :] + base.a).a, None
        except NonFiniteError as err:
            return None, err

    @pytest.mark.parametrize("batch", [None, 5])
    @pytest.mark.parametrize("dim", [1, 2, 3, 10])
    def test_bits_and_errors_of_the_constructor(self, dim, batch):
        rng = np.random.default_rng(7000 + 10 * dim + (batch or 0))
        paths = set()
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(200):
                g = random_outer_entries(rng, (dim,) if batch is None else (batch, dim), math.sqrt(HALF_MAX),
                                         (np.nan, np.inf, -np.inf))
                b = random_outer_entries(rng, (dim, dim), HALF_MAX)
                base = SymMatrix(np.triu(b) + np.triu(b, 1).T)
                expected, err = self.via_constructor(g, base)
                if err is not None:
                    with pytest.raises(NonFiniteError) as info:
                        SymMatrix.outer_plus(g, base)
                    assert str(info.value) == str(err)
                    if batch is None:
                        assert info.value.rows is None and err.rows is None
                    else:
                        assert info.value.rows.tolist() == err.rows.tolist()
                    paths.add("raises")
                    continue
                m = SymMatrix.outer_plus(g, base)
                assert m.a.tobytes() == expected.tobytes()
                assert m.a.shape == expected.shape and not m.a.flags.writeable
                raw = g[..., :, None] * g[..., None, :] + base.a
                paths.add("plain" if np.abs(raw).max() <= HALF_MAX else "averaged")
        assert paths == {"plain", "averaged", "raises"}

    def test_read_only_and_eigenvalues_of_a_fresh_matrix(self):
        base = SymMatrix(np.diag([1.0, 2.0]))
        m = SymMatrix.outer_plus(np.array([[3.0, -0.0], [0.0, 1.0]]), base)
        with pytest.raises(ValueError):
            m.a[0, 0, 0] = 0.0
        assert np.array_equal(m.eigenvalues(), np.linalg.eigh(m.a).eigenvalues)
        assert np.array_equal(base.a, np.diag([1.0, 2.0]))

    def test_signed_zeros_and_subnormals_keep_their_bits(self):
        base = SymMatrix([[-0.0, -0.0], [-0.0, 5e-324]])
        for g in (np.array([-0.0, 1.0]), np.array([[-0.0, 1.0], [0.0, -3e-320]])):
            m = SymMatrix.outer_plus(g, base)
            assert m.a.tobytes() == SymMatrix(g[..., :, None] * g[..., None, :] + base.a).a.tobytes()
            assert np.signbit(m.a[..., 0, 1]).all()

    def test_rows_that_are_not_finite(self):
        base = SymMatrix(np.eye(2))
        g = np.array([[1.0, 2.0], [np.nan, 0.0], [1.0, np.inf], [1e200, 1.0], [3.0, -0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError) as info:
                SymMatrix.outer_plus(g, base)
        assert info.value.rows.tolist() == [False, True, True, True, False]
        with pytest.raises(NonFiniteError) as info:
            SymMatrix.outer_plus(np.array([np.nan, 1.0]), base)
        assert info.value.rows is None

    def test_rejects_a_point_of_another_dimension(self):
        base = SymMatrix(np.eye(2))
        for g in (np.ones(3), np.ones((2, 3)), np.ones((2, 2, 2)), 1.0):
            with pytest.raises(InvalidParamError):
                SymMatrix.outer_plus(g, base)


class TestSymPower:
    def test_diagonal_case(self):
        r = sym_power(SymMatrix(np.diag([4.0, 9.0])), -0.5, 0.0)
        assert np.allclose(r.a, np.diag([0.5, 1.0 / 3.0]), rtol=1e-14)

    def test_identity(self):
        r = sym_power(SymMatrix(np.eye(3)), -0.5, 0.0)
        assert np.allclose(r.a, np.eye(3), rtol=1e-14)

    def test_dense_inverse_square_root_round_trip(self):
        g = SymMatrix([[2.0, 1.0], [1.0, 2.0]])
        r = sym_power(g, -0.5, 0.0)
        # squaring and inverting the result must reproduce g
        back = sym_power(r, -2.0, 0.0)
        assert op_norm(back.a - g.a) <= 1e-10 * op_norm(g)
        w = r.eigendecomposition().eigenvalues
        assert np.allclose(np.sort(w), [1.0 / np.sqrt(3.0), 1.0], rtol=1e-12)

    def test_sqrt_square_round_trip_random_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            dim = int(rng.integers(2, 9))
            g = SymMatrix(random_spd(rng, dim))
            back = sym_power(sym_power(g, 0.5, 0.0), 2.0, 0.0)
            assert op_norm(back.a - g.a) <= 1e-8 * op_norm(g)

    def test_singular_negative_power_raises(self):
        with pytest.raises(SingularMatrixError):
            sym_power(SymMatrix(np.diag([1.0, 0.0])), -0.5, 0.0)
        with pytest.raises(SingularMatrixError):
            sym_power(SymMatrix(np.diag([1.0, -0.5])), -1.0, 0.0)

    def test_clamp_floor_rescues_negative_power(self):
        r = sym_power(SymMatrix(np.diag([4.0, -1.0])), -0.5, 1.0)
        assert np.allclose(r.a, np.diag([0.5, 1.0]), rtol=1e-14)

    def test_sqrt_lambda_min_monotone(self):
        # A <= B (Loewner) implies lambda_min(A^1/2) <= lambda_min(B^1/2)
        rng = np.random.default_rng(2)
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            a = random_spd(rng, dim)
            b = a + random_spd(rng, dim, lam_lo=0.0, lam_hi=1.0)
            la = sym_power(SymMatrix(a), 0.5, 0.0).lambda_min()
            lb = sym_power(SymMatrix(b), 0.5, 0.0).lambda_min()
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
        assert op_norm(SymMatrix(np.diag([-3.0, 2.0]))) == 3.0

    def test_zero(self):
        assert op_norm(SymMatrix(np.zeros((3, 3)))) == 0.0

    def test_matches_power_iteration(self):
        rng = np.random.default_rng(3)
        a = random_sym_with_norm(rng, 5, 2.5)
        assert abs(op_norm(a) - power_iteration_op_norm(a)) <= 1e-8

    def test_rejects_nonfinite_array(self):
        with pytest.raises(NonFiniteError):
            op_norm(np.array([[np.nan]]))

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
            op_norm(sym_power(SymMatrix(g), 0.5, 0.0).a - sym_power(SymMatrix(gh), 0.5, 0.0).a),
            sqrt_perturbation_bound(lam_min, eps),
        ),
        (
            op_norm(sym_power(SymMatrix(g + d_eye), -0.5, 0.0).a - sym_power(SymMatrix(gh + d_eye), -0.5, 0.0).a),
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
