import os
import signal
import subprocess
import sys
import threading
import time
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
from precondsgd import linalg
from precondsgd.linalg import THREADS_MIN_DIM, eigh


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
        calls.clear()
        by_seed = eigh(stack, np.arange(size))  # each matrix its own seed: the same calls and bits
        assert calls == [dim * dim] * len(stack)
        assert (by_seed[0].tobytes(), by_seed[1].tobytes()) == (w.tobytes(), v.tobytes())
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


@pytest.mark.parametrize("workers", [0, 1, 2])
@pytest.mark.parametrize("dim", [5, THREADS_MIN_DIM])
@pytest.mark.parametrize("counts", [(4, 4, 4), (3, 1, 4, 2)], ids=("equal", "ragged"))
def test_each_run_of_a_seeds_matrices_is_one_call_with_the_bits_of_one_call_per_matrix(monkeypatch, counts, dim,
                                                                                      workers):
    """eigh(a, seeds) makes one call per run of adjacent matrices of one seed, below THREADS_MIN_DIM and at it;
    the ragged stack's seed 7 has two runs, apart."""
    monkeypatch.setattr(linalg, "_WORKERS", workers)
    numpy_eigh, lock, calls = np.linalg.eigh, threading.Lock(), []

    def counted(a):
        with lock:
            calls.append(a[:, 0, 1].astype(int).tolist())  # the matrices it decomposes
        return numpy_eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    seeds = np.repeat([7, 2, 7, 4][:len(counts)], counts)
    stack = _marked_stack(len(seeds), dim, 10 + len(counts))
    w, v = eigh(stack, seeds)
    bounds = np.cumsum((0, *counts)).tolist()
    assert sorted(calls) == [list(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
    assert (w.shape, v.shape) == (stack.shape[:-1], stack.shape)
    for m, wb, vb in zip(stack, w, v):
        reference = numpy_eigh(m)
        assert wb.tobytes() == reference.eigenvalues.tobytes()
        assert vb.tobytes() == reference.eigenvectors.tobytes()


def _marked_stack(size, dim, seed):
    """``size`` random SPD (dim, dim) matrices; matrix b holds b at [0, 1] and [1, 0], so a call can tell
    which it decomposes."""
    rng = rng_for(seed)
    stack = np.array([random_spd(rng, dim) for _ in range(size)])
    stack[:, 0, 1] = stack[:, 1, 0] = np.arange(size)
    return stack


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("dim", [THREADS_MIN_DIM, 200])
@pytest.mark.parametrize("size", [2, 3, 5])
def test_a_stack_decomposed_by_threads_has_the_bits_of_one_call_per_matrix(monkeypatch, size, dim, workers):
    monkeypatch.setattr(linalg, "_WORKERS", workers)
    stack = _marked_stack(size, dim, 100 + size)
    w, v = eigh(stack)
    for m, wb, vb in zip(stack, w, v):
        reference = np.linalg.eigh(m)
        assert wb.tobytes() == reference.eigenvalues.tobytes()
        assert vb.tobytes() == reference.eigenvectors.tobytes()


@pytest.mark.parametrize("seeds", [None, [0, 0, 0, 1]], ids=("one-per-matrix", "ragged"))
def test_a_large_stack_runs_its_calls_at_the_same_time_and_a_small_one_in_the_caller(monkeypatch, seeds):
    monkeypatch.setattr(linalg, "_WORKERS", 1)
    numpy_eigh, callers = np.linalg.eigh, []
    meet = threading.Barrier(2, timeout=20)

    def meeting(m):  # returns once a call runs in another thread too; one after the other, it raises
        callers.append(threading.get_ident())
        meet.wait()
        return numpy_eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", meeting)
    eigh(_marked_stack(2 if seeds is None else len(seeds), THREADS_MIN_DIM, 1), seeds)
    assert len(callers) == 2 and len(set(callers)) == 2 and threading.get_ident() in callers

    callers.clear()
    monkeypatch.setattr(np.linalg, "eigh", lambda m: callers.append(threading.get_ident()) or numpy_eigh(m))
    eigh(_marked_stack(3, THREADS_MIN_DIM - 1, 2))
    assert callers == [threading.get_ident()] * 3


def test_the_threads_start_once_and_no_more_than_a_stack_can_use(monkeypatch):
    monkeypatch.setattr(linalg, "_pool", None)
    monkeypatch.setattr(linalg, "_WORKERS", 3)
    eigh(_marked_stack(2, THREADS_MIN_DIM, 5))
    pool = linalg._executor()
    assert len(pool._threads) == 1  # the caller and one thread share two matrices
    eigh(_marked_stack(4, THREADS_MIN_DIM, 6))
    assert linalg._executor() is pool and pool._max_workers == 3


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_process_starts_threads_of_its_own(monkeypatch):
    monkeypatch.setattr(linalg, "_WORKERS", 1)
    stack = _marked_stack(2, THREADS_MIN_DIM, 7)
    w, _ = eigh(stack)
    parent_pool = linalg._executor()
    pid = os.fork()
    if pid == 0:  # the child: its copy of the parent's pool has no threads, so a stack given to it would wait forever
        ok = False
        try:
            signal.alarm(20)
            ok = eigh(stack)[0].tobytes() == w.tobytes() and linalg._executor() is not parent_pool
        finally:
            os._exit(0 if ok else 1)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0


@pytest.mark.parametrize("bad", [(1,), (0, 1)], ids=("matrix-1", "matrices-0-and-1"))
def test_a_matrix_holding_inf_gives_the_loops_result(monkeypatch, bad):
    monkeypatch.setattr(linalg, "_WORKERS", 2)
    stack = _marked_stack(5, THREADS_MIN_DIM, 3)
    stack[list(bad), 2, 2] = np.inf
    w, v = eigh(stack)
    for m, wb, vb in zip(stack, w, v):
        reference = np.linalg.eigh(m)
        assert wb.tobytes() == reference.eigenvalues.tobytes()
        assert vb.tobytes() == reference.eigenvectors.tobytes()
    assert np.isnan(w[list(bad)]).all() and not np.isnan(np.delete(w, list(bad), axis=0)).any()


@pytest.mark.parametrize("workers", [0, 2], ids=("loop", "threads"))
@pytest.mark.parametrize("bad", [(1,), (0, 1)], ids=("matrix-1", "matrices-0-and-1"))
def test_a_failing_call_raises_the_loops_exception_once_every_thread_is_done(monkeypatch, bad, workers):
    monkeypatch.setattr(linalg, "_WORKERS", workers)
    numpy_eigh, lock, running = np.linalg.eigh, threading.Lock(), [0]

    def failing(m):
        b = int(m[0, 1])
        if b in bad:
            raise np.linalg.LinAlgError(f"matrix {b}")
        with lock:
            running[0] += 1
        time.sleep(0.05)  # still running when a failing call returns
        try:
            return numpy_eigh(m)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(np.linalg.LinAlgError) as raised:
        eigh(_marked_stack(5, THREADS_MIN_DIM, 4))
    assert str(raised.value) == f"matrix {bad[0]}" and running == [0]


@pytest.mark.parametrize("workers", [0, 2], ids=("loop", "threads"))
def test_a_ragged_stack_failing_on_two_seeds_raises_the_first_ones_error_once_every_thread_is_done(monkeypatch,
                                                                                                   workers):
    monkeypatch.setattr(linalg, "_WORKERS", workers)
    numpy_eigh, lock, running = np.linalg.eigh, threading.Lock(), [0]
    seeds = np.repeat([0, 1, 2, 3], [2, 1, 3, 2])

    def failing(a):
        seed = seeds[int(a[0, 0, 1])]
        if seed in (1, 3):
            raise np.linalg.LinAlgError(f"seed {seed}")
        with lock:
            running[0] += 1
        time.sleep(0.05)  # still running when a failing call returns
        try:
            return numpy_eigh(a)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(np.linalg.LinAlgError) as raised:
        eigh(_marked_stack(len(seeds), THREADS_MIN_DIM, 4), seeds)
    assert str(raised.value) == "seed 1" and running == [0]


@pytest.mark.parametrize(
    "first, blas, one_thread",
    [("precondsgd", None, True), ("precondsgd", "2", False), ("numpy", None, False), ("numpy", "1", True)],
    ids=("package-first", "package-first-user-count", "numpy-first", "numpy-first-user-one"),
)
def test_the_package_gives_numpy_one_blas_thread_when_it_loads_it_and_leaves_the_environment(first, blas, one_thread):
    code = (
        f"import os\nbefore = dict(os.environ)\nimport {first}\nimport precondsgd\nfrom precondsgd import linalg\n"
        "assert dict(os.environ) == before\none = linalg._BLAS_ONE_THREAD\n"
        "print(one, linalg._WORKERS == (linalg._CORES - 1 if one else 0))"
    )
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [str(one_thread), "True"]


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
