"""The logged columns that the loop never reads back, and the failures of their oracles.

``run_sgd`` evaluates ||grad f||, lambda_min(H) and est_error's reference
side for a chunk of logged events at once. A seed whose oracle fails at
a logged event must still stop there, with the error and the partial
trajectory it had when every event evaluated its own oracles; and the
oracles must not be called once per logged event.
"""

import functools
import hashlib
import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lemmas import PROPERTY, rng_for
from precondsgd import (
    NonFiniteError,
    Preconditioner,
    PreconditionerKind,
    QuadraticGaussianProblem,
    Run,
    SaddleProblem2D,
    SingularMatrixError,
    StochasticProblem,
    run_sgd,
)
from precondsgd import optimizer
from precondsgd.errors import NumericError
from precondsgd.linalg import eigh, eigvalsh
from precondsgd.optimizer import DIVERGENCE_F_LIMIT, LOG_CHUNK_BYTES, STEP_HALLUCINATED, _defect_reference
from precondsgd.precond import _dense

COLUMNS = ("iteration", "step_kind", "f", "grad_norm", "lambda_min_h", "est_error", "x")
SEEDS = range(60, 66)


class FailingPastProblem(StochasticProblem):
    """f = x_1^2/2 - x_0 with unit Gaussian gradient noise: x_0 drifts up, each seed at its own pace.

    Past x_0 = g_at, G(x) has a negative eigenvalue (so its matrix power
    fails); past h_at, ``hessian`` raises a NumericError that marks those
    rows; past f_at, f is inf (so the divergence guard stops the seed).
    """

    dim = 2

    def __init__(self, g_at=math.inf, h_at=math.inf, f_at=math.inf):
        self.g_at, self.h_at, self.f_at = g_at, h_at, f_at

    def eval_f(self, x):
        x = np.asarray(x)
        f = np.where(x[..., 0] > self.f_at, np.inf, 0.5 * x[..., 1] ** 2 - x[..., 0])
        return float(f) if x.ndim == 1 else f

    def grad(self, x):
        x = np.asarray(x)
        g = np.empty(x.shape)
        g[..., 0] = -1.0
        g[..., 1] = x[..., 1]
        return g

    def sample_grad(self, x, rng):
        return self.grad(x) + rng.standard_normal(2)

    def exact_G(self, x):
        x = np.asarray(x)
        g = self.grad(x)
        G = g[..., :, None] * g[..., None, :] + np.eye(2)
        G[..., 1, 1] = np.where(x[..., 0] > self.g_at, -1.0, G[..., 1, 1])
        return G

    def hessian(self, x):
        x = np.asarray(x)
        bad = x[..., 0] > self.h_at
        if bad.any():
            raise NumericError(f"hessian fails past x_0 = {self.h_at}", rows=bad if x.ndim == 2 else None)
        return np.zeros(x.shape[:-1]) if x.ndim == 2 else 0.0


def tracked_run(log_every, epsilon=1e-3):
    """Full-matrix RMSProp with burn-in, est_error tracked, lambda_min(H) at every second step."""
    return Run(PreconditionerKind("full_matrix", epsilon), "estimated", False, 120, 0.05, beta=0.9, W=3, x0=(0.0, 0.5),
               log_every=log_every, track_est_error=True, lambda_min_every=2)


def digest(trajectories):
    """sha256 of every seed's length, error and columns."""
    h = hashlib.sha256()
    for traj in trajectories:
        h.update(f"{len(traj)} {type(traj.error).__name__} {traj.error}\n".encode())
        h.update("|".join(traj.step_kind.tolist()).encode())
        for name in COLUMNS:
            if name != "step_kind":
                h.update(np.ascontiguousarray(getattr(traj, name)).tobytes())
    return h.hexdigest()


def expected_stop(healthy, problem):
    """(logged length, error type, message) of a healthy trajectory under problem's thresholds.

    The first logged event past a threshold stops the seed, checked in the
    order of a logged event: the divergence guard, lambda_min(H) (where it
    is due), then est_error's G(x). None when no threshold is passed.
    """
    x0 = healthy.x[:, 0]
    for i in range(len(healthy)):
        if x0[i] > problem.f_at:
            return i, NonFiniteError, f"objective diverged (f=inf) at event {healthy.iteration[i]}"
        if not np.isnan(healthy.lambda_min_h[i]) and x0[i] > problem.h_at:
            return i, NumericError, f"hessian fails past x_0 = {problem.h_at}"
        if x0[i] > problem.g_at:
            return i, SingularMatrixError, "lambda_min(G) + eps not positive"
    return None


def assert_stops_as_expected(healthy, failing, problem):
    """Each failing seed is its healthy twin truncated at expected_stop, with that error."""
    for twin, traj in zip(healthy, failing, strict=True):
        assert twin.error is None
        stop = expected_stop(twin, problem)
        n = len(twin) if stop is None else stop[0]
        assert len(traj) == n
        for name in COLUMNS:
            np.testing.assert_array_equal(getattr(traj, name), getattr(twin, name)[:n], err_msg=name)
        if stop is None:
            assert traj.error is None
        else:
            assert type(traj.error) is stop[1] and str(traj.error) == stop[2]


# name -> the thresholds. The digests were recorded with an earlier failure path: each logged event evaluating
# its own oracles (the first four cases at log_every 1 and 7), or a failing chunk evaluated again event by event.
CASES = {
    "exact_G": dict(g_at=4.0),
    "hessian": dict(h_at=4.0),
    "exact_G-before-guard": dict(g_at=3.6, f_at=3.8),
    "guard-before-exact_G": dict(g_at=3.8, f_at=3.6),
    "hessian-before-exact_G": dict(h_at=3.6, g_at=3.8),
    "all-three": dict(g_at=3.9, h_at=3.7, f_at=3.8),
}
DIGESTS = {
    ("exact_G", 1): "b34bf68f7d3ca7804a1e6500b243fce02cc7962aba463bb34acdc75321218275",
    ("exact_G", 3): "9c1f43a7681ed92911e54caf0b35bbe0b3fdb18db6d994327af6f0fb74fbaeaf",
    ("exact_G", 7): "d8c6ff5f6d391a6d92b4740d711378aad34030fd0966ede44c45acaa4ffd40e3",
    ("hessian", 1): "7a61ac3e80e5fcdca1b85388ad22ceef2329bfc3e7fad4c76e42c549e527181a",
    ("hessian", 3): "70647436a06789c866cbb86887e8288c3452e460b2bf287876acbb7a4e9e4239",
    ("hessian", 7): "c81e4bd79cdc193fad23e5cf8805381cdfbc7ca97f6d182ff1cdce356074ada8",
    ("exact_G-before-guard", 1): "1a7bd0af28eb21281e85990c3c1903aa09e1e3ee4871347528bc195d94ac4403",
    ("exact_G-before-guard", 3): "06280283b660872b0d8e7ab0041c355356a2ec01a177309caa5e76844a06757a",
    ("exact_G-before-guard", 7): "eb0ce4157d284e602ee30035e1d827877387e87a5f4e07c21125c45ef43a0754",
    ("guard-before-exact_G", 1): "27d609988157f231a2b04dd8ad99938675d7ddf67fba71d3e0c2f4c1f35614a4",
    ("guard-before-exact_G", 3): "bb864b905435a06ca1cb2cfa9408640dd4ea6b32b45faddc1d194b54c732e624",
    ("guard-before-exact_G", 7): "2c1fe34d4c65fac4f60dd26168b998c1702771b0ebd1b042e6e742335660fe2e",
    ("hessian-before-exact_G", 1): "42dceb28d7291e9dc802f6c0575d77b5fa3364ea0936aae99c5d5c601d2b2228",
    ("hessian-before-exact_G", 3): "2ca7ddfdf16440a33f20a3aea2d92c4156b6612352d0db94f6bc45522c85a74d",
    ("hessian-before-exact_G", 7): "599afc16ba31a6f5fd8e9f41d69d772d1d87d535be63d09201a9630b2c104a23",
    ("all-three", 1): "1dc1a9fde59a6339190b2448ffec9389444788277bc9adf01182367a495145a4",
    ("all-three", 3): "52de720aa49da36eb143eedc31e3057a34338e2e1d8ddee2cebbbe5665b23ec8",
    ("all-three", 7): "8e8bde55ef2ffcb785ef9381d8a293d20d2974415c12d8da96c499f103894344",
}


@pytest.mark.parametrize("log_every", [1, 3, 7])
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_failing_logged_oracle_stops_its_seed_at_that_event(case, log_every):
    """Each seed is its healthy twin's trajectory up to the first logged event past a threshold.

    The twin runs the same draws on a problem without thresholds. All six
    seeds share one chunk of logged events, so the chunk's stacked oracle
    call fails and reruns on the rows before every seed's stop.
    """
    problem = FailingPastProblem(**CASES[case])
    run = tracked_run(log_every)
    healthy = run_sgd(FailingPastProblem(), run, [rng_for(s) for s in SEEDS])
    failing = run_sgd(problem, run, [rng_for(s) for s in SEEDS])
    assert len(SEEDS) * 2 * 2 * 8 * max(map(len, healthy)) <= LOG_CHUNK_BYTES  # B d^2 8 bytes per event: one chunk
    assert sum(expected_stop(h, problem) is not None for h in healthy) >= 2
    assert_stops_as_expected(healthy, failing, problem)
    assert digest(failing) == DIGESTS[case, log_every]


@functools.cache
def healthy_twins(log_every):
    return run_sgd(FailingPastProblem(), tracked_run(log_every), [rng_for(s) for s in SEEDS])


THRESHOLD = st.one_of(st.floats(3.0, 4.5), st.just(math.inf))


@settings(PROPERTY, max_examples=60)
@given(g_at=THRESHOLD, h_at=THRESHOLD, f_at=THRESHOLD, log_every=st.integers(1, 9), chunk=st.integers(1, 60))
@example(g_at=math.inf, h_at=0.09, f_at=0.2, log_every=1, chunk=4)
@example(g_at=3.9, h_at=3.7, f_at=3.8, log_every=1, chunk=0)
def test_every_seed_stops_at_its_first_failing_check(g_at, h_at, f_at, log_every, chunk):
    """Any thresholds and log_every, in chunks of 1 to 60 logged events.

    With chunks shorter than the run, a deferred failure also stops a seed
    that still runs, and the flushes after it skip that seed. In the first
    example, a seed's first row of a chunk's stacked lambda_min(H) call
    fails, and its guard stopped it later in that chunk: the failure must
    replace that stop, whatever the row before it holds. In the second,
    one event's columns exceed the byte budget, so each chunk holds one.
    """
    problem = FailingPastProblem(g_at=g_at, h_at=h_at, f_at=f_at)
    with mock.patch.object(optimizer, "LOG_CHUNK_BYTES", chunk * len(SEEDS) * 2 * 2 * 8):
        failing = run_sgd(problem, tracked_run(log_every), [rng_for(s) for s in SEEDS])
    assert_stops_as_expected(healthy_twins(log_every), failing, problem)


def test_a_deferred_failure_replaces_a_later_guard_stop():
    """A seed past g_at at one logged event and past f_at at a later one ends with G's error."""
    problem = FailingPastProblem(**CASES["exact_G-before-guard"])
    healthy = run_sgd(FailingPastProblem(), tracked_run(1), [rng_for(s) for s in SEEDS])
    failing = run_sgd(problem, tracked_run(1), [rng_for(s) for s in SEEDS])
    both = [i for i, h in enumerate(healthy) if (h.x[:, 0] > problem.f_at).any()]
    assert both
    for i in both:
        assert isinstance(failing[i].error, SingularMatrixError)
        assert failing[i].x[:, 0].max() <= problem.g_at < healthy[i].x[len(failing[i]), 0]


class AtTheLimitProblem(FailingPastProblem):
    """f is DIVERGENCE_F_LIMIT at the first point of a stack and the next float above it at the others."""

    def eval_f(self, x):
        f = np.full(np.shape(x)[:-1], np.nextafter(DIVERGENCE_F_LIMIT, math.inf))
        f[..., :1] = DIVERGENCE_F_LIMIT
        return f


def test_an_objective_at_the_divergence_limit_runs_on_beside_one_past_it():
    """The guard stops a seed only past DIVERGENCE_F_LIMIT, also when another seed passes it at the same event."""
    trajectories = run_sgd(AtTheLimitProblem(), tracked_run(1), [rng_for(s) for s in SEEDS[:2]])
    assert len(trajectories[0]) == 123 and trajectories[0].error is None
    assert len(trajectories[1]) == 0
    assert str(trajectories[1].error) == "objective diverged (f=1.0000000000000002e+100) at event -3"


class InfiniteSamplePastProblem(FailingPastProblem):
    """FailingPastProblem whose sampled gradient is infinite past x_0 = g_at (after the same draws)."""

    def sample_grad(self, x, rng):
        g = super().sample_grad(x, rng)
        return np.full(2, np.inf) if x[0] > self.g_at else g


@pytest.mark.parametrize("log_every", [1, 3])
def test_a_non_finite_iterate_stops_its_seed_after_the_event_of_its_step(log_every):
    """With SGD, a seed whose sample at step t is infinite keeps the events logged up to step t's."""
    def sgd(every):
        return Run(PreconditionerKind("identity"), "idealized", False, 120, 0.05, x0=(0.0, 0.5), log_every=every)

    problem = InfiniteSamplePastProblem(g_at=6.0)
    every_step = run_sgd(FailingPastProblem(), sgd(1), [rng_for(s) for s in SEEDS])
    healthy = run_sgd(FailingPastProblem(), sgd(log_every), [rng_for(s) for s in SEEDS])
    failing = run_sgd(problem, sgd(log_every), [rng_for(s) for s in SEEDS])
    stopped = 0
    for steps, twin, traj in zip(every_step, healthy, failing, strict=True):
        past = np.flatnonzero(steps.x[:, 0] > problem.g_at)  # steps.iteration[t] == t
        if not past.size:
            assert traj.error is None and len(traj) == len(twin)
            continue
        stopped += 1
        n = int(np.count_nonzero(twin.iteration <= past[0]))
        assert len(traj) == n and type(traj.error) is NonFiniteError
        assert str(traj.error) == f"iterate diverged at step {past[0]}"
        for name in COLUMNS:
            np.testing.assert_array_equal(getattr(traj, name), getattr(twin, name)[:n], err_msg=name)
    assert 2 <= stopped < len(SEEDS)


class JumpedBandProblem(FailingPastProblem):
    """f is inf for 0 < x_0 < band only, and x_0's gradient -1 has no noise: a large step of r = 0.1
    from x_0 = 0 jumps over the band, and only the points hallucinated along it land inside."""

    def __init__(self, band=0.05):
        super().__init__()
        self.band = band

    def eval_f(self, x):
        x = np.asarray(x)
        f = np.where((0.0 < x[..., 0]) & (x[..., 0] < self.band), np.inf, 0.5 * x[..., 1] ** 2 - x[..., 0])
        return float(f) if x.ndim == 1 else f

    def sample_grad(self, x, rng):
        return self.grad(x) + np.array([0.0, rng.standard_normal()])


def test_seeds_that_all_stop_inside_a_large_steps_hallucinated_samples_end_the_run():
    """Estimated large steps, every event logged: each seed stops at its first hallucinated point inside the
    band, so its trajectory ends at the hallucinated event before it, and no sample is drawn after."""
    run = Run(PreconditionerKind("diagonal", 1e-8), "estimated", False, 20, 0.01, beta=0.9, r=0.1, t_thresh=10, W=3,
              S=10, x0=(0.0, 0.5))
    healthy = run_sgd(JumpedBandProblem(band=0.0), run, [rng_for(s) for s in SEEDS])
    problem = JumpedBandProblem()
    draws, sample = [], problem.sample_grad
    problem.sample_grad = lambda x, rng: draws.append(1) or sample(x, rng)
    failing = run_sgd(problem, run, [rng_for(s) for s in SEEDS])
    n = run.W + 2  # the burn-in, step 0 (a large step) and its first hallucinated sample, all at x_0 = 0
    for twin, traj in zip(healthy, failing, strict=True):
        assert twin.step_kind[n] == STEP_HALLUCINATED and 0.0 < twin.x[n, 0] < problem.band < twin.x[-1, 0]
        assert len(traj) == n and traj.step_kind[-1] == STEP_HALLUCINATED
        assert str(traj.error) == f"objective diverged (f=inf) at event {twin.iteration[n]}"
        for name in COLUMNS:
            np.testing.assert_array_equal(getattr(traj, name), getattr(twin, name)[:n], err_msg=name)
    assert len(draws) == len(SEEDS) * (n + 1)


class FlatSecondCoordinateProblem(FailingPastProblem):
    """FailingPastProblem with noise in x_0 alone: from x_1 = 0 every sample is (g_0, 0)."""

    def sample_grad(self, x, rng):
        return self.grad(x) + np.array([rng.standard_normal(), 0.0])


def test_a_singular_estimate_at_burn_in_stops_every_seed_before_it_is_logged():
    """With eps = 0, Ghat = diag(., 0) exactly at the first burn-in event, where only Ahat's spectrum is taken."""
    run = tracked_run(1, epsilon=0.0)
    run.x0 = (0.0, 0.0)
    failing = run_sgd(FlatSecondCoordinateProblem(), run, [rng_for(s) for s in SEEDS])
    for traj in failing:
        assert len(traj) == 0
        assert isinstance(traj.error, SingularMatrixError)
        assert str(traj.error) == "lambda_min(Ghat) + eps not positive"


class StackGradFailsProblem(FlatSecondCoordinateProblem):
    """FlatSecondCoordinateProblem whose exact gradient of a stack of points fails (its sampler's does not)."""

    def grad(self, x):
        if np.ndim(x) == 2:
            raise NumericError("grad fails on a stack")
        return super().grad(x)


def test_a_failing_grad_comes_before_a_failing_estimate_at_the_same_event():
    """At a logged event ||grad f|| is evaluated before Ahat, so its error is the one each seed keeps."""
    run = tracked_run(1, epsilon=0.0)
    run.x0 = (0.0, 0.0)
    failing = run_sgd(StackGradFailsProblem(), run, [rng_for(s) for s in SEEDS])
    for traj in failing:
        assert len(traj) == 0
        assert type(traj.error) is NumericError and str(traj.error) == "grad fails on a stack"


@pytest.mark.parametrize("variant", ["full_matrix", "diagonal"])
def test_columns_over_many_chunks_have_the_bits_of_a_per_event_evaluation(variant):
    """||grad f||, lambda_min(H) and est_error at d = 10, over four chunks of one seed and nine of three.

    The per-event evaluation replays the seed's samples into its own
    Preconditioner and evaluates each logged event's oracles on their own;
    each seed of the lockstep run has the bits of its run alone.
    """
    dim, beta = 10, 0.95
    diagonal = np.geomspace(1.0, 0.1, dim)
    problem = QuadraticGaussianProblem(dim, np.diag(diagonal), np.diag(diagonal))
    kind = PreconditionerKind(variant, 1e-8)
    run = Run(kind, "estimated", False, 300, 0.01, beta=beta, W=20, x0=tuple(np.linspace(1.0, -1.0, dim)),
              track_est_error=True, lambda_min_every=3)
    together = run_sgd(problem, run, [rng_for(s) for s in (3, 4, 5)])
    assert LOG_CHUNK_BYTES // (3 * dim * dim * 8) == 27 and LOG_CHUNK_BYTES // (dim * dim * 8) == 81
    for seed, traj in zip((3, 4, 5), together):
        (alone,) = run_sgd(problem, run, [rng_for(seed)])
        for name in COLUMNS:
            np.testing.assert_array_equal(getattr(traj, name), getattr(alone, name), err_msg=name)
    traj = together[0]
    assert len(traj) == 320 and traj.error is None
    pre = Preconditioner(kind, dim, "estimated", batch=1)
    rng = rng_for(3)
    for i, (x, t) in enumerate(zip(traj.x, traj.iteration)):
        pre.observe(problem.sample_grad(x, rng)[None, :], beta)
        at = x[None, :]
        if variant == "diagonal":
            expected = pre.est_error(problem, at)
        else:
            diff = _dense(*pre.spectrum(problem, at))
            diff -= _defect_reference(*pre._ideal_spectrum(problem, at))
            expected = np.abs(eigvalsh(diff)).max(axis=-1)
        assert traj.est_error[i].tobytes() == expected[0].tobytes()
        g = problem.grad(x)
        assert traj.grad_norm[i].tobytes() == np.sqrt(np.vecdot(g, g)).tobytes()
        lam = problem.hessian(x) if t >= 0 and t % 3 == 0 else np.nan
        np.testing.assert_array_equal(traj.lambda_min_h[i], lam)


@pytest.mark.parametrize("n", [1, 7, 81, 4096])
@pytest.mark.parametrize("dim", [1, 2, 5, 10])
def test_the_stacked_est_error_steps_have_the_bits_of_one_matrix_calls(n, dim):
    """_dense, _defect_reference and eigvalsh of an (n, d, d) stack equal their calls on each matrix."""
    rng = rng_for(91 + dim)
    m = rng.standard_normal((n, dim, dim))
    w, v = eigh(m @ m.swapaxes(-1, -2))
    a = (w + 1e-8) ** -0.5
    dense, reference = _dense(a, v), _defect_reference(a, v)
    diff = dense - reference
    lam = eigvalsh(diff)
    for i in range(n):
        assert dense[i].tobytes() == _dense(a[i], v[i]).tobytes()
        assert dense[i].tobytes() == _dense(a[i:i + 1], v[i:i + 1])[0].tobytes()
        assert reference[i].tobytes() == _defect_reference(a[i], v[i]).tobytes()
        assert lam[i].tobytes() == eigvalsh(diff[i]).tobytes()


def count_calls(monkeypatch, problem):
    """Count the calls of the problem's oracles (one made inside another is not counted) and of eigvalsh."""
    calls = Counter()
    depth = [0]

    def counted(name, method):
        def call(*args):
            calls[name] += depth[0] == 0
            depth[0] += 1
            try:
                return method(*args)
            finally:
                depth[0] -= 1
        return call

    for name in ("eval_f", "grad", "hessian", "exact_G", "sample_grad"):
        setattr(problem, name, counted(name, getattr(problem, name)))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    return calls


@pytest.mark.parametrize("T, chunks", [(1000, 3), (905, 2)])
@pytest.mark.parametrize("tracked", [True, False])
def test_the_logged_oracles_are_called_once_per_chunk_not_once_per_event(monkeypatch, tracked, T, chunks):
    """Only f, for the divergence guard, is evaluated at each logged event.

    Two seeds at d = 3 log T + 5 events, in chunks of 65536 // (2 * 9 * 8)
    = 455 events: one call of each other oracle per chunk, none for the
    empty rest when 910 events fill two chunks.
    """
    problem = QuadraticGaussianProblem(3, np.diag([1.0, 0.5, 0.2]), np.diag([1.0, 0.3, 0.1]))
    calls = count_calls(monkeypatch, problem)
    run = Run(PreconditionerKind("full_matrix", 1e-3), "estimated", False, T, 0.01, beta=0.9, W=5, x0=(1.0, -1.0, 0.5),
              track_est_error=tracked, lambda_min_every=1)
    trajectories = run_sgd(problem, run, [rng_for(7), rng_for(8)])
    assert [len(traj) for traj in trajectories] == [T + 5, T + 5]
    assert LOG_CHUNK_BYTES // (2 * 3 * 3 * 8) == 455
    tracked_calls = chunks if tracked else 0
    assert calls == Counter(sample_grad=2 * (T + 5), eval_f=T + 5, grad=chunks, hessian=chunks, exact_G=tracked_calls,
                            eigvalsh=tracked_calls)
    for traj in trajectories:
        assert not np.isnan(traj.grad_norm).any() and not np.isnan(traj.lambda_min_h[traj.steps()]).any()
        assert np.isnan(traj.est_error).any() != tracked


@pytest.mark.parametrize("case, oracle", [("exact_G", "exact_G"), ("hessian", "hessian")])
def test_a_failing_stacked_call_reruns_once_on_the_rows_before_every_stop(monkeypatch, case, oracle):
    """The case's one chunk fails in its stacked oracle call; the rerun skips the failing rows and succeeds.

    The exact_G case fails in the matrix power after exact_G, so its
    eigvalsh runs once, on the rerun. The healthy twin's run makes one
    call of each.
    """
    problem = FailingPastProblem(**CASES[case])
    calls = count_calls(monkeypatch, problem)
    trajectories = run_sgd(problem, tracked_run(1), [rng_for(s) for s in SEEDS])
    assert sum(traj.error is not None for traj in trajectories) == 4
    assert calls[oracle] <= 2 and calls["eigvalsh"] <= 1
    healthy = FailingPastProblem()
    calls = count_calls(monkeypatch, healthy)
    run_sgd(healthy, tracked_run(1), [rng_for(s) for s in SEEDS])
    assert calls["exact_G"] == calls["eigvalsh"] == calls["grad"] == calls["hessian"] == 1


def test_the_saddle_logs_lambda_min_once_per_chunk(monkeypatch):
    """Eight seeds at d = 2 log in chunks of 256 events."""
    problem = SaddleProblem2D()
    calls = count_calls(monkeypatch, problem)
    run = Run(PreconditionerKind("full_matrix", 1e-8), "estimated", False, 600, 0.01, beta=0.99, lambda_min_every=1)
    run_sgd(problem, run, [rng_for(s) for s in range(8)])
    assert calls == Counter(sample_grad=8 * 600, eval_f=600, grad=3, hessian=3)


def due_events(W, T, t_thresh, S, log_every):
    """(iteration, step_kind) of every event a large-step run logs, counted event by event.

    Burn-in takes -W..-1; each step is one event, and each large step (t
    a multiple of t_thresh) is followed by S+1 hallucinated events. An
    event is logged when its index is a multiple of log_every, and the
    last step's event always is.
    """
    kinds = ["burnin"] * W
    for t in range(T):
        kinds.append("large" if t % t_thresh == 0 else "normal")
        last_step = len(kinds) - 1
        if t % t_thresh == 0:
            kinds += ["hallucinated"] * (S + 1)
    return [(i - W, kind) for i, kind in enumerate(kinds) if (i - W) % log_every == 0 or i == last_step]


@pytest.mark.parametrize("W", [0, 3])
@pytest.mark.parametrize("log_every", [1, 2, 3])
def test_a_run_ending_in_a_large_step_logs_every_due_event(W, log_every):
    """(T - 1) % t_thresh == 0: the last step is large and its hallucinated samples come after it: each
    due event is logged, and the last step, between two of them, too."""
    T, t_thresh, S = 5, 4, 3
    run = Run(PreconditionerKind("diagonal", 1e-8), "estimated", False, T, 0.01, beta=0.9, r=0.05, t_thresh=t_thresh,
              W=W, S=S, x0=(0.3, -0.2), log_every=log_every)
    problem = QuadraticGaussianProblem(2, np.diag([1.0, 0.5]), np.diag([0.5, 0.2]))
    for traj in run_sgd(problem, run, [rng_for(s) for s in SEEDS[:2]]):
        assert traj.error is None
        assert list(zip(traj.iteration.tolist(), traj.step_kind.tolist())) == due_events(W, T, t_thresh, S, log_every)


def test_the_peak_allocation_of_a_run_with_a_sink_does_not_grow_with_T():
    """The run keeps one chunk of rows (256 here) and hands each to the sink: T = 20,000 peaks no higher than
    T = 2,000. A few hundred bytes of the interpreter's own caches come and go between runs; a log of the whole
    run would add about 60 bytes per step, a megabyte here."""
    problem = QuadraticGaussianProblem(1, np.eye(1), np.eye(1))

    def peak(T):
        run = Run(PreconditionerKind("identity"), "idealized", False, T, 0.01, lambda_min_every=1)
        tracemalloc.start()
        try:
            with mock.patch.object(optimizer, "LOG_CHUNK_BYTES", 256 * 8):  # d = 1
                assert run_sgd(problem, run, [rng_for(0)], lambda b, rows: None) == [None]
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(300)  # the first run's one-off allocations
    assert peak(20_000) <= peak(2_000) + 1024
