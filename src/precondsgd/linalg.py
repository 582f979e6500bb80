"""Dense symmetric-matrix numerics on plain arrays, and how they reach LAPACK.

The LAPACK entry points ``eigh`` (one call per seed of a stack, and the
seeds of a large stack at the same time, one per core) and ``eigvalsh``, the
operator norm of a symmetric (d, d) array (d <~ 200 in the package), and
closed-form operator-norm bounds on how much the inverse, square root,
and inverse square root of a positive matrix can move under a small
symmetric perturbation.

Imported first by the package, this module loads numpy with one BLAS
thread per call unless the user set OPENBLAS_NUM_THREADS or OMP_NUM_THREADS
(OpenBLAS reads the count once, when it loads; so ``runner`` starts its
worker processes inside ``one_thread``). At the package's sizes (d <= 200) a
second BLAS thread inside one call gains little or nothing, and it contends
with the threads of ``eigh`` and with the other processes of a ``--jobs`` run.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys

from .errors import InvalidParamError, NonFiniteError, PreconditionViolatedError


@contextlib.contextmanager
def one_thread():
    """Within the body, OPENBLAS_NUM_THREADS and OMP_NUM_THREADS read 1 if the user left them unset; after it,
    os.environ is as it was."""
    added = [name for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if name not in os.environ]
    os.environ.update(dict.fromkeys(added, "1"))
    try:
        yield
    finally:
        for name in added:
            os.environ.pop(name, None)


# When this import is numpy's first, its BLAS runs one thread per call unless the user set a count.
_BLAS_ONE_THREAD = os.environ.get("OPENBLAS_NUM_THREADS", None if "numpy" in sys.modules else "1") == "1"
with one_thread():
    import numpy as np


# Stacks of matrices this size or larger are decomposed by several threads.
# Two d x d ``eigh`` calls in two threads took, against one after the other
# (2 shared cores, one BLAS thread each, median of 21 interleaved pairs in
# each of two sweeps): 1.28-1.39 of the time at d = 16, 0.80-0.83 at 32,
# 0.71-0.73 at 48, 0.83-0.93 at 64, 0.56-0.62 at 100 and 0.54-0.57 at 200.
# While another process held the second core, 1.03-1.07 from d = 64 to 200;
# so the threads start above the crossover, where the gain is sure.
THREADS_MIN_DIM = 64

# The cores this process may run on (the default of ``--jobs``), and the
# threads besides the caller's that decompose a stack: one per further core
# when numpy's BLAS runs one thread per call, else none, since the BLAS's
# own threads would contend with them.
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_WORKERS = _CORES - 1 if _BLAS_ONE_THREAD else 0
_pool = None  # (pid, ThreadPoolExecutor), started by the first stack that uses it


def _executor():
    """The worker threads of ``eigh``; a forked process, which has none of its parent's, starts its own."""
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor  # loaded only once a large stack arrives

        _pool = os.getpid(), ThreadPoolExecutor(max_workers=_WORKERS, thread_name_prefix="precondsgd-eigh")
    return _pool[1]


def eigh(a, seeds=None):
    """``np.linalg.eigh`` of a (d, d) matrix, or of an (m, d, d) stack whose matrix i belongs to seeds[i].

    One rule: each run of adjacent matrices of one seed goes to LAPACK in
    one call; ``seeds`` None gives each matrix a seed of its own, so a
    (B, d, d) stack of one matrix per seed makes B calls. Every matrix has
    the bits of its own call (numpy decomposes a stack one matrix after
    another), and ``perfbench``'s traced split counts each call's n d^3 of
    work. From d = ``THREADS_MIN_DIM`` on, the caller and up to
    ``_WORKERS`` threads take the runs in turn, so that their calls run at
    the same time: numpy releases the GIL inside LAPACK, and at these sizes
    a core per call does more than a second BLAS thread inside one call.
    When calls fail, the exception of the first failing run is raised, as a
    loop over the stack would raise it, once every thread is done.
    """
    if a.ndim == 2:
        return np.linalg.eigh(a)
    if seeds is None:
        runs = range(len(a))
    else:
        bounds = [0, *(np.flatnonzero(np.diff(seeds)) + 1).tolist(), len(a)]
        runs = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    if len(runs) == 1:
        return np.linalg.eigh(a)
    w = np.empty(a.shape[:-1])
    v = np.empty(a.shape)
    todo = iter(enumerate(runs))  # shared: each thread takes the next run left
    failed = {}

    def decompose():
        for i, run in todo:
            try:
                w[run], v[run] = np.linalg.eigh(a[run])
            except Exception as exc:
                failed[i] = exc
                return

    workers = min(_WORKERS, len(runs) - 1) if a.shape[-1] >= THREADS_MIN_DIM else 0
    helping = [_executor().submit(decompose) for _ in range(workers)]
    try:
        decompose()
    finally:
        for future in helping:
            future.result()
    if failed:
        raise failed[min(failed)]
    return w, v


def eigvalsh(a):
    """``np.linalg.eigvalsh``, looked up at call time; with ``eigh``, the package's only LAPACK caller."""
    return np.linalg.eigvalsh(a)


def op_norm(a) -> float:
    """Operator norm max |lambda_i| of the symmetric part a/2 + a^T/2 of a finite (d, d) array; 0 when empty."""
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        return 0.0
    if not np.isfinite(a).all():
        raise NonFiniteError("matrix entries must be finite")
    return float(np.abs(eigvalsh(a / 2.0 + a.T / 2.0)).max())


def inv_perturbation_bound(lambda_min_g: float, eps: float) -> float:
    """Bound on ||G^-1 - Ghat^-1|| given ||G - Ghat|| <= eps.

    Requires eps < lambda_min(G)/2 (equivalently eps*||G^-1|| < 1/2). The
    constant is the proof-consistent 2*eps/lambda_min^2; the nominally
    stated eps/(2*lambda_min^2) fails already for G=I, Ghat=1.1*I.
    """
    if lambda_min_g <= 0.0:
        raise InvalidParamError("lambda_min_g must be positive")
    if eps < 0.0:
        raise InvalidParamError("eps must be nonnegative")
    if eps >= 0.5 * lambda_min_g:
        raise PreconditionViolatedError(
            f"need eps < lambda_min/2, got eps={eps}, lambda_min={lambda_min_g}"
        )
    return 2.0 * eps / lambda_min_g**2


def sqrt_perturbation_bound(lambda_min_g: float, eps: float) -> float:
    """Bound on ||G^1/2 - Ghat^1/2|| given ||G - Ghat|| <= eps < (3/4) lambda_min(G)."""
    if lambda_min_g <= 0.0:
        raise InvalidParamError("lambda_min_g must be positive")
    if eps < 0.0:
        raise InvalidParamError("eps must be nonnegative")
    if eps >= 0.75 * lambda_min_g:
        raise PreconditionViolatedError(
            f"need eps < 3/4 lambda_min, got eps={eps}, lambda_min={lambda_min_g}"
        )
    return eps / math.sqrt(lambda_min_g)


def invsqrt_preconditioner_bound(lambda_min_g: float, delta_reg: float, eps: float) -> float:
    """Bound on ||(G+dI)^-1/2 - (Ghat+dI)^-1/2|| given ||G - Ghat|| <= eps.

    Chains the square-root bound and the corrected inverse bound applied
    to G + delta_reg*I, giving 2*eps/(delta_reg + lambda_min)^(3/2); the
    nominal eps/(2 h^(3/2)) is only first-order tight and fails for
    perturbations concentrated below the minimal eigenvalue. Both
    underlying preconditions reduce to eps < (delta_reg + lambda_min)/2.
    """
    if lambda_min_g < 0.0 or delta_reg < 0.0:
        raise InvalidParamError("lambda_min_g and delta_reg must be nonnegative")
    if eps < 0.0:
        raise InvalidParamError("eps must be nonnegative")
    h = delta_reg + lambda_min_g
    if h <= 0.0:
        raise InvalidParamError("delta_reg + lambda_min_g must be positive")
    if eps >= 0.5 * h:
        raise PreconditionViolatedError(
            f"need eps < (delta_reg + lambda_min)/2, got eps={eps}, floor={h}"
        )
    return 2.0 * eps / h**1.5
