"""One BLAS thread per LAPACK call, unless the user chose a count.

OpenBLAS reads its thread count from the environment once, when it
loads: in a process, at numpy's first import, and again in each freshly
started worker process. At the package's sizes (d <= 200) a second BLAS
thread inside one call gains little or nothing, and it contends with the
threads of ``linalg.eigh`` and with the other worker processes of a
``--jobs`` run. Standard library only, so that it can run before numpy
loads.
"""

from __future__ import annotations

import contextlib
import os

NAMES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@contextlib.contextmanager
def one_thread():
    """Within the body, each of ``NAMES`` that the user left unset reads 1; after it, os.environ is as it was."""
    added = [name for name in NAMES if name not in os.environ]
    os.environ.update(dict.fromkeys(added, "1"))
    try:
        yield
    finally:
        for name in added:
            os.environ.pop(name, None)
