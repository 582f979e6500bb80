"""Peak memory of ``precondsgd run`` as the run grows longer: does it stay flat in T?

Run from the repository root (standard library only; pytest does not
collect this file)::

    python tests/rss_flat.py [T ...]          (default: 20000 200000)

For each T it writes perfbench's ``saddle-8seed`` config (seed 1: 8 seeds
of full-matrix RMSProp on the 2-D saddle, every event logged with
lambda_min(H)) with ``run.t = T``, runs ``python -m precondsgd.cli run
CONFIG --out DIR --jobs 1`` on this checkout's ``src`` in a child process,
and prints the child's exit code, its peak resident set (``ru_maxrss``),
its wall time and the bytes of CSV it wrote. The outputs go to a
temporary directory that is removed afterwards. A log that is kept for
the whole run costs about 0.4 KB per step; a log streamed a chunk at a
time keeps the peak within a few MB whatever T.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS, config_text  # noqa: E402


def measure(T: int, work: str) -> tuple[int, float, float, int]:
    """(exit code, peak RSS in MB, wall seconds, CSV bytes) of one ``run`` of the saddle config at run.t = T."""
    spec = WORKLOADS["saddle-8seed"].spec(1)
    spec["run"]["t"] = T
    config = os.path.join(work, f"t{T}.ini")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(config_text(spec))
    out = os.path.join(work, f"out{T}")
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "precondsgd.cli", "run", config, "--out", out, "--jobs", "1"],
                             env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)  # this child's own rusage, not the maximum over all children
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    size = sum(os.path.getsize(os.path.join(out, name)) for name in os.listdir(out)) if os.path.isdir(out) else 0
    return child.returncode, usage.ru_maxrss * 1024 / 1e6, wall, size  # ru_maxrss is in KiB on Linux


def main(argv: list[str]) -> int:
    lengths = [int(arg) for arg in argv] or [20_000, 200_000]
    print(f"{'T':>10} {'exit':>4} {'peak_rss_mb':>11} {'wall_s':>8} {'csv_mb':>8}")
    failed = 0
    for T in lengths:
        with tempfile.TemporaryDirectory() as work:
            rc, rss_mb, wall, size = measure(T, work)
        print(f"{T:>10} {rc:>4} {rss_mb:>11.1f} {wall:>8.1f} {size / 1e6:>8.1f}", flush=True)
        failed += rc != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
