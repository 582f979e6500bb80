"""Interleaved in-process A/B pairs: how much faster or slower is this checkout than a base?

Run from the repository root (standard library plus numpy; pytest does not
collect this file)::

    python tests/pairs.py [--base REV|DIR] [--pairs 30] [--workload NAME ...]
                          [--config COMMAND FILE] ... [--seed 1] [--out FILE.json]

``--base`` is a git revision, extracted with ``git archive`` (default:
HEAD), or a directory that holds ``src/precondsgd``. Its package is
imported beside this checkout's under the name ``precondsgd_base``; the
package imports itself only relatively, so the two copies load side by
side. A workload is one ``cli.main([COMMAND, CONFIG, "--out", DIR,
"--jobs", "1"])``: each of perfbench's configs at ``--seed`` (all four, or
those ``--workload`` names; ``perfbench/workloads.py`` is read, not
changed), and each ``--config`` given (the flag takes one COMMAND FILE
pair, and may be repeated). A pair runs the base and this
checkout in this process, in the order A B B A, with the base as A in
every other pair; each run is timed with ``time.process_time`` after a
``gc.collect()``, and a side's time in the pair is the lesser of its two
runs, so that a run another process slowed does not count and a steady
drift of the machine's speed falls on both sides alike. One untimed run
of each side comes first. Per workload the script prints the median and
quartiles of the pairs' ratios checkout / base, how many pairs the
checkout won, each side's median, whether the checkout won at least 9
pairs in 10, whether its median is below the base's by more than the
quartile distance of the base's own times (``base_iqr``; a side's time
in a pair, as above), and whether every run of both sides gave the same
exit code and wrote the same bytes (a sha256 over the output files). ``--out`` writes all of it as JSON, with the
environment: this checkout's commit, whether its ``src`` differs from it
(``dirty``; null outside a git work tree), the base, Python, numpy, the
BLAS and its threads, and the cores.

What it cannot see: set-up, process start and peak RSS stay perfbench's
metrics, and both sides share process-wide state, such as the BLAS
thread count. On 2 shared cores, two copies of one commit gave, over 30
pairs, medians from 1.003 to 1.021 and IQRs from 0.034 to 0.067 on
perfbench's four configs; an unused (10, 10) product per ``observe``
read 1.033 on ``est-scaling-d10``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time

# Each side reads the BLAS thread count a CLI process of its own would: one, unless the user chose one.
# Both read it from the environment, and a package imported after numpy cannot set it.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from run import environment  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def dirty():
    """Whether ``src`` differs from the checkout's commit; None outside a git work tree."""
    try:
        return bool(git("status", "--porcelain", "src"))
    except (OSError, subprocess.CalledProcessError):
        return None


def import_base(base: str, work: str):
    """The base's ``cli`` module, imported as ``precondsgd_base.cli``, and what the base is (a commit or a path)."""
    package = os.path.join(work, "precondsgd_base")
    if os.path.isdir(base):
        shutil.copytree(os.path.join(base, "src", "precondsgd"), package, ignore=shutil.ignore_patterns("__pycache__"))
        label = os.path.abspath(base)
    else:
        label = git("rev-parse", "--verify", f"{base}^{{commit}}")
        archive = subprocess.run(["git", "archive", label, "src/precondsgd"], cwd=ROOT, capture_output=True,
                                 check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(work, filter="data")
        os.rename(os.path.join(work, "src", "precondsgd"), package)
    sys.path.insert(0, work)
    return importlib.import_module("precondsgd_base.cli"), label


def digest(rc: int, out: str) -> str:
    """sha256 of the exit code and of every file under out, by relative path."""
    h = hashlib.sha256(f"exit {rc}\n".encode())
    for base, dirs, files in sorted(os.walk(out)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                h.update(os.path.relpath(path, out).encode() + b"\0" + fh.read())
    return h.hexdigest()


def run_once(cli, command: str, config: str, work: str) -> tuple[float, str]:
    """(process seconds, output digest) of one in-process CLI run into a fresh directory, removed after."""
    out = tempfile.mkdtemp(dir=work)
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.process_time()
        rc = cli.main([command, config, "--out", out, "--jobs", "1"])
        seconds = time.process_time() - start
    result = digest(rc, out)
    shutil.rmtree(out)
    return seconds, result


def measure(sides: dict, command: str, config: str, n_pairs: int, work: str) -> dict:
    """n_pairs interleaved pairs (A B B A) of the base and this checkout on one config, and their summary."""
    digests = {run_once(cli, command, config, work)[1] for cli in sides.values()}  # warm-up, untimed
    pairs = []
    for i in range(n_pairs):
        a, b = ("base", "tree") if i % 2 == 0 else ("tree", "base")
        runs = {"base": [], "tree": []}
        for side in (a, b, b, a):
            seconds, result = run_once(sides[side], command, config, work)
            runs[side].append(seconds)
            digests.add(result)
        pairs.append({"first": a, "base_s": min(runs["base"]), "tree_s": min(runs["tree"]), "runs": runs})
    ratios = np.array([p["tree_s"] / p["base_s"] for p in pairs])
    q1, median, q3 = np.percentile(ratios, [25, 50, 75]).tolist()
    base_s, tree_s = np.array([p["base_s"] for p in pairs]), np.array([p["tree_s"] for p in pairs])
    base_q1, base_q3 = np.percentile(base_s, [25, 75]).tolist()
    won = int(np.count_nonzero(ratios < 1.0))
    gap = float(np.median(base_s) - np.median(tree_s))
    return {
        "command": command,
        "pairs": pairs,
        "ratio": {"q1": q1, "median": median, "q3": q3, "iqr": q3 - q1},
        "tree_won": won,
        "base_median_s": float(np.median(base_s)),
        "tree_median_s": float(np.median(tree_s)),
        # A gain stands out when the checkout wins at least 9 pairs in 10 and its median time is lower than the
        # base's by more than the quartile distance of the base's own times.
        "won_9_of_10": 10 * won >= 9 * n_pairs,
        "median_gap_s": gap,
        "base_iqr_s": base_q3 - base_q1,
        "gap_beyond_base_iqr": gap > base_q3 - base_q1,
        "same_bytes": len(digests) == 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="a git revision or a checkout directory (default: HEAD)")
    parser.add_argument("--pairs", type=int, default=30, help="pairs per workload (default: 30)")
    parser.add_argument("--workload", nargs="+", action="extend", choices=sorted(WORKLOADS),
                        help="perfbench workloads; repeatable (default: all four, unless --config is given)")
    parser.add_argument("--config", nargs=2, action="append", default=[], metavar=("COMMAND", "FILE"),
                        help="a CLI subcommand and config file to run as a workload; repeatable")
    parser.add_argument("--seed", type=int, default=1, help="the seed of perfbench's configs (default: 1)")
    parser.add_argument("--out", help="write the environment and every pair to this JSON file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    names = args.workload or ([] if args.config else sorted(WORKLOADS))

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from precondsgd import cli

    report = {"workloads": {}}
    with tempfile.TemporaryDirectory(prefix="pairs-") as work:
        base_cli, base = import_base(args.base, work)
        sides = {"base": base_cli, "tree": cli}
        report["environment"] = {**environment(args.seed), "dirty": dirty(),
                                 "base": base}
        workloads = []
        for name in names:
            path = os.path.join(work, f"{name}.ini")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(config_text(WORKLOADS[name].spec(args.seed)))
            workloads.append((name, WORKLOADS[name].subcommand, path))
        workloads += [(os.path.basename(path), command, os.path.abspath(path)) for command, path in args.config]

        print(f"base {base}; checkout {report['environment']['git_commit']}; ratio = checkout / base process time")
        print(f"{'workload':<22} {'pairs':>5} {'q1':>6} {'median':>6} {'q3':>6} {'iqr':>6} {'won':>5} "
              f"{'base_s':>8} {'tree_s':>8} {'base_iqr':>8} {'9/10':>5} {'gap>iqr':>7}  same_bytes")
        for name, command, path in workloads:
            result = report["workloads"][name] = measure(sides, command, path, args.pairs, work)
            r = result["ratio"]
            print(f"{name:<22} {args.pairs:>5} {r['q1']:>6.3f} {r['median']:>6.3f} {r['q3']:>6.3f} {r['iqr']:>6.3f} "
                  f"{result['tree_won']:>5} {result['base_median_s']:>8.4f} {result['tree_median_s']:>8.4f} "
                  f"{result['base_iqr_s']:>8.4f} {result['won_9_of_10']!s:>5} {result['gap_beyond_base_iqr']!s:>7}  "
                  f"{result['same_bytes']}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
