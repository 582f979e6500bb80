"""Benchmark of the precondsgd CLI: end-to-end metrics, or a traced per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from ``src``.
The config is generated from the seed and is all the program receives.

With ``--trace 0`` the benchmark alternates two child processes until S
seconds have passed: one that only sets up (imports the CLI, loads the
config, builds the problem) and one full CLI run (``--jobs 1``). It
reports the medians of their wall times and the CLI run's peak RSS and
output size.

With ``--trace 1`` it alternates an in-process CLI run with a traced one
(see ``child.Tracer``) and reports the per-layer split of the traced runs.

Every CLI run's outputs are checked (see ``outputs``). The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` (cells) and ``metrics``; the line before it holds the full
report, with the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

sys.path.insert(0, HERE)

from outputs import bytes_written, check_outputs, digests, expected_cells, load_reference  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, config_text, sampled_gradients  # noqa: E402

# Every run ends within this many seconds, killing a child if it must.
HARD_LIMIT_S = 170.0
# At least this many samples of each timed child, whatever --seconds says.
MIN_SAMPLES = 3
MIN_TRACED = 2
# Per-layer metrics that are counts, which must repeat exactly between traced runs.
COUNTS = (".calls", ".work_d3", ".bytes_written")


class Child:
    """One finished child process: exit code, wall seconds, peak RSS in KiB."""

    def __init__(self, argv, deadline, log_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        with open(log_path, "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=log)
            watchdog = threading.Timer(max(0.1, deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            self.wall_s = time.perf_counter() - t0
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.maxrss_kib = usage.ru_maxrss


def _median(values):
    return statistics.median(values) if values else None


def environment(seed):
    import numpy as np

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = out.stdout.strip() or None
    src_hash = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "precondsgd"))):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(base, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "seed": seed,
    }


def _blas_threads(np):
    """OpenBLAS's thread count as numpy's bundled library reports it, or None."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


class Bench:
    """One benchmark run: its work directory, config, and the checks made so far."""

    def __init__(self, workload, seed, small=False, seconds=0.0):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.spec = self.workload.spec(seed, small)
        self.sampled_gradients = sampled_gradients(self.spec)
        self.reference = load_reference(workload) if seed == DEFAULT_SEED and not small else None
        self.work = os.path.join(WORK, f"{workload}-seed{seed}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.config = os.path.join(self.work, "config.ini")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(config_text(self.spec))
        self.log = os.path.join(self.work, "stderr.log")
        self.start = time.monotonic()
        self.seconds = seconds
        self.deadline = self.start + HARD_LIMIT_S
        self.attempted = 0
        self.failures = []
        self.first_digests = None
        self.runs = 0
        # The span table of the first traced run, kept for the report.
        self.spans = None
        self._verdicts = {}
        self._cycles = []

    def child(self, *argv):
        return Child([sys.executable, *argv], self.deadline, self.log)

    def cli_argv(self, out_dir):
        return [self.workload.subcommand, self.config, "--out", out_dir, "--jobs", "1"]

    def expect(self, ok, what):
        """Count one check that is not an output cell."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def check(self, rc, out_dir, label):
        """Check one CLI run's outputs, delete them, and return (digests, bytes)."""
        self.runs += 1
        found, size = {}, 0
        if rc != 0 or not os.path.isdir(out_dir):
            verdicts = {c: f"exit code {rc}" for c in expected_cells(self.workload.subcommand, self.spec)}
        else:
            found, size = digests(out_dir), bytes_written(out_dir)
            key = json.dumps(found, sort_keys=True)
            if key not in self._verdicts:
                self._verdicts[key] = check_outputs(self.workload.subcommand, self.spec, out_dir, self.reference)
            verdicts = self._verdicts[key]
            if self.first_digests is None:
                self.first_digests = found
            elif found != self.first_digests:
                differ = "output bytes differ from the first run of this config"
                verdicts = {c: v or differ for c, v in verdicts.items()}
        self.attempted += len(verdicts)
        self.failures += [f"{label}: cell {c}: {v}" for c, v in verdicts.items() if v]
        shutil.rmtree(out_dir, ignore_errors=True)
        return found, size

    def more(self, samples, minimum):
        """Whether to start another cycle: until enough samples and --seconds are spent."""
        now = time.monotonic()
        self._cycles.append(now)
        cycle = _median([b - a for a, b in zip([self.start] + self._cycles, self._cycles)])
        if now + 2 * cycle > self.deadline:
            return False
        return samples < minimum or now - self.start + cycle <= self.seconds

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)


def measure(bench):
    """End-to-end metrics from alternating set-up-only and full CLI processes."""
    setups, walls, rss_mb, out_mb = [], [], [], []
    while True:
        setup = bench.child(os.path.join(HERE, "child.py"), "setup", bench.config)
        bench.expect(setup.rc == 0, f"set-up child exit code {setup.rc}")
        if setup.rc == 0:
            setups.append(setup.wall_s)
        out_dir = os.path.join(bench.work, f"out{bench.runs}")
        run = bench.child("-m", "precondsgd.cli", *bench.cli_argv(out_dir))
        _, size = bench.check(run.rc, out_dir, f"CLI run {bench.runs}")
        if run.rc == 0:
            walls.append(run.wall_s)
            rss_mb.append(run.maxrss_kib * 1024 / 1e6)
            out_mb.append(size / 1e6)
        if not bench.more(bench.runs, MIN_SAMPLES):
            break
    values = {
        "setup_s": _median(setups),
        "wall_s": _median(walls),
        "peak_rss_mb": _median(rss_mb),
        "output_mb": _median(out_mb),
    }
    if setups and walls:
        values["step_us"] = (values["wall_s"] - values["setup_s"]) / bench.sampled_gradients * 1e6
    return values, {"setup_s": len(setups), "wall_s": len(walls)}


def layer_metrics(spans, size):
    """Per-layer metrics of one traced run from its span table."""

    def get(name, field):
        return spans.get(name, {}).get(field, 0)

    out = {
        "optimizer.self_s": get("runner.execute_records", "self_s"),
        "runner.execute_records.s": get("runner.execute_records", "s"),
        "config.load_config.s": get("config.load_config", "s"),
        "runner.build_problem.s": get("runner.build_problem", "s"),
        "runner.write_trajectory.calls": get("runner.write_trajectory", "calls"),
        "runner.write_trajectory.s": get("runner.write_trajectory", "self_s"),
        "runner.bytes_written": size,
        "linalg.eigh.work_d3": get("linalg.eigh", "work_d3"),
    }
    for name in ("problems.eval_f", "problems.grad", "problems.hessian", "problems.sample_grad",
                 "problems.exact_G", "linalg.eigh", "linalg.eigvalsh"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.s"] = get(name, "self_s")
    return out


def trace(bench):
    """Per-layer metrics from traced in-process runs, against untraced ones."""
    plain, traced = [], []
    while True:
        for mode, runs in (("0", plain), ("1", traced)):
            n = bench.runs
            stats_path = os.path.join(bench.work, f"stats{n}.json")
            out_dir = os.path.join(bench.work, f"out{n}")
            proc = bench.child(os.path.join(HERE, "child.py"), "run", stats_path, mode,
                                 *bench.cli_argv(out_dir))
            _, size = bench.check(proc.rc, out_dir, f"{'traced' if mode == '1' else 'untraced'} run {n}")
            if proc.rc == 0:
                with open(stats_path, encoding="utf-8") as fh:
                    stats = json.load(fh)
                runs.append((stats["wall_s"], layer_metrics(stats["spans"] or {}, size)))
                if mode == "1" and bench.spans is None:
                    bench.spans = stats["spans"]
        if not bench.more(bench.runs // 2, MIN_TRACED):
            break
    bench.expect(len(traced) >= MIN_TRACED and bool(plain), "too few successful traced or untraced runs")
    samples = {"traced": len(traced), "untraced": len(plain)}
    if not traced or not plain:
        return {}, samples
    layers = [m for _, m in traced]
    counts = [{k: v for k, v in m.items() if k.endswith(COUNTS)} for m in layers]
    bench.expect(all(c == counts[0] for c in counts), f"trace counts differ between runs: {counts}")
    calls = counts[0]["problems.sample_grad.calls"]
    bench.expect(
        calls == bench.sampled_gradients,
        f"problems.sample_grad.calls {calls} != {bench.sampled_gradients} implied by the config",
    )
    values = {k: _median([m[k] for m in layers]) for k in layers[0]}
    values.update(counts[0])
    values["trace.overhead_s"] = _median([w for w, _ in traced]) - _median([w for w, _ in plain])
    return values, samples


def metric_units():
    """{"end_to_end"|"per_layer": {name: unit}} as BENCHMARK.json declares them."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        bench = json.load(fh)
    return {group: {m["name"]: m["unit"] for m in bench[group]} for group in ("end_to_end", "per_layer")}


def benchmark(bench, traced):
    """Measure a fresh Bench, close it, and return the report."""
    units = metric_units()["per_layer" if traced else "end_to_end"]
    try:
        values, samples = (trace if traced else measure)(bench)
    finally:
        bench.close()
    failed = len(bench.failures)
    reference = bench.reference
    return {
        "workload": bench.workload.name,
        "seed": bench.seed,
        "trace": int(traced),
        "correct": failed == 0 and bench.attempted > 0,
        "attempted": bench.attempted,
        "failed": failed,
        "fail_ratio": failed / max(1, bench.attempted),
        "byte_identical_to_reference": (
            None if reference is None else failed == 0 and bench.first_digests == reference["digests"]
        ),
        "sampled_gradients": bench.sampled_gradients,
        "samples": samples,
        "metrics": {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()},
        "failures": bench.failures[:20],
        "spans": bench.spans,
        "env": environment(bench.seed),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "precondsgd", "cli.py")):
        print(f"error: no precondsgd sources under {SRC}", file=sys.stderr)
        return 2

    report = benchmark(Bench(args.workload, args.seed, seconds=args.seconds), bool(args.trace))
    print(f"{args.workload} seed={args.seed} trace={args.trace} samples={report['samples']}")
    for name, m in report["metrics"].items():
        print(f"  {name:32s} {m['value'] if m['value'] is None else format(m['value'], '.6g')} {m['unit']}")
    print(f"  {'fail_ratio':32s} {report['fail_ratio']:.6g} ratio ({report['failed']}/{report['attempted']} cells)")
    print(f"  byte_identical_to_reference: {report['byte_identical_to_reference']}")
    for line in report["failures"]:
        print(f"  FAIL {line}")
    print(json.dumps({"report": report}))
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
