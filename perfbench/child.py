"""Child processes of the benchmark, run with ``src`` on PYTHONPATH.

    python3 perfbench/child.py setup CONFIG
        imports the CLI, loads CONFIG and builds its problem: the set-up
        a CLI process pays before its first step.
    python3 perfbench/child.py run STATS TRACE CLI_ARG...
        runs ``precondsgd.cli.main(CLI_ARG...)`` in this process and writes
        its wall time to STATS (JSON). With TRACE=1 the calls into each
        layer are timed from outside first; see ``Tracer``.
"""

from __future__ import annotations

import inspect
import json
import sys
import time


class Tracer:
    """Spans around calls into the program's layers, kept in memory.

    Spans nest, so each name gets calls, inclusive seconds and self
    seconds (inclusive minus the spans directly inside it). A call into a
    problem method made while another problem method is running (the
    sampler calling ``grad``) is folded into the running span: that time
    belongs to the sampler, not to the logging oracle.
    """

    FOLDED = "problems."

    def __init__(self):
        self.stats = {}
        # One [name, seconds covered by child spans] entry per open span.
        self._stack = []

    def wrap(self, name, fn, work=None):
        stats = self.stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        if work is not None:
            stats["work_d3"] = 0
        stack = self._stack
        clock = time.perf_counter
        fold = name.startswith(self.FOLDED)

        def span(*args, **kwargs):
            if fold and stack and stack[-1][0].startswith(Tracer.FOLDED):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats["calls"] += 1
                stats["s"] += dt
                stats["self_s"] += dt - frame[1]
                if work is not None:
                    stats["work_d3"] += work(*args)
                if stack:
                    stack[-1][1] += dt

        return span

    def install(self):
        import numpy as np

        from precondsgd import cli, config, runner

        def cubed(a, *_):
            shape = np.shape(a)
            batch = 1
            for n in shape[:-2]:
                batch *= n
            return batch * shape[-1] ** 3

        np.linalg.eigh = self.wrap("linalg.eigh", np.linalg.eigh, work=cubed)
        np.linalg.eigvalsh = self.wrap("linalg.eigvalsh", np.linalg.eigvalsh)

        load = self.wrap("config.load_config", config.load_config)
        config.load_config = load
        cli.load_config = load

        build = runner.build_problem

        def build_instrumented(pcfg):
            problem = build(pcfg)
            for method in ("eval_f", "grad", "hessian", "sample_grad", "exact_G"):
                setattr(problem, method, self.wrap(f"problems.{method}", getattr(problem, method)))
            return problem

        for name, fn in list(vars(runner).items()):
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != runner.__name__:
                continue
            wrapped = self.wrap(f"runner.{name}", build_instrumented if fn is build else fn)
            setattr(runner, name, wrapped)
            if getattr(cli, name, None) is fn:
                setattr(cli, name, wrapped)


def _setup(config_path):
    from precondsgd import cli  # noqa: F401  (the import a CLI process pays)
    from precondsgd.config import load_config
    from precondsgd.runner import build_problem

    build_problem(load_config(config_path).problem)


def _run(stats_path, trace, cli_args):
    from precondsgd import cli

    tracer = Tracer() if trace == "1" else None
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    rc = cli.main(cli_args)
    wall = time.perf_counter() - t0
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "wall_s": wall, "spans": tracer.stats if tracer else None}, fh)
    return rc


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        _setup(sys.argv[2])
        sys.exit(0)
    sys.exit(_run(sys.argv[2], sys.argv[3], sys.argv[4:]))
