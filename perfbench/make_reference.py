"""Regenerate the reference outputs the benchmark checks at its default seed.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload's CLI once at the default seed and writes
``perfbench/reference/<workload>.json``: the primary output's values
per cell and the sha256 of every output file. Run it only when a change
is meant to alter the program's results, and say so with the change.
"""

from __future__ import annotations

import json
import os
import sys

from outputs import make_reference, reference_path
from run import Bench
from workloads import DEFAULT_SEED, WORKLOADS


def main(names):
    for name in names or sorted(WORKLOADS):
        bench = Bench(name, DEFAULT_SEED)
        try:
            out_dir = os.path.join(bench.work, "out")
            proc = bench.child("-m", "precondsgd.cli", *bench.cli_argv(out_dir))
            if proc.rc != 0:
                with open(bench.log, encoding="utf-8") as fh:
                    print(f"{name}: CLI exit code {proc.rc}\n{fh.read()}", file=sys.stderr)
                return 1
            ref = make_reference(name, bench.workload.subcommand, DEFAULT_SEED, out_dir)
        finally:
            bench.close()
        with open(reference_path(name), "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(reference_path(name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
