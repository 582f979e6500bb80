"""Command-line experiment runner.

Subcommands: ``run`` (one condition, or one per value of a [sweep]
axis, x seeds), ``estimation-scaling`` (sup estimation error vs eta),
and ``report`` (quantile-band plot data from summaries). The config file
states the whole experiment: its seeds, a sweep's axis and values, a
scaling study's etas and beta schedule; ``config`` reads, checks and
resolves it, and ``runner`` runs it. The flags say only where the output
goes (``--out``, every subcommand) and how to run (``--jobs``, at least
1, for all but ``report``). A flag a subcommand does not read, one placed
before the subcommand, and ``--jobs`` below 1 are usage errors (exit 2)
that name the flag. Exit codes, by the error's class: 0 ok, 3 a numeric
failure (``NumericError``: divergence, singularity) or a
``PreconditionViolatedError``, 2 any other package error or ``OSError``,
and 143 (128 + SIGTERM, as a shell reports a process that SIGTERM ended)
when SIGTERM stops a subcommand: it unwinds as Ctrl-C does, so each temp
file is removed, every file from an earlier run is as it was, and it
prints one line, no traceback. With ``--jobs`` above 1 it also stops the
worker processes, which unwind the groups they run in the same way (a
SIGTERM to one worker ends the subcommand so too), and it exits once they
are gone; a group that finished keeps its files.
A config error reads ``<path>: section.key: ...`` for a value its key's
parser refuses, ``<axis>: ...`` for such a sweep value,
``<axis>=<value>: ...`` for a sweep value whose problem or run cannot be
made, and ``section.key: ...`` for a rule on keys together; the problem
and run constructors name no key (``eta must be nonnegative``). Every
config check, and the check that ``--out`` is, or can be made, a
directory, comes before anything runs (``report`` checks ``--out``
before it reads a summary): an exit 2 of ``run`` or
``estimation-scaling`` runs no seed and writes nothing. On a numeric
failure of ``run`` every seed's trajectory is still written, partial for
the seeds that failed, and no summary is."""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import sys
import threading

from .config import load_config
from .errors import NumericError, PrecondSgdError, PreconditionViolatedError, Terminated
from .linalg import _CORES, THREADS_MIN_DIM
from .runner import cmd_estimation_scaling, cmd_report, cmd_run

OUT_DIR_ENV = "PRECONDSGD_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_TERMINATED = 128 + signal.SIGTERM


def _terminate(signum, frame):
    raise Terminated


@contextlib.contextmanager
def _sigterm_unwinds():
    """In the block, SIGTERM raises Terminated (in the main thread, the one a handler can run in); after it,
    SIGTERM's handler is as it was."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL if previous is None else previous)


def _jobs(value: str) -> int:
    """The type of --jobs: an integer of at least 1."""
    if not value.isdecimal() or int(value) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {value!r}")
    return int(value)


_COMMON_FLAGS = {
    "--out": dict(help="output directory (default: $PRECONDSGD_OUT or ./results)"),
    "--jobs": dict(type=_jobs, default=_CORES,
                   help="at least 1: split each condition's seeds (a sweep value's, an eta's) into this many "
                   "lockstep groups, run in up to as many worker processes; what runs, and so the output, comes "
                   "from the config alone. Each worker is a fresh process that takes about 0.3 s to start, so a "
                   "light run is faster with --jobs 1; and from d = "
                   f"{THREADS_MIN_DIM} on, the seeds of one group already share the cores: their "
                   "eigendecompositions run at the same time (default: the number of CPUs this process may run on)"),
}


def _before_subcommand(value):
    """The type of a subcommand's flag placed before the subcommand: always a usage error, which names the flag."""
    raise argparse.ArgumentTypeError("must follow the subcommand")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="precondsgd")
    for flag in _COMMON_FLAGS:
        parser.add_argument(flag, type=_before_subcommand, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, help, flags=tuple(_COMMON_FLAGS)):
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **_COMMON_FLAGS[flag])
        return p

    subcommand("run", "run the configured condition, or one per value of its [sweep] axis").add_argument("config")
    subcommand("estimation-scaling", "sup estimation error vs eta").add_argument("config")
    subcommand("report", "quantile bands from summary files", flags=("--out",)).add_argument("summaries", nargs="+")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = args.out or os.environ.get(OUT_DIR_ENV) or "results"

    try:
        with _sigterm_unwinds():
            if args.command == "report":
                path = cmd_report(args.summaries, out_dir)
            else:
                command = {"run": cmd_run, "estimation-scaling": cmd_estimation_scaling}
                path = command[args.command](load_config(args.config), out_dir, jobs=args.jobs)
        print(path)
    except Terminated:
        print("terminated by SIGTERM", file=sys.stderr)
        return EXIT_TERMINATED
    except (NumericError, PreconditionViolatedError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (PrecondSgdError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
