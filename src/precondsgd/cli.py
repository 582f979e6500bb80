"""Command-line experiment runner.

Subcommands: ``run`` (one condition x seeds), ``sweep`` (an axis of
values x seeds), ``estimation-scaling`` (sup estimation error vs eta),
and ``report`` (quantile-band plot data from summaries). The config file
states the whole experiment: its seeds, a sweep's axis and values, a
scaling study's etas and beta schedule; ``config`` reads, checks and
resolves it, and ``runner`` runs it. The flags say only where the output
goes (``--out``, every subcommand) and how to run (``--jobs``, at least
1, for all but ``report``). A flag a subcommand does not read, one placed
before the subcommand, and ``--jobs`` below 1 are usage errors (exit 2)
that name the flag. Exit codes, by the error's class: 0 ok, 3 a numeric
failure (``NumericError``: divergence, singularity) or a
``PreconditionViolatedError``, 2 any other package error or ``OSError``.
A config error reads ``<path>: section.key: ...`` for a value its key's
parser refuses, ``<axis>: ...`` for such a sweep value,
``<axis>=<value>: ...`` for a sweep value whose problem or run cannot be
made, and ``section.key: ...`` for a rule on keys together; the problem
and run constructors name no key (``eta must be nonnegative``). Every
config check, and the check that ``--out`` is, or can be made, a
directory, comes before anything runs: an exit 2 of ``run``, ``sweep``
or ``estimation-scaling`` runs no seed and writes nothing. On a numeric
failure of ``run`` or ``sweep`` every seed's trajectory is still
written, partial for the seeds that failed, and no summary is."""

from __future__ import annotations

import argparse
import os
import sys

from .config import load_config
from .errors import NumericError, PrecondSgdError, PreconditionViolatedError
from .runner import cmd_estimation_scaling, cmd_report, cmd_run, cmd_sweep

OUT_DIR_ENV = "PRECONDSGD_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _jobs(value: str) -> int:
    """The type of --jobs: an integer of at least 1."""
    if not value.isdecimal() or int(value) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {value!r}")
    return int(value)


_COMMON_FLAGS = {
    "--out": dict(help="output directory (default: $PRECONDSGD_OUT or ./results)"),
    "--jobs": dict(type=_jobs, default=os.cpu_count() or 1,
                   help="at least 1: split each condition's seeds (a sweep value's, an eta's) into this many "
                   "lockstep groups, run in up to as many worker processes; what runs, and so the output, comes "
                   "from the config alone. Each worker is a fresh process that takes about 0.3 s to start, so a "
                   "light run is faster with --jobs 1 (default: CPU count)"),
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

    subcommand("run", "run one configured condition").add_argument("config")
    subcommand("sweep", "run the sweep of the config's [sweep] section").add_argument("config")
    subcommand("estimation-scaling", "sup estimation error vs eta").add_argument("config")
    subcommand("report", "quantile bands from summary files", flags=("--out",)).add_argument("summaries", nargs="+")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = args.out or os.environ.get(OUT_DIR_ENV) or "results"

    try:
        if args.command == "report":
            path = cmd_report(args.summaries, out_dir)
        else:
            command = {"run": cmd_run, "sweep": cmd_sweep, "estimation-scaling": cmd_estimation_scaling}
            path = command[args.command](load_config(args.config), out_dir, jobs=args.jobs)
        print(path)
    except (NumericError, PreconditionViolatedError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (PrecondSgdError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
