"""Command-line experiment runner.

Subcommands: ``run`` (one condition x seeds), ``sweep`` (an axis of
values x seeds), ``estimation-scaling`` (sup estimation error vs eta),
and ``report`` (quantile-band plot data from summaries). Exit codes:
0 ok, 2 configuration error (negative or repeated seeds included),
3 numeric failure (divergence/singularity); on a numeric failure of
``run`` or ``sweep`` every seed's trajectory is still written, partial
for the seeds that failed, and no summary is. Each subcommand takes
``--out``; ``run``, ``sweep`` and ``estimation-scaling`` also take
``--jobs`` (at least 1) and ``--seed-offset``. A flag a subcommand does
not read, one placed before the subcommand, and ``--jobs`` below 1 are
usage errors (exit 2) that name the flag.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import load_config
from .errors import (
    ConfigError,
    DataFormatError,
    InvalidParamError,
    NumericError,
    PreconditionViolatedError,
)
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
                   "lockstep groups, run in up to as many worker processes; the output does not depend on it "
                   "(default: CPU count)"),
    "--seed-offset": dict(type=int, default=0, help="added to every configured seed"),
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
    p_sweep = subcommand("sweep", "run a sweep over one config key")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", default=None, help="config key to sweep, e.g. optimizer.eta")
    p_sweep.add_argument("--values", default=None, help="comma-separated axis values")
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
            cfg = load_config(args.config)
            flags = dict(jobs=args.jobs, seed_offset=args.seed_offset)
            if args.command == "run":
                path = cmd_run(cfg, out_dir, **flags)
            elif args.command == "sweep":
                axis = args.axis or cfg.sweep.get("axis")
                raw_values = args.values if args.values is not None else cfg.sweep.get("values")
                if not axis or raw_values is None:
                    raise ConfigError("sweep: --axis and --values are required (or a [sweep] section)")
                values = [v.strip() for v in raw_values.split(",") if v.strip()]
                path = cmd_sweep(cfg, axis, values, out_dir, **flags)
            else:
                path = cmd_estimation_scaling(cfg, out_dir, **flags)
        print(path)
    except (ConfigError, DataFormatError, InvalidParamError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, PreconditionViolatedError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
