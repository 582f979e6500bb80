"""Command-line experiment runner.

Subcommands: ``run`` (one condition x seeds), ``sweep`` (an axis of
values x seeds), ``estimation-scaling`` (sup estimation error vs eta),
and ``report`` (quantile-band plot data from summaries). Exit codes:
0 ok, 2 configuration error (negative or repeated seeds included),
3 numeric failure (divergence/singularity); on a numeric failure of
``run`` or ``sweep`` every seed's trajectory is still written, partial
for the seeds that failed, and no summary is. The flags ``--out``,
``--jobs`` and ``--seed-offset`` follow the subcommand; placed before it
they are a usage error that names the flag.
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


_COMMON_FLAGS = {
    "--out": dict(help="output directory (default: $PRECONDSGD_OUT or ./results)"),
    "--jobs": dict(type=int, help="run and sweep: split each condition's seeds into this many lockstep groups, "
                   "run in as many worker processes; the output does not depend on it (default: CPU count)"),
    "--seed-offset": dict(type=int, default=0, help="added to every configured seed"),
}


def _before_subcommand(value):
    """The type of a subcommand's flag placed before the subcommand: always a usage error, which names the flag."""
    raise argparse.ArgumentTypeError("must follow the subcommand")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    parser = argparse.ArgumentParser(prog="precondsgd")
    for flag, kwargs in _COMMON_FLAGS.items():
        common.add_argument(flag, **kwargs)
        parser.add_argument(flag, type=_before_subcommand, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[common], help="run one configured condition")
    p_run.add_argument("config")

    p_sweep = sub.add_parser("sweep", parents=[common], help="run a sweep over one config key")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", default=None, help="config key to sweep, e.g. optimizer.eta")
    p_sweep.add_argument("--values", default=None, help="comma-separated axis values")

    p_est = sub.add_parser("estimation-scaling", parents=[common], help="sup estimation error vs eta")
    p_est.add_argument("config")

    p_rep = sub.add_parser("report", parents=[common], help="quantile bands from summary files")
    p_rep.add_argument("summaries", nargs="+")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = args.out or os.environ.get(OUT_DIR_ENV) or "results"
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)

    try:
        if args.command == "run":
            cfg = load_config(args.config)
            path = cmd_run(cfg, out_dir, jobs=jobs, seed_offset=args.seed_offset)
            print(path)
        elif args.command == "sweep":
            cfg = load_config(args.config)
            axis = args.axis or cfg.sweep.get("axis")
            raw_values = args.values if args.values is not None else cfg.sweep.get("values")
            if not axis or raw_values is None:
                raise ConfigError("sweep: --axis and --values are required (or a [sweep] section)")
            values = [v.strip() for v in raw_values.split(",") if v.strip()]
            path = cmd_sweep(cfg, axis, values, out_dir, jobs=jobs, seed_offset=args.seed_offset)
            print(path)
        elif args.command == "estimation-scaling":
            cfg = load_config(args.config)
            path = cmd_estimation_scaling(cfg, out_dir, seed_offset=args.seed_offset)
            print(path)
        elif args.command == "report":
            path = cmd_report(args.summaries, out_dir)
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
