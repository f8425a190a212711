"""Command-line interface.

Subcommands:
  run <config>          execute an experiment config (or a run manifest)
  reproduce <figure-id> run a figure-style preset (fig3.2 ... fig5.2-tiny)
  validate <config>     parse + validate, print the resolved config

Flags --seed / --trials / --out override the corresponding config fields;
RISCOMP_OUTDIR sets the default output directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import ConfigError, dump_config, from_mapping, load_config, parse_text
from .experiments import PRESETS, preset, run_experiment


def _plan(args):
    """The plan of a run or reproduce command: of the file's or the preset's
    keys with --seed, --trials and --out applied, and RISCOMP_OUTDIR where
    there is no --out and out is absent or `runs`, typed and validated
    once."""
    flat = (parse_text(Path(args.config).read_text()) if args.command == "run"
            else preset(args.figure))
    for key in ("seed", "trials", "out"):
        if getattr(args, key) is not None:
            flat[key] = getattr(args, key)
    if args.out is None and flat.get("out", "runs") == "runs" and os.environ.get("RISCOMP_OUTDIR"):
        flat["out"] = os.environ["RISCOMP_OUTDIR"]
    return from_mapping(flat)


def _add_common(p):
    p.add_argument("--seed", type=int, default=None, help="master seed override")
    p.add_argument("--trials", type=int, default=None, help="Monte Carlo trial override")
    p.add_argument("--out", type=str, default=None, help="output directory override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riscomp",
        description="RIS-assisted CoMP-NOMA network simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config file")
    p_run.add_argument("config", help="path to a config or manifest file")
    _add_common(p_run)

    p_rep = sub.add_parser("reproduce", help="run a figure-style preset")
    p_rep.add_argument("figure", help=f"one of: {', '.join(sorted(PRESETS))}")
    _add_common(p_rep)

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config", help="path to a config file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("run", "reproduce"):
            for path in run_experiment(_plan(args)):
                print(path)
            return 0
        if args.command == "validate":
            sys.stdout.write(dump_config(load_config(args.config).config))
            return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # every library failure ends as one line
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    parser.error("unknown command")
    return 2


if __name__ == "__main__":
    sys.exit(main())
