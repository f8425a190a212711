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

from .config import ConfigError, dump_config, load_config, validate
from .experiments import PRESETS, reproduce, run_experiment


def _apply_overrides(cfg, args):
    if args.seed is not None:
        cfg.seed = args.seed
    if args.trials is not None:
        cfg.trials = args.trials
    if args.out is not None:
        cfg.out = args.out
    elif cfg.out == "runs" and os.environ.get("RISCOMP_OUTDIR"):
        cfg.out = os.environ["RISCOMP_OUTDIR"]
    validate(cfg)
    return cfg


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
            cfg = (load_config(args.config) if args.command == "run"
                   else reproduce(args.figure))
            for path in run_experiment(_apply_overrides(cfg, args)):
                print(path)
            return 0
        if args.command == "validate":
            cfg = load_config(args.config)
            sys.stdout.write(dump_config(cfg))
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
