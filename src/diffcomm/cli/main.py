"""Command-line entry point.

Subcommands mirror the four experiment classes: ``simulate`` runs a
(channel x SNR) grid, ``train`` fits the codec, ``sweep`` trains one
codec per hyperparameter value, and ``report`` renders a result CSV as
an aligned text table.  Exit code 0 on success, 2 for configuration
problems, 1 for runtime failures; error messages are categorized and
written to stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Optional

from ..errors import ConfigurationError
from .config import ExperimentConfig, parse_config
from .run import render_report, run_simulate, run_sweep, run_train

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffcomm",
        description="Diffusion-based semantic communication experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("simulate", "run a channel/SNR simulation grid"),
        ("train", "train the variational codec"),
        ("sweep", "train and evaluate across a hyperparameter grid"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to a JSON experiment config")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--out", default=".", help="directory for output artifacts")

    rep = sub.add_parser("report", help="render a result CSV as an aligned table")
    rep.add_argument("csv", help="path to a CSV produced by another subcommand")
    return parser


def _load_config(args) -> ExperimentConfig:
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigurationError("config", f"cannot read {args.config}: {exc}") from exc
    cfg = parse_config(text)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigurationError("seed", f"must be >= 0, got {args.seed}")
        cfg = replace(cfg, seed=args.seed)
    return cfg


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            sys.stdout.write(render_report(args.csv))
            return 0
        cfg = _load_config(args)
        if args.command == "simulate":
            run_simulate(cfg, out_dir=args.out)
        elif args.command == "train":
            run_train(cfg, out_dir=args.out)
        else:
            run_sweep(cfg, out_dir=args.out)
        return 0
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures: channel, training, I/O
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
