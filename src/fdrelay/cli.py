"""Command-line experiment driver.

Subcommands: ``outage`` (SNR/threshold sweep), ``throughput`` (alpha sweep
with per-scheme optima), ``validate`` (consistency suite).  Exit codes:
0 success, 1 validation failure, 2 config error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .errors import ConfigError
from .experiment import (
    ExperimentConfig,
    run_outage_sweep,
    run_throughput_sweep,
    run_validation,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdrelay",
        description="Wirelessly powered full-duplex MIMO relay experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("outage", "outage-probability sweep over SNR or threshold"),
        ("throughput", "delay-constrained throughput sweep over alpha"),
        ("validate", "run the analytic/Monte-Carlo consistency suite"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON experiment config")
        cmd.add_argument("--out", help="output path (overrides config output_path)")
        cmd.add_argument("--seed", type=int, help="override config seed")
        cmd.add_argument("--trials", type=int, help="override config n_trials")
        cmd.add_argument("--threads", type=int, help="override config threads")
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config)
    overrides = {}
    if args.out is not None:
        overrides["output_path"] = args.out
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["n_trials"] = args.trials
    if args.threads is not None:
        overrides["threads"] = args.threads
    cfg = replace(cfg, **overrides) if overrides else cfg
    # Checked before any work starts, not when the finished run is written.
    folder = os.path.dirname(cfg.output_path) or os.curdir
    if not os.path.isdir(folder):
        raise ConfigError(f"output directory {folder!r} does not exist")
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "outage":
            result = run_outage_sweep(cfg)
            result.write(cfg.output_path, json_mirror=cfg.json_mirror)
            print(f"wrote {len(result.rows)} rows to {cfg.output_path}")
            return 0
        if args.command == "throughput":
            result = run_throughput_sweep(cfg)
            result.write(cfg.output_path, json_mirror=cfg.json_mirror)
            print(f"wrote {len(result.rows)} rows to {cfg.output_path}")
            return 0
        report = run_validation(cfg)
        report.to_json(cfg.output_path)
        for check in report.checks:
            flag = "PASS" if check.passed else "FAIL"
            print(f"{flag} {check.name}: measured={check.measured:.6g} "
                  f"bound={check.bound:.6g} {check.detail}")
        print(f"validation {'passed' if report.passed else 'FAILED'} "
              f"in {report.elapsed_s:.1f}s; report at {cfg.output_path}")
        return 0 if report.passed else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
