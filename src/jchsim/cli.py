"""Command-line entry point: run configured experiments, list them, selfcheck.

Exit codes: 0 success, 2 configuration or output error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

from .errors import ConfigError, JchsimError
from .experiments import EXPERIMENTS, ExperimentConfig, _json_text, run_experiment
from .selfcheck import run_selfcheck

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jchsim",
        description="Polariton-branch interchange experiments on the JC(-Hubbard) lattice",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a config file")
    run_p.add_argument("config", help="flat key = value config file")
    run_p.add_argument("--output-dir", default=".", help="directory for result files")
    run_p.add_argument("--format", choices=("csv", "json"), default="csv")
    run_p.add_argument(
        "--strict-ramp",
        action="store_true",
        help="keep hopping on during ramp pulses (quantifies the frozen-hopping approximation)",
    )

    check_p = sub.add_parser("selfcheck", help="run the invariant suite and print a JSON report")
    check_p.add_argument("--output", default=None, help="optional path for the JSON report")

    sub.add_parser("list-experiments", help="print the experiment registry")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-experiments":
        for name in sorted(EXPERIMENTS):
            print(f"{name}: {EXPERIMENTS[name].description}")
        return EXIT_OK

    if args.command == "selfcheck":
        if args.output and not os.path.isdir(os.path.dirname(args.output) or "."):
            print(f"output error: no directory to hold {args.output!r}", file=sys.stderr)
            return EXIT_CONFIG
        try:
            report = run_selfcheck()
        except JchsimError as exc:
            print(f"numerical failure in selfcheck: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        text = _json_text(report)
        if args.output:
            try:
                with open(args.output, "w") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                print(f"output error: {exc}", file=sys.stderr)
                return EXIT_CONFIG
        print(text)
        return EXIT_OK if report["passed"] else 1

    try:
        config = ExperimentConfig.from_file(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        written = run_experiment(
            config,
            output_dir=args.output_dir,
            fmt=args.format,
            strict_ramp=args.strict_ramp,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (JchsimError, ValueError, ArithmeticError) as exc:
        print(f"numerical failure in {config.experiment}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for path in written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
