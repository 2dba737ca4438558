"""Command-line entry point for the identity harness.

Exit codes: 0 when every identity passes, 1 when any fails, 2 for
configuration or I/O problems, 3 when an identity's trials raise.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .errors import ConfigurationError, TrialError
from .harness import SUITES, HarnessConfig, emit_report, run_suite

# one flag per HarnessConfig field, in field order: its help text
_FIELD_HELP = {
    "dim": "dimension of the base space (2-8)",
    "metric": 'metric signature: "euclidean" or "diag:+,+,-" style (numeric entries allowed)',
    "trials": "random trials per identity",
    "seed": "RNG seed, an integer in [0, 2**64)",
    "tol_exact": "tolerance for exact paths",
    "tol_fd": "tolerance for finite-difference paths",
    "fd_step": "central-difference step",
    "suite": "which identity suite to run",
}


def build_parser() -> argparse.ArgumentParser:
    defaults = HarnessConfig()
    parser = argparse.ArgumentParser(
        prog="extcalc",
        description="Run the derivative-identity verification suite.",
    )
    for field in fields(HarnessConfig):
        default = getattr(defaults, field.name)
        choices = SUITES + ("all",) if field.name == "suite" else None
        parser.add_argument("--" + field.name.replace("_", "-"), type=type(default),
                            default=default, choices=choices, help=_FIELD_HELP[field.name])
    parser.add_argument("--format", choices=("text", "json"), default="text", help="report format")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = HarnessConfig(**{f.name: getattr(args, f.name) for f in fields(HarnessConfig)})
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        results = run_suite(config)
    except TrialError as exc:
        cause = exc.__cause__
        print(f"error: {exc} raised {type(cause).__name__}: {cause}", file=sys.stderr)
        return 3
    try:
        emit_report(config, results, fmt=args.format, out=args.out)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
