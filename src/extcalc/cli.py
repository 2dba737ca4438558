"""Command-line entry point for the identity harness.

Exit codes: 0 when every identity passes, 1 when any fails, 2 for
configuration or I/O problems.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigurationError
from .harness import SUITES, HarnessConfig, emit_report, run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extcalc",
        description="Run the derivative-identity verification suite.",
    )
    parser.add_argument("--dim", type=int, default=3, help="dimension of the base space (2-8)")
    parser.add_argument(
        "--metric",
        default="euclidean",
        help='metric signature: "euclidean" or "diag:+,+,-" style (numeric entries allowed)',
    )
    parser.add_argument("--trials", type=int, default=64, help="random trials per identity")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (64-bit)")
    parser.add_argument("--tol-exact", type=float, default=1e-9, help="tolerance for exact paths")
    parser.add_argument("--tol-fd", type=float, default=1e-5, help="tolerance for finite-difference paths")
    parser.add_argument("--fd-step", type=float, default=1e-5, help="central-difference step")
    parser.add_argument(
        "--suite", choices=SUITES + ("all",), default="all", help="which identity suite to run"
    )
    parser.add_argument("--format", choices=("text", "json"), default="text", help="report format")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = HarnessConfig(
            dim=args.dim,
            metric=args.metric,
            trials=args.trials,
            seed=args.seed,
            tol_exact=args.tol_exact,
            tol_fd=args.tol_fd,
            fd_step=args.fd_step,
            suite=args.suite,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = run_suite(config)
    try:
        emit_report(config, results, fmt=args.format, out=args.out)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
