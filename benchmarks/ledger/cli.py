"""Command line of the ledger."""

from __future__ import annotations

import argparse
import json

from benchmarks.ledger.workloads import SPECS

DEFAULT_SECONDS = 15


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks.ledger",
        description="Calibrated pass-replay benchmark of the LANNS stack",
    )
    parser.add_argument("--workload", choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=DEFAULT_SECONDS,
        help="how long the replayed passes measure",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="1: traced run, prints the per-layer metrics instead",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes: exercises every code path in seconds",
    )
    parser.add_argument(
        "--noise-study",
        type=int,
        metavar="N",
        help="run every workload N times back to back, write NOISE.json",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.noise_study:
        from benchmarks.ledger.noise import noise_study

        return noise_study(args.noise_study, args.seconds, smoke=args.smoke)
    if args.workload is None:
        parser.error("--workload is required")
    from benchmarks.ledger import runner

    seconds = min(args.seconds, 1.0) if args.smoke else args.seconds
    if args.trace:
        from benchmarks.ledger.layers import run_traced

        report = run_traced(args.workload, args.seed, seconds, smoke=args.smoke)
    else:
        report = runner.run_ledger(
            args.workload, args.seed, seconds, smoke=args.smoke
        )
    runner.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    kind = "trace" if args.trace else "ledger"
    (runner.RESULTS_DIR / f"{kind}_{args.workload}.json").write_text(
        json.dumps(report, indent=1, default=str), encoding="utf-8"
    )
    runner.print_report(report)
    return 0 if report["correct"] else 1
