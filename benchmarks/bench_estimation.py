#!/usr/bin/env python
"""Benchmark the sublinear estimators and emit ``BENCH_estimate.json``.

Ranks one BFS subgraph of the AU-like web with the exact solver (the
baseline), then sweeps local-push residual thresholds, recording the
error-vs-time Pareto frontier.
Two never-waived clauses gate the record: every sweep point's measured
error must sit under its certified bound (accuracy), and the cheapest
point reaching the target accuracy must touch fewer edges than one
full pass over the global graph (sublinearity).

Usage::

    PYTHONPATH=src python benchmarks/bench_estimation.py           # full
    PYTHONPATH=src python benchmarks/bench_estimation.py --smoke   # CI gate

Exit code is non-zero when the smoke gate fails.  See
``make bench-estimation-smoke``.
"""

from __future__ import annotations

import argparse
import sys

from repro.estimation.bench import (
    DEFAULT_OUTPUT,
    format_estimation_summary,
    run_estimation_benchmark,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Benchmark local-push estimation against the exact "
            "ApproxRank solver (error-vs-time Pareto sweep)."
        )
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small workload + hard gate (CI tier-2 mode)",
    )
    parser.add_argument(
        "--pages", type=int, default=None,
        help="override the synthetic web size (pages)",
    )
    parser.add_argument(
        "--seed", type=int, default=2009, help="RNG seed",
    )
    parser.add_argument(
        "--output", type=str, default=DEFAULT_OUTPUT,
        help=f"JSON record path (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)
    record = run_estimation_benchmark(
        smoke=args.smoke,
        pages=args.pages,
        seed=args.seed,
        output_path=args.output,
    )
    print(format_estimation_summary(record))
    if args.smoke and not record["gate_passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
