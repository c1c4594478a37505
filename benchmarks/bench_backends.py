#!/usr/bin/env python
"""Benchmark the solver precisions and emit ``BENCH_backend.json``.

Runs a full global solve on one AU-like reference workload in float64
(the baseline) and in float32.

Usage::

    PYTHONPATH=src python benchmarks/bench_backends.py           # full
    PYTHONPATH=src python benchmarks/bench_backends.py --smoke   # CI gate

Exit code is non-zero when the smoke gate fails: the float32 scores
must land within their documented L1 bound of the float64 scores.
See ``make bench-backends-smoke``.
"""

from __future__ import annotations

import argparse
import sys

from repro.perf.backend_bench import (
    DEFAULT_OUTPUT,
    format_backend_summary,
    run_backend_benchmark,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Benchmark the solver precisions (float64 vs float32)."
        )
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small workload + hard gate (CI tier-2 mode)",
    )
    parser.add_argument(
        "--pages", type=int, default=None,
        help="override the AU-like dataset size (pages)",
    )
    parser.add_argument(
        "--seed", type=int, default=2009, help="RNG seed",
    )
    parser.add_argument(
        "--output", type=str, default=DEFAULT_OUTPUT,
        help=f"JSON record path (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)
    record = run_backend_benchmark(
        smoke=args.smoke,
        pages=args.pages,
        seed=args.seed,
        output_path=args.output,
    )
    print(format_backend_summary(record))
    if args.smoke and not record["gate_passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
