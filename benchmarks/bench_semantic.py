#!/usr/bin/env python
"""Benchmark the semantic pipeline and emit ``BENCH_semantic.json``.

Runs one query over a politics-like web three ways — the paper's TS
topic subgraph, a same-size random control (RS), and the semantic
neighborhood from the embedding pipeline — and ranks each through the
exact solver, recording the certified bound of a ``push:r_max``
accuracy request against the measured error, latency, and answer
redundancy (the diversity suite).  The determinism clause (same seed
+ query → identical answer set from a freshly rebuilt pipeline) is
never waived; neither is certificate honesty.

Usage::

    PYTHONPATH=src python benchmarks/bench_semantic.py           # full
    PYTHONPATH=src python benchmarks/bench_semantic.py --smoke   # CI gate

Exit code is non-zero when the smoke gate fails.  See
``make bench-semantic-smoke``.
"""

from __future__ import annotations

import argparse
import sys

from repro.semantic.bench import (
    DEFAULT_OUTPUT,
    format_semantic_summary,
    run_semantic_benchmark,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Benchmark TS/RS/semantic subgraph families on bound "
            "tightness, latency, and answer diversity."
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
    record = run_semantic_benchmark(
        smoke=args.smoke,
        pages=args.pages,
        seed=args.seed,
        output_path=args.output,
    )
    print(format_semantic_summary(record))
    if args.smoke and not record["gate_passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
