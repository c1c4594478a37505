"""Solver-precision benchmark: float64 vs float32.

The measurement harness behind ``benchmarks/bench_backends.py`` and the
``python -m repro bench-backends`` CLI subcommand.  It runs a full
global PageRank solve on one AU-like reference workload in each solver
precision (:mod:`repro.pagerank.backends`): ``float64`` (the baseline,
original layout) and ``float32`` (degree-ordered layout).  Each cell
reports wall-clock, speedup vs the baseline and the L1 distance of its
scores from the baseline's.

The gate is accuracy: the float32 cell must land within the documented
:func:`repro.pagerank.backends.float32_l1_bound`.  The speedup is
recorded, not gated.  The record is written to ``BENCH_backend.json``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any

import numpy as np

from repro.generators.datasets import make_au_like
from repro.pagerank.backends import (
    DTYPES,
    float32_l1_bound,
    resolve_backend,
)
from repro.pagerank.kernels import PowerIterationWorkspace
from repro.pagerank.solver import (
    PowerIterationSettings,
    power_iteration,
    uniform_teleport,
)
from repro.perf.cache import TransitionCache

#: Default record location (repo root when run from the checkout).
DEFAULT_OUTPUT = "BENCH_backend.json"

#: Reference workload sizes (pages in the AU-like dataset).
FULL_PAGES = 30_000
SMOKE_PAGES = 4_000

#: Timed repetitions per configuration; the best run is reported.
TIMING_REPS = 3


def run_backend_benchmark(
    smoke: bool = False,
    pages: int | None = None,
    seed: int = 2009,
    output_path: str | None = DEFAULT_OUTPUT,
) -> dict[str, Any]:
    """Run the precision sweep and (optionally) write the record.

    Parameters
    ----------
    smoke:
        Small workload; ``gate_passed`` is the CI criterion.
    pages:
        Override the AU-like dataset size.
    seed:
        Dataset generation seed.
    output_path:
        Where to write the JSON record; ``None`` skips writing.

    Returns
    -------
    The record that was (or would have been) written.
    """
    num_pages = pages if pages is not None else (
        SMOKE_PAGES if smoke else FULL_PAGES
    )
    dataset = make_au_like(num_pages=num_pages, seed=seed)
    graph = dataset.graph
    settings = PowerIterationSettings()
    cache = TransitionCache()
    transition_t, dangling_mask = cache.transition_transpose(graph)
    teleport = uniform_teleport(graph.num_nodes)

    def timed_solve(backend):
        workspace = PowerIterationWorkspace(
            graph.num_nodes, dtype=backend.dtype
        )
        outcome = None
        best = float("inf")
        # One untimed warm-up absorbs first-call costs (prepare:
        # dtype cast / relabel).
        for rep in range(TIMING_REPS + 1):
            start = time.perf_counter()
            outcome = power_iteration(
                transition_t,
                teleport,
                dangling_mask=dangling_mask,
                settings=settings,
                workspace=workspace,
                backend=backend,
            )
            if rep:
                best = min(best, time.perf_counter() - start)
        return best, outcome

    baseline_seconds = None
    baseline_scores = None
    cells: list[dict[str, Any]] = []
    accuracy_ok = True
    for dtype in DTYPES:
        backend = resolve_backend(dtype)
        seconds, outcome = timed_solve(backend)
        if baseline_scores is None:
            baseline_seconds, baseline_scores = seconds, outcome.scores
        l1_gap = float(np.abs(outcome.scores - baseline_scores).sum())
        cell: dict[str, Any] = {
            "dtype": dtype,
            "layout": backend.layout,
            "seconds": seconds,
            "iterations": int(outcome.iterations),
            "converged": bool(outcome.converged),
            "speedup_vs_float64": (
                baseline_seconds / seconds if seconds else float("inf")
            ),
            "l1_vs_float64": l1_gap,
        }
        if dtype == "float32":
            bound = float32_l1_bound(
                graph.num_nodes, settings.tolerance, settings.damping
            )
            cell["l1_bound"] = bound
            cell["within_bound"] = bool(l1_gap <= bound)
            accuracy_ok = accuracy_ok and cell["within_bound"]
        cells.append(cell)

    record: dict[str, Any] = {
        "benchmark": "solver_backends",
        "created_unix": time.time(),
        "smoke": bool(smoke),
        "cpu_count": int(os.cpu_count() or 1),
        "workload": {
            "dataset": dataset.name,
            "pages": int(graph.num_nodes),
            "edges": int(graph.num_edges),
            "seed": int(seed),
            "damping": settings.damping,
            "tolerance": settings.tolerance,
        },
        "single_solve": cells,
        "gate_passed": bool(accuracy_ok),
    }
    if output_path is not None:
        with open(output_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=False)
            handle.write("\n")
    return record


def format_backend_summary(record: dict[str, Any]) -> str:
    """Human-readable one-screen summary of a benchmark record."""
    workload = record["workload"]
    lines = [
        f"solver precision benchmark "
        f"({workload['pages']} pages, {workload['edges']} edges, "
        f"{record['cpu_count']} cpu(s)"
        f"{', smoke' if record['smoke'] else ''})",
    ]
    for cell in record["single_solve"]:
        line = (
            f"  {cell['dtype']:<8}: {cell['seconds']:.3f}s "
            f"({cell['speedup_vs_float64']:.2f}x vs float64, "
            f"L1 gap {cell['l1_vs_float64']:.2e}"
        )
        if "within_bound" in cell:
            line += (
                f", bound {cell['l1_bound']:.2e} "
                f"{'OK' if cell['within_bound'] else 'EXCEEDED'}"
            )
        lines.append(line + ")")
    lines.append(
        f"  gate    : {'PASS' if record['gate_passed'] else 'FAIL'}"
    )
    return "\n".join(lines)
