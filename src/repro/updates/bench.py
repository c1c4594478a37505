"""Edge-churn benchmark: warm-started vs cold incremental re-ranking.

The measurement harness behind ``benchmarks/bench_updates.py`` and the
``python -m repro bench-updates`` CLI subcommand.  The workload is a
seeded stream of :func:`~repro.updates.delta.random_region_delta`
edge-churn updates over a synthetic web.  Each update runs through two
arms of :func:`~repro.updates.rerank.incremental_rerank` on the same
inputs:

* **warm** — the regional IdealRank solve starts from the spliced old
  vector (the engine's default, and the arm that advances the chain:
  its spliced output becomes "yesterday's scores" for the next
  update);
* **cold** — the identical regional solve from a uniform start
  (``warm_start=False``), the baseline the iteration savings are
  measured against.

Recorded: updates/sec for both arms, power-iteration totals, and the
iterations-saved ratio ``cold_iterations / warm_iterations``.  Two
correctness clauses ride along and are **never** waived:

* **accuracy** — per update, the warm and cold solves must land on
  the same fixed point: ``L1(warm − cold)`` within the combined
  solver-truncation slack ``2·tol/(1−ε)`` (widened by the documented
  :func:`~repro.pagerank.backends.float32_l1_bound` clamp when the
  active backend solves in float32);
* **staleness** — the Theorem-2 accounting is honest and the budget
  is enforced: per update, the chained warm vector's measured L1
  error against a fresh global solve of the new graph must sit under
  the *cumulative* staleness charge (the certificate the serving
  layer trusts), and no vector is ever "served" with a cumulative
  charge above the store's default budget — crossing it forces a
  cold global re-solve of the chain, exactly as the store evicts.

The iterations-saved ratio must exceed 1; the clause is waived (and
recorded as such) only when the workload gives a warm start nothing
to save — cold solves averaging under ``MIN_DEMONSTRABLE_ITERATIONS``
sweeps have no burn-in to skip.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from typing import Any

import numpy as np

from repro.generators.datasets import make_tiny_web
from repro.pagerank.backends import float32_l1_bound, resolve_backend
from repro.pagerank.globalrank import global_pagerank
from repro.pagerank.solver import PowerIterationSettings
from repro.serve.store import DEFAULT_STALENESS_BUDGET
from repro.updates.delta import apply_delta, random_region_delta
from repro.updates.rerank import incremental_rerank

__all__ = [
    "DEFAULT_OUTPUT",
    "run_update_benchmark",
    "format_update_summary",
]

#: Default record location (repo root when run from the checkout).
DEFAULT_OUTPUT = "BENCH_update.json"

FULL_PAGES = 1_200
SMOKE_PAGES = 400
FULL_UPDATES = 12
SMOKE_UPDATES = 5

#: Pages per churned region and edges added/removed per update.  The
#: churn is deliberately mild — a handful of edges per update — so the
#: stream exercises the regime the engine is built for: yesterday's
#: vector starts close to the new fixed point (warm starts skip real
#: burn-in) and the per-update Theorem-2 charge fits under the budget
#: (entries genuinely get served stale-but-bounded between resets).
REGION_SIZE = 60
EDGES_ADDED = 6
EDGES_REMOVED = 2

#: Tight solver tolerance so the cold arm has real burn-in to skip.
BENCH_TOLERANCE = 1e-9

#: The iterations-saved ratio the gate demands.
TARGET_ITERATIONS_RATIO = 1.0

#: Below this mean cold iteration count there is no burn-in for a warm
#: start to skip, and the speedup clause is undemonstrable.
MIN_DEMONSTRABLE_ITERATIONS = 10.0


def _truncation_slack(
    tolerance: float, damping: float, region_size: int
) -> float:
    """Combined truncation slack of two converged regional solves.

    Each solve stops within ``tol/(1−ε)`` L1 of the fixed point; a
    float32 solver adds its documented roundoff clamp per solve.
    """
    slack = 2.0 * tolerance / (1.0 - damping)
    backend = resolve_backend(None)
    if np.dtype(backend.dtype) == np.dtype(np.float32):
        slack += 2.0 * float32_l1_bound(
            region_size + 1, tolerance, damping
        )
    return slack


def run_update_benchmark(
    smoke: bool = False,
    pages: int | None = None,
    updates: int | None = None,
    seed: int = 2009,
    output_path: str | None = DEFAULT_OUTPUT,
) -> dict[str, Any]:
    """Run the edge-churn update benchmark; optionally write the record.

    Parameters
    ----------
    smoke:
        Small workload + hard gate (``gate_passed`` is the CI
        criterion).
    pages / updates:
        Workload shape overrides.
    seed:
        Seeds both the synthetic web and the churn stream.
    output_path:
        Where to write the JSON record; ``None`` skips writing.

    Returns
    -------
    The record that was (or would have been) written.
    """
    num_pages = pages if pages is not None else (
        SMOKE_PAGES if smoke else FULL_PAGES
    )
    num_updates = updates if updates is not None else (
        SMOKE_UPDATES if smoke else FULL_UPDATES
    )
    settings = PowerIterationSettings(tolerance=BENCH_TOLERANCE)
    damping = settings.damping
    budget = DEFAULT_STALENESS_BUDGET
    backend = resolve_backend(None)

    dataset = make_tiny_web(num_pages=num_pages, seed=seed)
    graph = dataset.graph
    truth = global_pagerank(graph, settings)
    chain = truth.scores.copy()
    cumulative_charge = 0.0
    budget_resets = 0

    rng = np.random.default_rng(seed)
    warm_seconds = 0.0
    cold_seconds = 0.0
    warm_iterations = 0
    cold_iterations = 0
    iterations_saved = 0
    max_accuracy_gap = 0.0
    max_staleness_margin = -np.inf
    max_served_charge = 0.0
    accuracy_ok = True
    staleness_ok = True
    per_update: list[dict[str, Any]] = []

    for index in range(num_updates):
        start = int(rng.integers(0, graph.num_nodes - REGION_SIZE))
        region = np.arange(start, start + REGION_SIZE, dtype=np.int64)
        delta = random_region_delta(
            graph,
            region,
            added=EDGES_ADDED,
            removed=EDGES_REMOVED,
            seed=seed + 100 + index,
        )
        new_graph = apply_delta(graph, delta)

        warm = incremental_rerank(
            graph, new_graph, chain, delta=delta, settings=settings
        )
        cold = incremental_rerank(
            graph, new_graph, chain, delta=delta, settings=settings,
            warm_start=False,
        )
        warm_seconds += warm.runtime_seconds
        cold_seconds += cold.runtime_seconds
        warm_iterations += warm.iterations
        cold_iterations += cold.iterations
        iterations_saved += warm.iterations_saved

        # Accuracy clause (never waived): same fixed point, so the
        # two arms may differ only by their truncation slack.
        slack = _truncation_slack(
            settings.tolerance, damping, warm.region.size
        )
        gap = float(np.abs(warm.scores - cold.scores).sum())
        max_accuracy_gap = max(max_accuracy_gap, gap)
        if gap > slack:
            accuracy_ok = False

        # Staleness clause (never waived): the cumulative Theorem-2
        # charge must certify the chained vector's true error, and the
        # chain is never "served" over the store's budget.
        cumulative_charge += warm.staleness_charge
        new_truth = global_pagerank(new_graph, settings)
        error = float(np.abs(warm.scores - new_truth.scores).sum())
        margin = error - cumulative_charge
        max_staleness_margin = max(max_staleness_margin, margin)
        if error > cumulative_charge + slack:
            staleness_ok = False

        per_update.append(
            {
                "update": index,
                "region_size": int(warm.region.size),
                "warm_iterations": warm.iterations,
                "cold_iterations": cold.iterations,
                "iterations_saved": warm.iterations_saved,
                "staleness_charge": warm.staleness_charge,
                "cumulative_charge": cumulative_charge,
                "true_error_l1": error,
            }
        )

        graph = new_graph
        if cumulative_charge > budget:
            # The bound no longer vouches for the chain: re-solve
            # cold, exactly as the store evicts an over-budget entry.
            chain = new_truth.scores.copy()
            cumulative_charge = 0.0
            budget_resets += 1
        else:
            max_served_charge = max(
                max_served_charge, cumulative_charge
            )
            chain = warm.scores
        if max_served_charge > budget:
            staleness_ok = False

    iterations_ratio = (
        cold_iterations / warm_iterations
        if warm_iterations
        else float("inf")
    )
    speedup_ok = iterations_ratio > TARGET_ITERATIONS_RATIO
    mean_cold = cold_iterations / max(num_updates, 1)
    speedup_gate_waived = bool(
        not speedup_ok and mean_cold < MIN_DEMONSTRABLE_ITERATIONS
    )
    gate_passed = bool(
        accuracy_ok
        and staleness_ok
        and (speedup_ok or speedup_gate_waived)
    )

    record: dict[str, Any] = {
        "benchmark": "updates",
        "smoke": smoke,
        "created_unix": time.time(),
        "pages": num_pages,
        "updates": num_updates,
        "region_size": REGION_SIZE,
        "edges_added": EDGES_ADDED,
        "edges_removed": EDGES_REMOVED,
        "solver_tolerance": BENCH_TOLERANCE,
        "damping": damping,
        "backend": backend.dtype.name,
        "warm": {
            "rerank_seconds": warm_seconds,
            "updates_per_second": (
                num_updates / warm_seconds
                if warm_seconds > 0
                else float("inf")
            ),
            "iterations": warm_iterations,
        },
        "cold": {
            "rerank_seconds": cold_seconds,
            "updates_per_second": (
                num_updates / cold_seconds
                if cold_seconds > 0
                else float("inf")
            ),
            "iterations": cold_iterations,
        },
        # Measured = cold sweeps minus warm sweeps on this workload;
        # projected = the solver's own accounting against the global
        # worst-case cold cost (what the serving metrics report).
        "iterations_saved_measured": cold_iterations - warm_iterations,
        "iterations_saved_projected": iterations_saved,
        "iterations_ratio_speedup": iterations_ratio,
        "target_iterations_ratio": TARGET_ITERATIONS_RATIO,
        "accuracy_max_l1_gap": max_accuracy_gap,
        "accuracy_ok": accuracy_ok,
        "staleness_budget": budget,
        "staleness_max_served_charge": max_served_charge,
        "staleness_max_error_minus_charge": float(
            max_staleness_margin
        ),
        "staleness_budget_resets": budget_resets,
        "staleness_ok": staleness_ok,
        "per_update": per_update,
        "speedup_gate_waived": speedup_gate_waived,
        "gate_passed": gate_passed,
    }
    if output_path:
        with open(output_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
    return record


def format_update_summary(record: dict[str, Any]) -> str:
    """Human-readable summary of an update benchmark record."""
    lines = [
        "update benchmark ({} pages, {} updates of {}+/{}- edges "
        "over {}-page regions, backend {})".format(
            record["pages"],
            record["updates"],
            record["edges_added"],
            record["edges_removed"],
            record["region_size"],
            record["backend"],
        ),
        "  {:<6} {:>12} {:>14} {:>12}".format(
            "arm", "seconds", "updates/sec", "iterations"
        ),
    ]
    for arm in ("warm", "cold"):
        mode = record[arm]
        lines.append(
            "  {:<6} {:>12.3f} {:>14.1f} {:>12}".format(
                arm,
                mode["rerank_seconds"],
                mode["updates_per_second"],
                mode["iterations"],
            )
        )
    lines.append(
        "  iterations ratio {:.2f}x (target > {:.2f}x{})  "
        "saved {} measured / {} projected".format(
            record["iterations_ratio_speedup"],
            record["target_iterations_ratio"],
            ", waived: no burn-in to skip"
            if record["speedup_gate_waived"]
            else "",
            record["iterations_saved_measured"],
            record["iterations_saved_projected"],
        )
    )
    lines.append(
        "  accuracy max L1 gap {:.2e}  ok: {}".format(
            record["accuracy_max_l1_gap"], record["accuracy_ok"]
        )
    )
    lines.append(
        "  staleness: max served charge {:.3f} (budget {:.3f}), "
        "{} reset(s), ok: {}".format(
            record["staleness_max_served_charge"],
            record["staleness_budget"],
            record["staleness_budget_resets"],
            record["staleness_ok"],
        )
    )
    lines.append(
        "  gate: {}".format(
            "PASSED" if record["gate_passed"] else "FAILED"
        )
    )
    return "\n".join(lines)
