"""Edge-churn benchmark: warm-started vs cold incremental re-ranking.

The spec behind ``python -m repro bench updates`` (record:
``BENCH_update.json``).  The workload is a seeded stream of
:func:`~repro.updates.delta.random_region_delta` edge-churn updates
over a synthetic web.  Each update runs through two arms of
:func:`~repro.updates.rerank.incremental_rerank` on the same inputs:

* **warm** — the regional IdealRank solve starts from the spliced old
  vector (the engine's default, and the arm that advances the chain:
  its spliced output becomes "yesterday's scores" for the next
  update);
* **cold** — the identical regional solve from a uniform start
  (``warm_start=False``), the baseline the iteration savings are
  measured against.

The arms are timed as a pair that alternates which runs first from
one update to the next: whichever runs first on a new graph pays its
first-touch costs, so a fixed order would charge them to one arm.

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

The iterations-saved ratio must exceed 1; the clause is waived only
when the workload gives a warm start nothing to save — cold solves
averaging under ``MIN_DEMONSTRABLE_ITERATIONS`` sweeps have no burn-in
to skip.
"""

from __future__ import annotations

import numpy as np

from repro.generators.datasets import make_tiny_web
from repro.pagerank.backends import float32_l1_bound, resolve_backend
from repro.pagerank.globalrank import global_pagerank
from repro.pagerank.solver import PowerIterationSettings
from repro.perf.harness import (
    Bench,
    Clause,
    Outcome,
    higher,
    lower,
    neutral,
    paired,
)
from repro.serve.store import DEFAULT_STALENESS_BUDGET
from repro.updates.delta import apply_delta, random_region_delta
from repro.updates.rerank import incremental_rerank

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
#: start to skip, and the ratio clause is undemonstrable.
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


def _build(smoke: bool, seed: int):
    pages = SMOKE_PAGES if smoke else FULL_PAGES
    updates = SMOKE_UPDATES if smoke else FULL_UPDATES
    return make_tiny_web(num_pages=pages, seed=seed).graph, updates, seed


def _measure(workload) -> Outcome:
    graph, num_updates, seed = workload
    num_pages = graph.num_nodes
    settings = PowerIterationSettings(tolerance=BENCH_TOLERANCE)
    damping = settings.damping
    budget = DEFAULT_STALENESS_BUDGET

    chain = global_pagerank(graph, settings).scores.copy()
    cumulative_charge = 0.0
    budget_resets = 0

    rng = np.random.default_rng(seed)
    warm_seconds = cold_seconds = 0.0
    warm_iterations = cold_iterations = iterations_saved = 0
    max_accuracy_gap = 0.0
    max_staleness_margin = -np.inf
    max_served_charge = 0.0
    accuracy_ok = staleness_ok = True
    per_update: list[dict] = []

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

        (warm_s, warm), (cold_s, cold) = paired(
            lambda: incremental_rerank(
                graph, new_graph, chain, delta=delta, settings=settings
            ),
            lambda: incremental_rerank(
                graph, new_graph, chain, delta=delta, settings=settings,
                warm_start=False,
            ),
            start=index,
        )
        warm_seconds += warm_s
        cold_seconds += cold_s
        warm_iterations += warm.iterations
        cold_iterations += cold.iterations
        iterations_saved += warm.iterations_saved

        # Accuracy: same fixed point, so the two arms may differ only
        # by their truncation slack.
        slack = _truncation_slack(
            settings.tolerance, damping, warm.region.size
        )
        gap = float(np.abs(warm.scores - cold.scores).sum())
        max_accuracy_gap = max(max_accuracy_gap, gap)
        if gap > slack:
            accuracy_ok = False

        # Staleness: the cumulative Theorem-2 charge must certify the
        # chained vector's true error, and the chain is never "served"
        # over the store's budget.
        cumulative_charge += warm.staleness_charge
        new_truth = global_pagerank(new_graph, settings)
        error = float(np.abs(warm.scores - new_truth.scores).sum())
        max_staleness_margin = max(
            max_staleness_margin, error - cumulative_charge
        )
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
            max_served_charge = max(max_served_charge, cumulative_charge)
            chain = warm.scores
        if max_served_charge > budget:
            staleness_ok = False

    iterations_ratio = (
        cold_iterations / warm_iterations if warm_iterations else float("inf")
    )
    mean_cold = cold_iterations / max(num_updates, 1)
    return Outcome(
        workload={
            "pages": int(num_pages),
            "updates": num_updates,
            "region_size": REGION_SIZE,
            "edges_added": EDGES_ADDED,
            "edges_removed": EDGES_REMOVED,
            "solver_tolerance": BENCH_TOLERANCE,
            "damping": damping,
            "staleness_budget": budget,
        },
        metrics={
            "warm.rerank_seconds": lower(warm_seconds, "s"),
            "warm.updates_per_second": higher(
                num_updates / warm_seconds if warm_seconds > 0 else float("inf"),
                "1/s",
            ),
            "warm.iterations": lower(warm_iterations, "count"),
            "cold.rerank_seconds": lower(cold_seconds, "s"),
            "cold.updates_per_second": higher(
                num_updates / cold_seconds if cold_seconds > 0 else float("inf"),
                "1/s",
            ),
            "cold.iterations": lower(cold_iterations, "count"),
            # Measured = cold sweeps minus warm sweeps on this workload;
            # projected = the solver's own accounting against the
            # global worst-case cold cost (what the serving metrics
            # report).
            "iterations_saved_measured": higher(
                cold_iterations - warm_iterations, "count"
            ),
            "iterations_saved_projected": higher(iterations_saved, "count"),
            "iterations_ratio_speedup": higher(iterations_ratio, "x"),
            "accuracy_max_l1_gap": lower(max_accuracy_gap, "L1"),
            "staleness_max_served_charge": neutral(max_served_charge, "L1"),
            "staleness_max_error_minus_charge": lower(
                float(max_staleness_margin), "L1"
            ),
            "staleness_budget_resets": neutral(budget_resets, "count"),
        },
        clauses=[
            Clause("accuracy", accuracy_ok, True, "higher"),
            Clause("staleness", staleness_ok, True, "higher"),
            Clause(
                "iterations_ratio", iterations_ratio,
                TARGET_ITERATIONS_RATIO, "higher", strict=True,
                waiver=(
                    f"mean cold iterations < {MIN_DEMONSTRABLE_ITERATIONS:g}"
                    " (no burn-in to skip)"
                ),
                waive=mean_cold < MIN_DEMONSTRABLE_ITERATIONS,
            ),
        ],
        facts={"per_update": per_update},
    )


BENCH = Bench(
    name="updates",
    record="BENCH_update.json",
    title="update benchmark (warm vs cold incremental re-rank)",
    build=_build,
    measure=_measure,
)
