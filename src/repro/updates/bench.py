"""Edge-churn benchmark: incremental re-ranking under a stream of updates.

The spec behind ``python -m repro bench updates`` (record:
``BENCH_update.json``).  The workload is a seeded stream of
:func:`~repro.updates.delta.random_region_delta` edge-churn updates
over a synthetic web.  Each update runs once through
:func:`~repro.updates.rerank.incremental_rerank`, whose spliced output
becomes "yesterday's scores" for the next update.

Recorded: re-rank seconds, updates/sec and power-iteration totals.
Two correctness clauses ride along and are **never** waived:

* **accuracy** — per update, the re-rank must land on the fixed point
  of its own problem: ``L1`` between the re-ranked vector and a
  float64 :func:`~repro.core.idealrank.idealrank` reference on the
  same region and stale external scores, solved at ``tol/1000`` and
  spliced the same way, within the solver-truncation slack
  ``2·tol/(1−ε)`` (widened by the documented
  :func:`~repro.pagerank.backends.float32_l1_bound` clamp when the
  active backend solves in float32);
* **staleness** — the Theorem-2 accounting is honest and the budget
  is enforced: per update, the chained vector's measured L1 error
  against a fresh global solve of the new graph must sit under the
  *cumulative* staleness charge (the certificate the serving layer
  trusts), and no vector is ever "served" with a cumulative charge
  above the store's default budget — crossing it forces a cold global
  re-solve of the chain, exactly as the store evicts.
"""

from __future__ import annotations

import numpy as np

from repro.core.idealrank import idealrank
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
    timed,
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
#: stream exercises the regime the engine is built for: the
#: per-update Theorem-2 charge fits under the budget (entries genuinely
#: get served stale-but-bounded between resets).
REGION_SIZE = 60
EDGES_ADDED = 6
EDGES_REMOVED = 2

#: Solver tolerance of every re-rank and of the global truth.
BENCH_TOLERANCE = 1e-9

#: How much tighter the accuracy clause's float64 reference solves.
REFERENCE_TIGHTENING = 1e-3


def _truncation_slack(
    tolerance: float, damping: float, region_size: int
) -> float:
    """Combined truncation slack of two converged regional solves.

    Each solve stops within ``tol/(1−ε)`` L1 of the fixed point; a
    float32 solver adds its documented roundoff clamp per solve.  The
    accuracy clause pairs the re-rank with a reference solved a
    thousand times tighter, so the reference's share is spare room.
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
    reference_settings = PowerIterationSettings(
        tolerance=BENCH_TOLERANCE * REFERENCE_TIGHTENING
    )
    damping = settings.damping
    budget = DEFAULT_STALENESS_BUDGET

    chain = global_pagerank(graph, settings).scores.copy()
    cumulative_charge = 0.0
    budget_resets = 0

    rng = np.random.default_rng(seed)
    rerank_seconds = 0.0
    iterations = 0
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

        seconds, result = timed(
            lambda: incremental_rerank(
                graph, new_graph, chain, delta=delta, settings=settings
            )
        )
        rerank_seconds += seconds
        iterations += result.iterations

        # Accuracy: the re-rank and a tight float64 reference of the
        # same regional problem may differ only by truncation slack.
        stale = np.full(new_graph.num_nodes, 1.0 / new_graph.num_nodes)
        stale[: graph.num_nodes] = chain
        ranked = idealrank(
            new_graph, result.region, stale, reference_settings,
            backend="float64",
        )
        reference = stale.copy()
        reference[ranked.local_nodes] = ranked.scores
        reference /= reference.sum()
        slack = _truncation_slack(
            settings.tolerance, damping, result.region.size
        )
        gap = float(np.abs(result.scores - reference).sum())
        max_accuracy_gap = max(max_accuracy_gap, gap)
        if gap > slack:
            accuracy_ok = False

        # Staleness: the cumulative Theorem-2 charge must certify the
        # chained vector's true error, and the chain is never "served"
        # over the store's budget.
        cumulative_charge += result.staleness_charge
        new_truth = global_pagerank(new_graph, settings)
        error = float(np.abs(result.scores - new_truth.scores).sum())
        max_staleness_margin = max(
            max_staleness_margin, error - cumulative_charge
        )
        if error > cumulative_charge + slack:
            staleness_ok = False

        per_update.append(
            {
                "update": index,
                "region_size": int(result.region.size),
                "iterations": result.iterations,
                "seconds": seconds,
                "accuracy_l1_gap": gap,
                "staleness_charge": result.staleness_charge,
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
            chain = result.scores
        if max_served_charge > budget:
            staleness_ok = False

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
            "rerank.seconds": lower(rerank_seconds, "s"),
            "rerank.updates_per_second": higher(
                num_updates / rerank_seconds
                if rerank_seconds > 0 else float("inf"),
                "1/s",
            ),
            "rerank.iterations": lower(iterations, "count"),
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
        ],
        facts={"per_update": per_update},
    )


BENCH = Bench(
    name="updates",
    record="BENCH_update.json",
    title="update benchmark (incremental re-rank under edge churn)",
    build=_build,
    measure=_measure,
)
