"""Closed-loop serving benchmark: micro-batching on vs off.

The spec behind ``python -m repro bench serve`` (record:
``BENCH_serve.json``).  The workload is the serving-side worst case for
a per-request solver: ``CONCURRENCY`` load-generator threads fire
simultaneous **cold** ``/rank`` requests (same subgraph, distinct
damping factors, so nothing hits the score store) in lock-stepped
bursts against a real server socket.  The same workload runs twice —

* **batching on**: group commit solves a burst's first request at
  once and coalesces the rest, which arrive while it runs, into one
  multi-column batched solve;
* **batching off**: every request is its own solve on the same
  single solver thread (the sequential baseline).

Recorded per mode: wall-clock, throughput, and p50/p99 request
latency.  Two correctness clauses ride along and are **never** waived:

* ``agreement`` — batched scores vs the offline
  :func:`repro.core.approxrank.approxrank` fixed point per damping
  (both sides converge independently to the same tight tolerance);
* ``bit_identical_singleton`` — a lone request (batch of one) must be
  **bit-identical** to the offline path, because it routes through the
  identical ``ApproxRankPreprocessor.rank`` code.

The wall-clock speedup clause is waived on a single-core machine only;
unlike process parallelism the batched win is algorithmic — one sparse
mat-mat sweep serves every column — so it normally shows even there.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np

from repro.core.approxrank import approxrank
from repro.generators.datasets import make_tiny_web
from repro.pagerank.solver import PowerIterationSettings
from repro.perf.harness import (
    Bench,
    Clause,
    Outcome,
    closed_loop,
    higher,
    lower,
    prefixed,
)
from repro.serve.batching import BatchPolicy
from repro.serve.client import RankingClient
from repro.serve.server import RankingService, start_background_server
from repro.serve.store import ScoreStore

FULL_PAGES = 4_000
SMOKE_PAGES = 600
FULL_ROUNDS = 5
SMOKE_ROUNDS = 2

#: Concurrent load-generator threads (a burst of 8 requests).
CONCURRENCY = 8

#: Tight solver tolerance so independent solves land within
#: AGREEMENT_ATOL of the shared fixed point.
BENCH_TOLERANCE = 1e-9
AGREEMENT_ATOL = 1e-6

#: Batched wall-clock must beat sequential by this factor.
TARGET_SPEEDUP = 1.1


def _build(smoke: bool, seed: int):
    pages = SMOKE_PAGES if smoke else FULL_PAGES
    rounds = SMOKE_ROUNDS if smoke else FULL_ROUNDS
    graph = make_tiny_web(num_pages=pages, seed=seed).graph
    local_nodes = np.arange(max(pages // 5, 8), dtype=np.int64)
    # Distinct damping factors per (round, worker) slot — all cold keys.
    dampings = np.linspace(
        0.60, 0.90, rounds * CONCURRENCY, endpoint=False
    ).tolist()
    return graph, local_nodes, rounds, dampings


def _run_mode(graph, local_nodes, settings, rounds, dampings, enabled):
    """One closed-loop run; returns its metrics and served scores."""
    service = RankingService(
        graph,
        store=ScoreStore(capacity=len(dampings) + CONCURRENCY),
        policy=BatchPolicy(
            enabled=enabled,
            max_batch_size=CONCURRENCY,
            max_pending=4 * CONCURRENCY,
        ),
        settings=settings,
        solver_threads=1,
    )
    nodes = local_nodes.tolist()
    with start_background_server(service) as handle:
        client = RankingClient(*handle.address, timeout=120.0)
        metrics, answers = closed_loop(
            lambda slot: client.rank(nodes, damping=dampings[slot]),
            CONCURRENCY,
            rounds,
        )
    served = {
        damping: np.asarray(answer["scores"], dtype=np.float64)
        for damping, answer in zip(dampings, answers)
    }
    return metrics, served


def _measure(workload) -> Outcome:
    graph, local_nodes, rounds, dampings = workload
    settings = PowerIterationSettings(tolerance=BENCH_TOLERANCE)
    batched, served = _run_mode(
        graph, local_nodes, settings, rounds, dampings, enabled=True
    )
    sequential, __ = _run_mode(
        graph, local_nodes, settings, rounds, dampings, enabled=False
    )

    # Agreement: every batched answer of the first burst must sit
    # within AGREEMENT_ATOL of the offline fixed point for its ε.
    max_diff = 0.0
    for damping in dampings[:CONCURRENCY]:
        offline = approxrank(
            graph, local_nodes, replace(settings, damping=damping)
        )
        max_diff = max(
            max_diff, float(np.max(np.abs(offline.scores - served[damping])))
        )

    # Bit identity: a lone request takes the exact offline code path,
    # so the wire answer must be bit-equal.
    single_service = RankingService(graph, settings=settings, solver_threads=1)
    with start_background_server(single_service) as handle:
        client = RankingClient(*handle.address, timeout=120.0)
        wire = client.rank_scores(local_nodes.tolist(), damping=0.5)
    offline_single = approxrank(
        graph, local_nodes, replace(settings, damping=0.5)
    )
    bit_identical = bool(np.array_equal(wire.scores, offline_single.scores))

    on_wall = batched["wall_seconds"].value
    speedup = (
        sequential["wall_seconds"].value / on_wall
        if on_wall > 0
        else float("inf")
    )
    return Outcome(
        workload={
            "pages": int(graph.num_nodes),
            "subgraph_size": int(local_nodes.size),
            "concurrency": CONCURRENCY,
            "rounds": rounds,
            "total_requests": len(dampings),
            "solver_tolerance": BENCH_TOLERANCE,
        },
        metrics={
            **prefixed("batching_on", batched),
            **prefixed("batching_off", sequential),
            "speedup": higher(speedup, "x"),
            "agreement_max_abs_diff": lower(max_diff, "abs"),
        },
        clauses=[
            Clause("agreement", max_diff, AGREEMENT_ATOL, "lower"),
            Clause("bit_identical_singleton", bit_identical, True, "higher"),
            Clause(
                "batching_speedup", speedup, TARGET_SPEEDUP, "higher",
                waiver="the machine has a single CPU core",
                waive=(os.cpu_count() or 1) < 2,
            ),
        ],
    )


BENCH = Bench(
    name="serve",
    record="BENCH_serve.json",
    title="serve benchmark (batching on vs off)",
    build=_build,
    measure=_measure,
)
