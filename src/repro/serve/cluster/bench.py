"""Sharded-cluster benchmark: closed-loop load through the router.

The spec behind ``python -m repro bench shard`` (record:
``BENCH_shard.json``).  The workload sweeps the fleet shape — 1, 2,
and 4 shards behind one
:class:`~repro.serve.cluster.router.ShardRouter` — while
``CONCURRENCY`` load-generator threads fire closed-loop ``/rank``
requests for **distinct subgraphs** (digest-diverse, so the
consistent-hash ring actually spreads them) against the router's
front door.

Recorded per shard count: wall-clock, throughput, p50/p99 request
latency, and how the ring spread the request keyspace.  One
correctness clause rides along and is **never** waived:

* ``bit_identical`` — every answer served through the router must be
  **bit-identical** to the offline
  :func:`repro.core.approxrank.approxrank` solve for its subgraph.
  Sharding partitions the request keyspace, never the graph, so a
  routed answer has no excuse to differ by even one ULP.

The wall-clock speedup clause (max-shard sweep vs the single-shard
baseline) is waived only on a single-core machine, where
thread-placement replicas cannot overlap their solver work.
"""

from __future__ import annotations

import os

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
    neutral,
    prefixed,
)
from repro.serve.client import RankingClient
from repro.serve.cluster.router import start_cluster
from repro.serve.store import subgraph_digest

FULL_PAGES = 3_000
SMOKE_PAGES = 500
FULL_ROUNDS = 4
SMOKE_ROUNDS = 2
FULL_SWEEP = (1, 2, 4)
SMOKE_SWEEP = (1, 2)

#: Concurrent load-generator threads hitting the router front door.
CONCURRENCY = 8

#: Solver tolerance for both the served and the offline reference
#: solves (bit-identity needs the identical settings, not a loose
#: agreement band).
BENCH_TOLERANCE = 1e-9

#: Max-shard wall-clock must beat the single-shard baseline by this
#: factor.
TARGET_SPEEDUP = 1.1


def _build(smoke: bool, seed: int):
    pages = SMOKE_PAGES if smoke else FULL_PAGES
    rounds = SMOKE_ROUNDS if smoke else FULL_ROUNDS
    graph = make_tiny_web(num_pages=pages, seed=seed).graph
    # Distinct node sets per (round, worker) slot, so no request hits
    # another's score-store entry and the ring has a real keyspace.
    rng = np.random.default_rng(seed)
    size = max(min(pages // 40, 64), 8)
    subgraphs = [
        np.unique(rng.choice(pages, size=size, replace=False).astype(np.int64))
        for __ in range(rounds * CONCURRENCY)
    ]
    sweep = SMOKE_SWEEP if smoke else FULL_SWEEP
    return graph, subgraphs, rounds, sweep, seed


def _run_shape(graph, settings, subgraphs, rounds, num_shards, seed):
    """One closed-loop run against one fleet shape."""
    handle = start_cluster(
        graph,
        num_shards=num_shards,
        replicas_per_shard=1,
        placement="thread",
        manager_kwargs={"settings": settings, "seed": seed},
        seed=seed,
        attempt_timeout=120.0,
        max_inflight=4 * CONCURRENCY,
    )
    try:
        client = RankingClient(*handle.address, timeout=120.0)
        metrics, answers = closed_loop(
            lambda slot: client.rank(subgraphs[slot].tolist()),
            CONCURRENCY,
            rounds,
        )
        spread = handle.router.ring.spread(
            [subgraph_digest(nodes) for nodes in subgraphs]
        )
    finally:
        handle.stop()
    for shard, count in enumerate(spread):
        metrics[f"shard_spread.{shard}"] = neutral(int(count), "count")
    served = [np.asarray(a["scores"], dtype=np.float64) for a in answers]
    return metrics, served


def _measure(workload) -> Outcome:
    graph, subgraphs, rounds, sweep, seed = workload
    settings = PowerIterationSettings(tolerance=BENCH_TOLERANCE)
    metrics = {}
    walls = []
    served_by_shape = []
    for num_shards in sweep:
        shape, served = _run_shape(
            graph, settings, subgraphs, rounds, num_shards, seed
        )
        metrics.update(prefixed(f"shapes[shards={num_shards}]", shape))
        walls.append(shape["wall_seconds"].value)
        served_by_shape.append(served)
    # Offline references are solved after the sweep, so no shape runs
    # against caches they warmed.
    offline = [approxrank(graph, nodes, settings).scores for nodes in subgraphs]
    bit_identical = all(
        np.array_equal(scores, reference)
        for served in served_by_shape
        for scores, reference in zip(served, offline)
    )
    speedup = walls[0] / walls[-1] if walls[-1] > 0 else float("inf")
    metrics["speedup"] = higher(speedup, "x")
    return Outcome(
        workload={
            "pages": int(graph.num_nodes),
            "subgraph_size": int(subgraphs[0].size),
            "concurrency": CONCURRENCY,
            "rounds": rounds,
            "total_requests": len(subgraphs),
            "solver_tolerance": BENCH_TOLERANCE,
            "shard_sweep": list(sweep),
        },
        metrics=metrics,
        clauses=[
            Clause("bit_identical", bit_identical, True, "higher"),
            Clause(
                "shard_speedup", speedup, TARGET_SPEEDUP, "higher",
                waiver="the machine has a single CPU core",
                waive=(os.cpu_count() or 1) < 2,
            ),
        ],
    )


BENCH = Bench(
    name="shard",
    record="BENCH_shard.json",
    title="shard benchmark (1/2/4-shard sweep through the router)",
    build=_build,
    measure=_measure,
)
