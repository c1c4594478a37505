"""Multi-subgraph scaling benchmark: serial vs process-parallel.

The spec behind ``python -m repro bench parallel`` (record:
``BENCH_parallel.json``).  The workload is the paper's Table IV shape —
the 12 named DS domains of the AU-like dataset, each ranked by
ApproxRank against one shared global graph — which §IV-B argues is
embarrassingly parallel: one global pass, then per-subgraph cost that
is purely local.

The benchmark times :func:`repro.parallel.rank_many` over that
workload at 1 (serial fallback), 2 and 4 workers and verifies that
every parallel configuration reproduces the serial scores **exactly**
(same fixed point, bit for bit).

Gate semantics:

* exact serial/parallel score agreement is never waived;
* the best parallel configuration must beat serial (speedup > 1) —
  waived only when the machine has a single CPU core, where process
  parallelism cannot beat serial;
* worker counts above ``os.cpu_count()`` are never timed (pure
  oversubscription noise); they are recorded in the workload as
  ``skipped_worker_counts`` instead.
"""

from __future__ import annotations

import os

import numpy as np

from repro.generators.datasets import AU_NAMED_DOMAINS, make_au_like
from repro.pagerank.solver import PowerIterationSettings
from repro.parallel import rank_many, shared_memory_available
from repro.perf.harness import (
    Bench,
    Clause,
    Outcome,
    best_of,
    higher,
    lower,
)
from repro.subgraphs.domain import domain_subgraph

#: Reference workload sizes (pages in the AU-like dataset).
FULL_PAGES = 50_000
SMOKE_PAGES = 8_000

#: Worker counts swept (1 == the serial fallback path).
WORKER_SWEEP = (1, 2, 4)

#: The acceptance target: the best parallel configuration at least
#: this much faster than serial — recorded, not gated.
TARGET_SPEEDUP = 2.0

#: Timed repetitions per configuration; the best run is reported.
TIMING_REPS = 2


def _build(smoke: bool, seed: int):
    return make_au_like(
        num_pages=SMOKE_PAGES if smoke else FULL_PAGES, seed=seed
    )


def _measure(dataset) -> Outcome:
    graph = dataset.graph
    settings = PowerIterationSettings()
    subgraphs = [
        (domain, domain_subgraph(dataset, domain))
        for domain, __ in AU_NAMED_DOMAINS
    ]
    cpu_count = os.cpu_count() or 1
    # Timing worker counts beyond the machine's cores measures nothing
    # but oversubscription noise; cap the sweep at the core count and
    # record what was skipped.
    workers = [w for w in WORKER_SWEEP if w <= cpu_count]
    skipped = [w for w in WORKER_SWEEP if w > cpu_count]

    def run(worker_count: int):
        return rank_many(
            graph,
            subgraphs,
            algorithm="approxrank",
            settings=settings,
            workers=worker_count,
        )

    # The serial warm-up fills shared state the serial path would enjoy
    # anyway (transition cache), so workers=1 is its steady state.
    serial_seconds, serial_scores = best_of(
        lambda: run(1), reps=TIMING_REPS, warmup=TIMING_REPS
    )
    metrics = {"serial_seconds": lower(serial_seconds, "s")}
    facts = {}
    all_exact = True
    best_speedup = 0.0
    for worker_count in workers:
        if worker_count == 1:
            seconds, scores = serial_seconds, serial_scores
        else:
            seconds, scores = best_of(
                lambda: run(worker_count), reps=TIMING_REPS, warmup=0
            )
        exact = all(
            np.array_equal(a.scores, b.scores)
            and np.array_equal(a.local_nodes, b.local_nodes)
            for a, b in zip(scores, serial_scores)
        )
        all_exact = all_exact and exact
        speedup = serial_seconds / seconds if seconds else float("inf")
        if worker_count > 1:
            best_speedup = max(best_speedup, speedup)
        cell = f"sweep[workers={worker_count}]"
        metrics[f"{cell}.seconds"] = lower(seconds, "s")
        metrics[f"{cell}.speedup_vs_serial"] = higher(speedup, "x")
        facts[f"{cell}.exact_match_vs_serial"] = bool(exact)
    metrics["best_parallel_speedup"] = higher(best_speedup, "x")
    facts["meets_target"] = bool(best_speedup >= TARGET_SPEEDUP)
    facts["shared_memory_available"] = bool(shared_memory_available())

    return Outcome(
        workload={
            "dataset": dataset.name,
            "pages": int(graph.num_nodes),
            "edges": int(graph.num_edges),
            "subgraphs": len(subgraphs),
            "algorithm": "approxrank",
            "damping": settings.damping,
            "tolerance": settings.tolerance,
            "workers": workers,
            "skipped_worker_counts": skipped,
            "target_speedup": TARGET_SPEEDUP,
        },
        metrics=metrics,
        clauses=[
            Clause("exact_agreement", all_exact, True, "higher"),
            Clause(
                "parallel_speedup", best_speedup, 1.0, "higher",
                strict=True,
                waiver="the machine has a single CPU core",
                waive=cpu_count < 2,
            ),
        ],
        facts=facts,
    )


BENCH = Bench(
    name="parallel",
    record="BENCH_parallel.json",
    title="parallel rank_many benchmark",
    build=_build,
    measure=_measure,
)
