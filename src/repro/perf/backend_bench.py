"""Solver-precision benchmark: float64 vs float32.

The spec behind ``python -m repro bench backends`` (record:
``BENCH_backend.json``).  It runs a full global PageRank solve on one
AU-like reference workload in each solver precision
(:mod:`repro.pagerank.backends`): ``float64`` (the baseline, original
layout) and ``float32`` (degree-ordered layout).  Each cell reports
wall-clock, speedup vs the baseline and the L1 distance of its scores
from the baseline's.

The gate is accuracy: the float32 cell must land within the documented
:func:`repro.pagerank.backends.float32_l1_bound`.  The speedup is
recorded, not gated.
"""

from __future__ import annotations

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
from repro.perf.harness import (
    Bench,
    Clause,
    Outcome,
    best_of,
    higher,
    lower,
    neutral,
)

#: Reference workload sizes (pages in the AU-like dataset).
FULL_PAGES = 30_000
SMOKE_PAGES = 4_000

#: Timed repetitions per configuration; the best run is reported.
TIMING_REPS = 3


def _build(smoke: bool, seed: int):
    return make_au_like(
        num_pages=SMOKE_PAGES if smoke else FULL_PAGES, seed=seed
    )


def _measure(dataset) -> Outcome:
    graph = dataset.graph
    settings = PowerIterationSettings()
    transition_t, dangling_mask = TransitionCache().transition_transpose(
        graph
    )
    teleport = uniform_teleport(graph.num_nodes)

    metrics = {}
    facts = {}
    baseline_seconds = baseline_scores = None
    for dtype in DTYPES:
        backend = resolve_backend(dtype)
        workspace = PowerIterationWorkspace(
            graph.num_nodes, dtype=backend.dtype
        )
        # The warm-up absorbs first-call costs (prepare: dtype cast /
        # relabel).
        seconds, outcome = best_of(
            lambda: power_iteration(
                transition_t,
                teleport,
                dangling_mask=dangling_mask,
                settings=settings,
                workspace=workspace,
                backend=backend,
            ),
            reps=TIMING_REPS,
        )
        if baseline_scores is None:
            baseline_seconds, baseline_scores = seconds, outcome.scores
        l1_gap = float(np.abs(outcome.scores - baseline_scores).sum())
        cell = f"single_solve[{dtype}]"
        metrics[f"{cell}.seconds"] = lower(seconds, "s")
        metrics[f"{cell}.iterations"] = lower(outcome.iterations, "count")
        metrics[f"{cell}.speedup_vs_float64"] = higher(
            baseline_seconds / seconds if seconds else float("inf"), "x"
        )
        metrics[f"{cell}.l1_vs_float64"] = lower(l1_gap, "L1")
        facts[f"{cell}.layout"] = backend.layout
        facts[f"{cell}.converged"] = bool(outcome.converged)

    bound = float32_l1_bound(
        graph.num_nodes, settings.tolerance, settings.damping
    )
    metrics["single_solve[float32].l1_bound"] = neutral(bound, "L1")
    return Outcome(
        workload={
            "dataset": dataset.name,
            "pages": int(graph.num_nodes),
            "edges": int(graph.num_edges),
            "damping": settings.damping,
            "tolerance": settings.tolerance,
        },
        metrics=metrics,
        clauses=[
            Clause(
                "float32_within_l1_bound",
                metrics["single_solve[float32].l1_vs_float64"].value,
                bound,
                "lower",
            ),
        ],
        facts=facts,
    )


BENCH = Bench(
    name="backends",
    record="BENCH_backend.json",
    title="solver precision benchmark",
    build=_build,
    measure=_measure,
)
