"""Solver-kernel benchmark: single vs batched vs cached.

The spec behind ``python -m repro bench kernels`` (record:
``BENCH_solver.json``).  It times the legs of the performance layer on
an ObjectRank-style reference workload (K personalised walks over one
web-like graph):

* **single** — K sequential :func:`repro.pagerank.solver.power_iteration`
  calls, one per teleport vector;
* **batched** — the same K walks as one
  :func:`repro.pagerank.batched.batched_power_iteration` call;
* **cache** — cold build vs warm lookup of the transition transpose
  and of a subgraph's local-block bundle through
  :class:`repro.perf.cache.TransitionCache`;
* **allocations** — ``tracemalloc`` peak memory of the iteration loop
  for the seed-style allocating step vs the in-place kernel step;
* **observability** — the sequential leg with the
  :mod:`repro.obs.telemetry` recording hooks live vs stubbed out,
  timed as paired arms, gating the always-on instrumentation (null
  spans + registry counters) to <2% overhead.

The gate: batched strictly faster than K single solves, the kernels
allocating strictly less than the legacy step, and the telemetry
overhead within budget (waived below a 5 ms absolute noise floor,
where one scheduler blip exceeds 2% of a smoke-sized leg).
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager

import numpy as np

from repro.generators.datasets import make_au_like
from repro.obs import telemetry
from repro.pagerank.batched import batched_power_iteration
from repro.pagerank.kernels import (
    SPARSETOOLS_AVAILABLE,
    PowerIterationWorkspace,
    run_power_loop,
)
from repro.pagerank.solver import PowerIterationSettings, power_iteration
from repro.perf.cache import TransitionCache
from repro.perf.harness import (
    Bench,
    Clause,
    Outcome,
    higher,
    lower,
    neutral,
    paired,
    timed,
)

#: Reference workload sizes.
FULL_PAGES = 30_000
SMOKE_PAGES = 4_000

#: Stacked walks (the paper-style per-keyword batch).
K = 8

#: Iterations used for the allocation measurement (fixed, so both
#: loops do identical arithmetic work).
ALLOC_ITERATIONS = 30

#: Timed repetitions per leg; the best run is reported.
TIMING_REPS = 3

#: The always-on telemetry budget (DESIGN.md §9), and the absolute
#: difference below which a smoke-sized leg cannot resolve it.
OBS_BUDGET_PCT = 2.0
OBS_NOISE_FLOOR_SECONDS = 0.005

#: The solver's recording hooks, stubbed out for the bare arm.
_TELEMETRY_HOOKS = (
    "record_solve",
    "record_batched_solve",
    "record_divergence",
    "record_workspace_allocation",
)


def _objectrank_style_teleports(
    num_nodes: int, k: int, rng: np.random.Generator
) -> np.ndarray:
    """K base-set personalisation vectors (1% of pages each)."""
    teleports = np.zeros((num_nodes, k), dtype=np.float64)
    base_size = max(4, num_nodes // 100)
    for column in range(k):
        base = rng.choice(num_nodes, size=base_size, replace=False)
        teleports[base, column] = 1.0 / base_size
    return teleports


def _legacy_power_loop(
    transition_t,
    teleport: np.ndarray,
    dangling_indices: np.ndarray,
    damping: float,
    iterations: int,
) -> np.ndarray:
    """The seed solver's allocating step, for the allocation baseline.

    This replicates the pre-kernel implementation: three fresh arrays
    per iteration (mat-vec result, dangling term, residual).
    """
    base = (1.0 - damping) * teleport
    x = teleport.copy()
    for _ in range(iterations):
        mass = (
            float(x[dangling_indices].sum())
            if dangling_indices.size else 0.0
        )
        x_next = damping * (transition_t @ x)
        if mass:
            x_next += damping * mass * teleport
        x_next += base
        x_next /= x_next.sum()
        _residual = float(np.abs(x_next - x).sum())
        x = x_next
    return x


def _measure_peak_bytes(fn) -> int:
    """Peak tracemalloc memory (bytes) allocated while ``fn`` runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return max(0, peak - before)


@contextmanager
def _bare_telemetry():
    """Stub the solver's telemetry hooks to no-ops for the duration."""
    saved = {name: getattr(telemetry, name) for name in _TELEMETRY_HOOKS}
    try:
        for name in _TELEMETRY_HOOKS:
            setattr(telemetry, name, lambda *args, **kwargs: None)
        yield
    finally:
        for name, fn in saved.items():
            setattr(telemetry, name, fn)


def _build(smoke: bool, seed: int):
    pages = SMOKE_PAGES if smoke else FULL_PAGES
    graph = make_au_like(num_pages=pages, seed=seed).graph
    return graph, np.random.default_rng(seed)


def _measure(workload) -> Outcome:
    graph, rng = workload
    settings = PowerIterationSettings()

    # A private cache so the benchmark controls cold/warm transitions.
    cache = TransitionCache()
    cold_build, (transition_t, dangling_mask) = timed(
        lambda: cache.transition_transpose(graph)
    )
    warm_lookup, __ = timed(lambda: cache.transition_transpose(graph))

    teleports = _objectrank_style_teleports(graph.num_nodes, K, rng)
    workspace = PowerIterationWorkspace(graph.num_nodes)

    def run_single():
        return [
            power_iteration(
                transition_t,
                teleport=teleports[:, column],
                dangling_mask=dangling_mask,
                settings=settings,
                workspace=workspace,
            )
            for column in range(K)
        ]

    def run_batched():
        return batched_power_iteration(
            transition_t,
            teleports=teleports,
            dangling_mask=dangling_mask,
            settings=settings,
        )

    def run_bare():
        with _bare_telemetry():
            return run_single()

    # Single and batched: one untimed warm-up each, then the best of
    # TIMING_REPS interleaved repetitions (single, then batched).
    run_single()
    run_batched()
    single_seconds = batched_seconds = float("inf")
    for __ in range(TIMING_REPS):
        seconds, single_outcomes = timed(run_single)
        single_seconds = min(single_seconds, seconds)
        seconds, batched = timed(run_batched)
        batched_seconds = min(batched_seconds, seconds)
    single_iterations = sum(o.iterations for o in single_outcomes)
    max_l1_gap = float(
        max(
            np.abs(
                batched.scores[:, column] - single_outcomes[column].scores
            ).sum()
            for column in range(K)
        )
    )
    speedup = (
        single_seconds / batched_seconds if batched_seconds else float("inf")
    )

    # --- local-block cache: cold vs warm -----------------------------
    local_nodes = np.sort(
        rng.choice(
            graph.num_nodes,
            size=max(16, graph.num_nodes // 20),
            replace=False,
        )
    ).astype(np.int64)
    block_cold, __ = timed(lambda: cache.local_block(graph, local_nodes))
    block_warm, __ = timed(lambda: cache.local_block(graph, local_nodes))

    # --- observability overhead: instrumented vs bare ----------------
    # The same sequential leg with the hooks live and stubbed, as
    # paired arms, so drift over the run cannot read as overhead in
    # either direction.
    run_bare()  # warm-up with the hooks stubbed
    (instrumented_seconds, __), (bare_seconds, __) = paired(
        run_single, run_bare, reps=TIMING_REPS
    )
    obs_overhead_pct = (
        (instrumented_seconds - bare_seconds) / bare_seconds * 100.0
        if bare_seconds > 0
        else 0.0
    )

    # --- per-iteration allocations: seed-style step vs kernels -------
    dangling_indices = np.flatnonzero(dangling_mask)
    uniform = np.full(graph.num_nodes, 1.0 / graph.num_nodes)
    # Warm both paths once so lazy buffers/imports don't count.
    _legacy_power_loop(
        transition_t, uniform, dangling_indices, settings.damping, 2
    )
    alloc_workspace = PowerIterationWorkspace(graph.num_nodes)
    base = (1.0 - settings.damping) * uniform
    alloc_workspace.ensure_gather(max(1, dangling_indices.size))

    def kernel_loop() -> None:
        np.copyto(alloc_workspace.x, uniform)
        run_power_loop(
            transition_t,
            damping=settings.damping,
            base=base,
            dangling_indices=dangling_indices,
            dangling_dist=uniform,
            tolerance=0.0,  # unreachable: fixed iteration count
            max_iterations=ALLOC_ITERATIONS,
            workspace=alloc_workspace,
        )

    kernel_loop()  # warm-up
    legacy_peak = _measure_peak_bytes(
        lambda: _legacy_power_loop(
            transition_t,
            uniform,
            dangling_indices,
            settings.damping,
            ALLOC_ITERATIONS,
        )
    )
    kernel_peak = _measure_peak_bytes(kernel_loop)

    stats = cache.stats()
    column_iterations = int(batched.iterations.sum())
    return Outcome(
        workload={
            "pages": int(graph.num_nodes),
            "edges": int(graph.num_edges),
            "k": K,
            "damping": settings.damping,
            "tolerance": settings.tolerance,
            "alloc_iterations": ALLOC_ITERATIONS,
        },
        metrics={
            "single.seconds": lower(single_seconds, "s"),
            "single.total_iterations": neutral(single_iterations, "count"),
            "single.iterations_per_second": higher(
                single_iterations / single_seconds if single_seconds else 0.0,
                "1/s",
            ),
            "batched.seconds": lower(batched_seconds, "s"),
            "batched.matrix_sweeps": lower(batched.sweeps, "count"),
            "batched.column_iterations": neutral(column_iterations, "count"),
            "batched.speedup_vs_single": higher(speedup, "x"),
            "batched.max_l1_gap_vs_single": lower(max_l1_gap, "L1"),
            "batched.column_iterations_per_second": higher(
                column_iterations / batched_seconds if batched_seconds else 0.0,
                "1/s",
            ),
            "cache.transpose_cold_seconds": lower(cold_build, "s"),
            "cache.transpose_warm_seconds": lower(warm_lookup, "s"),
            "cache.transpose_speedup": higher(
                cold_build / warm_lookup if warm_lookup else float("inf"), "x"
            ),
            "cache.local_block_cold_seconds": lower(block_cold, "s"),
            "cache.local_block_warm_seconds": lower(block_warm, "s"),
            "cache.hits": neutral(stats.hits, "count"),
            "cache.misses": neutral(stats.misses, "count"),
            "allocations.legacy_peak_bytes": neutral(legacy_peak, "B"),
            "allocations.kernel_peak_bytes": lower(kernel_peak, "B"),
            "allocations.legacy_per_iteration_bytes": neutral(
                legacy_peak / ALLOC_ITERATIONS, "B"
            ),
            "allocations.kernel_per_iteration_bytes": lower(
                kernel_peak / ALLOC_ITERATIONS, "B"
            ),
            "observability.instrumented_seconds": lower(
                instrumented_seconds, "s"
            ),
            "observability.bare_seconds": neutral(bare_seconds, "s"),
            "observability.overhead_pct": lower(obs_overhead_pct, "%"),
        },
        clauses=[
            Clause("batched_faster_than_single", speedup, 1.0, "higher",
                   strict=True),
            Clause("kernel_allocates_less_than_legacy", kernel_peak,
                   legacy_peak, "lower", strict=True),
            Clause(
                "obs_overhead_pct", obs_overhead_pct, OBS_BUDGET_PCT,
                "lower",
                waiver="instrumented - bare <= 5 ms (noise floor)",
                waive=(
                    instrumented_seconds - bare_seconds
                    <= OBS_NOISE_FLOOR_SECONDS
                ),
            ),
        ],
        facts={"sparsetools_kernels": bool(SPARSETOOLS_AVAILABLE)},
    )


BENCH = Bench(
    name="kernels",
    record="BENCH_solver.json",
    title="solver kernel benchmark",
    build=_build,
    measure=_measure,
)
