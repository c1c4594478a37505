"""Solver convergence telemetry: iteration metrics and residual traces.

The solver layers (:mod:`repro.pagerank.solver`,
:mod:`repro.pagerank.batched`, and the kernels'
:class:`~repro.pagerank.kernels.PowerIterationWorkspace`) report every
solve through this module.  Two tiers of recording:

* **Registry metrics — always on.**  Iteration-count and runtime
  histograms, solve/divergence counters and workspace
  allocation counters go to :data:`repro.obs.metrics.REGISTRY`
  unconditionally: the cost is a few locked dict updates *per solve*
  (never per sweep), which is noise next to a single sparse mat-vec.
* **Ring buffers — gated on ``REPRO_OBS``.**  Per-solve
  :class:`SolveRecord` entries with the tail of the per-sweep residual
  trace land in a bounded :class:`RingBuffer` only when observability
  is enabled, because traces are per-sweep-sized data.

Nothing here touches solver arithmetic: recording happens after the
iterate is final, so scores with observability enabled are
bit-identical to scores without it (pinned by the obs smoke test).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.obs import state
from repro.obs.metrics import (
    ITERATION_BUCKETS,
    REGISTRY,
    SECONDS_BUCKETS,
)

__all__ = [
    "RingBuffer",
    "SolveRecord",
    "SOLVE_HISTORY",
    "TRACE_TAIL",
    "record_solve",
    "record_batched_solve",
    "record_divergence",
    "record_workspace_allocation",
    "history_payload",
    "reset",
]

#: How many residual-trace entries are kept per solve record (the tail
#: is the interesting part: it shows the approach to tolerance or the
#: divergence pattern).
TRACE_TAIL = 32

#: Capacity of the process-wide solve history.
DEFAULT_HISTORY = 512


class RingBuffer:
    """A bounded, thread-safe append-only buffer (oldest evicted)."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._items: list[Any] = []
        self._start = 0
        self._total = 0

    def append(self, item: Any) -> None:
        with self._lock:
            if len(self._items) < self.capacity:
                self._items.append(item)
            else:
                self._items[self._start] = item
                self._start = (self._start + 1) % self.capacity
            self._total += 1

    def items(self) -> list:
        """Buffered items, oldest first."""
        with self._lock:
            return (
                self._items[self._start:] + self._items[: self._start]
            )

    @property
    def total_appended(self) -> int:
        """Lifetime appends (>= ``len`` once the buffer has wrapped)."""
        return self._total

    def __len__(self) -> int:
        return len(self._items)

    def clear(self) -> None:
        with self._lock:
            self._items.clear()
            self._start = 0
            self._total = 0


@dataclass(frozen=True)
class SolveRecord:
    """One solver run's convergence telemetry (ring-buffered)."""

    solver: str
    iterations: int
    residual: float
    converged: bool
    damping: float
    runtime_seconds: float
    columns: int = 1
    sweeps: int | None = None
    residual_tail: tuple[float, ...] = field(default_factory=tuple)

    def to_payload(self) -> dict[str, Any]:
        return {
            "solver": self.solver,
            "iterations": self.iterations,
            "residual": self.residual,
            "converged": self.converged,
            "damping": self.damping,
            "runtime_seconds": self.runtime_seconds,
            "columns": self.columns,
            "sweeps": self.sweeps,
            "residual_tail": list(self.residual_tail),
        }


#: Process-wide convergence history (populated only when obs is on).
SOLVE_HISTORY = RingBuffer(DEFAULT_HISTORY)


def _trace_tail(trace: "Sequence[float] | None") -> tuple[float, ...]:
    if not trace:
        return ()
    return tuple(float(r) for r in trace[-TRACE_TAIL:])


def record_solve(
    solver: str,
    *,
    iterations: int,
    residual: float,
    converged: bool,
    damping: float,
    runtime_seconds: float,
    residual_trace: "Sequence[float] | None" = None,
) -> None:
    """Record one single-vector solve (registry always, buffer if on)."""
    REGISTRY.counter(
        "repro_solver_solves_total",
        "Completed power-iteration solves",
        solver=solver,
    ).inc()
    REGISTRY.histogram(
        "repro_solver_iterations",
        "Power-iteration sweeps per solve (per column for batched)",
        buckets=ITERATION_BUCKETS,
        solver=solver,
    ).observe(iterations)
    REGISTRY.histogram(
        "repro_solver_runtime_seconds",
        "Wall-clock per solve",
        buckets=SECONDS_BUCKETS,
        solver=solver,
    ).observe(runtime_seconds)
    if not converged:
        REGISTRY.counter(
            "repro_solver_unconverged_total",
            "Solves that hit the iteration cap before tolerance",
            solver=solver,
        ).inc()
    if state.enabled():
        SOLVE_HISTORY.append(
            SolveRecord(
                solver=solver,
                iterations=int(iterations),
                residual=float(residual),
                converged=bool(converged),
                damping=float(damping),
                runtime_seconds=float(runtime_seconds),
                residual_tail=_trace_tail(residual_trace),
            )
        )


def record_batched_solve(
    *,
    iterations: "Iterable[int]",
    residuals: "Iterable[float]",
    converged: "Iterable[bool]",
    dampings: "Iterable[float]",
    sweeps: int,
    runtime_seconds: float,
    residual_trace: "Sequence[float] | None" = None,
) -> None:
    """Record one batched multi-vector solve.

    Iteration counts are observed per column — the batched histogram
    is directly comparable to the single-solver one — while sweeps
    (the shared matrix passes, the batch's actual cost driver) get
    their own histogram.
    """
    iteration_hist = REGISTRY.histogram(
        "repro_solver_iterations",
        "Power-iteration sweeps per solve (per column for batched)",
        buckets=ITERATION_BUCKETS,
        solver="batched",
    )
    columns = 0
    unconverged = 0
    for its, ok in zip(iterations, converged):
        iteration_hist.observe(int(its))
        columns += 1
        if not ok:
            unconverged += 1
    REGISTRY.counter(
        "repro_solver_solves_total",
        "Completed power-iteration solves",
        solver="batched",
    ).inc()
    REGISTRY.counter(
        "repro_solver_batched_columns_total",
        "Columns solved by the batched solver",
    ).inc(columns)
    REGISTRY.histogram(
        "repro_solver_batched_sweeps",
        "Matrix sweeps per batched solve",
        buckets=ITERATION_BUCKETS,
    ).observe(sweeps)
    REGISTRY.histogram(
        "repro_solver_runtime_seconds",
        "Wall-clock per solve",
        buckets=SECONDS_BUCKETS,
        solver="batched",
    ).observe(runtime_seconds)
    if unconverged:
        REGISTRY.counter(
            "repro_solver_unconverged_total",
            "Solves that hit the iteration cap before tolerance",
            solver="batched",
        ).inc(unconverged)
    if state.enabled():
        residual_list = list(residuals)
        damping_list = list(dampings)
        SOLVE_HISTORY.append(
            SolveRecord(
                solver="batched",
                iterations=int(sweeps),
                residual=float(max(residual_list)) if residual_list else 0.0,
                converged=unconverged == 0,
                damping=(
                    float(damping_list[0]) if damping_list else 0.0
                ),
                runtime_seconds=float(runtime_seconds),
                columns=columns,
                sweeps=int(sweeps),
                residual_tail=_trace_tail(residual_trace),
            )
        )


def record_divergence(solver: str, iterations: int) -> None:
    """Count a divergence-guard trip (NaN/Inf or stalled residual)."""
    REGISTRY.counter(
        "repro_solver_divergence_trips_total",
        "Divergence-guard trips (non-finite or stalled residuals)",
        solver=solver,
    ).inc()
    REGISTRY.gauge(
        "repro_solver_last_divergence_sweep",
        "Sweep index of the most recent divergence trip",
        solver=solver,
    ).set(iterations)


def record_workspace_allocation(size: int, num_bytes: int) -> None:
    """Count one workspace/gather buffer allocation from the kernels."""
    REGISTRY.counter(
        "repro_solver_workspace_allocations_total",
        "PowerIterationWorkspace (and gather buffer) allocations",
    ).inc()
    REGISTRY.counter(
        "repro_solver_workspace_bytes_total",
        "Bytes allocated for solver workspaces",
    ).inc(num_bytes)


def history_payload() -> list[dict]:
    """The solve history as JSON-safe dicts, oldest first."""
    return [record.to_payload() for record in SOLVE_HISTORY.items()]


def reset() -> None:
    """Clear the solve history (registry values are owned by REGISTRY)."""
    SOLVE_HISTORY.clear()
