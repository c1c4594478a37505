"""Group-commit batching and admission control for cold requests.

A burst of concurrent ``/rank`` requests against the same subgraph is
the serving-side mirror of the multi-vector batch solver (PR 1): K
walks over one extended matrix cost one sparse mat-mat per iteration
instead of K mat-vecs.  The :class:`RankBatcher` exploits that with
**group commit**, keyed by (graph fingerprint, subgraph digest):

* a request whose key has no solve in flight flushes at once, as a
  batch of one — a lone cold request never waits on a timer;
* a request arriving while its key's solve is in flight joins that
  key's pending group, which flushes as **one** batched solve when the
  in-flight solve finishes (or sooner, once it holds
  ``max_batch_size`` requests);
* requests with the *same* damping factor are deduplicated
  (single-flight): a request whose damping matches a column of the
  in-flight solve joins that solve's waiters, and same-damping
  requests in a pending group share one column;
* requests with *distinct* dampings become distinct columns of a
  single batched solve — the group shares one matrix sweep per
  iteration.

Batching therefore costs latency only when it can coalesce: the
requests it holds back would otherwise queue behind the in-flight
solve anyway.

Admission control is deliberately unforgiving, in the spirit of the
resilience layer's deadlines (PR 3):

* the total pending depth is bounded; a request arriving at a full
  queue is rejected immediately with
  :class:`~repro.exceptions.ServiceOverloadedError` (a 503 on the
  wire) rather than queued into certain timeout;
* every request carries a deadline; a queued request whose deadline
  passes before its batch is solved is dropped without spending solver
  time on it, and a waiter whose solve outlives the deadline gets
  :class:`~repro.exceptions.DeadlineExceededError` while the solve
  itself continues for the batch's surviving waiters (the underlying
  future is shielded).

Solves run on a caller-supplied executor thread so the event loop
stays responsive while NumPy grinds.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

import numpy as np

from repro.exceptions import (
    DeadlineExceededError,
    ServiceOverloadedError,
)
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.pagerank.result import SubgraphScores

__all__ = ["BatchPolicy", "RankBatcher"]

#: Bucket bounds for the batch-size histogram (how well coalescing
#: works; 1 = no batching benefit, max_batch_size = perfect bursts).
BATCH_SIZE_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs of the group-commit admission queue.

    A group waits only while a solve for its key is in flight; no
    timer ever holds a request back.

    Attributes
    ----------
    max_batch_size:
        Flush a pending group as soon as it holds this many requests,
        without waiting for the in-flight solve to finish.
    max_pending:
        Total queued requests (across groups) before new arrivals are
        rejected with :class:`ServiceOverloadedError`.
    default_deadline_seconds:
        Deadline applied to requests that do not carry their own.
    enabled:
        ``False`` disables coalescing: every request flushes
        immediately as a batch of one (the sequential baseline the
        serve benchmark compares against).
    """

    max_batch_size: int = 8
    max_pending: int = 256
    default_deadline_seconds: float = 30.0
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        if self.default_deadline_seconds <= 0:
            raise ValueError(
                "default_deadline_seconds must be positive, got "
                f"{self.default_deadline_seconds}"
            )


@dataclass
class _Pending:
    damping: float
    future: asyncio.Future
    deadline_at: float


@dataclass
class _Batch:
    """Requests for one group key, bucketed by damping (one column
    per bucket): a pending group while queued, then the waiters of its
    solve once flushed."""

    local_nodes: np.ndarray
    waiters: dict[float, list[_Pending]] = field(default_factory=dict)
    size: int = 0

    def add(self, request: _Pending) -> None:
        self.waiters.setdefault(request.damping, []).append(request)
        self.size += 1


#: Solve callback: (group_key, local_nodes, dampings) -> one
#: SubgraphScores per damping, in order.  Runs on the executor thread.
SolveGroup = Callable[
    [Hashable, np.ndarray, tuple[float, ...]],
    Sequence[SubgraphScores],
]


class RankBatcher:
    """Coalesce concurrent cold requests into batched solves.

    Parameters
    ----------
    solve_group:
        Synchronous callback performing the actual solve for one
        group; invoked on ``executor`` with the group key, the shared
        local node array, and the deduplicated damping factors.
    policy:
        Batching and admission knobs.
    executor:
        Where solves run; ``None`` uses the event loop's default
        thread pool.
    registry:
        Metrics registry for queue/batch telemetry.
    """

    def __init__(
        self,
        solve_group: SolveGroup,
        policy: BatchPolicy | None = None,
        executor: Executor | None = None,
        registry: MetricsRegistry | None = None,
    ):
        self._solve_group = solve_group
        self.policy = policy if policy is not None else BatchPolicy()
        self._executor = executor
        self._registry = registry if registry is not None else REGISTRY
        # Queued behind an in-flight solve, per group key.
        self._groups: dict[Hashable, _Batch] = {}
        # The most recently flushed batch per group key, until its
        # solve finishes.
        self._solving: dict[Hashable, _Batch] = {}
        self._total_pending = 0
        self._inflight: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests currently queued (not yet flushed to a solve)."""
        return self._total_pending

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    async def submit(
        self,
        group_key: Hashable,
        local_nodes: np.ndarray,
        damping: float,
        deadline_seconds: float | None = None,
    ) -> SubgraphScores:
        """Queue one request and await its scores.

        Raises
        ------
        ServiceOverloadedError
            When the admission queue is full (rejected on arrival).
        DeadlineExceededError
            When the deadline expires before the result is ready.
        """
        loop = asyncio.get_running_loop()
        deadline = (
            float(deadline_seconds)
            if deadline_seconds is not None
            else self.policy.default_deadline_seconds
        )
        if deadline <= 0:
            raise DeadlineExceededError(
                f"deadline must be positive, got {deadline}",
                deadline_seconds=deadline,
            )
        if self._total_pending >= self.policy.max_pending:
            self._registry.counter(
                "repro_serve_rejected_total",
                "Requests refused by admission control, by reason.",
                reason="overloaded",
            ).inc()
            raise ServiceOverloadedError(
                f"admission queue full ({self.policy.max_pending} "
                f"pending); retry later"
            )

        request = _Pending(
            damping=float(damping),
            future=loop.create_future(),
            deadline_at=loop.time() + deadline,
        )
        solving = (
            self._solving.get(group_key) if self.policy.enabled else None
        )
        if solving is None:
            # Nothing to coalesce with: flush at once.
            batch = _Batch(local_nodes=local_nodes)
            batch.add(request)
            self._start(group_key, batch)
        elif request.damping in solving.waiters:
            # Single-flight: the in-flight column answers this too.
            solving.waiters[request.damping].append(request)
        else:
            group = self._groups.get(group_key)
            if group is None:
                group = _Batch(local_nodes=local_nodes)
                self._groups[group_key] = group
            group.add(request)
            self._total_pending += 1
            if group.size >= self.policy.max_batch_size:
                self._flush(group_key)

        try:
            # Shield the shared future: one waiter timing out must not
            # cancel the solve other waiters are still counting on.
            return await asyncio.wait_for(
                asyncio.shield(request.future), timeout=deadline
            )
        except asyncio.TimeoutError:
            self._registry.counter(
                "repro_serve_rejected_total",
                "Requests refused by admission control, by reason.",
                reason="deadline",
            ).inc()
            raise DeadlineExceededError(
                f"request missed its {deadline:g}s deadline",
                deadline_seconds=deadline,
            ) from None

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------

    def _flush(self, group_key: Hashable) -> None:
        """Detach a pending group from the queue and start its solve."""
        group = self._groups.pop(group_key, None)
        if group is None:
            return
        self._total_pending -= group.size
        self._start(group_key, group)

    def _start(self, group_key: Hashable, batch: _Batch) -> None:
        self._solving[group_key] = batch
        task = asyncio.get_running_loop().create_task(
            self._run_batch(group_key, batch)
        )
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run_batch(self, group_key: Hashable, batch: _Batch) -> None:
        try:
            await self._solve_batch(group_key, batch)
        finally:
            if self._solving.get(group_key) is batch:
                del self._solving[group_key]
            # Group commit: whatever queued behind this solve goes
            # out now, as one batch.
            self._flush(group_key)

    async def _solve_batch(self, group_key: Hashable, batch: _Batch) -> None:
        loop = asyncio.get_running_loop()
        now = loop.time()
        for damping, bucket in list(batch.waiters.items()):
            live: list[_Pending] = []
            for request in bucket:
                if request.deadline_at > now:
                    live.append(request)
                    continue
                # Expired while queued: fail it without solving.
                if not request.future.done():
                    request.future.set_exception(
                        DeadlineExceededError(
                            "deadline expired before the batch was "
                            "solved",
                        )
                    )
                self._registry.counter(
                    "repro_serve_rejected_total",
                    "Requests refused by admission control, by reason.",
                    reason="expired_in_queue",
                ).inc()
            if live:
                batch.waiters[damping] = live
            else:
                del batch.waiters[damping]
        if not batch.waiters:
            return

        # One solve column per distinct damping; later same-damping
        # arrivals append to the live buckets while the solve runs.
        dampings = tuple(batch.waiters)
        self._registry.histogram(
            "repro_serve_batch_size",
            "Distinct solve columns per flushed micro-batch.",
            buckets=BATCH_SIZE_BUCKETS,
        ).observe(len(dampings))

        try:
            results = await loop.run_in_executor(
                self._executor,
                self._solve_group,
                group_key,
                batch.local_nodes,
                dampings,
            )
        except Exception as exc:  # propagate to every waiter
            for bucket in batch.waiters.values():
                for request in bucket:
                    if not request.future.done():
                        request.future.set_exception(exc)
            return
        for damping, scores in zip(dampings, results):
            for request in batch.waiters[damping]:
                if not request.future.done():
                    request.future.set_result(scores)

    async def drain(self) -> None:
        """Flush everything queued and wait for in-flight solves.

        Called on graceful shutdown so accepted requests are answered
        before the server exits; groups queued behind an in-flight
        solve flush at once rather than waiting for it.
        """
        for group_key in list(self._groups):
            self._flush(group_key)
        while self._inflight:
            await asyncio.gather(
                *list(self._inflight), return_exceptions=True
            )
