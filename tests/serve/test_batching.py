"""Tests for the group-commit admission queue.

Driven directly (no HTTP, no real solver): a recording fake stands in
for ``solve_group``, so the tests can count solve invocations and
assert on the exact batch composition the batcher flushed.  A fake
gated on a :class:`threading.Event` holds one solve in flight, which
makes "arrived while a solve was running" deterministic.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.exceptions import (
    DeadlineExceededError,
    ServiceOverloadedError,
)
from repro.obs.metrics import MetricsRegistry
from repro.pagerank.result import SubgraphScores
from repro.serve.batching import BatchPolicy, RankBatcher

pytestmark = pytest.mark.serve

NODES = np.arange(10, dtype=np.int64)


def fake_scores(damping: float) -> SubgraphScores:
    return SubgraphScores(
        local_nodes=NODES.copy(),
        scores=np.full(NODES.size, damping),
        method="fake",
        iterations=1,
        residual=0.0,
        converged=True,
        runtime_seconds=0.0,
    )


class RecordingSolver:
    """solve_group stand-in that records every flushed batch.

    With a ``gate``, every solve blocks until the gate is set, so the
    first flushed batch stays in flight while a test submits more;
    ``entered`` is set once a solve has reached the solver.
    """

    def __init__(self, delay: float = 0.0, gate: threading.Event | None = None):
        self.calls: list[tuple] = []
        self.delay = delay
        self.gate = gate
        self.entered = threading.Event()

    def __call__(self, group_key, local_nodes, dampings):
        self.calls.append((group_key, dampings))
        self.entered.set()
        if self.gate is not None:
            self.gate.wait(timeout=5.0)
        if self.delay:
            import time

            time.sleep(self.delay)
        return [fake_scores(d) for d in dampings]


async def start_inflight(batcher, damping=0.5, key="g"):
    """Submit one request and let it flush; its solve is now in flight
    (and stays there while the solver's gate is closed)."""
    request = asyncio.ensure_future(batcher.submit(key, NODES, damping))
    await asyncio.sleep(0)
    return request


class TestCoalescing:
    def test_lone_request_reaches_solver_without_timer(self):
        gate = threading.Event()
        solver = RecordingSolver(gate=gate)
        batcher = RankBatcher(solver, BatchPolicy(), registry=MetricsRegistry())

        async def main():
            request = await start_inflight(batcher, 0.85)
            try:
                # Nothing else arrives and nothing is in flight: the
                # request is already flushed, not waiting in a queue.
                assert batcher.pending == 0
                entered = await asyncio.get_running_loop().run_in_executor(
                    None, solver.entered.wait, 5.0
                )
                assert entered
            finally:
                gate.set()
            return await request

        scores = asyncio.run(main())
        assert solver.calls == [("g", (0.85,))]
        assert scores.scores[0] == 0.85

    def test_arrivals_during_inflight_solve_flush_as_one_batch(self):
        gate = threading.Event()
        solver = RecordingSolver(gate=gate)
        batcher = RankBatcher(
            solver, BatchPolicy(max_batch_size=8), registry=MetricsRegistry()
        )

        async def main():
            first = await start_inflight(batcher)
            try:
                queued = [
                    asyncio.ensure_future(batcher.submit("g", NODES, d))
                    for d in (0.6, 0.7, 0.7)
                ]
                await asyncio.sleep(0)
                # Held behind the in-flight solve, not yet flushed.
                assert batcher.pending == 3
            finally:
                gate.set()
            return await asyncio.gather(first, *queued)

        results = asyncio.run(main())
        assert solver.calls == [("g", (0.5,)), ("g", (0.6, 0.7))]
        assert [r.scores[0] for r in results] == [0.5, 0.6, 0.7, 0.7]
        assert batcher.pending == 0

    def test_same_damping_joins_inflight_column(self):
        gate = threading.Event()
        solver = RecordingSolver(gate=gate)
        batcher = RankBatcher(
            solver, BatchPolicy(max_batch_size=8), registry=MetricsRegistry()
        )

        async def main():
            first = await start_inflight(batcher, 0.85)
            try:
                joiners = [
                    asyncio.ensure_future(batcher.submit("g", NODES, 0.85))
                    for _ in range(3)
                ]
                await asyncio.sleep(0)
                # Joined the running solve's waiters; nothing queued.
                assert batcher.pending == 0
            finally:
                gate.set()
            return await asyncio.gather(first, *joiners)

        results = asyncio.run(main())
        assert solver.calls == [("g", (0.85,))]
        assert len({id(r) for r in results}) == 1

    def test_concurrent_requests_coalesce_into_one_solve(self):
        gate = threading.Event()
        solver = RecordingSolver(gate=gate)
        batcher = RankBatcher(
            solver,
            BatchPolicy(max_batch_size=8),
            registry=MetricsRegistry(),
        )
        dampings = (0.6, 0.7, 0.8, 0.85)

        async def main():
            first = await start_inflight(batcher)
            try:
                burst = asyncio.gather(*[
                    batcher.submit("g", NODES, d) for d in dampings
                ])
                await asyncio.sleep(0)
            finally:
                gate.set()
            await first
            return await burst

        results = asyncio.run(main())
        # The burst behind the in-flight solve is one batched solve.
        assert solver.calls == [("g", (0.5,)), ("g", dampings)]
        for damping, scores in zip(dampings, results):
            assert scores.scores[0] == damping

    def test_full_group_flushes_before_inflight_solve_finishes(self):
        gate = threading.Event()
        solver = RecordingSolver(gate=gate)
        batcher = RankBatcher(
            solver,
            BatchPolicy(max_batch_size=2),
            registry=MetricsRegistry(),
        )

        async def main():
            first = await start_inflight(batcher)
            try:
                full = asyncio.gather(
                    batcher.submit("g", NODES, 0.6),
                    batcher.submit("g", NODES, 0.7),
                )
                await asyncio.sleep(0)
                # The size trigger flushed the group while the first
                # solve still holds the gate.
                assert batcher.pending == 0
            finally:
                gate.set()
            return await asyncio.wait_for(
                asyncio.gather(first, full), timeout=5.0
            )

        asyncio.run(main())
        assert sorted(call[1] for call in solver.calls) == [
            (0.5,), (0.6, 0.7)
        ]

    def test_same_damping_is_single_flight(self):
        solver = RecordingSolver()
        batcher = RankBatcher(
            solver,
            BatchPolicy(max_batch_size=8),
            registry=MetricsRegistry(),
        )

        async def main():
            return await asyncio.gather(*[
                batcher.submit("g", NODES, 0.85) for _ in range(5)
            ])

        results = asyncio.run(main())
        # Five waiters, one solve, one column.
        assert len(solver.calls) == 1
        assert solver.calls[0][1] == (0.85,)
        assert len({id(r) for r in results}) == 1

    def test_distinct_groups_solve_separately(self):
        solver = RecordingSolver()
        batcher = RankBatcher(
            solver,
            BatchPolicy(max_batch_size=8),
            registry=MetricsRegistry(),
        )

        async def main():
            return await asyncio.gather(
                batcher.submit("a", NODES, 0.85),
                batcher.submit("b", NODES, 0.85),
            )

        asyncio.run(main())
        assert len(solver.calls) == 2
        assert {call[0] for call in solver.calls} == {"a", "b"}

    def test_disabled_policy_means_batches_of_one(self):
        solver = RecordingSolver()
        batcher = RankBatcher(
            solver,
            BatchPolicy(enabled=False, max_batch_size=8),
            registry=MetricsRegistry(),
        )

        async def main():
            return await asyncio.gather(*[
                batcher.submit("g", NODES, d) for d in (0.6, 0.7, 0.8)
            ])

        asyncio.run(main())
        assert len(solver.calls) == 3
        assert all(len(call[1]) == 1 for call in solver.calls)

    def test_batch_size_histogram_observed(self):
        gate = threading.Event()
        registry = MetricsRegistry()
        batcher = RankBatcher(
            RecordingSolver(gate=gate),
            BatchPolicy(max_batch_size=8),
            registry=registry,
        )

        async def main():
            first = await start_inflight(batcher, 0.6)
            try:
                queued = asyncio.gather(*[
                    batcher.submit("g", NODES, d) for d in (0.7, 0.8)
                ])
                await asyncio.sleep(0)
            finally:
                gate.set()
            await asyncio.gather(first, queued)

        asyncio.run(main())
        family = registry.snapshot()["families"]["repro_serve_batch_size"]
        sample = family["samples"][0]
        # One lone column, then the two that queued behind it.
        assert sample["count"] == 2
        assert sample["sum"] == 3.0


class TestAdmissionControl:
    def test_overload_rejected_immediately(self):
        gate = threading.Event()
        solver = RecordingSolver(gate=gate)
        registry = MetricsRegistry()
        batcher = RankBatcher(
            solver,
            # Roomy batches behind a held solve keep the next two
            # requests *queued*; the bounded depth refuses the third.
            BatchPolicy(max_batch_size=8, max_pending=2),
            registry=registry,
        )

        async def main():
            first = await start_inflight(batcher)
            try:
                second = asyncio.ensure_future(
                    batcher.submit("g", NODES, 0.6)
                )
                third = asyncio.ensure_future(
                    batcher.submit("g", NODES, 0.7)
                )
                await asyncio.sleep(0)  # let both enqueue
                assert batcher.pending == 2
                with pytest.raises(
                    ServiceOverloadedError, match="queue full"
                ):
                    await batcher.submit("g", NODES, 0.8)
            finally:
                gate.set()
            await batcher.drain()
            await asyncio.gather(first, second, third)

        asyncio.run(main())
        families = registry.snapshot()["families"]
        rejected = families["repro_serve_rejected_total"]["samples"]
        by_reason = {
            s["labels"]["reason"]: s["value"] for s in rejected
        }
        assert by_reason.get("overloaded") == 1

    def test_deadline_exceeded_while_solving(self):
        solver = RecordingSolver(delay=0.5)
        batcher = RankBatcher(
            solver,
            BatchPolicy(max_batch_size=1),
            registry=MetricsRegistry(),
        )

        async def main():
            with pytest.raises(DeadlineExceededError, match="deadline"):
                await batcher.submit(
                    "g", NODES, 0.85, deadline_seconds=0.05
                )
            await batcher.drain()

        asyncio.run(main())
        # The solve itself still ran (it was shielded, not cancelled).
        assert len(solver.calls) == 1

    def test_expired_in_queue_not_solved(self):
        gate = threading.Event()
        solver = RecordingSolver(gate=gate)
        registry = MetricsRegistry()
        batcher = RankBatcher(
            solver,
            BatchPolicy(max_batch_size=8),
            registry=registry,
        )

        async def main():
            first = await start_inflight(batcher)
            try:
                request = asyncio.ensure_future(
                    batcher.submit("g", NODES, 0.7, deadline_seconds=0.01)
                )
                # The deadline passes while queued behind the held
                # solve.
                await asyncio.sleep(0.05)
            finally:
                gate.set()
            await first
            await batcher.drain()
            with pytest.raises(DeadlineExceededError):
                await request

        asyncio.run(main())
        assert solver.calls == [("g", (0.5,))], (
            "expired request must not solve"
        )
        families = registry.snapshot()["families"]
        rejected = {
            s["labels"]["reason"]: s["value"]
            for s in families["repro_serve_rejected_total"]["samples"]
        }
        assert rejected.get("expired_in_queue") == 1

    def test_nonpositive_deadline_rejected(self):
        batcher = RankBatcher(
            RecordingSolver(), registry=MetricsRegistry()
        )

        async def main():
            with pytest.raises(DeadlineExceededError, match="positive"):
                await batcher.submit(
                    "g", NODES, 0.85, deadline_seconds=0.0
                )

        asyncio.run(main())

    def test_solver_error_propagates_to_every_waiter(self):
        def broken(group_key, local_nodes, dampings):
            raise RuntimeError("solver exploded")

        batcher = RankBatcher(
            broken,
            BatchPolicy(max_batch_size=8),
            registry=MetricsRegistry(),
        )

        async def main():
            results = await asyncio.gather(
                batcher.submit("g", NODES, 0.6),
                batcher.submit("g", NODES, 0.7),
                return_exceptions=True,
            )
            return results

        results = asyncio.run(main())
        assert all(
            isinstance(r, RuntimeError) for r in results
        )

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            BatchPolicy(max_batch_size=0)
        with pytest.raises(ValueError, match="max_pending"):
            BatchPolicy(max_pending=0)
        with pytest.raises(ValueError, match="default_deadline_seconds"):
            BatchPolicy(default_deadline_seconds=0.0)


class TestDrain:
    def test_drain_answers_queued_requests(self):
        gate = threading.Event()
        solver = RecordingSolver(gate=gate)
        batcher = RankBatcher(
            solver,
            BatchPolicy(max_batch_size=8),
            registry=MetricsRegistry(),
        )

        async def main():
            first = await start_inflight(batcher)
            try:
                pending = asyncio.ensure_future(
                    batcher.submit("g", NODES, 0.85)
                )
                await asyncio.sleep(0)
                assert batcher.pending == 1
                drain = asyncio.ensure_future(batcher.drain())
                await asyncio.sleep(0)
                # Drain flushed the group queued behind the held solve
                # without waiting for that solve to finish.
                assert batcher.pending == 0
            finally:
                gate.set()
            await drain
            await first
            return await asyncio.wait_for(pending, timeout=1.0)

        scores = asyncio.run(main())
        assert scores.scores[0] == 0.85
        assert batcher.pending == 0
        assert sorted(call[1] for call in solver.calls) == [
            (0.5,), (0.85,)
        ]
