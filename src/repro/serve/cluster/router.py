"""The shard router: one front door over a replicated worker fleet.

The router owns no solver.  It classifies, retries, breaks circuits,
sheds load, and — when a whole shard is gone — degrades honestly.  The
serving contract it enforces end to end:

    every ranked response is **bit-identical fresh**, or **flagged
    stale within the Theorem-2 budget**, or an **honest 503** — never
    silently wrong.

Mechanisms, in the order a request meets them:

* **load shedding** — beyond ``max_inflight`` concurrent forwards the
  request is refused on arrival (503 + ``Retry-After``) instead of
  queueing into timeout purgatory;
* **consistent-hash routing** — every ranked route of
  :data:`~repro.serve.server.ROUTES` is forwarded to the shard its
  placement key (the subgraph digest, or the query-terms digest for
  ``/semantic-search``) picks via the manager's
  :class:`~repro.p2p.partition.HashRing`, so a hot query always warms
  the same shard's caches;
* **failure-classified retries** — transport failures go through
  :func:`~repro.resilience.policy.classify_failure` (connect resets
  and timeouts are retryable), HTTP statuses through
  :func:`~repro.resilience.policy.classify_http_status` (503/429
  retryable with ``Retry-After`` honoured, other 4xx/500 passed
  through verbatim — replaying a deterministic failure is not
  resilience); pacing and attempt caps come from a
  :class:`~repro.resilience.policy.RetryPolicy`, and every attempt is
  recorded as an :class:`~repro.resilience.policy.AttemptRecord`;
* **per-replica circuit breakers** — repeated failures open the
  breaker (seeded-jitter reopen), keeping the retry budget for
  replicas that might actually answer;
* **health-based ejection** — a background prober ejects replicas
  after consecutive ``/healthz`` failures and re-admits them when
  health *and* graph fingerprint are good again;
* **fingerprint gating** — a ranked 200 whose ``graph_fingerprint``
  differs from the router's current graph is treated as a retryable
  failure (the replica has not absorbed an update yet); this is what
  makes "never silently wrong" hold across update propagation races;
* **deadline propagation** — the remaining budget rides the
  ``X-Repro-Deadline`` header so a shard never solves for a caller
  that has already given up;
* **graceful degradation** — with every replica of a shard down, the
  router serves a ``/rank`` request the last-known scores from its own replicated
  :class:`~repro.serve.store.ScoreStore`, flagged ``degraded`` (and
  ``stale`` + charged when they predate an update — the store's
  budget double-check guarantees over-budget entries are never
  served); with nothing in the store — or, for an accuracy request
  (``?estimator=push:r_max=x``), nothing whose certified bound meets
  ``r_max`` — an honest 503 carrying the full attempt history.
"""

from __future__ import annotations

import asyncio
import logging
import time
from dataclasses import replace

from repro.exceptions import ServiceOverloadedError
from repro.graph.digraph import CSRGraph
from repro.obs.metrics import SECONDS_BUCKETS
from repro.resilience.policy import (
    AttemptRecord,
    RetryPolicy,
    classify_failure,
    classify_http_status,
)
from repro.serve.cluster.breaker import CircuitBreaker
from repro.serve.cluster.http import http_request
from repro.estimation.push import resolve_estimator
from repro.serve.cluster.manager import ShardManager
from repro.serve.server import (
    BackgroundServer,
    DEADLINE_HEADER,
    RankingServer,
    RankOutcome,
    Request,
    Route,
)
from repro.serve.store import ScoreStore, StoreHit, graph_fingerprint
from repro.serve.wire import rank_body, scores_from_payload
from repro.updates.delta import GraphDelta, apply_delta

__all__ = ["ShardRouter", "ClusterHandle", "start_cluster"]

log = logging.getLogger(__name__)


class _NullService:
    """The router serves no solver of its own; this stands in for the
    :class:`RankingService` the base server lifecycle expects."""

    async def close(self) -> None:
        return None


class _ReplicaState:
    """The router's live view of one replica.

    The handle is resolved through the manager on every access, so a
    replica the manager restarted (new port, new process) is picked up
    without re-registration.
    """

    def __init__(
        self,
        manager: ShardManager,
        shard: int,
        replica: int,
        breaker: CircuitBreaker,
    ):
        self.shard = shard
        self.replica = replica
        self._manager = manager
        self.breaker = breaker
        self.ejected = False
        self.synced = True
        self.consecutive_failures = 0

    @property
    def handle(self):
        return self._manager.handle(self.shard, self.replica)

    @property
    def name(self) -> str:
        return f"shard-{self.shard}/replica-{self.replica}"

    @property
    def admissible(self) -> bool:
        """Whether the router may forward a request here right now."""
        return (
            not self.ejected and self.synced and self.breaker.allows()
        )


class ShardRouter(RankingServer):
    """HTTP front door over a :class:`ShardManager` fleet.

    Parameters
    ----------
    manager:
        The replica fleet (booted here if not already started).
    retry_policy:
        Attempt cap and backoff pacing for forwards; the default is
        tuned for sub-second failover.
    store:
        The router's replicated last-known-scores store (degraded
        serving); a default :class:`ScoreStore` is created when
        omitted.
    attempt_timeout:
        Per-forward timeout; the effective per-attempt budget is the
        tighter of this and the request's remaining deadline.
    default_deadline_seconds:
        End-to-end budget applied when the request carries none.
    max_inflight:
        Concurrent-forward cap; excess requests are shed with 503.
    probe_interval / probe_timeout / eject_threshold:
        Health-prober cadence, per-probe timeout, and how many
        consecutive probe failures eject a replica.
    breaker_threshold / breaker_reset:
        Circuit-breaker trip count and base reopen delay.
    seed:
        Seeds the deterministic jitter of backoffs and breaker reopens.
    """

    def __init__(
        self,
        manager: ShardManager,
        retry_policy: RetryPolicy | None = None,
        store: ScoreStore | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        attempt_timeout: float = 2.0,
        default_deadline_seconds: float | None = None,
        max_inflight: int = 64,
        probe_interval: float = 0.25,
        probe_timeout: float = 0.5,
        eject_threshold: int = 2,
        breaker_threshold: int = 3,
        breaker_reset: float = 0.5,
        seed: int = 2009,
        update_timeout: float = 60.0,
        registry=None,
    ):
        super().__init__(
            _NullService(), host=host, port=port, registry=registry
        )
        manager.start()
        self._manager = manager
        self._graph: CSRGraph = manager.graph
        self._fingerprint = graph_fingerprint(manager.graph)[:16]
        self._store = (
            store
            if store is not None
            else ScoreStore(registry=self._registry)
        )
        self._retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(
                max_attempts=3,
                backoff_base=0.02,
                backoff_max=0.25,
                seed=seed,
            )
        )
        if attempt_timeout <= 0:
            raise ValueError(
                f"attempt_timeout must be positive, got {attempt_timeout}"
            )
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if eject_threshold < 1:
            raise ValueError(
                f"eject_threshold must be >= 1, got {eject_threshold}"
            )
        self._attempt_timeout = float(attempt_timeout)
        self._default_deadline = default_deadline_seconds
        self._max_inflight = int(max_inflight)
        self._probe_interval = float(probe_interval)
        self._probe_timeout = float(probe_timeout)
        self._eject_threshold = int(eject_threshold)
        self._update_timeout = float(update_timeout)
        self._inflight = 0
        self._prober_task: asyncio.Task | None = None
        self._update_lock = asyncio.Lock()
        self._states: dict[tuple[int, int], _ReplicaState] = {}
        for index, handle in enumerate(manager.all()):
            key = (handle.shard, handle.replica)
            self._states[key] = _ReplicaState(
                manager,
                handle.shard,
                handle.replica,
                CircuitBreaker(
                    failure_threshold=breaker_threshold,
                    reset_timeout=breaker_reset,
                    seed=seed + 101 * index,
                ),
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def ring(self):
        return self._manager.ring

    @property
    def fingerprint(self) -> str:
        """Short fingerprint of the cluster's current graph."""
        return self._fingerprint

    @property
    def store(self) -> ScoreStore:
        return self._store

    def replica_states(self) -> "list[_ReplicaState]":
        return [self._states[key] for key in sorted(self._states)]

    def cluster_health(self) -> dict:
        """The router's ``/healthz`` payload."""
        replicas = {}
        shard_ready = {s: 0 for s in range(self._manager.num_shards)}
        for state in self.replica_states():
            if state.admissible:
                shard_ready[state.shard] += 1
            replicas[state.name] = {
                "address": list(state.handle.address),
                "placement": state.handle.placement,
                "ejected": state.ejected,
                "synced": state.synced,
                "breaker": state.breaker.state,
                "consecutive_probe_failures": (
                    state.consecutive_failures
                ),
            }
        degraded_shards = [
            shard for shard, ready in shard_ready.items() if not ready
        ]
        return {
            "status": "degraded" if degraded_shards else "ok",
            "role": "router",
            "graph_fingerprint": self._fingerprint,
            "shards": self._manager.num_shards,
            "replicas_per_shard": self._manager.replicas_per_shard,
            "placement": self._manager.placement,
            "degraded_shards": degraded_shards,
            "inflight": self._inflight,
            "max_inflight": self._max_inflight,
            "replicas": replicas,
            "store": self._store.stats(),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        address = await super().start()
        self._prober_task = asyncio.create_task(self._probe_loop())
        return address

    async def stop(self) -> None:
        if self._prober_task is not None:
            self._prober_task.cancel()
            await asyncio.gather(
                self._prober_task, return_exceptions=True
            )
            self._prober_task = None
        await super().stop()

    # ------------------------------------------------------------------
    # Health probing: ejection and re-admission
    # ------------------------------------------------------------------

    async def _probe_loop(self) -> None:
        while True:
            await asyncio.sleep(self._probe_interval)
            await asyncio.gather(
                *(
                    self._probe_one(state)
                    for state in self._states.values()
                ),
                return_exceptions=True,
            )

    async def _probe_one(self, state: _ReplicaState) -> None:
        try:
            response = await http_request(
                *state.handle.address,
                "GET",
                "/healthz",
                timeout=self._probe_timeout,
            )
            payload = response.json()
            healthy = (
                response.status == 200
                and isinstance(payload, dict)
                and payload.get("status") == "ok"
            )
            fingerprint = (
                payload.get("graph_fingerprint")
                if isinstance(payload, dict)
                else None
            )
        except Exception:  # noqa: BLE001 — any probe failure counts
            healthy = False
            fingerprint = None
        if healthy:
            state.consecutive_failures = 0
            state.synced = fingerprint == self._fingerprint
            if state.ejected and state.synced:
                state.ejected = False
                log.info("re-admitted %s (healthy probe)", state.name)
                self._registry.counter(
                    "repro_cluster_readmissions_total",
                    "Replicas re-admitted after passing health probes.",
                ).inc()
        else:
            state.consecutive_failures += 1
            if (
                not state.ejected
                and state.consecutive_failures >= self._eject_threshold
            ):
                state.ejected = True
                log.warning(
                    "ejected %s after %d failed probes",
                    state.name,
                    state.consecutive_failures,
                )
                self._registry.counter(
                    "repro_cluster_ejections_total",
                    "Replicas ejected after consecutive failed "
                    "health probes.",
                ).inc()
        self._registry.gauge(
            "repro_cluster_breaker_state",
            "Circuit-breaker state per replica "
            "(0 closed, 1 half-open, 2 open).",
            replica=state.name,
        ).set(state.breaker.state_code)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _answer(self, route: Route, request: Request):
        """Forward every ranked route; answer the rest here."""
        if not route.ranked:
            return await super()._answer(route, request)
        if self._inflight >= self._max_inflight:
            self._count_outcome(request.path, "shed")
            raise ServiceOverloadedError(
                f"router at max inflight ({self._max_inflight}); "
                "retry later"
            )
        self._inflight += 1
        started = time.perf_counter()
        try:
            return await self._forward(route, request)
        finally:
            self._inflight -= 1
            self._registry.histogram(
                "repro_cluster_forward_seconds",
                "End-to-end routed request latency (including "
                "retries and failover).",
                buckets=SECONDS_BUCKETS,
                endpoint=request.path,
            ).observe(time.perf_counter() - started)

    async def _healthz(self, request: Request):
        return 200, self.cluster_health()

    def _count_outcome(self, endpoint: str, outcome: str) -> None:
        self._registry.counter(
            "repro_cluster_requests_total",
            "Requests through the shard router, by endpoint and "
            "outcome.",
            endpoint=endpoint,
            outcome=outcome,
        ).inc()

    def _count_retry(self, error: str) -> None:
        self._registry.counter(
            "repro_cluster_retries_total",
            "Forward attempts that failed and were retried or "
            "abandoned, by error type.",
            error=error,
        ).inc()

    def _resolve_damping(self, damping: float | None) -> float:
        if damping is None:
            return self._manager.settings.damping
        return damping

    async def _forward(self, route: Route, request: Request):
        path = request.path
        # /rank is the one route whose answers the router's store can
        # keep, and replay flagged degraded when a whole shard is dark.
        degradable = path == "/rank"
        damping = self._resolve_damping(request.damping())
        shard = self.ring.shard_for(route.placement(request))
        target = f"{path}?{request.query}" if request.query else path
        deadline = request.deadline
        if deadline is None:
            deadline = self._default_deadline
        start = time.monotonic()
        deadline_at = (
            start + float(deadline) if deadline is not None else None
        )
        policy = self._retry_policy
        attempts: list[AttemptRecord] = []
        rotation = 0

        for attempt in range(1, policy.max_attempts + 1):
            last = attempt == policy.max_attempts
            remaining = None
            if deadline_at is not None:
                remaining = deadline_at - time.monotonic()
                if remaining <= 0:
                    attempts.append(self._attempt(
                        attempt, "DeadlineExceededError",
                        "end-to-end deadline spent before forwarding",
                        retryable=False, action="degrade", start=start,
                    ))
                    break
            state = self._pick_replica(shard, rotation)
            if state is None:
                attempts.append(self._attempt(
                    attempt, "NoReplicaAvailable",
                    f"no admissible replica for shard {shard}",
                    retryable=True,
                    action="degrade" if last else "retry",
                    start=start,
                ))
                if not last:
                    await self._pause(policy.backoff(attempt), deadline_at)
                continue
            rotation += 1
            timeout = self._attempt_timeout
            forward_headers: dict[str, str] = {}
            if remaining is not None:
                timeout = min(timeout, remaining)
                forward_headers[DEADLINE_HEADER] = f"{remaining:.6f}"
            try:
                response = await http_request(
                    *state.handle.address,
                    "POST",
                    target,
                    body=request.raw_body,
                    headers=forward_headers,
                    timeout=timeout,
                )
            except Exception as exc:  # noqa: BLE001 — classified below
                decision = classify_failure(exc)
                state.breaker.record_failure()
                self._count_retry(type(exc).__name__)
                attempts.append(self._attempt(
                    attempt, type(exc).__name__, str(exc),
                    retryable=decision.retryable,
                    action=(
                        "degrade"
                        if last or not decision.retryable
                        else "retry"
                    ),
                    start=start,
                ))
                if not decision.retryable:
                    break
                if not last:
                    await self._pause(policy.backoff(attempt), deadline_at)
                continue

            if response.status < 400:
                payload = response.json()
                if not isinstance(payload, dict):
                    payload = {}
                replica_fp = payload.get("graph_fingerprint")
                if replica_fp != self._fingerprint:
                    # The replica answered from a different graph (or
                    # did not say which) — correct bytes for the wrong
                    # operator.  Retryable: the prober re-admits it
                    # once it catches up.
                    state.synced = False
                    state.breaker.record_failure()
                    self._count_retry("GraphFingerprintMismatch")
                    attempts.append(self._attempt(
                        attempt, "GraphFingerprintMismatch",
                        f"{state.name} served graph {replica_fp}, "
                        f"cluster is at {self._fingerprint}",
                        retryable=True,
                        action="degrade" if last else "retry",
                        start=start,
                    ))
                    continue
                state.breaker.record_success()
                if degradable:
                    self._remember(payload, damping)
                self._count_outcome(
                    path, "stale" if payload.get("stale") else "ok"
                )
                return 200, payload

            decision = classify_http_status(response.status)
            if not decision.retryable:
                # The replica is healthy; the *request* is wrong (4xx)
                # or deterministically failing (500).  Pass it through
                # verbatim — replaying it elsewhere replays the bug.
                state.breaker.record_success()
                self._count_outcome(path, "fatal")
                return response.status, response.json()
            state.breaker.record_failure()
            self._count_retry(f"http_{response.status}")
            attempts.append(self._attempt(
                attempt, f"Http{response.status}",
                str(
                    (response.json() or {}).get("error", "")
                    if isinstance(response.json(), dict)
                    else ""
                ),
                retryable=True,
                action="degrade" if last else "retry",
                start=start,
            ))
            if not last:
                await self._pause(
                    policy.retry_pause(
                        attempt, response.headers.get("retry-after")
                    ),
                    deadline_at,
                )

        hit = (
            self._store.lookup(self._graph, request.nodes(), damping)
            if degradable
            else None
        )
        outcome = None
        if hit is not None:
            outcome = self._degraded_outcome(hit, request, damping)
        return self._degraded_answer(path, outcome, shard, attempts)

    def _attempt(
        self,
        attempt: int,
        error_type: str,
        message: str,
        retryable: bool,
        action: str,
        start: float,
    ) -> AttemptRecord:
        record = AttemptRecord(
            attempt=attempt,
            stage="forward",
            error_type=error_type,
            message=message[:200],
            retryable=retryable,
            action=action,
            elapsed_seconds=time.monotonic() - start,
        )
        log.info("router: %s", record.describe())
        return record

    async def _pause(
        self, seconds: float, deadline_at: float | None
    ) -> None:
        if deadline_at is not None:
            seconds = min(
                seconds, max(deadline_at - time.monotonic(), 0.0)
            )
        if seconds > 0:
            await asyncio.sleep(seconds)

    def _pick_replica(
        self, shard: int, rotation: int
    ) -> _ReplicaState | None:
        ready = [
            self._states[(shard, replica)]
            for replica in range(self._manager.replicas_per_shard)
            if self._states[(shard, replica)].admissible
        ]
        if not ready:
            return None
        return ready[rotation % len(ready)]

    # ------------------------------------------------------------------
    # Degraded serving (router-local replicated store)
    # ------------------------------------------------------------------

    def _remember(self, payload: dict, damping: float) -> None:
        """Replicate a successful /rank answer into the router store.

        These are the last-known scores degraded mode serves; entries
        inherit the payload's staleness accounting verbatim, and
        update-time charging (:meth:`ScoreStore.apply_update`) plus
        the store's lookup-time budget double-check keep the Theorem-2
        guarantee intact even for answers served with every shard
        dark.
        """
        try:
            scores = scores_from_payload(payload)
        except (KeyError, TypeError, ValueError):
            return
        self._store.put(
            self._graph,
            scores.local_nodes,
            damping,
            scores,
            stale=bool(payload.get("stale")),
            staleness=float(payload.get("staleness", 0.0)),
        )

    def _degraded_outcome(
        self, hit: StoreHit, request: Request, damping: float
    ) -> RankOutcome | None:
        """The last-known answer to ``request``; ``None`` when it is an
        accuracy request the entry's certified bound cannot meet."""
        outcome = RankOutcome(
            hit.scores,
            cache_hit=True,
            stale=hit.stale,
            staleness=hit.staleness,
            entry=hit.entry,
        )
        accuracy = resolve_estimator(request.estimator)
        if accuracy is None:
            return outcome
        bound = accuracy.error_bound(
            hit.scores,
            replace(self._manager.settings, damping=damping),
            hit.staleness,
        )
        if bound > accuracy.r_max:
            return None
        return replace(outcome, estimator="push", error_bound=bound)

    def _degraded_answer(
        self,
        path: str,
        outcome: RankOutcome | None,
        shard: int,
        attempts: list[AttemptRecord],
    ):
        """Last-known scores flagged ``degraded``, or an honest 503."""
        if outcome is not None:
            body = rank_body(outcome, self._fingerprint, degraded=True)
            self._count_outcome(path, "degraded")
            log.warning(
                "shard %d unavailable; served last-known scores "
                "(stale=%s, staleness=%.3g) after %d attempt(s)",
                shard,
                outcome.stale,
                outcome.staleness,
                len(attempts),
            )
            return 200, body
        self._count_outcome(path, "unavailable")
        return 503, {
            "error": (
                f"shard {shard} is unavailable and no last-known "
                "scores are within the staleness budget and the "
                "requested r_max"
            ),
            "kind": "ShardUnavailableError",
            "shard": shard,
            "attempts": [record.describe() for record in attempts],
        }

    # ------------------------------------------------------------------
    # Cluster-wide updates
    # ------------------------------------------------------------------

    async def _update(self, request: Request):
        """Apply the delta here, then fan it out to every replica."""
        delta = GraphDelta.from_payload(
            request.body.get("delta", request.body)
        )
        loop = asyncio.get_running_loop()
        async with self._update_lock:
            old_graph = self._graph
            new_graph = await loop.run_in_executor(
                None, apply_delta, old_graph, delta
            )
            report = await loop.run_in_executor(
                None,
                lambda: self._store.apply_update(
                    old_graph, new_graph, delta=delta
                ),
            )
            # Flip identity *before* pushing: from this instant,
            # answers from not-yet-updated replicas fail the
            # fingerprint gate (retry → degrade) instead of being
            # served as silently-wrong fresh results.
            self._graph = new_graph
            self._fingerprint = graph_fingerprint(new_graph)[:16]
            self._manager.note_graph(new_graph)
            for state in self._states.values():
                state.synced = False
            results = await asyncio.gather(
                *(
                    self._push_update(state, request.raw_body)
                    for state in self._states.values()
                ),
                return_exceptions=True,
            )
        updated = sum(1 for result in results if result is True)
        return 200, {
            "graph_fingerprint": self._fingerprint,
            "graph_nodes": self._graph.num_nodes,
            "replicas_updated": updated,
            "replicas_total": len(self._states),
            "router_store": {
                "stale": report.stale,
                "evicted": report.evicted,
                "migrated": report.migrated,
                "staleness_charge": report.staleness_charge,
            },
        }

    async def _push_update(
        self, state: _ReplicaState, body: bytes
    ) -> bool:
        try:
            response = await http_request(
                *state.handle.address,
                "POST",
                "/update",
                body=body,
                timeout=self._update_timeout,
            )
        except Exception as exc:  # noqa: BLE001 — prober re-syncs later
            log.warning(
                "update push to %s failed: %s; the prober will "
                "re-admit it once restarted against the new graph",
                state.name,
                exc,
            )
            return False
        if response.status != 200:
            return False
        payload = response.json()
        if (
            isinstance(payload, dict)
            and payload.get("graph_fingerprint") == self._fingerprint
        ):
            state.synced = True
            return True
        return False


# ----------------------------------------------------------------------
# One-call cluster bootstrap
# ----------------------------------------------------------------------


class ClusterHandle:
    """A running cluster: fleet + router, both stoppable in one call."""

    def __init__(
        self,
        manager: ShardManager,
        router: ShardRouter,
        background: BackgroundServer,
    ):
        self.manager = manager
        self.router = router
        self.background = background

    @property
    def address(self) -> tuple[str, int]:
        """The router's bound (host, port)."""
        return self.background.address

    def stop(self) -> None:
        self.background.stop()
        self.manager.stop()

    def __enter__(self) -> "ClusterHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_cluster(
    graph: CSRGraph,
    num_shards: int = 2,
    replicas_per_shard: int = 1,
    placement: str = "thread",
    manager_kwargs: dict | None = None,
    **router_kwargs,
) -> ClusterHandle:
    """Boot a full cluster (fleet + router) on background threads.

    Returns a :class:`ClusterHandle`; its ``address`` is the router's
    front door.  Keyword arguments beyond the fleet shape go to
    :class:`ShardRouter`.
    """
    manager = ShardManager(
        graph,
        num_shards=num_shards,
        replicas_per_shard=replicas_per_shard,
        placement=placement,
        **(manager_kwargs or {}),
    ).start()
    try:
        router = ShardRouter(manager, **router_kwargs)
        background = BackgroundServer(router).start()
    except BaseException:
        manager.stop()
        raise
    return ClusterHandle(manager, router, background)
