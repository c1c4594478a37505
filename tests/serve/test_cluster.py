"""Tier-1 tests for the sharded serving tier (no fault injection).

Boots small real clusters — threads, ephemeral ports — and drives
them through :class:`RankingClient`: routed answers are pinned
bit-identical to the offline solver, failover/degradation are
exercised by killing replicas explicitly (the chaos matrix in
``test_chaos_serve.py`` does it probabilistically), updates propagate
to every replica, and the circuit breaker's state machine is stepped
with a fake clock.  Client-side retries and the
``BackgroundServer.stop`` leak warning are pinned here too.
"""

import asyncio
import http.server
import logging
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.approxrank import approxrank
from repro.exceptions import (
    ServeRequestError,
    ServeRetriesExhaustedError,
)
from repro.generators.datasets import make_tiny_web
from repro.pagerank.solver import PowerIterationSettings
from repro.resilience.policy import RetryPolicy
from repro.serve.client import RankingClient
from repro.serve.cluster import CircuitBreaker, http_request, start_cluster
from repro.serve.server import (
    BackgroundServer,
    RankingServer,
    RankingService,
)
from repro.updates.delta import GraphDelta, apply_delta

pytestmark = pytest.mark.serve

SETTINGS = PowerIterationSettings(tolerance=1e-9)
NODES = list(range(30))

#: Fast retry/probe knobs so failover tests finish in milliseconds.
FAST_POLICY = RetryPolicy(
    max_attempts=3, backoff_base=0.01, backoff_max=0.05, seed=5
)
FAST_KWARGS = dict(
    retry_policy=FAST_POLICY,
    attempt_timeout=5.0,
    probe_interval=0.05,
    probe_timeout=0.5,
)


@pytest.fixture(scope="module")
def web():
    return make_tiny_web(num_pages=250, seed=11)


@pytest.fixture(scope="module")
def offline(web):
    return approxrank(
        web.graph, np.asarray(NODES, dtype=np.int64), SETTINGS
    )


def _cluster(web, shards=2, replicas=1, **router_kwargs):
    kwargs = {**FAST_KWARGS, **router_kwargs}
    manager_kwargs = kwargs.pop("manager_kwargs", {})
    manager_kwargs.setdefault("settings", SETTINGS)
    return start_cluster(
        web.graph,
        num_shards=shards,
        replicas_per_shard=replicas,
        placement="thread",
        manager_kwargs=manager_kwargs,
        **kwargs,
    )


def _wait_for_refreshes(handle, timeout=10.0):
    """Poll every replica's /healthz until its background warm
    refresh after an update has drained (bounded wait)."""
    deadline = time.monotonic() + timeout
    for replica in handle.manager.all():
        client = RankingClient(*replica.address)
        while (
            client.healthz()["updates"]["pending_refreshes"]
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)


class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        self.now = 0.0
        kwargs.setdefault("clock", lambda: self.now)
        return CircuitBreaker(**kwargs)

    def test_opens_after_threshold(self):
        breaker = self._breaker(failure_threshold=3)
        for __ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allows()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allows()
        assert breaker.times_opened == 1

    def test_half_open_trial_then_close(self):
        breaker = self._breaker(
            failure_threshold=1, reset_timeout=1.0, jitter=0.0
        )
        breaker.record_failure()
        assert not breaker.allows()
        self.now = 1.0
        assert breaker.state == "half_open" and breaker.allows()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.consecutive_failures == 0

    def test_half_open_failure_reopens(self):
        breaker = self._breaker(
            failure_threshold=2, reset_timeout=1.0, jitter=0.0
        )
        breaker.record_failure()
        breaker.record_failure()
        self.now = 1.0
        assert breaker.allows()
        breaker.record_failure()  # the trial failed
        assert breaker.state == "open"
        assert breaker.times_opened == 2

    def test_jittered_reopen_is_deterministic(self):
        delays = []
        for __ in range(2):
            breaker = self._breaker(
                failure_threshold=1, reset_timeout=1.0,
                jitter=0.2, seed=42,
            )
            breaker.record_failure()
            delays.append(breaker._reopen_at)
        assert delays[0] == delays[1]
        assert 0.8 <= delays[0] <= 1.2
        assert delays[0] != 1.0  # jitter actually applied

    def test_state_code_matches_gauge_encoding(self):
        breaker = self._breaker(failure_threshold=1, jitter=0.0)
        assert breaker.state_code == 0
        breaker.record_failure()
        assert breaker.state_code == 2
        self.now = 10.0
        assert breaker.state_code == 1


class TestRoutedServing:
    @pytest.fixture(scope="class")
    def cluster(self, web):
        with _cluster(web, shards=2, replicas=1) as handle:
            yield handle

    @pytest.fixture(scope="class")
    def client(self, cluster):
        return RankingClient(*cluster.address)

    def test_routed_rank_bit_identical_to_offline(
        self, client, offline
    ):
        wire = client.rank_scores(NODES)
        assert np.array_equal(wire.scores, offline.scores)
        assert not wire.extras.get("stale")
        assert not wire.extras.get("degraded")

    @pytest.mark.parametrize(
        "ask",
        [
            lambda client: client.rank(NODES),
            lambda client: client.search(NODES, terms=[1, 2], k=3),
            lambda client: client.semantic_search([0, 1, 2], k=3),
        ],
        ids=["rank", "search", "semantic-search"],
    )
    def test_rank_payload_carries_fingerprint(self, ask, client, cluster):
        payload = ask(client)
        assert (
            payload["graph_fingerprint"]
            == cluster.router.fingerprint
        )

    def test_same_digest_routes_to_same_shard(self, cluster):
        from repro.serve.store import subgraph_digest

        digest = subgraph_digest(np.asarray(NODES, dtype=np.int64))
        ring = cluster.router.ring
        assert ring.shard_for(digest) == ring.shard_for(digest)

    def test_cluster_health_reports_fleet(self, cluster, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["shards"] == 2
        assert health["degraded_shards"] == []
        assert len(health["replicas"]) == 2

    def test_replica_health_reports_solver_backend(self, client):
        # The router reports the fleet; each shard replica reports the
        # solver it runs, which is where load generators look.
        for state in client.healthz()["replicas"].values():
            replica = RankingClient(*state["address"])
            assert replica.healthz()["solver_backend"] == {
                "dtype": "float64",
                "layout": "none",
            }

    def test_bad_request_passes_through_without_retry(self, client):
        with pytest.raises(ServeRequestError) as excinfo:
            client.rank([10**9])
        assert excinfo.value.status == 400

    def test_search_routes_and_answers(self, client):
        payload = client.search(NODES, terms=[1, 2], k=3)
        assert "hits" in payload
        assert len(payload["hits"]) <= 3

    def test_empty_terms_is_fatal_400_through_router(self, client):
        with pytest.raises(ServeRequestError) as excinfo:
            client.search(NODES, terms=[], k=3)
        assert excinfo.value.status == 400

    def test_metrics_exposes_cluster_families(self, client):
        text = client.metrics_text()
        assert "repro_cluster_requests_total" in text


class TestFailover:
    def test_kill_one_replica_requests_still_fresh(
        self, web, offline
    ):
        with _cluster(web, shards=1, replicas=2) as handle:
            client = RankingClient(*handle.address)
            assert np.array_equal(
                client.rank_scores(NODES).scores, offline.scores
            )
            handle.manager.kill(0, 0)
            for __ in range(3):
                wire = client.rank_scores(NODES)
                assert np.array_equal(wire.scores, offline.scores)
                assert not wire.extras.get("degraded")

    def test_restart_rejoins_the_shard(self, web, offline):
        with _cluster(web, shards=1, replicas=2) as handle:
            client = RankingClient(*handle.address)
            client.rank(NODES)
            handle.manager.kill(0, 1)
            handle.manager.restart(0, 1)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                health = client.healthz()
                if all(
                    not state["ejected"]
                    for state in health["replicas"].values()
                ):
                    break
                time.sleep(0.05)
            wire = client.rank_scores(NODES)
            assert np.array_equal(wire.scores, offline.scores)


class TestDegradedServing:
    def test_last_known_scores_served_flagged(self, web, offline):
        with _cluster(
            web, shards=1, replicas=1, attempt_timeout=0.5
        ) as handle:
            client = RankingClient(*handle.address)
            client.rank(NODES)  # seeds the router-local store
            handle.manager.kill(0, 0)
            wire = client.rank_scores(NODES)
            assert wire.extras.get("degraded") is True
            assert np.array_equal(wire.scores, offline.scores)

    def test_degraded_accuracy_request_carries_its_bound(
        self, web, offline
    ):
        with _cluster(
            web, shards=1, replicas=1, attempt_timeout=0.5
        ) as handle:
            client = RankingClient(*handle.address)
            client.rank(NODES)  # seeds the router-local store
            handle.manager.kill(0, 0)
            wire = client.rank(NODES, estimator="push:r_max=1e-3")
            assert wire["degraded"] is True
            assert wire["estimator"] == "push"
            assert 0.0 < wire["error_bound"] <= 1e-3
            assert wire["scores"] == offline.scores.tolist()
            # Last-known scores cannot meet an r_max below their
            # certified bound: an honest 503, not a looser answer.
            with pytest.raises(ServeRequestError) as excinfo:
                client.rank(NODES, estimator="push:r_max=1e-15")
            assert excinfo.value.status == 503

    def test_no_cached_scores_is_honest_503(self, web):
        with _cluster(
            web, shards=1, replicas=1, attempt_timeout=0.5
        ) as handle:
            client = RankingClient(*handle.address)
            handle.manager.kill(0, 0)
            with pytest.raises(ServeRequestError) as excinfo:
                client.rank(list(range(40, 60)))
            assert excinfo.value.status == 503
            payload = excinfo.value.payload
            assert payload["kind"] == "ShardUnavailableError"
            assert payload["attempts"]  # the full recovery history

    def test_degraded_health_flags_dark_shard(self, web):
        with _cluster(
            web, shards=1, replicas=1, attempt_timeout=0.5
        ) as handle:
            client = RankingClient(*handle.address)
            handle.manager.kill(0, 0)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                health = client.healthz()
                if health["status"] == "degraded":
                    break
                time.sleep(0.05)
            assert health["status"] == "degraded"
            assert health["degraded_shards"] == [0]


class TestClusterUpdate:
    def test_update_propagates_to_every_replica(self, web):
        delta = GraphDelta(added_edges=((0, 5), (5, 9), (9, 0)))
        new_graph = apply_delta(web.graph, delta)
        with _cluster(web, shards=1, replicas=2) as handle:
            client = RankingClient(*handle.address)
            before = client.rank(NODES)["graph_fingerprint"]
            report = client.update(delta.to_payload())
            assert report["replicas_updated"] == 2
            assert report["graph_fingerprint"] != before
            _wait_for_refreshes(handle)
            wire = client.rank_scores(NODES)
            offline_new = approxrank(
                new_graph,
                np.asarray(NODES, dtype=np.int64),
                SETTINGS,
            )
            # The serving contract: bit-identical fresh, or flagged
            # stale within budget.  A warm-start refresh after the
            # update is the latter — converged on the NEW graph, with
            # the residual charged as staleness.
            if wire.extras.get("stale"):
                budget = handle.router.store.staleness_budget
                assert wire.extras["staleness"] <= budget
                assert np.allclose(
                    wire.scores, offline_new.scores, atol=1e-6
                )
            else:
                assert np.array_equal(
                    wire.scores, offline_new.scores
                )

    def test_stale_delta_is_a_400(self, web):
        # Removing an edge that does not exist marks the delta stale;
        # the replica's 400 must pass through the router verbatim.
        missing = next(
            t for t in range(web.graph.num_nodes)
            if t not in set(web.graph.out_neighbors(0).tolist())
        )
        delta = GraphDelta(removed_edges=((0, missing),))
        with _cluster(web, shards=1, replicas=1) as handle:
            client = RankingClient(*handle.address)
            with pytest.raises(ServeRequestError) as excinfo:
                client.update(delta.to_payload())
            assert excinfo.value.status == 400


class _ScriptedHandler(http.server.BaseHTTPRequestHandler):
    """Replays a scripted list of (status, headers) responses."""

    script: list[tuple[int, dict]] = []
    hits: list[int] = []

    def do_POST(self):  # noqa: N802 - stdlib naming
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        status, headers = (
            self.script.pop(0) if self.script else (200, {})
        )
        type(self).hits.append(status)
        body = b'{"ok": true}' if status < 400 else b'{"error": "x"}'
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # silence stderr
        pass


@pytest.fixture
def scripted_server():
    server = http.server.ThreadingHTTPServer(
        ("127.0.0.1", 0), _ScriptedHandler
    )
    _ScriptedHandler.script = []
    _ScriptedHandler.hits = []
    thread = threading.Thread(
        target=server.serve_forever, daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class TestClientRetries:
    POLICY = RetryPolicy(
        max_attempts=3, backoff_base=0.01, backoff_max=0.05, seed=3
    )

    def test_retries_503_honouring_retry_after(
        self, scripted_server
    ):
        _ScriptedHandler.script = [
            (503, {"Retry-After": "0.01"}),
            (200, {}),
        ]
        client = RankingClient(
            *scripted_server.server_address,
            retry_policy=self.POLICY,
        )
        assert client.rank([1]) == {"ok": True}
        assert len(client.last_attempts) == 1
        record = client.last_attempts[0]
        assert record.error_type == "Http503"
        assert record.retryable and record.action == "retry"

    def test_fatal_400_raises_immediately(self, scripted_server):
        _ScriptedHandler.script = [(400, {}), (200, {})]
        client = RankingClient(
            *scripted_server.server_address,
            retry_policy=self.POLICY,
        )
        with pytest.raises(ServeRequestError) as excinfo:
            client.rank([1])
        assert excinfo.value.status == 400
        assert _ScriptedHandler.hits == [400]  # no second attempt

    def test_exhausted_retries_carry_history(self, scripted_server):
        _ScriptedHandler.script = [(503, {})] * 5
        client = RankingClient(
            *scripted_server.server_address,
            retry_policy=self.POLICY,
        )
        with pytest.raises(ServeRetriesExhaustedError) as excinfo:
            client.rank([1])
        assert excinfo.value.status == 503
        assert len(excinfo.value.attempts) == 3
        assert _ScriptedHandler.hits == [503, 503, 503]

    def test_connection_refused_is_retried_then_raised(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        client = RankingClient(
            "127.0.0.1", port, retry_policy=self.POLICY
        )
        with pytest.raises(ServeRetriesExhaustedError) as excinfo:
            client.healthz()
        assert len(excinfo.value.attempts) == 3
        assert all(
            record.retryable for record in excinfo.value.attempts
        )

    def test_no_policy_keeps_single_attempt(self, scripted_server):
        _ScriptedHandler.script = [(503, {}), (200, {})]
        client = RankingClient(*scripted_server.server_address)
        with pytest.raises(ServeRequestError) as excinfo:
            client.rank([1])
        assert excinfo.value.status == 503
        assert _ScriptedHandler.hits == [503]


class TestRouterClientFraming:
    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_response_head_is_a_connection_reset(self, length):
        # A raw socket replica answering with an unframeable head: the
        # router's client must surface it like its other framing
        # failures, as a retryable ConnectionResetError.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def reply() -> None:
            conn, __ = listener.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Length: "
                    + length.encode() + b"\r\n\r\n{}"
                )

        thread = threading.Thread(target=reply, daemon=True)
        thread.start()
        try:
            with pytest.raises(ConnectionResetError, match="malformed"):
                asyncio.run(http_request(
                    *listener.getsockname(), "GET", "/healthz",
                    timeout=5.0,
                ))
        finally:
            thread.join(timeout=5)
            listener.close()


class TestBackgroundServerStop:
    def test_wedged_loop_warns_and_returns_false(self, web, caplog):
        service = RankingService(web.graph, settings=SETTINGS)
        background = BackgroundServer(
            RankingServer(service, host="127.0.0.1", port=0)
        ).start()
        # Wedge the event loop: a blocking callback starves both the
        # stop event and the join.
        release = threading.Event()
        background.loop.call_soon_threadsafe(
            lambda: release.wait(10.0)
        )
        with caplog.at_level(logging.WARNING, logger="repro.serve"):
            assert background.stop(timeout=0.2) is False
        assert any(
            "failed to stop" in record.message
            for record in caplog.records
        )
        release.set()  # unwedge; the loop drains and exits
        assert background.stop(timeout=10.0) is True
