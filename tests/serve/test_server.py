"""End-to-end smoke of the HTTP serving layer on an ephemeral port.

Boots a real :class:`BackgroundServer` (port 0) and drives it through
:class:`RankingClient`: every endpoint, the error paths, the
bit-identity pin against the offline solver, burst coalescing, and
update-driven invalidation (stale-read prevention).  Everything here
is tier-1: small graph, loose-but-exact assertions, no sleeps beyond
the batcher's linger.
"""

import asyncio
import logging
import socket
from dataclasses import replace

import numpy as np
import pytest

from repro.core.approxrank import approxrank
from repro.exceptions import ServeRequestError
from repro.generators.datasets import make_tiny_web
from repro.obs.export import parse_prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.pagerank.solver import PowerIterationSettings
from repro.search.engine import SubgraphSearchEngine
from repro.search.lexicon import SyntheticLexicon
from repro.serve.batching import BatchPolicy
from repro.serve.client import RankingClient
from repro.serve.server import RankingService, start_background_server
from repro.serve.store import graph_fingerprint
from repro.updates.delta import GraphDelta, apply_delta

pytestmark = pytest.mark.serve

SETTINGS = PowerIterationSettings(tolerance=1e-9)
NODES = list(range(40))


@pytest.fixture(scope="module")
def web():
    return make_tiny_web(num_pages=300, seed=3)


@pytest.fixture(scope="module")
def lexicon(web):
    return SyntheticLexicon(web.graph, num_terms=120, seed=7)


@pytest.fixture(scope="module")
def registry():
    return MetricsRegistry()


@pytest.fixture(scope="module")
def server(web, lexicon, registry):
    service = RankingService(
        web.graph,
        settings=SETTINGS,
        lexicon=lexicon,
        registry=registry,
    )
    with start_background_server(service, registry=registry) as handle:
        yield handle


@pytest.fixture(scope="module")
def client(server):
    return RankingClient(*server.address)


class TestEndpoints:
    def test_healthz(self, client, web):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["graph_nodes"] == web.graph.num_nodes
        assert health["graph_edges"] == web.graph.num_edges
        assert health["store"]["entries"] >= 0

    def test_rank_bit_identical_to_offline(self, client, web):
        """The served scores ARE the offline ApproxRank scores.

        A lone request routes through the exact offline
        ``ApproxRankPreprocessor.rank`` path, and JSON floats
        round-trip bit-exactly, so the wire answer must be
        bit-identical — not merely close — to ``approxrank()``.
        """
        wire = client.rank_scores(NODES, damping=0.5)
        offline = approxrank(
            web.graph,
            np.asarray(NODES, dtype=np.int64),
            replace(SETTINGS, damping=0.5),
        )
        assert np.array_equal(wire.scores, offline.scores)
        np.testing.assert_array_equal(wire.local_nodes, offline.local_nodes)
        assert wire.method == offline.method
        assert wire.converged

    def test_second_request_hits_the_store(self, client):
        cold = client.rank(NODES, damping=0.55)
        warm = client.rank(NODES, damping=0.55)
        assert cold["cache_hit"] is False
        assert warm["cache_hit"] is True
        assert warm["scores"] == cold["scores"]

    def test_search_matches_direct_engine(self, client, web, lexicon):
        term = int(lexicon.popular_terms(1)[0])
        payload = client.search(NODES, terms=[term], k=5)
        scores = approxrank(
            web.graph, np.asarray(NODES, dtype=np.int64), SETTINGS
        )
        expected = SubgraphSearchEngine(scores, lexicon).search(
            [term], k=5
        )
        assert [hit["page"] for hit in payload["hits"]] == [
            hit.page for hit in expected
        ]
        assert [hit["rank"] for hit in payload["hits"]] == [
            hit.rank for hit in expected
        ]

    def test_metrics_round_trip_through_parser(self, client, registry):
        client.rank(NODES, damping=0.6)  # ensure serve traffic exists
        text = client.metrics_text()
        parsed = parse_prometheus_text(text)
        families = parsed["families"]
        for name in (
            "repro_serve_requests_total",
            "repro_serve_request_seconds",
            "repro_serve_store_hits_total",
            "repro_serve_store_misses_total",
            "repro_serve_store_entries",
        ):
            assert name in families, name
        requests = families["repro_serve_requests_total"]
        assert requests["kind"] == "counter"
        by_endpoint = {
            (s["labels"]["endpoint"], s["labels"]["status"]): s["value"]
            for s in requests["samples"]
        }
        assert by_endpoint[("/rank", "200")] >= 1
        latency = families["repro_serve_request_seconds"]
        assert latency["kind"] == "histogram"
        assert any(s["count"] >= 1 for s in latency["samples"])


class TestErrorPaths:
    def test_missing_nodes_is_400(self, client):
        with pytest.raises(ServeRequestError) as info:
            client.rank([])
        assert info.value.status == 400
        assert "nodes" in info.value.payload["error"]

    def test_out_of_range_node_is_400(self, client, web):
        with pytest.raises(ServeRequestError) as info:
            client.rank([web.graph.num_nodes + 5])
        assert info.value.status == 400

    def test_bad_damping_is_400(self, client):
        with pytest.raises(ServeRequestError) as info:
            client.rank(NODES, damping=1.5)
        assert info.value.status == 400

    def test_empty_terms_is_400(self, client):
        with pytest.raises(ServeRequestError) as info:
            client.search(NODES, terms=[0], k=0)
        assert info.value.status == 400

    def test_unknown_path_is_404(self, client):
        status, _, _, _ = client._request("GET", "/nope")
        assert status == 404

    def test_wrong_method_is_405(self, client):
        status, _, _, _ = client._request("GET", "/rank")
        assert status == 405
        status, _, _, _ = client._request("POST", "/healthz")
        assert status == 405

    def test_expired_deadline_is_503(self, client):
        # A 1 ms deadline expires inside the batcher's 10 ms linger.
        with pytest.raises(ServeRequestError) as info:
            client.rank(
                list(range(50, 80)),
                damping=0.65,
                deadline_seconds=0.001,
            )
        assert info.value.status == 503
        assert info.value.payload["kind"] == "DeadlineExceededError"


class TestFraming:
    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_is_400_then_close(
        self, server, length, caplog
    ):
        with caplog.at_level(logging.ERROR):
            with socket.create_connection(
                server.address, timeout=5.0
            ) as sock:
                sock.sendall(
                    b"POST /rank HTTP/1.1\r\nHost: test\r\n"
                    b"Content-Length: " + length.encode()
                    + b"\r\n\r\n"
                )
                response = b""
                # Reading to EOF pins the close: a kept-alive socket
                # would time out here instead.
                while chunk := sock.recv(65536):
                    response += chunk
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in response
        assert b"Content-Length" in response.split(b"\r\n\r\n")[0]
        # The head is answered, not raised out of the connection
        # handler for asyncio to log.
        assert not [
            record for record in caplog.records
            if "client_connected_cb" in record.getMessage()
        ]


class TestCoalescingOverHttp:
    def test_concurrent_burst_becomes_one_batched_solve(self, web):
        """Eight concurrent cold requests, one multi-column solve."""
        import threading

        service = RankingService(
            web.graph,
            settings=SETTINGS,
            policy=BatchPolicy(
                max_batch_size=8, max_linger_seconds=0.2
            ),
            registry=MetricsRegistry(),
        )
        dampings = [0.60 + i * 0.03 for i in range(8)]
        results: dict[float, dict] = {}
        errors: list[BaseException] = []
        barrier = threading.Barrier(8)
        with start_background_server(service) as handle:
            client = RankingClient(*handle.address, timeout=60.0)

            def worker(damping: float) -> None:
                try:
                    barrier.wait()
                    results[damping] = client.rank(
                        NODES, damping=damping
                    )
                except BaseException as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(d,))
                for d in dampings
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert errors == []
        assert len(results) == 8
        # At least one answer came from a genuinely batched solve, and
        # every batched answer agrees with its offline fixed point.
        batched = [
            r for r in results.values() if "lambda_score" in r
        ]
        for damping, payload in results.items():
            offline = approxrank(
                web.graph,
                np.asarray(NODES, dtype=np.int64),
                replace(SETTINGS, damping=damping),
            )
            np.testing.assert_allclose(
                np.asarray(payload["scores"]),
                offline.scores,
                atol=1e-6,
            )
        assert batched is not None  # structure sanity


class TestUpdateInvalidation:
    def test_rank_after_update_is_fresh_or_flagged(self, web):
        """The serving-contract pin, end to end.

        After a :class:`GraphDelta`, every ``/rank`` answer is either
        bit-identical to the offline solve on the *new* graph, or
        explicitly flagged stale with a within-budget Theorem-2 charge
        attached — a silently stale read is impossible.  The first
        post-update answer is deterministically the old entry served
        stale-but-bounded (the background refresh has not run yet);
        after the refresh drains, the served entry is near-fresh but
        still honestly flagged (only bit-identical cold results are
        unflagged).
        """
        service = RankingService(
            web.graph, settings=SETTINGS, registry=MetricsRegistry()
        )
        nodes = np.asarray(NODES, dtype=np.int64)

        async def main():
            before = await service.rank_with_meta(NODES, damping=0.5)
            assert before.cache_hit is False
            # A delta inside the subgraph: add edges between ranked
            # pages so their scores genuinely change.
            delta = GraphDelta(
                added_edges=[(0, 5), (5, 12), (12, 0), (3, 17)]
            )
            report = await service.apply_update(delta)
            first = await service.rank_with_meta(NODES, damping=0.5)
            # Drain the background refresh, then read again.
            if service._refresh_tasks:
                await asyncio.gather(*tuple(service._refresh_tasks))
            second = await service.rank_with_meta(NODES, damping=0.5)
            await service.close()
            return before, report, first, second

        before, report, first, second = asyncio.run(main())
        expected = approxrank(
            service.graph, nodes, replace(SETTINGS, damping=0.5)
        )
        budget = service.store.staleness_budget
        # The comparison target is itself a truncated solve, so the
        # honesty check allows it its own truncation slack.
        slack = (expected.residual + SETTINGS.tolerance) / (1.0 - 0.5)
        for outcome in (first, second):
            if outcome.stale:
                assert 0.0 < outcome.staleness <= budget
                error = float(
                    np.abs(
                        outcome.scores.scores - expected.scores
                    ).sum()
                )
                assert error <= outcome.staleness + slack
            else:
                assert np.array_equal(
                    outcome.scores.scores, expected.scores
                )
        assert first.cache_hit is True
        assert first.stale is True, "pre-refresh hit must be flagged"
        assert np.array_equal(
            first.scores.scores, before.scores.scores
        ), "the stale-but-bounded hit serves the pre-update entry"
        assert first.staleness == pytest.approx(
            report.staleness_charge
        )
        # The refresh re-ranked incrementally: the charge collapsed to
        # the warm solve's truncation bound.
        assert second.cache_hit is True
        assert second.staleness < first.staleness
        assert not np.array_equal(
            second.scores.scores, before.scores.scores
        ), "the refresh must absorb the update into the scores"

    def test_tight_budget_forces_fresh_resolve(self, web):
        """The contract's other branch: a budget the certificate
        cannot fit under evicts the entry at update time, and the
        post-update answer is a bit-identical fresh solve."""
        from repro.serve.store import ScoreStore

        registry = MetricsRegistry()
        service = RankingService(
            web.graph,
            settings=SETTINGS,
            store=ScoreStore(
                registry=registry, staleness_budget=1e-9
            ),
            registry=registry,
        )
        nodes = np.asarray(NODES, dtype=np.int64)

        async def main():
            await service.rank(NODES, damping=0.5)
            delta = GraphDelta(added_edges=[(0, 5)])
            report = await service.apply_update(delta)
            assert report.evicted >= 1
            outcome = await service.rank_with_meta(NODES, damping=0.5)
            await service.close()
            return outcome

        outcome = asyncio.run(main())
        assert outcome.stale is False
        assert outcome.staleness == 0.0
        expected = approxrank(
            service.graph, nodes, replace(SETTINGS, damping=0.5)
        )
        assert np.array_equal(outcome.scores.scores, expected.scores)

    def test_update_refresh_keeps_store_warm(self, web):
        service = RankingService(
            web.graph, settings=SETTINGS, registry=MetricsRegistry()
        )
        nodes = np.asarray(NODES, dtype=np.int64)

        async def main():
            await service.rank(NODES, damping=0.5)
            delta = GraphDelta(added_edges=[(0, 5), (5, 12)])
            report = await service.apply_update(delta, refresh=True)
            assert report.refreshed >= 1
            outcome = await service.rank_with_meta(NODES, damping=0.5)
            health = service.health()
            await service.close()
            return outcome, health

        outcome, health = asyncio.run(main())
        assert outcome.cache_hit is True, "refreshed entry stays warm"
        # The eager refresh warm-started from the stale vector: the
        # result is near-fresh and honestly flagged with its residual
        # bound (it is not bit-identical to a cold solve).
        assert outcome.stale is True
        assert outcome.staleness <= service.store.staleness_budget
        assert outcome.scores.extras.get("warm_start") is True
        expected = approxrank(
            service.graph, nodes, replace(SETTINGS, damping=0.5)
        )
        np.testing.assert_allclose(
            outcome.scores.scores, expected.scores, atol=1e-7
        )
        updates = health["updates"]
        assert updates["applied"] == 1
        assert updates["entries_refreshed"] >= 1
        assert updates["staleness_spent"] > 0
        assert updates["pending_refreshes"] == 0
        assert updates["iterations_saved"] >= 0


class TestUpdateEndpoint:
    """``POST /update`` on a single-node server (not only a cluster)."""

    def test_update_then_rank_is_fresh_or_flagged(self, web):
        delta = GraphDelta(added_edges=[(0, 5), (5, 12), (12, 0)])
        new_graph = apply_delta(web.graph, delta)
        service = RankingService(
            web.graph, settings=SETTINGS, registry=MetricsRegistry()
        )
        with start_background_server(service) as handle:
            client = RankingClient(*handle.address)
            client.rank(NODES)  # a warm entry the update must charge
            report = client.update(delta.to_payload())
            wire = client.rank_scores(NODES)
        assert report["graph_fingerprint"] == (
            graph_fingerprint(new_graph)[:16]
        )
        assert report["graph_nodes"] == new_graph.num_nodes
        expected = approxrank(
            new_graph, np.asarray(NODES, dtype=np.int64), SETTINGS
        )
        if wire.extras.get("stale"):
            assert 0.0 < wire.extras["staleness"]
            assert wire.extras["staleness"] <= (
                service.store.staleness_budget
            )
            # The reference is itself a truncated solve: allow it its
            # own truncation slack.
            slack = (expected.residual + SETTINGS.tolerance) / (
                1.0 - SETTINGS.damping
            )
            error = float(np.abs(wire.scores - expected.scores).sum())
            assert error <= wire.extras["staleness"] + slack
        else:
            assert np.array_equal(wire.scores, expected.scores)

    def test_bogus_delta_is_400(self, client, web):
        missing = next(
            t for t in range(web.graph.num_nodes)
            if t not in set(web.graph.out_neighbors(0).tolist())
        )
        for bogus in (
            GraphDelta(removed_edges=((0, missing),)).to_payload(),
            {"added_edges": "not a list"},
        ):
            with pytest.raises(ServeRequestError) as info:
                client.update(bogus)
            assert info.value.status == 400
        assert client.healthz()["updates"]["applied"] == 0


class TestGracefulShutdown:
    def test_shutdown_then_connection_refused(self, web):
        service = RankingService(
            web.graph, settings=SETTINGS, registry=MetricsRegistry()
        )
        handle = start_background_server(service)
        client = RankingClient(*handle.address, timeout=5.0)
        assert client.healthz()["status"] == "ok"
        handle.stop()
        with pytest.raises(OSError):
            client.healthz()
