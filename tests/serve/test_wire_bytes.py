"""Every ``/rank`` body is byte-identical to the whole-payload encoding.

The server writes a ``/rank`` answer as its store entry's encoded
fragment plus the request's own contract fields
(:func:`repro.serve.wire.rank_body`).  :func:`reference_body` below is
the encoding that layout must reproduce, ``json.dumps`` of the whole
payload: it is kept here, independent of the serving code, and every
body is compared with it byte for byte.  Covered: a miss and its hits,
an accuracy request, a stale hit after ``/update`` and the refreshed
entry, float32 scores and the router's degraded answer.  The fragment
is built once per store entry, and never for ``/search`` or
``/semantic-search``.
"""

import asyncio
import inspect
import json

import numpy as np
import pytest

from repro.generators.datasets import make_tiny_web
from repro.obs.metrics import MetricsRegistry
from repro.pagerank.backends import set_default_backend
from repro.pagerank.solver import PowerIterationSettings
from repro.search.lexicon import SyntheticLexicon
from repro.serve import wire
from repro.serve.client import RankingClient
from repro.serve.cluster import start_cluster
from repro.serve.server import (
    RankingServer,
    RankingService,
    start_background_server,
)
from repro.updates.delta import GraphDelta

pytestmark = pytest.mark.serve

SETTINGS = PowerIterationSettings(tolerance=1e-9)
NODES = list(range(40))
PUSH = "push:r_max=1e-3"


def reference_body(outcome, fingerprint: str, degraded: bool = False):
    """``json.dumps`` of the whole ``/rank`` payload, newline-ended."""
    scores = outcome.scores
    payload = {
        "nodes": scores.local_nodes.tolist(),
        "scores": scores.scores.tolist(),
        "method": scores.method,
        "iterations": scores.iterations,
        "residual": scores.residual,
        "converged": scores.converged,
        "runtime_seconds": scores.runtime_seconds,
    }
    if "lambda_score" in scores.extras:
        payload["lambda_score"] = scores.extras["lambda_score"]
    payload["cache_hit"] = outcome.cache_hit
    payload["stale"] = outcome.stale
    payload["staleness"] = outcome.staleness
    if outcome.estimator != "exact":
        payload["estimator"] = outcome.estimator
        payload["estimated"] = False
        payload["error_bound"] = outcome.error_bound
    payload["graph_fingerprint"] = fingerprint
    if degraded:
        payload["degraded"] = True
    return (json.dumps(payload) + "\n").encode("utf-8")


def record_outcomes(owner, method: str) -> list:
    """Record every value ``owner.method`` returns (async or not)."""
    outcomes: list = []
    original = getattr(owner, method)
    if inspect.iscoroutinefunction(original):
        async def recording(*args, **kwargs):
            outcomes.append(await original(*args, **kwargs))
            return outcomes[-1]
    else:
        def recording(*args, **kwargs):
            outcomes.append(original(*args, **kwargs))
            return outcomes[-1]
    setattr(owner, method, recording)
    return outcomes


@pytest.fixture(scope="module")
def web():
    return make_tiny_web(num_pages=300, seed=3)


@pytest.fixture
def fragment_builds(monkeypatch):
    """How many times a ``/rank`` fragment has been encoded."""
    builds = [0]
    encode = wire._scores_fragment

    def counting(scores):
        builds[0] += 1
        return encode(scores)

    monkeypatch.setattr(wire, "_scores_fragment", counting)
    return builds


def _service(web):
    return RankingService(
        web.graph,
        settings=SETTINGS,
        lexicon=SyntheticLexicon(web.graph, num_terms=120, seed=7),
        registry=MetricsRegistry(),
    )


def _served_bodies(web, requests):
    """Each ``(path, body)`` request's raw HTTP answer, with the
    outcome the service ranked it from."""
    service = _service(web)
    outcomes = record_outcomes(service, "rank_with_meta")
    bodies = []
    with start_background_server(service) as handle:
        client = RankingClient(*handle.address)
        for path, body in requests:
            status, raw, content_type, __ = client._request(
                "POST", path, body
            )
            assert status == 200, raw
            assert content_type == "application/json"
            bodies.append(raw)
    return bodies, outcomes, service.fingerprint[:16]


class TestServedBodies:
    def test_miss_then_hits_build_one_fragment(self, web, fragment_builds):
        hits = 5
        bodies, outcomes, fingerprint = _served_bodies(
            web, [("/rank", {"nodes": NODES})] * (1 + hits)
        )
        assert [o.cache_hit for o in outcomes] == [False] + [True] * hits
        for body, outcome in zip(bodies, outcomes):
            assert body == reference_body(outcome, fingerprint)
        assert fragment_builds[0] == 1

    def test_accuracy_request(self, web, fragment_builds):
        bodies, outcomes, fingerprint = _served_bodies(web, [
            ("/rank?estimator=" + PUSH, {"nodes": NODES}),
            ("/rank", {"nodes": NODES}),
            ("/rank?estimator=" + PUSH, {"nodes": NODES}),
        ])
        assert [o.estimator for o in outcomes] == ["push", "exact", "push"]
        assert outcomes[0].error_bound > 0.0
        for body, outcome in zip(bodies, outcomes):
            assert body == reference_body(outcome, fingerprint)
        assert fragment_builds[0] == 1

    def test_search_routes_build_no_fragment(self, web, fragment_builds):
        __, outcomes, __ = _served_bodies(web, [
            ("/search", {"nodes": NODES, "terms": [0, 1], "mode": "any"}),
            ("/semantic-search", {"terms": [0, 1, 2]}),
            ("/search", {"nodes": NODES, "terms": [0]}),
        ])
        assert [o.cache_hit for o in outcomes] == [False, False, True]
        assert fragment_builds[0] == 0

    def test_float32_scores(self, web, monkeypatch):
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        set_default_backend(None)
        try:
            bodies, outcomes, fingerprint = _served_bodies(
                web, [("/rank", {"nodes": NODES})] * 3
            )
        finally:
            monkeypatch.delenv("REPRO_DTYPE")
            set_default_backend(None)
        for body, outcome in zip(bodies, outcomes):
            assert body == reference_body(outcome, fingerprint)
        # The float32 solve's scores, not a float64 one's.
        assert json.loads(bodies[0])["scores"] == [
            float(np.float32(score))
            for score in json.loads(bodies[0])["scores"]
        ]


class TestUpdatedEntry:
    def test_stale_hit_then_refreshed_entry(self, web, fragment_builds):
        """The re-keyed stale entry keeps its fragment; the refresh's
        put starts a new entry, which builds its own."""
        service = _service(web)
        server = RankingServer(service, registry=MetricsRegistry())
        outcomes = record_outcomes(service, "rank_with_meta")
        fingerprints = []
        rank = json.dumps({"nodes": NODES}).encode()
        delta = GraphDelta(added_edges=[(0, 5), (5, 12), (12, 0)])

        async def main():
            answers = [await server._dispatch("POST", "/rank", "", {}, rank)]
            fingerprints.append(service.fingerprint[:16])
            status, __ = await server._dispatch(
                "POST", "/update", "", {},
                json.dumps(delta.to_payload()).encode(),
            )
            assert status == 200
            # A hit does not yield, so the refresh has not run yet.
            answers.append(
                await server._dispatch("POST", "/rank", "", {}, rank)
            )
            builds_after_stale = fragment_builds[0]
            await asyncio.gather(*tuple(service._refresh_tasks))
            answers.append(
                await server._dispatch("POST", "/rank", "", {}, rank)
            )
            await service.close()
            return answers, builds_after_stale

        answers, builds_after_stale = asyncio.run(main())
        assert [status for status, __ in answers] == [200, 200, 200]
        miss, stale, fresh = outcomes
        assert (miss.cache_hit, miss.stale) == (False, False)
        assert (stale.cache_hit, stale.stale) == (True, True)
        assert stale.staleness > 0.0
        assert (fresh.cache_hit, fresh.stale) == (True, False)
        fingerprints += [service.fingerprint[:16]] * 2
        assert fingerprints[0] != fingerprints[1]
        for (__, body), outcome, fingerprint in zip(
            answers, outcomes, fingerprints
        ):
            assert body == reference_body(outcome, fingerprint)
        assert builds_after_stale == 1
        assert fragment_builds[0] == 2


class TestRouterDegradedAnswer:
    def test_degraded_bodies(self, web, fragment_builds):
        with start_cluster(
            web.graph,
            num_shards=1,
            replicas_per_shard=1,
            placement="thread",
            manager_kwargs={"settings": SETTINGS},
            attempt_timeout=0.5,
        ) as handle:
            client = RankingClient(*handle.address)
            client.rank(NODES)  # seeds the router-local store
            handle.manager.kill(0, 0)
            replica_builds = fragment_builds[0]
            outcomes = record_outcomes(handle.router, "_degraded_outcome")
            bodies = [
                client._request("POST", path, {"nodes": NODES})[1]
                for path in ("/rank", "/rank?estimator=" + PUSH, "/rank")
            ]
            fingerprint = handle.router._fingerprint
        assert [o.estimator for o in outcomes] == ["exact", "push", "exact"]
        for body, outcome in zip(bodies, outcomes):
            assert body == reference_body(
                outcome, fingerprint, degraded=True
            )
        # The router's own store entry holds the one fragment.
        assert fragment_builds[0] - replica_builds == 1
