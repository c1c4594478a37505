"""The opt-in ``/rank?estimator=`` serve path.

The serving contract for estimated answers: exact stays the default
and bit-identical to offline ``approxrank()``; a request that opts
into push comes back flagged (``estimated`` + ``stale``) carrying
its certified L1 ``error_bound`` as the staleness charge; estimated
entries cache under their own variant (never shadowing exact, hits
bit-identical across equivalent spellings of one spec); a bogus spec
is a 400, not a 500 — single-node and routed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.approxrank import approxrank
from repro.generators.datasets import make_tiny_web
from repro.exceptions import ServeRequestError
from repro.pagerank.solver import PowerIterationSettings
from repro.resilience.policy import RetryPolicy
from repro.serve.client import RankingClient
from repro.serve.cluster import start_cluster
from repro.serve.server import RankingService, start_background_server

pytestmark = [pytest.mark.serve, pytest.mark.estimation]

SETTINGS = PowerIterationSettings(tolerance=1e-9)
NODES = list(range(25, 70))
SPEC = "push:r_max=1e-3"

#: Specs every ranked route must refuse with a 400: unknown engines
#: (a removed engine's name included), malformed parameters, a
#: non-numeric value and a repeated key.
BOGUS_SPECS = (
    "quantum",
    "montecarlo",
    "push:oops",
    "push:r_max=true",
    "push:r_max=1e-3,r_max=0.5",
)


@pytest.fixture(scope="module")
def web():
    return make_tiny_web(num_pages=300, seed=3)


@pytest.fixture(scope="module")
def server(web):
    service = RankingService(web.graph, settings=SETTINGS)
    with start_background_server(service) as handle:
        yield handle


@pytest.fixture(scope="module")
def client(server):
    return RankingClient(*server.address)


class TestExactPath:
    def test_default_rank_is_unflagged_and_bit_identical(
        self, client, web
    ):
        wire = client.rank(NODES)
        assert "estimator" not in wire
        assert "estimated" not in wire
        offline = approxrank(
            web.graph, np.asarray(NODES, dtype=np.int64), SETTINGS
        )
        assert wire["scores"] == offline.scores.tolist()

    def test_explicit_exact_estimator_is_still_unflagged(
        self, client, web
    ):
        wire = client.rank(NODES, estimator="exact")
        assert "estimated" not in wire
        offline = approxrank(
            web.graph, np.asarray(NODES, dtype=np.int64), SETTINGS
        )
        assert wire["scores"] == offline.scores.tolist()


class TestEstimatedPath:
    def test_push_response_is_flagged_with_bound(self, client, web):
        wire = client.rank(NODES, estimator=SPEC)
        assert wire["estimator"] == "push"
        assert wire["estimated"] is True
        assert wire["stale"] is True
        assert 0.0 < wire["error_bound"] <= 1e-3
        assert wire["edges_touched"] > 0
        assert wire["staleness"] == wire["error_bound"]
        # The estimate really is within its L1 certificate of the truth.
        offline = approxrank(
            web.graph, np.asarray(NODES, dtype=np.int64), SETTINGS
        )
        gap = np.abs(
            np.asarray(wire["scores"]) - offline.scores
        ).sum()
        assert gap <= wire["error_bound"]

    def test_client_rank_scores_carries_extras(self, client):
        scores = client.rank_scores(NODES, estimator=SPEC)
        assert scores.extras["estimator"] == "push"
        assert scores.extras["estimated"] is True
        assert scores.extras["error_bound"] > 0.0
        assert scores.extras["stale"] is True

    def test_same_variant_caches_across_equivalent_specs(self, client):
        """The variant is the parsed value, not the spec's spelling."""
        first = client.rank(NODES, estimator=SPEC)
        again = client.rank(NODES, estimator="push: r_max = 0.001")
        assert again["cache_hit"] is True
        assert again["scores"] == first["scores"]

    def test_estimated_entry_never_shadows_exact(self, client, web):
        # Prime the estimated variant, then ask for exact: the answer
        # must be the solver's, not the cached estimate.
        client.rank(NODES, estimator=SPEC)
        exact = client.rank(NODES)
        offline = approxrank(
            web.graph, np.asarray(NODES, dtype=np.int64), SETTINGS
        )
        assert exact["scores"] == offline.scores.tolist()

    def test_deterministic_across_requests(self, client):
        # Push has no randomness: repeated requests for one spec
        # give the same bits.
        nodes = list(range(30, 60))
        first = client.rank(nodes, estimator=SPEC)
        second = client.rank(nodes, estimator=SPEC)
        assert second["scores"] == first["scores"]


class TestErrors:
    def test_unknown_estimator_is_a_400(self, client):
        with pytest.raises(ServeRequestError) as excinfo:
            client.rank(NODES, estimator="quantum")
        assert excinfo.value.status == 400

    def test_malformed_spec_is_a_400(self, client):
        for spec in BOGUS_SPECS:
            with pytest.raises(ServeRequestError) as excinfo:
                client.rank(NODES, estimator=spec)
            assert excinfo.value.status == 400, spec

    def test_deleted_engine_400_lists_the_known_engines(self, client):
        with pytest.raises(ServeRequestError) as excinfo:
            client.rank(NODES, estimator="montecarlo")
        assert excinfo.value.status == 400
        assert "known estimators: exact, push" in str(excinfo.value)


class TestSearchEstimator:
    """``/search`` must honour ``estimator`` exactly like ``/rank``.

    Pins the regression where the field was accepted and silently
    ignored: answers always came from the exact solver and the
    response never carried the estimated/stale flags.
    """

    TERMS = [1, 2]

    def test_search_estimator_is_honoured_and_flagged(self, client):
        wire = client.search(
            NODES, terms=self.TERMS, k=5, mode="any",
            estimator=SPEC,
        )
        assert wire["estimator"] == "push"
        assert wire["estimated"] is True
        assert wire["stale"] is True
        assert wire["staleness"] == wire["error_bound"] > 0.0

    def test_search_estimator_in_body_is_honoured(self, client):
        payload = client._json(
            "POST",
            "/search",
            {
                "nodes": NODES,
                "terms": self.TERMS,
                "k": 5,
                "mode": "any",
                "estimator": SPEC,
            },
        )
        assert payload["estimator"] == "push"
        assert payload["estimated"] is True

    def test_search_default_stays_exact_and_unflagged(self, client):
        wire = client.search(NODES, terms=self.TERMS, k=5, mode="any")
        assert "estimated" not in wire or wire["estimated"] is False
        assert wire["stale"] is False

    def test_search_bogus_estimator_is_a_400(self, client):
        for spec in BOGUS_SPECS:
            with pytest.raises(ServeRequestError) as excinfo:
                client.search(
                    NODES, terms=self.TERMS, k=5, estimator=spec
                )
            assert excinfo.value.status == 400, spec


class TestDefaultEstimator:
    def test_service_default_applies_without_query(self, web):
        service = RankingService(
            web.graph,
            settings=SETTINGS,
            default_estimator="push:r_max=1e-2",
        )
        with start_background_server(service) as handle:
            client = RankingClient(*handle.address)
            health = client.healthz()
            assert health["default_estimator"] == "push:r_max=1e-2"
            wire = client.rank(NODES)
            assert wire["estimator"] == "push"
            assert wire["estimated"] is True
            # The query parameter still wins over the default.
            exact = client.rank(NODES, estimator="exact")
            assert "estimated" not in exact


class TestRoutedServing:
    """The same contract through the :class:`ShardRouter`."""

    @pytest.fixture(scope="class")
    def routed(self, web):
        policy = RetryPolicy(
            max_attempts=3, backoff_base=0.01, backoff_max=0.05, seed=5
        )
        with start_cluster(
            web.graph,
            num_shards=2,
            replicas_per_shard=1,
            placement="thread",
            manager_kwargs={"settings": SETTINGS},
            retry_policy=policy,
            attempt_timeout=10.0,
            probe_interval=0.05,
            probe_timeout=0.5,
        ) as handle:
            yield RankingClient(*handle.address)

    def test_routed_push_is_flagged_with_bound(self, routed, web):
        wire = routed.rank(NODES, estimator=SPEC)
        assert wire["estimator"] == "push"
        assert wire["estimated"] is True
        assert wire["stale"] is True
        assert wire["staleness"] == wire["error_bound"] > 0.0
        offline = approxrank(
            web.graph, np.asarray(NODES, dtype=np.int64), SETTINGS
        )
        gap = np.abs(
            np.asarray(wire["scores"]) - offline.scores
        ).sum()
        assert gap <= wire["error_bound"]

    def test_routed_bogus_specs_are_400(self, routed):
        for spec in BOGUS_SPECS:
            with pytest.raises(ServeRequestError) as excinfo:
                routed.rank(NODES, estimator=spec)
            assert excinfo.value.status == 400, spec
