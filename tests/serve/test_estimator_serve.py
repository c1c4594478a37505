"""The ``?estimator=push:r_max=x`` accuracy request on the serve path.

The exact path answers it: the same store lookup and batcher as a
plain request, so a push-spec answer is bit-identical to offline
``approxrank()``, unflagged (``stale`` false, ``estimated`` false),
shares its store entry with exact requests, and carries
``estimator: "push"`` plus the certified L1 ``error_bound`` — at
least the measured gap to a tight baseline and at most ``r_max``.  An
``r_max`` below the certified bound is a 400 naming both numbers; a
stale entry whose bound exceeds ``r_max`` is solved fresh.  A bogus
spec is a 400, not a 500 — single-node and routed.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.approxrank import approxrank
from repro.generators.datasets import make_tiny_web
from repro.exceptions import ServeRequestError
from repro.obs.metrics import MetricsRegistry
from repro.pagerank.solver import PowerIterationSettings
from repro.resilience.policy import RetryPolicy
from repro.serve.client import RankingClient
from repro.serve.cluster import start_cluster
from repro.serve.server import RankingService, start_background_server
from repro.updates.delta import GraphDelta

pytestmark = [pytest.mark.serve, pytest.mark.estimation]

#: The default tolerance, so the certified bound is a real number.
SETTINGS = PowerIterationSettings()
TIGHT = PowerIterationSettings(tolerance=1e-12)
NODES = list(range(25, 70))
SPEC = "push:r_max=1e-3"

#: Far below the truncation bound of a 1e-5-tolerance solve.
TOO_TIGHT = "push:r_max=1e-9"

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


def _offline(web, nodes, settings=SETTINGS):
    return approxrank(
        web.graph, np.asarray(nodes, dtype=np.int64), settings
    )


def _gap_to_tight_baseline(web, wire) -> float:
    """Measured L1 error over the n+1 vector (local pages plus Λ)."""
    truth = _offline(web, wire["nodes"], TIGHT)
    return float(
        np.abs(np.asarray(wire["scores"]) - truth.scores).sum()
    ) + abs(wire["lambda_score"] - truth.extras["lambda_score"])


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
        assert "error_bound" not in wire
        assert wire["scores"] == _offline(web, NODES).scores.tolist()

    def test_explicit_exact_estimator_is_still_unflagged(
        self, client, web
    ):
        wire = client.rank(NODES, estimator="exact")
        assert "estimated" not in wire
        assert wire["scores"] == _offline(web, NODES).scores.tolist()

    def test_healthz_has_no_default_estimator(self, client):
        assert "default_estimator" not in client.healthz()


class TestEstimatedPath:
    def test_push_response_is_flagged_with_bound(self, client, web):
        nodes = list(range(80, 130))
        wire = client.rank(nodes, estimator=SPEC)
        assert wire["estimator"] == "push"
        assert wire["estimated"] is False
        assert wire["stale"] is False
        assert wire["staleness"] == 0.0
        assert 0.0 < wire["error_bound"] <= 1e-3
        assert wire["scores"] == _offline(web, nodes).scores.tolist()

    def test_error_bound_covers_gap_to_tight_baseline(self, client, web):
        nodes = list(range(130, 190))
        wire = client.rank(nodes, estimator=SPEC)
        gap = _gap_to_tight_baseline(web, wire)
        assert 0.0 < gap <= wire["error_bound"] <= 1e-3

    def test_following_exact_request_is_a_cache_hit(self, client, web):
        nodes = list(range(190, 240))
        pushed = client.rank(nodes, estimator=SPEC)
        assert pushed["cache_hit"] is False
        exact = client.rank(nodes)
        assert exact["cache_hit"] is True
        assert "estimator" not in exact
        assert exact["scores"] == pushed["scores"]

    def test_estimated_entry_never_shadows_exact(self, client, web):
        # Prime the entry with an accuracy request, then ask for
        # exact: the shared entry is the solver's answer, bit for bit.
        client.rank(NODES, estimator=SPEC)
        exact = client.rank(NODES)
        assert exact["scores"] == _offline(web, NODES).scores.tolist()

    def test_r_max_below_the_bound_is_a_400(self, client):
        nodes = list(range(240, 290))
        bound = client.rank(nodes, estimator=SPEC)["error_bound"]
        with pytest.raises(ServeRequestError) as excinfo:
            client.rank(nodes, estimator=TOO_TIGHT)
        assert excinfo.value.status == 400
        assert "r_max=1e-09" in str(excinfo.value)
        assert f"{bound:.3g}" in str(excinfo.value)

    def test_client_rank_scores_carries_extras(self, client):
        scores = client.rank_scores(NODES, estimator=SPEC)
        assert scores.extras["estimator"] == "push"
        assert scores.extras["estimated"] is False
        assert scores.extras["error_bound"] > 0.0
        assert "stale" not in scores.extras

    def test_same_variant_caches_across_equivalent_specs(self, client):
        """Every spelling of a request shares the one exact entry."""
        first = client.rank(NODES, estimator=SPEC)
        again = client.rank(NODES, estimator="push: r_max = 0.001")
        looser = client.rank(NODES, estimator="push:r_max=1e-2")
        for wire in (again, looser):
            assert wire["cache_hit"] is True
            assert wire["scores"] == first["scores"]
            assert wire["error_bound"] == first["error_bound"]

    def test_deterministic_across_requests(self, client):
        nodes = list(range(30, 60))
        first = client.rank(nodes, estimator=SPEC)
        second = client.rank(nodes, estimator=SPEC)
        assert second["scores"] == first["scores"]
        assert second["error_bound"] == first["error_bound"]


class TestStaleEntries:
    """After an update, a stale entry serves a request only while its
    bound — truncation plus staleness — still meets ``r_max``."""

    def test_stale_hit_over_r_max_is_solved_fresh(self, web):
        service = RankingService(
            web.graph, settings=SETTINGS, registry=MetricsRegistry()
        )

        async def main():
            await service.rank_with_meta(NODES)
            await service.apply_update(
                GraphDelta(added_edges=[(25, 30), (30, 41)])
            )
            loose = await service.rank_with_meta(
                NODES, estimator="push:r_max=1.9"
            )
            tight = await service.rank_with_meta(NODES, estimator=SPEC)
            await service.close()
            return loose, tight

        loose, tight = asyncio.run(main())
        truncation = loose.scores.residual / (1.0 - SETTINGS.damping)
        assert loose.cache_hit and loose.stale
        assert 1e-3 < loose.staleness
        assert loose.error_bound == pytest.approx(
            loose.staleness + truncation
        )
        assert loose.error_bound <= 1.9
        # The stale entry cannot meet 1e-3: a fresh solve answers.
        assert tight.cache_hit is False
        assert tight.stale is False
        assert tight.estimator == "push"
        assert 0.0 < tight.error_bound <= 1e-3
        expected = approxrank(
            service.graph, np.asarray(NODES, dtype=np.int64), SETTINGS
        )
        assert np.array_equal(tight.scores.scores, expected.scores)


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
    ignored: the response never carried the certificate.
    """

    TERMS = [1, 2]

    def test_search_estimator_is_honoured_and_flagged(self, client):
        wire = client.search(
            NODES, terms=self.TERMS, k=5, mode="any",
            estimator=SPEC,
        )
        assert wire["estimator"] == "push"
        assert wire["estimated"] is False
        assert wire["stale"] is False
        assert 0.0 < wire["error_bound"] <= 1e-3

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
        assert payload["error_bound"] > 0.0

    def test_search_default_stays_exact_and_unflagged(self, client):
        wire = client.search(NODES, terms=self.TERMS, k=5, mode="any")
        assert "estimator" not in wire
        assert wire["stale"] is False

    def test_search_bogus_estimator_is_a_400(self, client):
        for spec in BOGUS_SPECS + (TOO_TIGHT,):
            with pytest.raises(ServeRequestError) as excinfo:
                client.search(
                    NODES, terms=self.TERMS, k=5, estimator=spec
                )
            assert excinfo.value.status == 400, spec


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
        assert wire["estimated"] is False
        assert wire["stale"] is False
        assert wire["scores"] == _offline(web, NODES).scores.tolist()
        gap = _gap_to_tight_baseline(web, wire)
        assert 0.0 < gap <= wire["error_bound"] <= 1e-3

    def test_routed_following_exact_request_is_a_cache_hit(
        self, routed
    ):
        nodes = list(range(100, 160))
        pushed = routed.rank(nodes, estimator=SPEC)
        exact = routed.rank(nodes)
        assert pushed["cache_hit"] is False
        assert exact["cache_hit"] is True
        assert exact["scores"] == pushed["scores"]

    def test_routed_r_max_below_the_bound_is_a_400(self, routed):
        with pytest.raises(ServeRequestError) as excinfo:
            routed.rank(NODES, estimator=TOO_TIGHT)
        assert excinfo.value.status == 400
        assert "r_max=1e-09" in str(excinfo.value)

    def test_routed_bogus_specs_are_400(self, routed):
        for spec in BOGUS_SPECS:
            with pytest.raises(ServeRequestError) as excinfo:
                routed.rank(NODES, estimator=spec)
            assert excinfo.value.status == 400, spec
