"""The ``POST /semantic-search`` serve path, single-node and routed.

The serving contract mirrors ``/rank``: the exact path is pinned
bit-identical to the offline
:meth:`~repro.semantic.pipeline.SemanticPipeline.run` (pages, scores,
query digest — reproduced here on a freshly rebuilt pipeline, so the
pin covers determinism too); an ``estimator`` accuracy request gets
the same bit-identical, unflagged answer plus its certified
``error_bound``; a bogus spec is a 400; repeated queries hit the
score cache (the query digest is the semantic analogue of the
subgraph digest); and the whole path works through the
:class:`ShardRouter` unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.approxrank import approxrank
from repro.exceptions import ServeRequestError
from repro.generators.datasets import make_tiny_web
from repro.pagerank.solver import PowerIterationSettings
from repro.resilience.policy import RetryPolicy
from repro.search.lexicon import SyntheticLexicon
from repro.semantic.pipeline import SemanticPipeline
from repro.serve.client import RankingClient
from repro.serve.cluster import start_cluster
from repro.serve.server import RankingService, start_background_server

pytestmark = [pytest.mark.serve, pytest.mark.semantic]

SETTINGS = PowerIterationSettings(tolerance=1e-9)
TERMS = [0, 1, 2]
SPEC = "push:r_max=1e-3"


def _offline_pipeline(graph) -> SemanticPipeline:
    """A fresh pipeline matching the server's lazy defaults.

    Rebuilt from scratch (new lexicon, new embeddings, same seeds) so
    the bit-identity pin below doubles as an end-to-end determinism
    check.
    """
    return SemanticPipeline(
        graph, SyntheticLexicon(graph), settings=SETTINGS
    )


@pytest.fixture(scope="module")
def web():
    return make_tiny_web(num_pages=300, seed=3)


@pytest.fixture(scope="module")
def offline(web):
    return _offline_pipeline(web.graph).run(TERMS, k=5)


@pytest.fixture(scope="module")
def server(web):
    service = RankingService(web.graph, settings=SETTINGS)
    with start_background_server(service) as handle:
        yield handle


@pytest.fixture(scope="module")
def client(server):
    return RankingClient(*server.address)


class TestExactPath:
    def test_wire_answer_bit_identical_to_offline_pipeline(
        self, client, offline
    ):
        wire = client.semantic_search(TERMS, k=5)
        assert wire["query_digest"] == offline.query_digest
        assert wire["nodes"] == offline.local_nodes.tolist()
        assert [h["page"] for h in wire["hits"]] == list(
            offline.answer_pages()
        )
        assert [h["score"] for h in wire["hits"]] == [
            h.score for h in offline.hits
        ]
        assert wire["estimator"] == "exact"
        assert wire["estimated"] is False
        assert wire["error_bound"] == 0.0
        assert wire["stale"] is False
        assert wire["staleness"] == 0.0

    def test_payload_carries_dedup_accounting(self, client, offline):
        wire = client.semantic_search(TERMS, k=5)
        assert wire["neighborhood_size"] == offline.neighborhood_size
        assert wire["candidates_pruned"] == offline.candidates_pruned
        assert wire["dedup_merges"] == offline.dedup_merges
        assert len(wire["clusters"]) == len(wire["hits"])
        for hit, cluster in zip(wire["hits"], wire["clusters"]):
            assert cluster["representative"] == hit["page"]

    def test_repeat_query_hits_the_score_cache(self, client):
        first = client.semantic_search([5, 6], k=3)
        again = client.semantic_search([5, 6], k=3)
        assert again["cache_hit"] is True
        assert again["hits"] == first["hits"]

    def test_hit_ranks_are_dense_from_one(self, client):
        wire = client.semantic_search(TERMS, k=5)
        assert [h["rank"] for h in wire["hits"]] == list(
            range(1, len(wire["hits"]) + 1)
        )


class TestEstimatedPath:
    def test_estimated_answer_flagged_with_certified_bound(
        self, client, offline
    ):
        wire = client.semantic_search(TERMS, k=5, estimator=SPEC)
        assert wire["estimator"] == "push"
        assert wire["estimated"] is False
        assert wire["stale"] is False
        assert 0.0 < wire["error_bound"] <= 1e-3
        assert wire["hits"] == client.semantic_search(TERMS, k=5)["hits"]
        assert [h["page"] for h in wire["hits"]] == list(
            offline.answer_pages()
        )

    def test_estimated_scores_within_bound_of_exact(
        self, client, offline, web
    ):
        wire = client.semantic_search(TERMS, k=100, estimator=SPEC)
        assert wire["nodes"] == offline.local_nodes.tolist()
        truth = approxrank(
            web.graph,
            offline.local_nodes,
            PowerIterationSettings(tolerance=1e-12),
        )
        exact = {
            int(page): float(truth.score_of(int(page)))
            for page in truth.local_nodes
        }
        # The hits are a subset of the pages: a lower bound on the
        # full L1 gap the certificate covers.
        gap = sum(
            abs(hit["score"] - exact[hit["page"]]) for hit in wire["hits"]
        )
        assert gap <= wire["error_bound"]

    def test_estimator_spec_in_body_is_honoured(self, client):
        payload = client._json(
            "POST",
            "/semantic-search",
            {"terms": TERMS, "k": 5, "estimator": SPEC},
        )
        assert payload["estimator"] == "push"
        assert payload["error_bound"] > 0.0

    def test_bogus_estimator_spec_is_400(self, client):
        for spec in (
            "quantum",
            "push:oops",
            "push:r_max=true",
            "push:r_max=1e-3,r_max=0.5",
        ):
            with pytest.raises(ServeRequestError) as excinfo:
                client.semantic_search(TERMS, estimator=spec)
            assert excinfo.value.status == 400, spec


class TestValidation:
    def test_empty_terms_is_400(self, client):
        with pytest.raises(ServeRequestError) as excinfo:
            client.semantic_search([], k=3)
        assert excinfo.value.status == 400

    def test_out_of_vocabulary_term_is_400(self, client):
        with pytest.raises(ServeRequestError) as excinfo:
            client.semantic_search([10**9], k=3)
        assert excinfo.value.status == 400

    def test_metrics_expose_semantic_families(self, client):
        client.semantic_search(TERMS, k=3)
        text = client.metrics_text()
        assert "repro_semantic_queries_total" in text
        assert "repro_semantic_neighborhood_pages" in text


class TestRoutedServing:
    @pytest.fixture(scope="class")
    def cluster(self, web):
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
            yield handle

    @pytest.fixture(scope="class")
    def routed(self, cluster):
        return RankingClient(*cluster.address)

    def test_routed_answer_matches_offline_pipeline(
        self, routed, offline
    ):
        wire = routed.semantic_search(TERMS, k=5)
        assert wire["query_digest"] == offline.query_digest
        assert wire["nodes"] == offline.local_nodes.tolist()
        assert [h["score"] for h in wire["hits"]] == [
            h.score for h in offline.hits
        ]

    def test_routed_repeat_is_a_cache_hit(self, routed):
        routed.semantic_search([7, 8], k=3)
        again = routed.semantic_search([7, 8], k=3)
        assert again["cache_hit"] is True

    def test_routed_estimated_path_flagged(self, routed, offline):
        wire = routed.semantic_search(TERMS, k=5, estimator=SPEC)
        assert wire["estimator"] == "push"
        assert wire["estimated"] is False
        assert wire["stale"] is False
        assert 0.0 < wire["error_bound"] <= 1e-3
        assert [h["score"] for h in wire["hits"]] == [
            h.score for h in offline.hits
        ]

    def test_routed_bogus_estimator_is_fatal_400(self, routed):
        for spec in ("quantum", "push:r_max=true"):
            with pytest.raises(ServeRequestError) as excinfo:
                routed.semantic_search(TERMS, estimator=spec)
            assert excinfo.value.status == 400, spec
