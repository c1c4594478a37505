"""The end-to-end semantic pipeline: select → rank → dedup."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.approxrank import approxrank
from repro.exceptions import DatasetError, EstimationError, SubgraphError
from repro.obs.metrics import MetricsRegistry
from repro.search.lexicon import SyntheticLexicon
from repro.semantic import record_semantic_metrics, semantic_subgraph
from repro.semantic.pipeline import (
    SemanticPipeline,
    semantic_query_digest,
)
from repro.semantic.similarity import SemanticRetriever

pytestmark = pytest.mark.semantic

QUERY = [0, 1, 2]


@pytest.fixture(scope="module")
def pipeline(web, lexicon, embeddings):
    return SemanticPipeline(web.graph, lexicon, embeddings=embeddings)


class TestSelection:
    def test_neighborhood_contains_every_seed(self, pipeline):
        selection = pipeline.select(QUERY)
        seeds = set(selection.retrieval.pages.tolist())
        assert seeds <= set(selection.nodes.tolist())

    def test_nodes_are_sorted_unique_int64(self, pipeline, web):
        nodes = pipeline.select(QUERY).nodes
        assert nodes.dtype == np.int64
        assert np.array_equal(nodes, np.unique(nodes))
        assert 0 <= nodes.min() and nodes.max() < web.graph.num_nodes

    def test_unmatchable_query_raises(self, pipeline):
        # A floor above every cosine leaves no seeds.
        strict = SemanticPipeline(
            pipeline.graph,
            pipeline.lexicon,
            embeddings=pipeline.embeddings,
            similarity_threshold=0.999,
        )
        with pytest.raises(DatasetError, match="matched no pages"):
            strict.select(QUERY)

    def test_subgraph_family_entrypoint(self, web, embeddings, lexicon):
        retriever = SemanticRetriever(embeddings, lexicon)
        nodes = semantic_subgraph(
            web.graph, retriever, QUERY, top_m=10,
            similarity_threshold=0.05, max_hops=1,
        )
        assert nodes.size > 0
        with pytest.raises(SubgraphError, match="max_hops"):
            semantic_subgraph(
                web.graph, retriever, QUERY, max_hops=-1
            )


class TestDigest:
    def test_digest_ignores_term_order_and_duplicates(self):
        a = semantic_query_digest([3, 1, 2], 20, 0.05, 1, 256, 0)
        b = semantic_query_digest([2, 1, 3, 3], 20, 0.05, 1, 256, 0)
        assert a == b

    def test_digest_separates_configurations(self):
        base = semantic_query_digest([1], 20, 0.05, 1, 256, 0)
        assert base != semantic_query_digest([2], 20, 0.05, 1, 256, 0)
        assert base != semantic_query_digest([1], 21, 0.05, 1, 256, 0)
        assert base != semantic_query_digest([1], 20, 0.06, 1, 256, 0)
        assert base != semantic_query_digest([1], 20, 0.05, 2, 256, 0)
        assert base != semantic_query_digest([1], 20, 0.05, 1, 128, 0)
        assert base != semantic_query_digest([1], 20, 0.05, 1, 256, 1)


class TestRun:
    def test_answers_ranked_and_within_neighborhood(self, pipeline):
        answer = pipeline.run(QUERY, k=5)
        assert len(answer.hits) <= 5
        assert [h.rank for h in answer.hits] == list(
            range(1, len(answer.hits) + 1)
        )
        neighborhood = set(answer.local_nodes.tolist())
        assert set(answer.answer_pages()) <= neighborhood
        scores = [h.score for h in answer.hits]
        assert scores == sorted(scores, reverse=True)

    def test_deterministic_across_fresh_pipelines(self, web):
        def build():
            lexicon = SyntheticLexicon(
                web.graph,
                group_of=web.labels["domain"],
                num_terms=200,
                terms_per_page=6.0,
                seed=5,
            )
            return SemanticPipeline(
                web.graph, lexicon, dim=128, embedding_seed=11
            )

        first = build().run(QUERY, k=8)
        again = build().run(QUERY, k=8)
        assert first.answer_pages() == again.answer_pages()
        assert first.query_digest == again.query_digest
        assert np.array_equal(first.scores.scores, again.scores.scores)

    def test_exact_run_matches_direct_approxrank(self, pipeline, web):
        answer = pipeline.run(QUERY, k=5)
        assert answer.estimator == "exact"
        assert answer.error_bound == 0.0
        offline = approxrank(
            web.graph, answer.local_nodes, pipeline.settings
        )
        assert np.array_equal(answer.scores.scores, offline.scores)

    def test_estimated_run_is_flagged_with_bound(self, pipeline, web):
        # An accuracy request runs the exact solve: the same answer,
        # bit for bit, plus its certified bound over the n+1 vector.
        answer = pipeline.run(
            QUERY, k=5, estimator="push:r_max=1e-3"
        )
        plain = pipeline.run(QUERY, k=5)
        assert answer.estimator == "push"
        assert answer.answer_pages() == plain.answer_pages()
        assert np.array_equal(answer.scores.scores, plain.scores.scores)
        assert 0.0 < answer.error_bound <= 1e-3
        truth = approxrank(
            web.graph,
            answer.local_nodes,
            replace(pipeline.settings, tolerance=1e-12),
        )
        gap = np.abs(answer.scores.scores - truth.scores).sum() + abs(
            answer.scores.extras["lambda_score"]
            - truth.extras["lambda_score"]
        )
        assert gap <= answer.error_bound
        with pytest.raises(EstimationError, match="r_max"):
            pipeline.run(QUERY, k=5, estimator="push:r_max=1e-9")

    def test_rejects_bad_k(self, pipeline):
        with pytest.raises(DatasetError, match="k must be"):
            pipeline.run(QUERY, k=0)

    def test_extras_carry_dedup_bookkeeping(self, pipeline):
        answer = pipeline.run(QUERY, k=5)
        clusters = answer.extras["clusters"]
        assert len(clusters) == len(answer.hits)
        for hit, cluster in zip(answer.hits, clusters):
            assert cluster["representative"] == hit.page
            assert hit.page in cluster["members"]
        assert answer.extras["seeds"]
        assert answer.extras["candidates_scored"] > 0


class TestMetrics:
    def test_families_published(self, pipeline):
        answer = pipeline.run(QUERY, k=5)
        registry = MetricsRegistry()
        record_semantic_metrics(answer, registry)
        families = registry.snapshot()["families"]
        assert (
            families["repro_semantic_queries_total"]["samples"][0][
                "labels"
            ]["estimator"]
            == "exact"
        )
        assert (
            families["repro_semantic_candidates_pruned_total"][
                "samples"
            ][0]["value"]
            == answer.candidates_pruned
        )
        assert "repro_semantic_dedup_merges_total" in families
        hist = families["repro_semantic_neighborhood_pages"]
        assert hist["samples"][0]["count"] == 1
        assert hist["samples"][0]["sum"] == answer.neighborhood_size
