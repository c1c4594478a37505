"""Tests for the query-answering layer."""

import json

import numpy as np
import pytest

from repro.core.approxrank import approxrank
from repro.exceptions import DatasetError, MetricError, SubgraphError
from repro.generators.datasets import make_au_like, make_tiny_web
from repro.obs.metrics import MetricsRegistry
from repro.pagerank.globalrank import global_pagerank
from repro.pagerank.solver import PowerIterationSettings
from repro.search.engine import (
    SearchHit,
    SubgraphSearchEngine,
    answer_overlap,
    compare_engines,
    reference_engine_scores,
)
from repro.search.lexicon import SyntheticLexicon
from repro.serve.client import RankingClient
from repro.serve.server import RankingService, start_background_server
from repro.subgraphs.bfs import bfs_subgraph

SETTINGS = PowerIterationSettings(tolerance=1e-8)


@pytest.fixture(scope="module")
def web():
    return make_tiny_web(num_pages=500, num_groups=4, seed=21)


@pytest.fixture(scope="module")
def lexicon(web):
    return SyntheticLexicon(
        web.graph,
        group_of=web.labels["domain"],
        num_terms=200,
        terms_per_page=6.0,
        seed=3,
    )


@pytest.fixture(scope="module")
def domain_scores(web):
    nodes = web.pages_with_label("domain", "site0.example")
    return approxrank(web.graph, nodes, SETTINGS)


@pytest.fixture(scope="module")
def au_crawl():
    """A BFS crawl of an AU-like web, ranked, with its served lexicon."""
    graph = make_au_like(num_pages=5_000, seed=2009).graph
    nodes = bfs_subgraph(graph, 17, 0.03)
    return SyntheticLexicon(graph), approxrank(graph, nodes, SETTINGS)


@pytest.fixture(scope="module")
def served_search(web, lexicon):
    """A server over ``web`` whose ``/search`` uses ``lexicon``, and the
    pages of ``domain_scores``'s subgraph."""
    service = RankingService(
        web.graph, settings=SETTINGS, lexicon=lexicon,
        registry=MetricsRegistry(),
    )
    nodes = web.pages_with_label("domain", "site0.example").tolist()
    with start_background_server(service) as handle:
        yield RankingClient(*handle.address), nodes


class TestLexicon:
    def test_every_page_has_terms(self, web, lexicon):
        for page in range(0, web.graph.num_nodes, 37):
            assert lexicon.terms_of(page).size >= 1

    def test_postings_consistent_with_terms(self, lexicon):
        terms = lexicon.terms_of(10)
        for term in terms:
            assert 10 in lexicon.pages_with_term(int(term))

    def test_deterministic(self, web):
        a = SyntheticLexicon(web.graph, num_terms=50, seed=5)
        b = SyntheticLexicon(web.graph, num_terms=50, seed=5)
        for page in (0, 7, 99):
            assert a.terms_of(page).tolist() == b.terms_of(page).tolist()

    def test_zipfian_popularity(self, lexicon):
        top = lexicon.popular_terms(5)
        top_df = lexicon.document_frequency(int(top[0]))
        # The most popular term must dwarf a random mid-vocabulary one.
        mid_df = lexicon.document_frequency(150)
        assert top_df > max(mid_df, 1) * 3

    def test_conjunctive_subset_of_disjunctive(self, lexicon):
        top = lexicon.popular_terms(2)
        conj = lexicon.pages_matching(top, mode="all")
        disj = lexicon.pages_matching(top, mode="any")
        assert np.isin(conj, disj).all()
        assert disj.size >= conj.size

    def test_group_coherence(self, web):
        coherent = SyntheticLexicon(
            web.graph, group_of=web.labels["domain"],
            num_terms=200, coherence=0.95, seed=4,
        )
        domain0 = web.pages_with_label("domain", "site0.example")
        domain3 = web.pages_with_label("domain", "site3.example")

        def mean_jaccard(pages_a, pages_b, lex, samples=40):
            rng = np.random.default_rng(0)
            total = 0.0
            for __ in range(samples):
                a = lex.terms_of(int(rng.choice(pages_a)))
                b = lex.terms_of(int(rng.choice(pages_b)))
                union = np.union1d(a, b).size
                total += (
                    np.intersect1d(a, b).size / union if union else 0.0
                )
            return total / samples

        within = mean_jaccard(domain0, domain0, coherent)
        across = mean_jaccard(domain0, domain3, coherent)
        assert within > across

    def test_validation(self, web):
        with pytest.raises(DatasetError, match="num_terms"):
            SyntheticLexicon(web.graph, num_terms=0)
        with pytest.raises(DatasetError, match="coherence"):
            SyntheticLexicon(web.graph, coherence=1.5)
        with pytest.raises(DatasetError, match="group_of"):
            SyntheticLexicon(web.graph, group_of=np.zeros(3))

    def test_query_validation(self, lexicon):
        with pytest.raises(DatasetError, match="at least one term"):
            lexicon.pages_matching([])
        with pytest.raises(DatasetError, match="mode"):
            lexicon.pages_matching([1], mode="some")
        with pytest.raises(DatasetError, match="vocabulary"):
            lexicon.pages_with_term(10_000)


class TestLexiconEdgeCases:
    """Degenerate-but-legal parameter corners must build cleanly.

    Pins the regressions where a one-term vocabulary, an all-global
    or all-group coherence, and groups drawing zero in-group terms
    each raised from the assignment loop.
    """

    def test_single_term_vocabulary(self, web):
        lexicon = SyntheticLexicon(web.graph, num_terms=1, seed=1)
        assert lexicon.num_terms == 1
        for page in range(0, web.graph.num_nodes, 61):
            assert lexicon.terms_of(page).tolist() == [0]
        assert (
            lexicon.pages_with_term(0).size == web.graph.num_nodes
        )

    def test_coherence_zero_draws_only_global_terms(self, web):
        lexicon = SyntheticLexicon(
            web.graph,
            group_of=web.labels["domain"],
            num_terms=50,
            coherence=0.0,
            seed=2,
        )
        assert lexicon.num_pages == web.graph.num_nodes
        assert all(
            lexicon.terms_of(p).size >= 1
            for p in range(0, web.graph.num_nodes, 61)
        )

    def test_coherence_one_draws_only_group_terms(self, web):
        lexicon = SyntheticLexicon(
            web.graph,
            group_of=web.labels["domain"],
            num_terms=50,
            coherence=1.0,
            seed=2,
        )
        # Every page's terms sit inside one contiguous group slice.
        slice_size = max(50 // 4, 1)
        for page in range(0, web.graph.num_nodes, 61):
            terms = lexicon.terms_of(page)
            assert terms.size >= 1
            assert terms.max() - terms.min() < slice_size

    def test_more_groups_than_terms(self, web):
        # slice_size clamps to 1: every group still gets terms.
        lexicon = SyntheticLexicon(
            web.graph,
            group_of=web.labels["domain"],
            num_terms=2,
            coherence=1.0,
            seed=4,
        )
        for page in range(0, web.graph.num_nodes, 61):
            assert lexicon.terms_of(page).size >= 1

    def test_empty_graph_is_a_typed_error(self):
        from repro.graph.builder import graph_from_edges

        with pytest.raises(DatasetError, match="empty graph"):
            SyntheticLexicon(graph_from_edges(0, []))

    def test_num_pages_property_matches_graph(self, web, lexicon):
        assert lexicon.num_pages == web.graph.num_nodes


class TestEngine:
    def test_hits_ordered_and_in_subgraph(
        self, web, lexicon, domain_scores
    ):
        engine = SubgraphSearchEngine(domain_scores, lexicon)
        top_term = int(lexicon.popular_terms(1)[0])
        hits = engine.search([top_term], k=5)
        assert len(hits) >= 1
        pages = set(domain_scores.local_nodes.tolist())
        ranks = [hit.rank for hit in hits]
        for hit in hits:
            assert hit.page in pages
        assert ranks == sorted(ranks)

    def test_k_limits_answers(self, web, lexicon, domain_scores):
        engine = SubgraphSearchEngine(domain_scores, lexicon)
        top_term = int(lexicon.popular_terms(1)[0])
        assert len(engine.search([top_term], k=2)) <= 2

    def test_unmatched_query_returns_empty(
        self, web, lexicon, domain_scores
    ):
        engine = SubgraphSearchEngine(domain_scores, lexicon)
        # Find a term with empty postings within the subgraph by
        # taking a rare term unlikely to land in 125 pages; verify.
        rare_candidates = [
            t for t in range(lexicon.num_terms - 1, 0, -1)
            if lexicon.document_frequency(t) == 0
        ][:1]
        if rare_candidates:
            assert engine.search(rare_candidates, k=5) == []

    def test_rejects_bad_k(self, web, lexicon, domain_scores):
        engine = SubgraphSearchEngine(domain_scores, lexicon)
        with pytest.raises(SubgraphError, match="k must be"):
            engine.search([0], k=0)

    def test_k_beyond_indexed_pages_returns_all_matches(
        self, web, lexicon, domain_scores
    ):
        # Asking for more answers than the engine indexes is not an
        # error: it returns every matching page, exactly once.
        engine = SubgraphSearchEngine(domain_scores, lexicon)
        top_term = int(lexicon.popular_terms(1)[0])
        everything = engine.search(
            [top_term], k=engine.num_indexed + 100
        )
        exact = engine.search([top_term], k=engine.num_indexed)
        assert len(everything) <= engine.num_indexed
        assert [h.page for h in everything] == [h.page for h in exact]
        assert len({h.page for h in everything}) == len(everything)

    def test_term_matching_nothing_in_subgraph_is_empty(self, web):
        # A lexicon whose postings all live outside the subgraph: the
        # engine has matching pages in the corpus but none locally.
        nodes = web.pages_with_label("domain", "site2.example")[:5]
        scores = approxrank(web.graph, nodes, SETTINGS)
        skewed = SyntheticLexicon(web.graph, num_terms=40, seed=9)
        engine = SubgraphSearchEngine(scores, skewed)
        # Find a term whose postings avoid the subgraph entirely.
        for term in range(skewed.num_terms):
            postings = skewed.pages_with_term(term)
            if postings.size and not np.isin(postings, nodes).any():
                assert engine.search([term], k=5) == []
                break
        else:
            pytest.skip("every term of the lexicon hits the subgraph")

    def test_tied_scores_order_by_ascending_page_id(self, web, lexicon):
        # All-equal scores: the ranking must fall back to global id,
        # so repeated queries are reproducible across runs.
        from repro.pagerank.result import SubgraphScores

        nodes = web.pages_with_label("domain", "site0.example")
        flat = SubgraphScores(
            local_nodes=nodes.copy(),
            scores=np.full(nodes.size, 0.5),
            method="flat",
            iterations=0,
            residual=0.0,
            converged=True,
            runtime_seconds=0.0,
        )
        engine = SubgraphSearchEngine(flat, lexicon)
        top_term = int(lexicon.popular_terms(1)[0])
        hits = engine.search([top_term], k=10)
        assert len(hits) >= 2, "need ties to exercise the rule"
        pages = [hit.page for hit in hits]
        assert pages == sorted(pages)
        # And the tie order is stable across engine rebuilds.
        again = SubgraphSearchEngine(flat, lexicon).search(
            [top_term], k=10
        )
        assert [hit.page for hit in again] == pages


def set_filter_search(scores, lexicon, terms, k, mode):
    """The engine's former filter: the posting list as a Python set."""
    in_subgraph = set(scores.local_nodes.tolist())
    matching = set(lexicon.pages_matching(terms, mode).tolist())
    matching &= in_subgraph
    hits = []
    for rank, page in enumerate(scores.ranking(), start=1):
        if int(page) in matching:
            hits.append(
                SearchHit(
                    page=int(page),
                    score=scores.score_of(int(page)),
                    rank=rank,
                )
            )
            if len(hits) == k:
                break
    return hits


class TestEngineMatchesSetFilter:
    """The sorted-posting filter returns what the set filter did."""

    @pytest.mark.parametrize("mode", ["all", "any"])
    def test_random_queries(self, web, lexicon, domain_scores, mode):
        engine = SubgraphSearchEngine(domain_scores, lexicon)
        rng = np.random.default_rng(11)
        popular = lexicon.popular_terms(40)
        for __ in range(60):
            pool = popular if rng.random() < 0.7 else np.arange(
                lexicon.num_terms
            )
            terms = rng.choice(pool, size=int(rng.integers(1, 4)),
                               replace=False).tolist()
            k = int(rng.integers(1, 30))
            assert engine.search(terms, k, mode) == set_filter_search(
                domain_scores, lexicon, terms, k, mode
            )

    def test_no_matches(self, web, lexicon, domain_scores):
        engine = SubgraphSearchEngine(domain_scores, lexicon)
        nodes = domain_scores.local_nodes
        outside = next(
            t for t in range(lexicon.num_terms)
            if not np.isin(lexicon.pages_with_term(t), nodes).any()
        )
        assert engine.search([outside], 5) == []
        assert set_filter_search(
            domain_scores, lexicon, [outside], 5, "all"
        ) == []

    @pytest.mark.parametrize("mode", ["all", "any"])
    def test_k_beyond_matches(self, web, lexicon, domain_scores, mode):
        engine = SubgraphSearchEngine(domain_scores, lexicon)
        terms = lexicon.popular_terms(2).tolist()
        k = engine.num_indexed + 50
        hits = engine.search(terms, k, mode)
        assert 0 < len(hits) < k
        assert hits == set_filter_search(
            domain_scores, lexicon, terms, k, mode
        )

    def test_num_indexed_counts_local_pages(self, lexicon, domain_scores):
        engine = SubgraphSearchEngine(domain_scores, lexicon)
        assert engine.num_indexed == domain_scores.local_nodes.size

    @pytest.mark.parametrize("mode", ["all", "any"])
    def test_rank_hot_queries(self, au_crawl, mode):
        """The served search workload's query family: one or two of
        the 20 most popular terms over a BFS crawl of an AU-like web,
        plus a term with postings only outside the subgraph."""
        lexicon, scores = au_crawl
        engine = SubgraphSearchEngine(scores, lexicon)
        popular = lexicon.popular_terms(20).tolist()
        outside = next(
            t for t in range(lexicon.num_terms)
            if lexicon.pages_with_term(t).size
            and not np.isin(
                lexicon.pages_with_term(t), scores.local_nodes
            ).any()
        )
        queries = [[term] for term in popular] + [[outside]]
        queries += [
            [first, second]
            for i, first in enumerate(popular)
            for second in popular[i + 1:]
        ]
        queries += [[popular[0], outside], [outside, popular[5]]]
        for terms in queries:
            for k in (10, engine.num_indexed + 1):
                assert engine.search(terms, k, mode) == set_filter_search(
                    scores, lexicon, terms, k, mode
                ), (terms, k)


class TestQueryValidation:
    """An empty query, an unknown mode and an out-of-vocabulary term
    are each a :class:`DatasetError`, from the engine and as a 400 from
    ``/search`` (where an empty term list is caught with the request's
    own message before the engine runs)."""

    CASES = [
        ([], "all", "at least one term"),
        ([1], "some", "mode must be 'all' or 'any'"),
        ([10_000], "all", "outside vocabulary"),
    ]

    @pytest.mark.parametrize("terms, mode, message", CASES)
    def test_engine(self, lexicon, domain_scores, terms, mode, message):
        engine = SubgraphSearchEngine(domain_scores, lexicon)
        with pytest.raises(DatasetError, match=message):
            engine.search(terms, 5, mode)

    @pytest.mark.parametrize("terms, mode, message", CASES)
    def test_served(self, served_search, terms, mode, message):
        client, nodes = served_search
        status, raw, __, __ = client._request(
            "POST", "/search",
            {"nodes": nodes, "terms": terms, "mode": mode, "k": 5},
        )
        assert status == 400
        payload = json.loads(raw)
        assert payload["kind"] == "DatasetError"
        if not terms:
            message = "'terms' must be a non-empty list of term ids"
        assert message in payload["error"]


class TestServedSearchStaysLocal:
    """``/search`` filters the ranked subgraph; it never intersects
    whole posting lists over the corpus."""

    def test_hits_without_corpus_intersection(
        self, served_search, lexicon, domain_scores, monkeypatch
    ):
        client, nodes = served_search
        popular = lexicon.popular_terms(6).tolist()
        queries = [
            (terms, mode)
            for terms in ([popular[0]], popular[:2], popular[2:5])
            for mode in ("all", "any")
        ]
        expected = [
            set_filter_search(domain_scores, lexicon, terms, 10, mode)
            for terms, mode in queries
        ]

        def corpus_wide(*args, **kwargs):
            raise AssertionError("/search intersected posting lists")

        monkeypatch.setattr(SyntheticLexicon, "pages_matching", corpus_wide)
        for (terms, mode), hits in zip(queries, expected):
            for __ in range(2):  # the miss, then a store hit
                payload = client.search(nodes, terms, k=10, mode=mode)
                assert payload["hits"] == [
                    {"page": hit.page, "score": hit.score, "rank": hit.rank}
                    for hit in hits
                ]


class TestCompareEngines:
    def test_identical_rankings_full_overlap(
        self, web, lexicon, domain_scores
    ):
        queries = [[int(t)] for t in lexicon.popular_terms(5)]
        assert compare_engines(
            domain_scores, domain_scores, lexicon, queries
        ) == 1.0

    def test_better_ranking_higher_overlap(self, web, lexicon):
        """ApproxRank's answers agree with the gold engine more than
        a deliberately scrambled ranking does."""
        truth = global_pagerank(web.graph, SETTINGS)
        nodes = web.pages_with_label("domain", "site1.example")
        estimate = approxrank(web.graph, nodes, SETTINGS)
        reference = reference_engine_scores(truth.scores, nodes)

        rng = np.random.default_rng(1)
        from repro.pagerank.result import SubgraphScores

        scrambled = SubgraphScores(
            local_nodes=nodes.copy(),
            scores=rng.permutation(estimate.scores),
            method="scrambled",
            iterations=0,
            residual=0.0,
            converged=True,
            runtime_seconds=0.0,
        )
        queries = [[int(t)] for t in lexicon.popular_terms(8)]
        good = compare_engines(
            estimate, reference, lexicon, queries, k=10
        )
        bad = compare_engines(
            scrambled, reference, lexicon, queries, k=10
        )
        assert good > bad

    def test_rejects_mismatched_subgraphs(self, web, lexicon):
        nodes_a = web.pages_with_label("domain", "site0.example")
        nodes_b = web.pages_with_label("domain", "site1.example")
        a = approxrank(web.graph, nodes_a, SETTINGS)
        b = approxrank(web.graph, nodes_b, SETTINGS)
        with pytest.raises(MetricError, match="same subgraph"):
            compare_engines(a, b, lexicon, [[0]])

    def test_rejects_empty_queries(self, web, lexicon, domain_scores):
        with pytest.raises(MetricError, match="at least one query"):
            compare_engines(
                domain_scores, domain_scores, lexicon, []
            )


class TestAnswerOverlap:
    def test_both_empty(self):
        assert answer_overlap([], []) == 1.0

    def test_one_empty(self, web, lexicon, domain_scores):
        from repro.search.engine import SearchHit

        hit = SearchHit(page=1, score=0.5, rank=1)
        assert answer_overlap([hit], []) == 0.0

    def test_partial(self):
        from repro.search.engine import SearchHit

        a = [SearchHit(1, 0.5, 1), SearchHit(2, 0.4, 2)]
        b = [SearchHit(2, 0.6, 1), SearchHit(3, 0.2, 2)]
        assert answer_overlap(a, b) == 0.5
