"""One similarity pass per query: bit-identical to scoring twice.

``SemanticPipeline.select`` embeds and scores the query once and
reads the candidates' cosines out of the full vector; the reference
here is the two-pass construction it replaced (a ``np.unique`` union
of the postings, a mat-vec over the candidates' sliced rows, then a
second mat-vec over every page for the crawl).
"""

import numpy as np
import pytest

from repro.exceptions import DatasetError
from repro.semantic.pipeline import SemanticPipeline
from repro.semantic.similarity import SemanticRetriever
from repro.semantic.subgraph import expand_neighborhood, semantic_subgraph

pytestmark = pytest.mark.semantic


@pytest.fixture(scope="module")
def pipeline(web, lexicon, embeddings):
    return SemanticPipeline(
        web.graph, lexicon, embeddings=embeddings, top_m=10
    )


def _zero_posting_terms(lexicon):
    return [
        term
        for term in range(lexicon.num_terms)
        if lexicon.document_frequency(term) == 0
    ]


def _queries(lexicon, count=40, seed=17):
    """Seeded queries, some with duplicate or zero-posting terms."""
    rng = np.random.default_rng(seed)
    zero = _zero_posting_terms(lexicon)
    queries = []
    for index in range(count):
        terms = rng.integers(
            0, lexicon.num_terms, int(rng.integers(1, 4))
        ).tolist()
        if index % 4 == 1:
            terms.append(terms[0])
        if index % 4 == 2:
            terms.append(zero[index % len(zero)])
        queries.append(terms)
    return queries


def _union(lexicon, terms):
    return np.unique(
        np.concatenate([lexicon.pages_with_term(t) for t in terms])
    )


def _two_pass_select(pipeline, terms):
    embeddings = pipeline.embeddings
    query = embeddings.embed_terms(terms)
    candidates = _union(pipeline.lexicon, terms)
    sims = embeddings.similarities(query, candidates)
    keep = sims >= pipeline.similarity_threshold
    pages, sims = candidates[keep], sims[keep]
    order = np.lexsort((pages, -sims))[: pipeline.top_m]
    if order.size == 0:
        return None
    full = embeddings.similarities(query)
    nodes = expand_neighborhood(
        pipeline.graph,
        pages[order],
        full,
        pipeline.similarity_threshold,
        max_hops=pipeline.max_hops,
    )
    return {
        "nodes": nodes,
        "pages": pages[order],
        "retrieved": sims[order],
        "similarities": full[nodes],
        "candidates": int(candidates.size),
        "pruned": int(embeddings.num_pages - candidates.size),
        "digest": pipeline.query_digest(terms),
    }


class TestBitIdentity:
    def test_fixture_has_zero_posting_terms(self, lexicon):
        assert _zero_posting_terms(lexicon)

    def test_select_matches_two_pass_reference(self, pipeline):
        selected = 0
        for terms in _queries(pipeline.lexicon):
            expected = _two_pass_select(pipeline, terms)
            if expected is None:
                with pytest.raises(DatasetError, match="matched no"):
                    pipeline.select(terms)
                continue
            selection = pipeline.select(terms)
            selected += 1
            assert selection.nodes.tobytes() == expected["nodes"].tobytes()
            retrieval = selection.retrieval
            assert retrieval.pages.tobytes() == expected["pages"].tobytes()
            assert (
                retrieval.similarities.tobytes()
                == expected["retrieved"].tobytes()
            )
            assert (
                selection.similarities.tobytes()
                == expected["similarities"].tobytes()
            )
            assert retrieval.candidates == expected["candidates"]
            assert retrieval.pruned == expected["pruned"]
            assert selection.query_digest == expected["digest"]
            # Without a passed vector, retrieve scores the query itself.
            own = pipeline.retriever.retrieve(
                terms,
                m=pipeline.top_m,
                min_similarity=pipeline.similarity_threshold,
            )
            assert own.pages.tobytes() == expected["pages"].tobytes()
            assert (
                own.similarities.tobytes()
                == expected["retrieved"].tobytes()
            )
        assert selected >= 20

    def test_semantic_subgraph_matches_select(self, pipeline):
        retriever = SemanticRetriever(
            pipeline.embeddings, pipeline.lexicon
        )
        for terms in _queries(pipeline.lexicon, count=12):
            if _two_pass_select(pipeline, terms) is None:
                continue
            nodes = semantic_subgraph(
                pipeline.graph,
                retriever,
                iter(terms),
                top_m=pipeline.top_m,
                similarity_threshold=pipeline.similarity_threshold,
                max_hops=pipeline.max_hops,
            )
            assert np.array_equal(nodes, pipeline.select(terms).nodes)

    def test_any_mode_union_matches_unique(self, lexicon):
        for terms in _queries(lexicon):
            matched = lexicon.pages_matching(terms, mode="any")
            expected = _union(lexicon, terms)
            assert matched.dtype == expected.dtype
            assert matched.tobytes() == expected.tobytes()

    def test_vector_of_wrong_shape_rejected(self, pipeline):
        with pytest.raises(DatasetError, match="cover every page"):
            pipeline.retriever.retrieve([0], similarities=np.zeros(3))


class TestCachedSelection:
    def test_similarities_cover_the_neighborhood_only(self, pipeline):
        selection = pipeline.select([0, 1, 2])
        assert selection.similarities.shape == selection.nodes.shape

    def test_hit_similarity_is_the_full_vector_cosine(self, pipeline):
        embeddings = pipeline.embeddings
        checked = 0
        for terms in _queries(pipeline.lexicon, count=12):
            if _two_pass_select(pipeline, terms) is None:
                continue
            answer = pipeline.run(terms, k=5)
            full = embeddings.similarities(embeddings.embed_terms(terms))
            for hit in answer.hits:
                assert hit.similarity == float(full[hit.page])
                checked += 1
        assert checked > 0

    def test_passed_digest_is_kept(self, pipeline):
        digest = pipeline.query_digest([0, 1])
        selection = pipeline.select([1, 0, 1], query_digest=digest)
        assert selection.query_digest == digest


class TestOutOfVocabulary:
    def test_select_rejects_unknown_term(self, pipeline):
        with pytest.raises(DatasetError, match="vocabulary"):
            pipeline.select([0, pipeline.lexicon.num_terms])

    def test_any_mode_rejects_unknown_term(self, lexicon):
        with pytest.raises(DatasetError, match="vocabulary"):
            lexicon.pages_matching([0, lexicon.num_terms], mode="any")

    def test_retrieve_with_vector_rejects_unknown_term(self, pipeline):
        full = pipeline.embeddings.similarities(
            pipeline.embeddings.embed_terms([0])
        )
        with pytest.raises(DatasetError, match="vocabulary"):
            pipeline.retriever.retrieve(
                [0, pipeline.lexicon.num_terms], similarities=full
            )
