"""Entity resolution: union-find near-duplicate collapsing."""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from repro.exceptions import DatasetError
from repro.search.engine import SearchHit
from repro.semantic.dedup import deduplicate_answers
from repro.semantic.embeddings import PageEmbeddings

pytestmark = pytest.mark.semantic


def _embeddings_from_rows(rows: np.ndarray) -> PageEmbeddings:
    """Hand-built unit vectors, so similarities are exact."""
    dense = np.asarray(rows, dtype=np.float64)
    norms = np.linalg.norm(dense, axis=1, keepdims=True)
    dense = np.divide(dense, norms, out=dense, where=norms > 0)
    dim = dense.shape[1]
    return PageEmbeddings(
        sparse.csr_matrix(dense),
        idf=np.ones(1),
        dim=dim,
        seed=0,
        num_terms=1,
    )


@pytest.fixture
def synthetic():
    # Pages 0,1,2 are one entity (chained ≥0.9 cosine), 3 is alone.
    rows = np.asarray(
        [
            [1.0, 0.00, 0.0],
            [1.0, 0.20, 0.0],
            [1.0, 0.50, 0.0],
            [0.0, 0.00, 1.0],
        ]
    )
    return _embeddings_from_rows(rows)


def _hits(scores):
    return [
        SearchHit(page=page, score=score, rank=rank)
        for rank, (page, score) in enumerate(scores, start=1)
    ]


class TestClustering:
    def test_transitive_cluster_collapses_to_best_scorer(
        self, synthetic
    ):
        # 0~1 and 1~2 are ≥ tau, 0~2 is not: single linkage still
        # merges all three.
        result = deduplicate_answers(
            _hits([(1, 0.5), (0, 0.3), (3, 0.2), (2, 0.1)]),
            synthetic,
            tau=0.9,
        )
        assert [h.page for h in result.hits] == [1, 3]
        assert result.merges == 2
        cluster = result.clusters[0]
        assert cluster.representative == 1
        assert cluster.members == (0, 1, 2)
        assert cluster.merged_score == pytest.approx(0.9)

    def test_hits_reranked_and_keep_own_scores(self, synthetic):
        result = deduplicate_answers(
            _hits([(1, 0.5), (0, 0.3), (3, 0.2), (2, 0.1)]),
            synthetic,
            tau=0.9,
        )
        assert [h.rank for h in result.hits] == [1, 2]
        assert result.hits[0].score == pytest.approx(0.5)
        assert result.hits[1].score == pytest.approx(0.2)

    def test_score_tie_breaks_to_lower_page(self, synthetic):
        result = deduplicate_answers(
            _hits([(0, 0.4), (1, 0.4), (2, 0.4)]), synthetic, tau=0.9
        )
        assert result.clusters[0].representative == 0

    def test_tau_above_one_is_passthrough(self, synthetic):
        hits = _hits([(0, 0.4), (1, 0.3), (2, 0.2)])
        result = deduplicate_answers(hits, synthetic, tau=1.1)
        assert [h.page for h in result.hits] == [0, 1, 2]
        assert result.merges == 0
        assert all(
            c.members == (c.representative,) for c in result.clusters
        )

    def test_empty_answer_set_passes_through(self, synthetic):
        result = deduplicate_answers([], synthetic, tau=0.9)
        assert result.hits == ()
        assert result.merges == 0

    def test_clusters_are_threshold_components(self):
        # Noisy copies of a few prototypes: clusters must be exactly
        # the connected components of the "cosine >= tau" graph.
        rng = np.random.default_rng(4)
        prototypes = rng.normal(size=(6, 12))
        rows = prototypes[rng.integers(0, 6, 40)]
        rows = rows + 0.15 * rng.normal(size=rows.shape)
        embeddings = _embeddings_from_rows(rows)
        scores = rng.random(40)
        result = deduplicate_answers(
            _hits(list(enumerate(scores.tolist()))), embeddings, tau=0.95
        )
        sims = embeddings.pairwise(np.arange(40))
        __, labels = connected_components(
            sparse.csr_matrix(sims >= 0.95), directed=False
        )
        expected = sorted(
            tuple(np.flatnonzero(labels == label).tolist())
            for label in np.unique(labels)
        )
        assert result.merges > 0
        assert sorted(c.members for c in result.clusters) == expected


class TestValidation:
    def test_nonpositive_tau_rejected(self, synthetic):
        with pytest.raises(DatasetError, match="tau"):
            deduplicate_answers(_hits([(0, 0.4)]), synthetic, tau=0.0)

    def test_duplicate_pages_rejected(self, synthetic):
        with pytest.raises(DatasetError, match="duplicate"):
            deduplicate_answers(
                _hits([(0, 0.4), (0, 0.3)]), synthetic, tau=0.9
            )
