"""Top-K query answering over a ranked subgraph (Figure 1's loop).

A :class:`SubgraphSearchEngine` is the "localized search engine" box of
the paper's Figure 1: it indexes the pages of one subgraph and answers
keyword queries with the locally available pages, ordered by whatever
subgraph ranking it was given.  :func:`compare_engines` measures how
much a better ranking improves actual answer lists — the end-to-end
justification for caring about footrule accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import MetricError, SubgraphError
from repro.pagerank.result import SubgraphScores
from repro.search.lexicon import SyntheticLexicon


@dataclass(frozen=True)
class SearchHit:
    """One answer of a Top-K query."""

    page: int
    score: float
    rank: int


class SubgraphSearchEngine:
    """Keyword search over the pages of a ranked subgraph.

    Parameters
    ----------
    scores:
        Any subgraph ranking (ApproxRank, IdealRank, a baseline...).
    lexicon:
        Term assignments covering at least the subgraph's pages.
    """

    def __init__(
        self, scores: SubgraphScores, lexicon: SyntheticLexicon
    ):
        self._scores = scores
        self._lexicon = lexicon

    @property
    def num_indexed(self) -> int:
        """Number of pages this engine can return."""
        return int(self._scores.local_nodes.size)

    def search(
        self,
        terms: Iterable[int],
        k: int = 10,
        mode: str = "all",
    ) -> list[SearchHit]:
        """Top-``k`` subgraph pages matching the query, best first.

        Pages outside the subgraph never appear (the engine only has
        local pages, exactly as in Figure 1); matching pages are
        ordered by the engine's ranking with deterministic ties.

        Each term's sorted posting list is binary-searched once per
        subgraph page, so a query costs O(n log P) per term for an
        n-page subgraph: the cost follows the subgraph, and no posting
        list is intersected or scanned whole.
        """
        if k < 1:
            raise SubgraphError(f"k must be >= 1, got {k}")
        posting_lists = self._lexicon.query_postings(terms, mode)
        local = self._scores.local_nodes
        matched = None
        for postings in posting_lists:
            if postings.size:
                slots = np.searchsorted(postings, local)
                found = postings[np.minimum(slots, postings.size - 1)] == local
            else:
                found = np.zeros(local.size, dtype=bool)
            if matched is None:
                matched = found
            elif mode == "all":
                matched &= found
            else:
                matched |= found
        # ``matched`` is over the sorted local pages; read it in rank
        # order and take each hit's page and score at its position.
        order = self._scores.ranked_order()
        ranks = np.flatnonzero(matched[order])[:k]
        positions = order[ranks]
        return [
            SearchHit(page=page, score=score, rank=rank)
            for page, score, rank in zip(
                local[positions].tolist(),
                self._scores.scores[positions].tolist(),
                (ranks + 1).tolist(),
            )
        ]


def answer_overlap(
    answers_a: Sequence[SearchHit], answers_b: Sequence[SearchHit]
) -> float:
    """Fraction of overlap between two answer lists (by page id).

    Uses the shorter list's length as the denominator; two empty lists
    agree completely (1.0).
    """
    if not answers_a and not answers_b:
        return 1.0
    pages_a = {hit.page for hit in answers_a}
    pages_b = {hit.page for hit in answers_b}
    denominator = min(len(pages_a), len(pages_b))
    if denominator == 0:
        return 0.0
    return len(pages_a & pages_b) / denominator


def compare_engines(
    estimate_scores: SubgraphScores,
    reference_scores: SubgraphScores,
    lexicon: SyntheticLexicon,
    queries: Sequence[Sequence[int]],
    k: int = 10,
) -> float:
    """Mean Top-K answer overlap between two rankings of one subgraph.

    Parameters
    ----------
    estimate_scores:
        The ranking under test (e.g. ApproxRank output).
    reference_scores:
        The gold ranking (e.g. global PageRank restricted to the
        subgraph, wrapped in a :class:`SubgraphScores`).
    lexicon / queries / k:
        The query workload.

    Returns
    -------
    Mean per-query overlap in [0, 1]; 1.0 means every query returned
    the same Top-K set as the reference engine.
    """
    if not queries:
        raise MetricError("need at least one query")
    if not np.array_equal(
        estimate_scores.local_nodes, reference_scores.local_nodes
    ):
        raise MetricError(
            "engines must index the same subgraph to be comparable"
        )
    engine = SubgraphSearchEngine(estimate_scores, lexicon)
    reference = SubgraphSearchEngine(reference_scores, lexicon)
    overlaps = [
        answer_overlap(
            engine.search(query, k), reference.search(query, k)
        )
        for query in queries
    ]
    return float(np.mean(overlaps))


def reference_engine_scores(
    global_scores: np.ndarray, local_nodes: np.ndarray
) -> SubgraphScores:
    """Wrap restricted global scores as a gold-standard ranking."""
    local_nodes = np.asarray(local_nodes, dtype=np.int64)
    return SubgraphScores(
        local_nodes=local_nodes.copy(),
        scores=np.asarray(global_scores, dtype=np.float64)[
            local_nodes
        ].copy(),
        method="global-reference",
        iterations=0,
        residual=0.0,
        converged=True,
        runtime_seconds=0.0,
    )
