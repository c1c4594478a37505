"""Entity resolution over an answer set: collapse near-duplicates.

Synthetic (and real) corpora contain near-duplicate pages — same
group, near-identical vocabulary.  Returning three copies of one
entity in a Top-K answer wastes two slots.  The dedup pass clusters
the answer set by embedding cosine (``similarity ≥ τ`` ⇒ same
entity, transitively — classic union-find single-linkage) and
collapses each cluster to its **max-ApproxRank representative**; the
members' merged score mass is recorded so no rank information is
silently dropped.

Answer sets are small (tens of pages), so the pairwise cosine matrix
is dense and cheap; determinism comes from processing pairs in
sorted order and breaking score ties by lower page id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import DatasetError
from repro.search.engine import SearchHit
from repro.semantic.embeddings import PageEmbeddings

__all__ = ["DedupCluster", "DedupResult", "deduplicate_answers"]


@dataclass(frozen=True)
class DedupCluster:
    """One resolved entity: a representative plus its duplicates."""

    representative: int
    members: tuple[int, ...]
    merged_score: float


@dataclass(frozen=True)
class DedupResult:
    """Outcome of a dedup pass over an answer set.

    Attributes
    ----------
    hits:
        Deduplicated answers, best first, re-ranked 1..n.  Each hit
        keeps its representative's own ApproxRank score (the merged
        mass lives in ``clusters``).
    clusters:
        One entry per retained answer, aligned with ``hits``.
    merges:
        How many pages were folded away
        (``len(input) - len(hits)``).
    """

    hits: tuple[SearchHit, ...]
    clusters: tuple[DedupCluster, ...]
    merges: int


class _UnionFind:
    def __init__(self, size: int):
        self._parent = list(range(size))

    def find(self, item: int) -> int:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: int, b: int) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            # Deterministic: the lower root wins.
            low, high = sorted((root_a, root_b))
            self._parent[high] = low


def deduplicate_answers(
    hits: Sequence[SearchHit],
    embeddings: PageEmbeddings,
    tau: float = 0.9,
) -> DedupResult:
    """Collapse near-duplicate answers (cosine ≥ ``tau``).

    Parameters
    ----------
    hits:
        The answer set, best first (as produced by a search engine
        or the semantic pipeline's ranked neighborhood).
    embeddings:
        Page vectors covering every answer page.
    tau:
        Similarity at or above which two answers are the same
        entity.  Clusters are transitive closures (single linkage).

    Returns a :class:`DedupResult`; with ``tau > 1`` or an empty
    input the answer set passes through unchanged.
    """
    if not 0.0 < tau:
        raise DatasetError(f"tau must be positive, got {tau}")
    if not hits:
        return DedupResult(hits=(), clusters=(), merges=0)
    pages = np.asarray([hit.page for hit in hits], dtype=np.int64)
    if np.unique(pages).size != pages.size:
        raise DatasetError("answer set contains duplicate pages")
    scores = np.asarray(
        [hit.score for hit in hits], dtype=np.float64
    )
    sims = embeddings.pairwise(pages)
    finder = _UnionFind(pages.size)
    # Row-major over the strict upper triangle, as a pair loop would.
    upper_i, upper_j = np.nonzero(np.triu(sims >= tau, k=1))
    for i, j in zip(upper_i.tolist(), upper_j.tolist()):
        finder.union(i, j)

    groups: dict[int, list[int]] = {}
    for index in range(pages.size):
        groups.setdefault(finder.find(index), []).append(index)

    clusters: list[DedupCluster] = []
    for members in groups.values():
        # Max-ApproxRank representative, ties to the lower page id.
        best = min(
            members, key=lambda i: (-scores[i], int(pages[i]))
        )
        clusters.append(
            DedupCluster(
                representative=int(pages[best]),
                members=tuple(
                    sorted(int(pages[i]) for i in members)
                ),
                merged_score=float(scores[np.asarray(members)].sum()),
            )
        )
    # Best representative first; re-rank 1..n.
    score_of = {
        int(hit.page): float(hit.score) for hit in hits
    }
    clusters.sort(
        key=lambda c: (-score_of[c.representative], c.representative)
    )
    deduped_hits = tuple(
        SearchHit(
            page=cluster.representative,
            score=score_of[cluster.representative],
            rank=rank,
        )
        for rank, cluster in enumerate(clusters, start=1)
    )
    return DedupResult(
        hits=deduped_hits,
        clusters=tuple(clusters),
        merges=len(hits) - len(clusters),
    )
