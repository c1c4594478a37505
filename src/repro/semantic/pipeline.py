"""The end-to-end semantic pipeline: query→select→rank→dedup.

One object owns the whole offline path so the CLI, the bench suite,
and the serving route all run *the same code*: the serving contract
(ISSUE: a ``/semantic-search`` answer is bit-identical to the offline
pipeline for the exact estimator) holds because there is only one
pipeline to disagree with.

The pipeline is split at its natural caching seam:

* :meth:`SemanticPipeline.select` — query → neighborhood (pure
  function of the query and the embedding config; the serving layer
  caches it by :func:`semantic_query_digest`);
* ranking — exact :func:`~repro.core.approxrank.approxrank`, or the
  same solve certified by a :mod:`repro.estimation` accuracy request
  (the serving layer swaps in its store-backed ``rank_with_meta``
  here);
* :meth:`SemanticPipeline.finish` — ranked neighborhood → matched,
  deduplicated Top-K answer.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.core.approxrank import ApproxRankPreprocessor, approxrank
from repro.estimation import resolve_estimator
from repro.exceptions import DatasetError
from repro.graph.digraph import CSRGraph
from repro.pagerank.result import SubgraphScores
from repro.pagerank.solver import PowerIterationSettings
from repro.search.engine import SearchHit
from repro.search.lexicon import SyntheticLexicon
from repro.semantic.dedup import DedupResult, deduplicate_answers
from repro.semantic.embeddings import PageEmbeddings
from repro.semantic.similarity import Retrieval, SemanticRetriever
from repro.semantic.subgraph import expand_neighborhood

__all__ = [
    "SemanticAnswer",
    "SemanticHit",
    "SemanticPipeline",
    "SemanticSelection",
    "semantic_query_digest",
]

# How many ranked pages enter the dedup pass per requested answer:
# merging can only shrink the pool, so dedup sees more than k pages
# and the Top-K after collapsing is still full.
_DEDUP_POOL_FACTOR = 4


def semantic_query_digest(
    terms: Iterable[int],
    top_m: int,
    similarity_threshold: float,
    max_hops: int,
    dim: int,
    seed: int,
) -> str:
    """Canonical digest of a query + selection configuration.

    Two requests with the same digest select the same neighborhood
    on the same embedding space — the serving layer uses this as its
    selection-cache key and the shard router as its placement key
    (the semantic analogue of ``subgraph_digest``).
    """
    canonical = json.dumps(
        {
            "terms": sorted({int(t) for t in terms}),
            "top_m": int(top_m),
            "similarity_threshold": repr(
                float(similarity_threshold)
            ),
            "max_hops": int(max_hops),
            "dim": int(dim),
            "seed": int(seed),
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


@dataclass(frozen=True)
class SemanticHit:
    """One deduplicated answer of a semantic query."""

    page: int
    score: float
    rank: int
    similarity: float
    cluster_size: int
    merged_score: float


@dataclass(frozen=True)
class SemanticSelection:
    """A query's selected neighborhood plus selection accounting.

    ``similarities`` holds the cosine of each neighborhood page
    against the query, aligned with ``nodes`` — all that
    :meth:`SemanticPipeline.finish` reads, so a cached selection
    costs the neighborhood, not the corpus.
    """

    nodes: np.ndarray
    retrieval: Retrieval
    similarities: np.ndarray
    query_digest: str


@dataclass(frozen=True)
class SemanticAnswer:
    """The full outcome of one semantic query.

    ``hits`` is the deduplicated Top-K; ``scores`` the underlying
    neighborhood ranking (``estimator`` / ``error_bound`` name the
    accuracy request and its certified L1 bound, ``"exact"`` / 0.0
    without one); ``extras`` records
    the dedup bookkeeping (members and merged mass per retained
    answer) and the pipeline counters.
    """

    hits: tuple[SemanticHit, ...]
    local_nodes: np.ndarray
    scores: SubgraphScores
    query_digest: str
    estimator: str
    error_bound: float
    candidates_pruned: int
    dedup_merges: int
    neighborhood_size: int
    extras: dict = field(default_factory=dict)

    def answer_pages(self) -> list[int]:
        """The answer's page ids, best first."""
        return [hit.page for hit in self.hits]


class SemanticPipeline:
    """Query→select→rank→dedup over one graph + lexicon.

    Parameters
    ----------
    graph:
        The global graph.
    lexicon:
        Term assignment of the graph's pages.
    embeddings:
        Pre-built (or loaded) page vectors; embedded fresh from the
        lexicon when omitted.
    dim / embedding_seed:
        Hashing configuration when embedding fresh.
    top_m / similarity_threshold / max_hops:
        Neighborhood selection defaults (overridable per query).
    tau:
        Dedup similarity threshold.
    settings:
        Solver settings of the neighborhood solve.
    preprocessor:
        Optional shared :class:`ApproxRankPreprocessor` (built
        lazily when omitted).
    """

    def __init__(
        self,
        graph: CSRGraph,
        lexicon: SyntheticLexicon,
        embeddings: PageEmbeddings | None = None,
        dim: int = 256,
        embedding_seed: int = 0,
        top_m: int = 20,
        similarity_threshold: float = 0.05,
        max_hops: int = 1,
        tau: float = 0.9,
        settings: PowerIterationSettings | None = None,
        preprocessor: ApproxRankPreprocessor | None = None,
    ):
        if embeddings is None:
            embeddings = PageEmbeddings.from_lexicon(
                lexicon, dim=dim, seed=embedding_seed
            )
        if embeddings.num_pages != graph.num_nodes:
            raise DatasetError(
                "embeddings cover a different corpus: graph has "
                f"{graph.num_nodes} pages, embeddings "
                f"{embeddings.num_pages}"
            )
        self.graph = graph
        self.lexicon = lexicon
        self.embeddings = embeddings
        self.retriever = SemanticRetriever(embeddings, lexicon)
        self.top_m = int(top_m)
        self.similarity_threshold = float(similarity_threshold)
        self.max_hops = int(max_hops)
        self.tau = float(tau)
        self.settings = (
            settings
            if settings is not None
            else PowerIterationSettings()
        )
        self._preprocessor = preprocessor

    # ------------------------------------------------------------------
    # Stage 1: selection
    # ------------------------------------------------------------------

    def query_digest(self, terms: Iterable[int]) -> str:
        """Digest of ``terms`` under this pipeline's configuration."""
        return semantic_query_digest(
            terms,
            top_m=self.top_m,
            similarity_threshold=self.similarity_threshold,
            max_hops=self.max_hops,
            dim=self.embeddings.dim,
            seed=self.embeddings.seed,
        )

    def select(
        self,
        terms: Iterable[int],
        query_digest: str | None = None,
    ) -> SemanticSelection:
        """Select the query's semantic neighborhood ``G_l``.

        The query is embedded and scored against the corpus once;
        that one cosine vector both ranks the seeds and classifies
        which pages the crawl expands.  ``query_digest`` is
        :meth:`query_digest` of ``terms`` when the caller already
        holds it (computed here when omitted).
        """
        term_list = [int(t) for t in terms]
        similarities = self.embeddings.similarities(
            self.embeddings.embed_terms(term_list)
        )
        retrieval = self.retriever.retrieve(
            term_list,
            m=self.top_m,
            min_similarity=self.similarity_threshold,
            similarities=similarities,
        )
        if retrieval.pages.size == 0:
            raise DatasetError(
                "query matched no pages above similarity "
                f"{self.similarity_threshold}"
            )
        nodes = expand_neighborhood(
            self.graph,
            retrieval.pages,
            similarities,
            self.similarity_threshold,
            max_hops=self.max_hops,
        )
        if query_digest is None:
            query_digest = self.query_digest(term_list)
        return SemanticSelection(
            nodes=nodes,
            retrieval=retrieval,
            similarities=similarities[nodes],
            query_digest=query_digest,
        )

    # ------------------------------------------------------------------
    # Stage 3: answer assembly (stage 2 — ranking — is pluggable)
    # ------------------------------------------------------------------

    def finish(
        self,
        selection: SemanticSelection,
        scores: SubgraphScores,
        k: int = 10,
        estimator_name: str = "exact",
        error_bound: float = 0.0,
    ) -> SemanticAnswer:
        """Ranked neighborhood → deduplicated Top-K answer.

        ``estimator_name`` / ``error_bound`` record the accuracy
        request the scores answer, if any.
        """
        if k < 1:
            raise DatasetError(f"k must be >= 1, got {k}")
        pool_size = min(
            max(k * _DEDUP_POOL_FACTOR, k),
            selection.nodes.size,
        )
        ranked = scores.ranking()[:pool_size]
        pool_scores = scores.scores[
            np.searchsorted(scores.local_nodes, ranked)
        ]
        pool = [
            SearchHit(page=page, score=score, rank=rank)
            for rank, (page, score) in enumerate(
                zip(ranked.tolist(), pool_scores.tolist()), start=1
            )
        ]
        dedup = deduplicate_answers(
            pool, self.embeddings, tau=self.tau
        )
        kept = dedup.hits[:k]
        similarities = selection.similarities[
            np.searchsorted(selection.nodes, [hit.page for hit in kept])
        ]
        hits = tuple(
            SemanticHit(
                page=hit.page,
                score=hit.score,
                rank=rank,
                similarity=similarity,
                cluster_size=len(cluster.members),
                merged_score=cluster.merged_score,
            )
            for rank, (hit, similarity, cluster) in enumerate(
                zip(kept, similarities.tolist(), dedup.clusters),
                start=1,
            )
        )
        return SemanticAnswer(
            hits=hits,
            local_nodes=selection.nodes,
            scores=scores,
            query_digest=selection.query_digest,
            estimator=estimator_name,
            error_bound=float(error_bound),
            candidates_pruned=selection.retrieval.pruned,
            dedup_merges=dedup.merges,
            neighborhood_size=int(selection.nodes.size),
            extras={
                "clusters": [
                    {
                        "representative": c.representative,
                        "members": list(c.members),
                        "merged_score": c.merged_score,
                    }
                    for c in dedup.clusters[:k]
                ],
                "seeds": selection.retrieval.pages.tolist(),
                "candidates_scored": (
                    selection.retrieval.candidates
                ),
            },
        )

    # ------------------------------------------------------------------
    # The whole offline path
    # ------------------------------------------------------------------

    def run(
        self,
        terms: Iterable[int],
        k: int = 10,
        estimator: str | None = None,
    ) -> SemanticAnswer:
        """Run the full pipeline offline (select → rank → dedup).

        ``estimator`` is an accuracy request (``"push:r_max=1e-3"``)
        or ``None``/``"exact"``.  Either way the neighborhood takes the
        exact :func:`approxrank` path, bit-identical to what the
        serving route returns for the same query; a request adds its
        certified bound to the answer (and raises
        :class:`~repro.exceptions.EstimationError` when ``r_max`` is
        below it).
        """
        request = resolve_estimator(estimator)
        term_list = [int(t) for t in terms]
        selection = self.select(term_list)
        if self._preprocessor is None:
            self._preprocessor = ApproxRankPreprocessor(self.graph)
        scores = approxrank(
            self.graph,
            selection.nodes,
            self.settings,
            preprocessor=self._preprocessor,
        )
        if request is None:
            return self.finish(selection, scores, k=k)
        return self.finish(
            selection,
            scores,
            k=k,
            estimator_name=request.name,
            error_bound=request.certify(scores, self.settings),
        )
