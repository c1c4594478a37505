"""The fifth subgraph family: query-derived semantic neighborhoods.

``semantic_subgraph`` has the same shape as every extractor in
``repro/subgraphs`` — it returns a sorted array of global page ids
and raises :class:`SubgraphError` on bad input — so ``rank_many``,
the estimators, and the bench harness consume it unchanged.  The
construction mirrors the paper's TS crawl, with the relevance
classifier replaced by cosine similarity to the query:

* the query's top-M most similar pages seed the neighborhood;
* a hop-bounded crawl follows out-links, expanding only from pages
  whose similarity clears ``similarity_threshold`` (off-query pages
  reached by a link are *included* as the fringe but not expanded —
  exactly the focused-crawl boundary semantics).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.exceptions import SubgraphError
from repro.graph.digraph import CSRGraph
from repro.semantic.similarity import SemanticRetriever
from repro.subgraphs.topic import focused_crawl

__all__ = ["expand_neighborhood", "semantic_subgraph"]


def expand_neighborhood(
    graph: CSRGraph,
    seed_pages: np.ndarray,
    similarities: np.ndarray,
    similarity_threshold: float,
    max_hops: int = 1,
) -> np.ndarray:
    """Hop-bounded closure of the seeds through on-query pages.

    Parameters
    ----------
    graph:
        The global graph.
    seed_pages:
        Retrieved seed page ids.
    similarities:
        Cosine of *every* page against the query (the expandability
        classifier).
    similarity_threshold:
        A page expands its out-links only when its similarity is at
        least this.
    max_hops:
        Link radius around the seeds.

    Returns a sorted array of page ids (seeds, on-query closure, and
    the one-link off-query fringe).
    """
    similarities = np.asarray(similarities, dtype=np.float64)
    if similarities.shape != (graph.num_nodes,):
        raise SubgraphError(
            "similarities must cover every page, expected shape "
            f"({graph.num_nodes},), got {similarities.shape}"
        )
    expandable = similarities >= float(similarity_threshold)
    return focused_crawl(
        graph, seed_pages, expandable, max_depth=max_hops
    )


def semantic_subgraph(
    graph: CSRGraph,
    retriever: SemanticRetriever,
    terms: Iterable[int],
    top_m: int = 20,
    similarity_threshold: float = 0.05,
    max_hops: int = 1,
) -> np.ndarray:
    """Semantic ``G_l`` of a query (the fifth subgraph family).

    Parameters
    ----------
    graph:
        The global graph (must match the retriever's corpus).
    retriever:
        Query scorer over the graph's pages.
    terms:
        Query term ids.
    top_m:
        Seed count — the query's most similar pages.
    similarity_threshold:
        Minimum cosine both to seed and to expand a page.
    max_hops:
        Link radius of the closure around the seeds.

    Returns
    -------
    Sorted array of global page ids.
    """
    if graph.num_nodes != retriever.embeddings.num_pages:
        raise SubgraphError(
            "retriever was built for a different corpus: graph has "
            f"{graph.num_nodes} pages, embeddings "
            f"{retriever.embeddings.num_pages}"
        )
    if max_hops < 0:
        raise SubgraphError(f"max_hops must be >= 0, got {max_hops}")
    term_list = [int(t) for t in terms]
    embeddings = retriever.embeddings
    all_sims = embeddings.similarities(embeddings.embed_terms(term_list))
    retrieval = retriever.retrieve(
        term_list,
        m=top_m,
        min_similarity=similarity_threshold,
        similarities=all_sims,
    )
    if retrieval.pages.size == 0:
        raise SubgraphError(
            "query matched no pages above similarity "
            f"{similarity_threshold}"
        )
    return expand_neighborhood(
        graph,
        retrieval.pages,
        all_sims,
        similarity_threshold,
        max_hops=max_hops,
    )
