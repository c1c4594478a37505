"""Semantic query→subgraph pipeline (query-derived ``G_l``).

Every other subgraph family (``repro/subgraphs``) is carved out of the
graph by *topology* — a crawl frontier, a domain, a topic label.  This
package derives ``G_l`` from a *query*: pages are embedded offline
(feature-hashed TF-IDF over the lexicon's terms, numpy/scipy only), a
query selects its semantic neighborhood by cosine similarity plus a
hop-bounded link closure, ApproxRank ranks the neighborhood, and an
entity-resolution pass collapses near-duplicate answers.  The final
layer (``repro.serve``'s ``/semantic-search`` route) serves the whole
pipeline online, with accuracy requests and store-backed caching.

Layers
------
``embeddings``
    :class:`PageEmbeddings` — deterministic sparse page vectors,
    persisted/mmap-loadable beside the graph npz.
``similarity``
    :class:`SemanticRetriever` — cosine top-M with optional
    inverted-index candidate pruning.
``subgraph``
    :func:`semantic_subgraph` — the fifth subgraph family (same
    interface as ``repro/subgraphs/*``).
``dedup``
    :func:`deduplicate_answers` — union-find clustering at
    similarity ≥ τ, max-ApproxRank representatives.
``pipeline``
    :class:`SemanticPipeline` — query→select→rank→dedup end-to-end,
    shared by the offline CLI and the serving route.
"""

from repro.semantic.dedup import DedupCluster, DedupResult, deduplicate_answers
from repro.semantic.embeddings import PageEmbeddings
from repro.semantic.metrics import (
    NEIGHBORHOOD_BUCKETS,
    record_semantic_metrics,
)
from repro.semantic.pipeline import (
    SemanticAnswer,
    SemanticHit,
    SemanticPipeline,
    SemanticSelection,
    semantic_query_digest,
)
from repro.semantic.similarity import Retrieval, SemanticRetriever
from repro.semantic.subgraph import expand_neighborhood, semantic_subgraph

__all__ = [
    "DedupCluster",
    "DedupResult",
    "NEIGHBORHOOD_BUCKETS",
    "PageEmbeddings",
    "Retrieval",
    "SemanticAnswer",
    "SemanticHit",
    "SemanticPipeline",
    "SemanticRetriever",
    "SemanticSelection",
    "deduplicate_answers",
    "expand_neighborhood",
    "record_semantic_metrics",
    "semantic_query_digest",
    "semantic_subgraph",
]
