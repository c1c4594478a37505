"""Metrics publishing for the semantic pipeline.

One helper: every surface that runs a semantic query (serving route, CLI, bench)
calls :func:`record_semantic_metrics` with the finished answer, so
the ``repro_semantic_*`` families always mean the same thing no
matter which layer produced them.
"""

from __future__ import annotations

from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.semantic.pipeline import SemanticAnswer

__all__ = ["NEIGHBORHOOD_BUCKETS", "record_semantic_metrics"]

# Neighborhood sizes span "a handful of near-duplicates" to "a whole
# topic cluster plus fringe"; log-spaced buckets cover both.
NEIGHBORHOOD_BUCKETS: tuple[float, ...] = (
    1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0, 10000.0,
)


def record_semantic_metrics(
    answer: SemanticAnswer,
    registry: MetricsRegistry | None = None,
) -> None:
    """Publish one semantic query's accounting to the registry.

    Families (labelled by ``estimator``, the accuracy request the
    answer carries, where rates are per request kind):

    * ``repro_semantic_queries_total`` — semantic queries answered;
    * ``repro_semantic_candidates_pruned_total`` — pages the
      inverted index skipped before scoring;
    * ``repro_semantic_dedup_merges_total`` — near-duplicate answers
      folded into their representative;
    * ``repro_semantic_neighborhood_pages`` — selected ``G_l`` size
      distribution.
    """
    reg = REGISTRY if registry is None else registry
    estimator = str(answer.estimator)
    reg.counter(
        "repro_semantic_queries_total",
        "Semantic queries answered, by estimator.",
        estimator=estimator,
    ).inc()
    reg.counter(
        "repro_semantic_candidates_pruned_total",
        "Pages skipped by inverted-index candidate pruning.",
    ).inc(float(answer.candidates_pruned))
    reg.counter(
        "repro_semantic_dedup_merges_total",
        "Near-duplicate answers collapsed into a representative.",
    ).inc(float(answer.dedup_merges))
    reg.histogram(
        "repro_semantic_neighborhood_pages",
        "Pages in the selected semantic neighborhood G_l.",
        buckets=NEIGHBORHOOD_BUCKETS,
    ).observe(float(answer.neighborhood_size))
