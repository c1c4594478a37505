"""Diversity benchmark: semantic subgraphs vs the topology families.

The spec behind ``python -m repro bench semantic`` (record:
``BENCH_semantic.json``).  One politics-like web is queried three ways
and every resulting ``G_l`` is ranked through the same machinery:

* **TS** — the paper's topic subgraph (category pages + focused
  crawl, §V-C): the topology-derived family the semantic pipeline is
  meant to complement;
* **RS** — a uniform-random node set of the *same size* as the
  semantic neighborhood: the no-structure control;
* **semantic** — the query-derived neighborhood from
  :class:`~repro.semantic.pipeline.SemanticPipeline` (cosine seeds +
  hop-bounded closure).

Per family the record holds the extraction cost, the exact-solver
latency, and an accuracy request (``push:r_max``, answered by the
exact solve) whose *certified* L1 bound over the n+1 extended vector
is compared against the measured error (``bound_tightness`` = bound /
measured — how much the truncation certificate overshoots on that
subgraph shape).  The diversity suite scores each family's Top-K by
**redundancy** — mean pairwise cosine similarity among the answers —
and records the semantic pipeline's pre- vs post-dedup redundancy,
which the dedup pass must not increase.

The clauses are correctness claims and are **never** waived:

* **determinism** — re-running the identical query on a freshly
  rebuilt pipeline (same seeds) must reproduce the answer page list,
  the query digest, and bit-identical scores;
* **certificate[family]** — each family's measured L1 error must sit
  under the accuracy request's certified bound (plus the baseline's
  own truncation slack).
"""

from __future__ import annotations

import numpy as np

from repro.core.precompute import ApproxRankPreprocessor
from repro.estimation.push import PushEstimator
from repro.generators.datasets import make_politics_like
from repro.pagerank.solver import PowerIterationSettings
from repro.perf.harness import (
    Bench,
    Clause,
    Outcome,
    higher,
    lower,
    neutral,
    timed,
)
from repro.search.lexicon import SyntheticLexicon
from repro.semantic.embeddings import PageEmbeddings
from repro.semantic.pipeline import SemanticPipeline
from repro.subgraphs.topic import topic_subgraph

FULL_PAGES = 20_000
SMOKE_PAGES = 2_500

#: r_max of the per-family accuracy request: above the exact solve's
#: certified bound at the default tolerance (about 6.7e-5 at
#: ε = 0.85), so every family is answered.
R_MAX = 1e-3

#: Baseline tolerance: the "truth" the errors are measured against,
#: solved far tighter than the bounds being compared.
BASELINE_TOLERANCE = 1e-12

#: Absorbs the baseline's own truncation error when a certificate is
#: nearly exact.
BASELINE_SLACK = 1e-9

#: Answers scored by the diversity suite.
TOP_K = 10


def _redundancy(
    embeddings: PageEmbeddings, pages: np.ndarray
) -> float:
    """Mean pairwise cosine similarity among ``pages`` (0 if < 2)."""
    pages = np.asarray(pages, dtype=np.int64)
    n = pages.size
    if n < 2:
        return 0.0
    sims = embeddings.pairwise(pages)
    return float((sims.sum() - np.trace(sims)) / (n * (n - 1)))


def _pipeline(dataset, seed: int) -> SemanticPipeline:
    lexicon = SyntheticLexicon(
        dataset.graph, group_of=dataset.labels["topic"], seed=seed
    )
    return SemanticPipeline(dataset.graph, lexicon, embedding_seed=seed)


def _build(smoke: bool, seed: int):
    pages = SMOKE_PAGES if smoke else FULL_PAGES
    return make_politics_like(num_pages=pages, seed=seed), seed


def _measure(workload) -> Outcome:
    dataset, seed = workload
    graph = dataset.graph
    pipeline = _pipeline(dataset, seed)
    embeddings = pipeline.embeddings
    query_terms = [int(t) for t in pipeline.lexicon.popular_terms(3)]
    prep = ApproxRankPreprocessor(graph)
    baseline_settings = PowerIterationSettings(tolerance=BASELINE_TOLERANCE)

    # The three node sets.
    semantic_seconds, selection = timed(lambda: pipeline.select(query_terms))
    topic_name = dataset.label_names["topic"][1]  # first named topic
    ts_seconds, ts_nodes = timed(
        lambda: topic_subgraph(dataset, topic_name, max_depth=3)
    )
    rng = np.random.default_rng(seed)
    rs_seconds, rs_nodes = timed(
        lambda: np.sort(
            rng.choice(
                graph.num_nodes,
                size=min(int(selection.nodes.size), graph.num_nodes),
                replace=False,
            )
        ).astype(np.int64)
    )

    # Per family: exact latency, and the accuracy request's certified
    # bound against the measured error over the n+1 extended vector.
    metrics = {}
    clauses = []
    for name, nodes, extract_seconds in (
        ("TS", ts_nodes, ts_seconds),
        ("RS", rs_nodes, rs_seconds),
        ("semantic", selection.nodes, semantic_seconds),
    ):
        baseline = prep.rank(nodes, baseline_settings)
        exact_seconds, exact = timed(
            lambda: prep.rank(nodes, PowerIterationSettings())
        )
        push_seconds, push = timed(
            lambda: PushEstimator(r_max=R_MAX).estimate(
                graph, nodes, settings=PowerIterationSettings(),
                preprocessor=prep,
            )
        )
        error_l1 = float(
            np.abs(push.scores - baseline.scores).sum()
            + abs(
                push.extras["lambda_score"] - baseline.extras["lambda_score"]
            )
        )
        bound = float(push.extras["error_bound"])
        family = f"families[{name}]"
        metrics.update({
            f"{family}.nodes": neutral(nodes.size, "pages"),
            f"{family}.node_fraction": neutral(
                float(nodes.size) / graph.num_nodes, "ratio"
            ),
            f"{family}.extract_seconds": lower(extract_seconds, "s"),
            f"{family}.exact_latency_seconds": lower(exact_seconds, "s"),
            f"{family}.exact_iterations": lower(exact.iterations, "count"),
            f"{family}.push.error_l1": lower(error_l1, "L1"),
            f"{family}.push.error_bound": lower(bound, "L1"),
            f"{family}.push.bound_tightness": lower(
                bound / max(error_l1, BASELINE_SLACK), "x"
            ),
            f"{family}.push.seconds": lower(push_seconds, "s"),
            f"{family}.redundancy_topk": lower(
                _redundancy(embeddings, exact.ranking()[:TOP_K]), "cosine"
            ),
        })
        clauses.append(
            Clause(
                f"certificate[{name}]", error_l1, bound + BASELINE_SLACK,
                "lower",
            )
        )

    # The end-to-end semantic answer and the dedup diversity delta.
    end_to_end_seconds, answer = timed(
        lambda: pipeline.run(query_terms, k=TOP_K)
    )
    answer_pages = np.asarray(answer.answer_pages(), dtype=np.int64)
    pre_dedup = answer.scores.ranking()[: answer_pages.size]
    metrics.update({
        "semantic_answer.end_to_end_latency_seconds": lower(
            end_to_end_seconds, "s"
        ),
        "semantic_answer.neighborhood_size": neutral(
            answer.neighborhood_size, "pages"
        ),
        "semantic_answer.candidates_pruned": neutral(
            answer.candidates_pruned, "count"
        ),
        "semantic_answer.dedup_merges": neutral(answer.dedup_merges, "count"),
        "semantic_answer.seed_similarity_mean": higher(
            float(selection.retrieval.similarities.mean()), "cosine"
        ),
        "semantic_answer.redundancy_pre_dedup": lower(
            _redundancy(embeddings, pre_dedup), "cosine"
        ),
        "semantic_answer.redundancy_post_dedup": lower(
            _redundancy(embeddings, answer_pages), "cosine"
        ),
    })

    # Determinism: a freshly rebuilt pipeline — new lexicon, new
    # embeddings, same seeds — must reproduce the answer exactly.
    answer_again = _pipeline(dataset, seed).run(query_terms, k=TOP_K)
    determinism = {
        "answers_identical": (
            answer_again.answer_pages() == answer.answer_pages()
        ),
        "digests_identical": answer_again.query_digest == answer.query_digest,
        "scores_bit_identical": bool(
            np.array_equal(answer_again.scores.scores, answer.scores.scores)
            and np.array_equal(answer_again.local_nodes, answer.local_nodes)
        ),
    }
    clauses.insert(
        0, Clause("determinism", all(determinism.values()), True, "higher")
    )

    return Outcome(
        workload={
            "pages": int(graph.num_nodes),
            "global_edges": int(graph.num_edges),
            "query_terms": query_terms,
            "topic": topic_name,
            "k": TOP_K,
            "r_max": R_MAX,
            "baseline_tolerance": BASELINE_TOLERANCE,
            "baseline_slack": BASELINE_SLACK,
        },
        metrics=metrics,
        clauses=clauses,
        facts={
            "query_digest": answer.query_digest,
            "answer_pages": [int(p) for p in answer_pages],
            **{f"determinism.{k}": bool(v) for k, v in determinism.items()},
        },
    )


BENCH = Bench(
    name="semantic",
    record="BENCH_semantic.json",
    title="semantic diversity benchmark (TS / RS / semantic families)",
    build=_build,
    measure=_measure,
)
