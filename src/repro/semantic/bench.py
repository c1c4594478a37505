"""Diversity benchmark: semantic subgraphs vs the topology families.

The measurement harness behind ``benchmarks/bench_semantic.py`` and
the ``python -m repro bench-semantic`` CLI subcommand.  One
politics-like web is queried three ways and every resulting ``G_l``
is ranked through the same machinery:

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
subgraph shape).  The diversity suite scores each
family's Top-K by **redundancy** — mean pairwise cosine similarity
among the answers — and records the semantic pipeline's pre- vs
post-dedup redundancy, which the dedup pass must not increase.

Two clauses gate the record; the first is **never** waived:

* **determinism** — re-running the identical query on a freshly
  rebuilt pipeline (same seeds) must reproduce the answer page list,
  the query digest, and bit-identical scores;
* **certificates** — every family's measured L1 error must sit under
  the accuracy request's certified bound (plus the baseline's own
  truncation slack).
"""

from __future__ import annotations

import json
import time
from typing import Any

import numpy as np

from repro.core.precompute import ApproxRankPreprocessor
from repro.estimation.push import PushEstimator
from repro.generators.datasets import make_politics_like
from repro.pagerank.solver import PowerIterationSettings
from repro.search.lexicon import SyntheticLexicon
from repro.semantic.embeddings import PageEmbeddings
from repro.semantic.pipeline import SemanticPipeline
from repro.subgraphs.topic import topic_subgraph

__all__ = [
    "DEFAULT_OUTPUT",
    "run_semantic_benchmark",
    "format_semantic_summary",
]

#: Default record location (repo root when run from the checkout).
DEFAULT_OUTPUT = "BENCH_semantic.json"

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


def run_semantic_benchmark(
    smoke: bool = False,
    pages: int | None = None,
    seed: int = 2009,
    output_path: str | None = DEFAULT_OUTPUT,
) -> dict[str, Any]:
    """Run the TS/RS/semantic diversity benchmark.

    Parameters
    ----------
    smoke:
        Small workload + hard gate (``gate_passed`` is the CI
        criterion).
    pages:
        Workload size override.
    seed:
        Seeds the synthetic web, the lexicon, the embeddings, and the
        RS control's node draw.
    output_path:
        Where to write the JSON record; ``None`` skips writing.

    Returns
    -------
    The record that was (or would have been) written.
    """
    num_pages = pages if pages is not None else (
        SMOKE_PAGES if smoke else FULL_PAGES
    )
    dataset = make_politics_like(num_pages=num_pages, seed=seed)
    graph = dataset.graph
    lexicon = SyntheticLexicon(
        graph, group_of=dataset.labels["topic"], seed=seed
    )
    pipeline = SemanticPipeline(graph, lexicon, embedding_seed=seed)
    embeddings = pipeline.embeddings
    query_terms = [int(t) for t in lexicon.popular_terms(3)]

    prep = ApproxRankPreprocessor(graph)
    baseline_settings = PowerIterationSettings(
        tolerance=BASELINE_TOLERANCE
    )

    # ------------------------------------------------------------------
    # The three node sets.
    # ------------------------------------------------------------------
    start = time.perf_counter()
    selection = pipeline.select(query_terms)
    semantic_extract_seconds = time.perf_counter() - start
    semantic_nodes = selection.nodes

    topic_name = dataset.label_names["topic"][1]  # first named topic
    start = time.perf_counter()
    ts_nodes = topic_subgraph(dataset, topic_name, max_depth=3)
    ts_extract_seconds = time.perf_counter() - start

    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    rs_nodes = np.sort(
        rng.choice(
            graph.num_nodes,
            size=min(int(semantic_nodes.size), graph.num_nodes),
            replace=False,
        )
    ).astype(np.int64)
    rs_extract_seconds = time.perf_counter() - start

    # ------------------------------------------------------------------
    # Per-family measurement: exact latency + certified bound.
    # ------------------------------------------------------------------
    certificates_ok = True
    families: list[dict[str, Any]] = []

    def run_family(
        name: str, nodes: np.ndarray, extract_seconds: float
    ) -> dict[str, Any]:
        nonlocal certificates_ok
        baseline = prep.rank(nodes, baseline_settings)
        start = time.perf_counter()
        exact = prep.rank(nodes, PowerIterationSettings())
        exact_seconds = time.perf_counter() - start
        start = time.perf_counter()
        push = PushEstimator(r_max=R_MAX).estimate(
            graph, nodes, settings=PowerIterationSettings(),
            preprocessor=prep,
        )
        push_seconds = time.perf_counter() - start
        # Over the n+1 extended vector the bound certifies.
        error_l1 = float(
            np.abs(push.scores - baseline.scores).sum()
            + abs(
                push.extras["lambda_score"]
                - baseline.extras["lambda_score"]
            )
        )
        bound = float(push.extras["error_bound"])
        within = error_l1 <= bound + BASELINE_SLACK
        if not within:
            certificates_ok = False
        top_k = exact.ranking()[:TOP_K]
        entry = {
            "family": name,
            "nodes": int(nodes.size),
            "node_fraction": float(nodes.size) / graph.num_nodes,
            "extract_seconds": extract_seconds,
            "exact_latency_seconds": exact_seconds,
            "exact_iterations": int(exact.iterations),
            "push": {
                "r_max": R_MAX,
                "error_l1": error_l1,
                "error_bound": bound,
                "bound_tightness": bound / max(error_l1, BASELINE_SLACK),
                "certificate_ok": bool(within),
                "seconds": push_seconds,
            },
            "redundancy_topk": _redundancy(embeddings, top_k),
        }
        families.append(entry)
        return entry

    run_family("TS", ts_nodes, ts_extract_seconds)
    run_family("RS", rs_nodes, rs_extract_seconds)
    run_family("semantic", semantic_nodes, semantic_extract_seconds)

    # ------------------------------------------------------------------
    # The end-to-end semantic answer + the dedup diversity delta.
    # ------------------------------------------------------------------
    start = time.perf_counter()
    answer = pipeline.run(query_terms, k=TOP_K)
    end_to_end_seconds = time.perf_counter() - start
    answer_pages = np.asarray(answer.answer_pages(), dtype=np.int64)
    pre_dedup = answer.scores.ranking()[: answer_pages.size]
    semantic_answer = {
        "end_to_end_latency_seconds": end_to_end_seconds,
        "neighborhood_size": answer.neighborhood_size,
        "candidates_pruned": answer.candidates_pruned,
        "dedup_merges": answer.dedup_merges,
        "answer_pages": [int(p) for p in answer_pages],
        "seed_similarity_mean": float(
            selection.retrieval.similarities.mean()
        ),
        "redundancy_pre_dedup": _redundancy(embeddings, pre_dedup),
        "redundancy_post_dedup": _redundancy(
            embeddings, answer_pages
        ),
    }

    # Determinism clause (never waived): a freshly rebuilt pipeline —
    # new lexicon, new embeddings, same seeds — must reproduce the
    # answer exactly.
    lexicon_again = SyntheticLexicon(
        graph, group_of=dataset.labels["topic"], seed=seed
    )
    pipeline_again = SemanticPipeline(
        graph, lexicon_again, embedding_seed=seed
    )
    answer_again = pipeline_again.run(query_terms, k=TOP_K)
    answers_identical = (
        answer_again.answer_pages() == answer.answer_pages()
    )
    digests_identical = (
        answer_again.query_digest == answer.query_digest
    )
    scores_identical = bool(
        np.array_equal(
            answer_again.scores.scores, answer.scores.scores
        )
        and np.array_equal(
            answer_again.local_nodes, answer.local_nodes
        )
    )
    determinism_ok = bool(
        answers_identical and digests_identical and scores_identical
    )

    gate_passed = bool(determinism_ok and certificates_ok)

    record: dict[str, Any] = {
        "benchmark": "semantic",
        "smoke": smoke,
        "created_unix": time.time(),
        "pages": num_pages,
        "global_edges": int(graph.num_edges),
        "seed": seed,
        "query_terms": query_terms,
        "topic": topic_name,
        "k": TOP_K,
        "r_max": R_MAX,
        "baseline_tolerance": BASELINE_TOLERANCE,
        "baseline_slack": BASELINE_SLACK,
        "families": families,
        "semantic_answer": semantic_answer,
        "determinism": {
            "ok": determinism_ok,
            "answers_identical": bool(answers_identical),
            "digests_identical": bool(digests_identical),
            "scores_bit_identical": scores_identical,
            "query_digest": answer.query_digest,
        },
        "certificates_ok": certificates_ok,
        # Determinism and certificate honesty are correctness claims,
        # never waived.
        "waivers": [],
        "gate_passed": gate_passed,
    }
    if output_path:
        with open(output_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
    return record


def format_semantic_summary(record: dict[str, Any]) -> str:
    """Human-readable summary of a semantic benchmark record."""
    lines = [
        "semantic diversity benchmark ({} pages, {} global edges, "
        "query terms {})".format(
            record["pages"],
            record["global_edges"],
            record["query_terms"],
        ),
        "  {:<10} {:>7} {:>8} {:>9} {:>11} {:>11} {:>11}".format(
            "family", "nodes", "exact_s", "push_s", "err_l1",
            "bound", "redundancy",
        ),
    ]
    for fam in record["families"]:
        push = fam["push"]
        lines.append(
            "  {:<10} {:>7} {:>8.3f} {:>9.3f} {:>11.2e} {:>11.2e} "
            "{:>11.3f}".format(
                fam["family"], fam["nodes"],
                fam["exact_latency_seconds"], push["seconds"],
                push["error_l1"], push["error_bound"],
                fam["redundancy_topk"],
            )
        )
    answer = record["semantic_answer"]
    lines.append(
        "  semantic answer: {} pages from a {}-node neighborhood in "
        "{:.3f}s end-to-end ({} dedup merges, {} candidates pruned)".format(
            len(answer["answer_pages"]),
            answer["neighborhood_size"],
            answer["end_to_end_latency_seconds"],
            answer["dedup_merges"],
            answer["candidates_pruned"],
        )
    )
    lines.append(
        "  dedup redundancy: {:.3f} -> {:.3f}".format(
            answer["redundancy_pre_dedup"],
            answer["redundancy_post_dedup"],
        )
    )
    lines.append(
        "  determinism (never waived): {}   certificates: {}".format(
            "ok" if record["determinism"]["ok"] else "VIOLATED",
            "ok" if record["certificates_ok"] else "VIOLATED",
        )
    )
    lines.append(
        "  gate: {}".format(
            "PASSED" if record["gate_passed"] else "FAILED"
        )
    )
    return "\n".join(lines)
