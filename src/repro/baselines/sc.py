"""Competitor ◆: SC — stochastic complementation (Davis & Dhillon, KDD'06).

SC estimates the global PageRank of a local domain by *growing a
supergraph*: starting from the n local pages it repeatedly crawls the
frontier (pages one out-link hop outside the current graph), scores
each candidate by its estimated influence on the local PageRank, keeps
the top k, and re-ranks the enlarged graph.  After T expansions the
PageRank of the final supergraph, restricted to the local pages, is the
estimate.

Following §V-A of the ApproxRank paper we use T = 25 expansions and a
total expansion budget of n external pages, i.e. k = ⌈n/25⌉ per round
(matching the k column of Tables V/VI).

Influence estimation
--------------------
KDD'06 scores a frontier page j by (approximately) how much adding j
alone would move the local PageRank vector — which in principle costs a
PageRank solve on an (n+1)-page graph per candidate.  Two estimators
are provided:

* ``influence="first-order"`` (default): influence(j) ≈
  ε · p̃(j) · (probability j steps back into the supergraph), where
  p̃(j) is j's one-step PageRank estimate from the current supergraph
  vector.  This is the standard first-order expansion of the exact
  quantity and keeps each round at one sparse mat-vec, while the
  algorithm still pays a full PageRank on the growing supergraph every
  round — preserving the runtime blow-up Tables V/VI report.
* ``influence="exact"``: per-candidate PageRank on the supergraph plus
  the candidate, measuring the true L1 change on the local pages.
  Cost is O(|frontier| · PageRank); usable only on small graphs (the
  tests cross-check the first-order ranking against it).

The ``#ext nodes per expansion`` statistics of Tables V/VI (cumulative
count of distinct frontier candidates examined) are reported in
``extras["expansion_candidates"]``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.exceptions import SubgraphError
from repro.graph.digraph import CSRGraph
from repro.graph.subgraph import induced_subgraph, normalize_node_set
from repro.graph.traversal import frontier_of
from repro.pagerank.localrank import pagerank_on_graph
from repro.pagerank.result import SubgraphScores
from repro.pagerank.solver import PowerIterationSettings
from repro.pagerank.transition import transition_matrix


@dataclass(frozen=True)
class SCSettings:
    """Knobs of the SC supergraph construction.

    Attributes
    ----------
    expansions:
        Number of frontier-expansion rounds T (paper: 25).
    budget_fraction:
        Total external pages to add, as a fraction of n (paper: 1.0,
        i.e. "expand the subgraph ... to select another n external
        pages"); k per round is ``ceil(budget_fraction * n / T)``.
    influence:
        ``"first-order"`` or ``"exact"`` (see module docstring).
    """

    expansions: int = 25
    budget_fraction: float = 1.0
    influence: str = "first-order"

    def __post_init__(self) -> None:
        if self.expansions < 1:
            raise ValueError(
                f"expansions must be >= 1, got {self.expansions}"
            )
        if self.budget_fraction <= 0:
            raise ValueError(
                f"budget_fraction must be positive, got "
                f"{self.budget_fraction}"
            )
        if self.influence not in ("first-order", "exact"):
            raise ValueError(
                "influence must be 'first-order' or 'exact', got "
                f"{self.influence!r}"
            )


def stochastic_complementation(
    graph: CSRGraph,
    local_nodes: Iterable[int],
    settings: PowerIterationSettings | None = None,
    sc_settings: SCSettings | None = None,
) -> SubgraphScores:
    """Estimate subgraph PageRank via SC supergraph expansion.

    Parameters
    ----------
    graph:
        The global graph (SC reads only out-links of pages it has
        crawled into the supergraph, plus the out-links of frontier
        candidates — the access pattern of a real crawler).
    local_nodes:
        Global ids of the local pages.
    settings:
        PageRank solver knobs for the per-round and final solves.
    sc_settings:
        Expansion knobs (paper defaults when omitted).

    Returns
    -------
    SubgraphScores
        Estimated scores for the local pages.  ``extras`` carries the
        Tables V/VI accounting: ``"k"``, ``"expansion_candidates"``
        (cumulative distinct frontier pages per round) and
        ``"supergraph_size"``.
    """
    if sc_settings is None:
        sc_settings = SCSettings()
    if settings is None:
        settings = PowerIterationSettings()
    start = time.perf_counter()

    local = normalize_node_set(graph, local_nodes)
    num_local = int(local.size)
    if num_local >= graph.num_nodes:
        raise SubgraphError("SC needs at least one external page")

    transition, __ = transition_matrix(graph)
    per_round = int(
        np.ceil(sc_settings.budget_fraction * num_local
                / sc_settings.expansions)
    )
    per_round = max(per_round, 1)

    in_super = np.zeros(graph.num_nodes, dtype=bool)
    in_super[local] = True
    super_nodes = local.copy()
    seen_candidates = np.zeros(graph.num_nodes, dtype=bool)
    expansion_candidates: list[int] = []
    total_iterations = 0

    for __ in range(sc_settings.expansions):
        sub = induced_subgraph(graph, super_nodes)
        ranked = pagerank_on_graph(sub.graph, settings)
        total_iterations += ranked.iterations

        frontier = frontier_of(graph, in_super)
        seen_candidates[frontier] = True
        expansion_candidates.append(int(np.count_nonzero(seen_candidates)))
        if frontier.size == 0:
            break

        if sc_settings.influence == "first-order":
            influence = _first_order_influence(
                transition, super_nodes, frontier, ranked.scores,
                in_super, settings.damping,
            )
        else:
            influence = _exact_influence(
                graph, super_nodes, frontier, local, ranked.scores,
                sub.to_local(local), settings,
            )

        take = min(per_round, frontier.size)
        # Highest influence first; ties broken by ascending node id for
        # determinism (the paper notes ties make SC's supergraph, and
        # hence its accuracy, non-unique).
        order = np.lexsort((frontier, -influence))
        chosen = frontier[order[:take]]
        in_super[chosen] = True
        super_nodes = np.sort(np.concatenate([super_nodes, chosen]))

    final_sub = induced_subgraph(graph, super_nodes)
    final = pagerank_on_graph(final_sub.graph, settings)
    total_iterations += final.iterations
    local_positions = final_sub.to_local(local)
    scores = final.scores[local_positions]

    runtime = time.perf_counter() - start
    return SubgraphScores(
        local_nodes=local.copy(),
        scores=scores.copy(),
        method="sc",
        iterations=total_iterations,
        residual=final.residual,
        converged=final.converged,
        runtime_seconds=runtime,
        extras={
            "k": per_round,
            "expansion_candidates": tuple(expansion_candidates),
            "supergraph_size": int(super_nodes.size),
        },
    )


def _first_order_influence(
    transition,
    super_nodes: np.ndarray,
    frontier: np.ndarray,
    super_scores: np.ndarray,
    in_super: np.ndarray,
    damping: float,
) -> np.ndarray:
    """First-order estimate of each candidate's effect on local scores.

    influence(j) ≈ ε² · p̃(j) · backflow(j) + (1−ε)/|F∪{j}| · backflow(j)
    where p̃(j) is the mass j would receive from the current supergraph
    in one step and backflow(j) the probability j steps back inside.
    The constant factors do not change the *ranking* of candidates, so
    we keep the dominant ε·p̃·backflow term.
    """
    # Mass flowing from supergraph pages into each frontier candidate.
    rows = transition[super_nodes]            # |F| x N
    inflow = rows.T @ super_scores            # length N
    received = inflow[frontier]
    base = (1.0 - damping) / (super_nodes.size + 1.0)
    estimated_rank = damping * received + base

    # Probability each candidate's random step returns to the
    # supergraph: row sums of the candidate rows restricted to F.
    candidate_rows = transition[frontier]     # |C| x N
    mask_cols = in_super.astype(np.float64)
    backflow = candidate_rows @ mask_cols
    return estimated_rank * backflow


def _exact_influence(
    graph: CSRGraph,
    super_nodes: np.ndarray,
    frontier: np.ndarray,
    local: np.ndarray,
    super_scores: np.ndarray,
    local_positions: np.ndarray,
    settings: PowerIterationSettings,
) -> np.ndarray:
    """Exact influence: L1 change of local scores when adding each j.

    O(|frontier|) PageRank solves — the cost KDD'06's machinery
    approximates.  Used in tests to validate the first-order ranking.
    """
    reference = super_scores[local_positions]
    reference = reference / reference.sum()
    influence = np.zeros(frontier.size, dtype=np.float64)
    for pos, candidate in enumerate(frontier):
        extended_nodes = np.sort(np.append(super_nodes, candidate))
        sub = induced_subgraph(graph, extended_nodes)
        ranked = pagerank_on_graph(sub.graph, settings)
        candidate_local = ranked.scores[sub.to_local(local)]
        candidate_local = candidate_local / candidate_local.sum()
        influence[pos] = float(np.abs(candidate_local - reference).sum())
    return influence
