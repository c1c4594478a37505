"""Result containers shared by all ranking algorithms.

Two shapes of result exist in this library:

* :class:`RankResult` — a score per node of whatever graph was solved
  (the global graph, an induced local graph, or an extended Λ graph).
* :class:`SubgraphScores` — the harness-facing result of *estimating
  scores for a subgraph of a global graph*: scores aligned with the
  sorted global ids of the local pages, plus solver accounting and
  algorithm-specific extras (Λ score, SC expansion statistics, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np


@dataclass(frozen=True)
class RankResult:
    """Outcome of one PageRank-style power iteration.

    Attributes
    ----------
    scores:
        Stationary probability per node; sums to 1.
    iterations:
        Power-iteration steps performed.
    residual:
        Final L1 change between successive iterates.
    converged:
        Whether ``residual`` dropped below the tolerance before the
        iteration cap.
    runtime_seconds:
        Wall-clock time spent inside the solver (matrix set-up
        excluded; algorithm wrappers report their own total times).
    method:
        Human-readable algorithm label, e.g. ``"global-pagerank"``.
    """

    scores: np.ndarray
    iterations: int
    residual: float
    converged: bool
    runtime_seconds: float
    method: str

    def __post_init__(self) -> None:
        self.scores.setflags(write=False)

    @property
    def num_nodes(self) -> int:
        """Number of nodes the solved graph had."""
        return int(self.scores.size)

    def top_k(self, k: int) -> np.ndarray:
        """Node ids of the ``k`` highest-scoring nodes, best first.

        Ties are broken by ascending node id so the output is
        deterministic.
        """
        k = min(k, self.scores.size)
        order = np.lexsort((np.arange(self.scores.size), -self.scores))
        return order[:k]


@dataclass(frozen=True)
class SubgraphScores:
    """Estimated PageRank scores for the pages of a subgraph.

    Every subgraph-ranking algorithm in the library —
    :func:`~repro.core.approxrank.approxrank`,
    :func:`~repro.core.idealrank.idealrank`,
    :func:`~repro.baselines.localpr.local_pagerank_baseline`,
    :func:`~repro.baselines.lpr2.lpr2`,
    :func:`~repro.baselines.sc.stochastic_complementation` —
    returns this type, so the metrics and the experiment harness treat
    them uniformly.

    Attributes
    ----------
    local_nodes:
        Sorted global ids of the local pages (length n).
    scores:
        Estimated scores aligned with ``local_nodes``.
    method:
        Algorithm label.
    iterations:
        Power-iteration count of the final solve.
    residual / converged / runtime_seconds:
        Solver accounting; ``runtime_seconds`` covers the whole
        algorithm (construction + solve), which is what Tables V/VI
        report.
    extras:
        Algorithm-specific values.  Conventional keys:

        ``"lambda_score"``
            Score of the external node Λ (IdealRank/ApproxRank).
        ``"xi_score"``
            Score of the artificial page ξ (LPR2).
        ``"expansion_sizes"`` / ``"k"`` / ``"supergraph_size"``
            SC expansion accounting (Tables V/VI columns).
    """

    local_nodes: np.ndarray
    scores: np.ndarray
    method: str
    iterations: int
    residual: float
    converged: bool
    runtime_seconds: float
    extras: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.local_nodes.shape != self.scores.shape:
            raise ValueError(
                "local_nodes and scores must be parallel arrays, got "
                f"{self.local_nodes.shape} vs {self.scores.shape}"
            )
        self.local_nodes.setflags(write=False)
        self.scores.setflags(write=False)

    @property
    def num_local(self) -> int:
        """Number of local pages n."""
        return int(self.local_nodes.size)

    def normalized_scores(self) -> np.ndarray:
        """Scores rescaled to sum to 1 over the local pages.

        Different algorithms leave different total mass on the local
        pages (local PageRank sums to 1, ApproxRank to ``1 - score(Λ)``,
        a restricted global vector to the true local mass), so metric
        comparisons normalise first.
        """
        total = self.scores.sum()
        if total <= 0:
            return np.full_like(self.scores, 1.0 / max(self.scores.size, 1))
        return self.scores / total

    def score_of(self, global_id: int) -> float:
        """Score of one page identified by its global id."""
        pos = np.searchsorted(self.local_nodes, global_id)
        if pos >= self.local_nodes.size or self.local_nodes[pos] != global_id:
            raise KeyError(f"page {global_id} is not in this subgraph")
        return float(self.scores[pos])

    def ranked_order(self) -> np.ndarray:
        """Positions into ``local_nodes``/``scores``, highest score first.

        Ties are broken by ascending global id (deterministic output).
        The arrays are immutable, so the sort runs once per instance
        and every caller shares the one read-only result.
        """
        order = self.__dict__.get("_ranked_order")
        if order is None:
            order = np.lexsort((self.local_nodes, -self.scores))
            order.setflags(write=False)
            object.__setattr__(self, "_ranked_order", order)
        return order

    def ranking(self) -> np.ndarray:
        """Global page ids ordered from highest to lowest score.

        Ties are broken by ascending global id (deterministic output).
        """
        return self.local_nodes[self.ranked_order()]

    def top_k(self, k: int) -> np.ndarray:
        """Global ids of the ``k`` top-ranked local pages."""
        return self.ranking()[: min(k, self.num_local)]
