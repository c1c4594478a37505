"""One-pass global preprocessing for amortised ApproxRank.

§IV-B points out "an advantageous quality about ApproxRank is that it
is suitable to adopt precomputation for various subgraphs.  With the
same global graph, A_approx can be figured out easily from the
difference between the local values and the global values."

:class:`ApproxRankPreprocessor` implements exactly that: it scans the
global graph once, storing

* the global transition matrix ``A`` (shared, CSR);
* the global *column sums* ``colsum[k] = Σ_j A[j, k]`` — the total
  inbound transition probability of every page;
* the dangling-page mask and count.

For any subgraph the Λ row of ``A_approx`` is then
``(colsum[local] − column sums of the local block) / (N − n)`` plus the
dangling-external term, so each additional subgraph costs only
O(local edges) — no second pass over the global graph.
"""

from __future__ import annotations

import time
from typing import Iterable

import numpy as np

from repro.core.extended import (
    ExtendedLocalGraph,
    extended_transition_transpose,
    p_ideal_vector,
    solve_to_subgraph_scores,
)
from repro.exceptions import SubgraphError
from repro.graph.digraph import CSRGraph
from repro.graph.subgraph import normalize_node_set
from repro.pagerank.result import SubgraphScores
from repro.pagerank.solver import PowerIterationSettings
from repro.perf.cache import cached_local_block, cached_transition_matrix


class ApproxRankPreprocessor:
    """Amortises the global pass of ApproxRank across many subgraphs.

    Examples
    --------
    >>> prep = ApproxRankPreprocessor(global_graph)     # one global pass
    >>> for domain_nodes in domains:                    # cheap per call
    ...     scores = prep.rank(domain_nodes)
    """

    def __init__(self, graph: CSRGraph):
        start = time.perf_counter()
        self._graph = graph
        # The global pass routes through the shared transition cache,
        # so a preprocessor built after any other solve on this graph
        # (or a second preprocessor) pays nothing for the matrix.
        self._transition, self._dangling_mask = cached_transition_matrix(
            graph
        )
        self._colsum = np.asarray(self._transition.sum(axis=0)).ravel()
        self._num_dangling = int(np.count_nonzero(self._dangling_mask))
        self.preprocess_seconds = time.perf_counter() - start

    @property
    def graph(self) -> CSRGraph:
        """The global graph this preprocessor was built for."""
        return self._graph

    @property
    def num_global(self) -> int:
        """N, the global page count."""
        return self._graph.num_nodes

    def extended_graph(
        self, local_nodes: Iterable[int]
    ) -> ExtendedLocalGraph:
        """Assemble ``A_approx``'s extended graph with local-only cost."""
        local = normalize_node_set(self._graph, local_nodes)
        num_global = self.num_global
        num_local = int(local.size)
        if num_local >= num_global:
            raise SubgraphError(
                "the local graph must be a proper subgraph: "
                f"n={num_local} >= N={num_global}"
            )
        num_external = num_global - num_local

        # Subgraph-dependent structure comes from the shared cache, so
        # re-ranking the same subgraph (or ranking it under several E
        # estimates elsewhere) never re-slices the global matrix.
        bundle = cached_local_block(self._graph, local)
        local_dangling = bundle.local_dangling

        # E_approx is uniform 1/(N-n); the Λ-row entry for local page k
        # is the average inbound probability from external pages:
        #   (Σ_j A[j,k]  −  Σ_{j local} A[j,k]) / (N − n)
        # plus the patched-uniform rows of dangling external pages.
        external_inflow = self._colsum[local] - bundle.block_colsum
        np.clip(external_inflow, 0.0, None, out=external_inflow)
        dangling_external = self._num_dangling - int(
            np.count_nonzero(local_dangling)
        )
        lambda_row = (
            external_inflow + dangling_external / num_global
        ) / num_external
        lambda_self = max(1.0 - float(lambda_row.sum()), 0.0)

        transition_ext_t = extended_transition_transpose(
            bundle.local_block, bundle.to_lambda, lambda_row, lambda_self
        )
        dangling_ext = np.zeros(num_local + 1, dtype=bool)
        dangling_ext[:num_local] = local_dangling
        return ExtendedLocalGraph(
            local_nodes=local,
            transition_ext_t=transition_ext_t,
            dangling_mask_ext=dangling_ext,
            p_ideal=p_ideal_vector(num_global, num_local),
            num_global=num_global,
            mode="approx",
        )

    def rank(
        self,
        local_nodes: Iterable[int],
        settings: PowerIterationSettings | None = None,
        backend=None,
    ) -> SubgraphScores:
        """ApproxRank for one subgraph, reusing the global pass.

        ``runtime_seconds`` on the result covers only the per-subgraph
        work, which is what the amortised-cost rows of Tables V/VI
        measure; the one-off global pass is available separately as
        :attr:`preprocess_seconds`.  ``backend`` selects the solver
        precision (``None`` = process default).
        """
        start = time.perf_counter()
        extended = self.extended_graph(local_nodes)
        solve = extended.solve(settings, backend=backend)
        runtime = time.perf_counter() - start
        return solve_to_subgraph_scores(
            extended,
            method="approxrank",
            total_runtime=runtime,
            solve=solve,
            extras={"preprocess_seconds": self.preprocess_seconds},
        )
