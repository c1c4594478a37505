"""The web frontier: dangling pages and their feeding neighbourhood.

§I's final motivating scenario: "the subgraph of the Web that
experiences the most change ... can be either a set of dangling pages
that crawlers have not as yet crawled, referred to as the web
'frontier' (Eiron, McCurley, Tomlin — WWW'04), or the set of pages
that are most affected by updates."  Ranking the frontier is how a
crawler prioritises what to fetch next.

A dangling page's score is determined entirely by its in-links, so the
natural frontier subgraph is the dangling set plus the pages that link
into it (a configurable number of in-link hops) — giving the extended
walk the local structure that actually feeds the frontier.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from repro.exceptions import SubgraphError
from repro.graph.digraph import CSRGraph
from repro.graph.traversal import _bfs_levels


def dangling_frontier_subgraph(
    graph: CSRGraph, halo_hops: int = 1
) -> np.ndarray:
    """Dangling pages plus an in-link halo.

    Parameters
    ----------
    graph:
        The global graph.
    halo_hops:
        How many in-link hops of *feeding* pages to include (0 = the
        dangling pages alone; 1, the default, adds the pages that link
        directly to them).

    Returns
    -------
    Sorted page ids.

    Raises
    ------
    SubgraphError
        If the graph has no dangling pages, or if the frontier plus
        halo covers the whole graph (nothing left to be external).
    """
    if halo_hops < 0:
        raise SubgraphError(f"halo_hops must be >= 0, got {halo_hops}")
    dangling = np.flatnonzero(graph.dangling_mask)
    if dangling.size == 0:
        raise SubgraphError("the graph has no dangling pages")

    levels = _bfs_levels(graph.adjacency_t, dangling)
    halo = np.concatenate(list(islice(levels, halo_hops + 1)))
    frontier = np.sort(halo).astype(np.int64)
    if frontier.size >= graph.num_nodes:
        raise SubgraphError(
            "frontier plus halo covers the whole graph; rank it "
            "globally instead"
        )
    return frontier
