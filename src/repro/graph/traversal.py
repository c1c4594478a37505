"""Graph traversals used by subgraph extractors and generators.

All traversals operate on out-links and are deterministic: neighbors are
visited in ascending node-id order (CSR indices are sorted), so a BFS
from the same seed always yields the same subgraph — a property the
experiment harness relies on for reproducibility.

Every traversal runs on one frontier BFS (:func:`_bfs_levels`): each
level is a single vectorised gather over the CSR rows of the current
frontier, so a depth- or budget-limited traversal costs the region it
touches, not the graph.  Weakly connected components come from
:func:`scipy.sparse.csgraph.connected_components`.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy import sparse

from repro.exceptions import GraphError
from repro.graph.digraph import CSRGraph
from repro.graph.scc import _components


def _as_seed_array(graph: CSRGraph, seeds: int | Iterable[int]) -> np.ndarray:
    if isinstance(seeds, (int, np.integer)):
        seeds = [int(seeds)]
    seed_array = np.asarray(sorted(set(int(s) for s in seeds)), dtype=np.int64)
    if seed_array.size == 0:
        raise GraphError("at least one seed node is required")
    if seed_array.min() < 0 or seed_array.max() >= graph.num_nodes:
        raise GraphError("a seed node id is out of range")
    return seed_array


def _gather(adjacency: sparse.csr_matrix, nodes: np.ndarray) -> np.ndarray:
    """The CSR rows of ``nodes``, concatenated in order (duplicates kept)."""
    starts = adjacency.indptr[nodes].astype(np.int64)
    counts = adjacency.indptr[nodes + 1] - starts
    offsets = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return adjacency.indices[offsets + np.arange(counts.sum())]


def _bfs_levels(
    adjacency: sparse.csr_matrix,
    seeds: np.ndarray,
    expandable: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """Yield the levels of a BFS from ``seeds`` along ``adjacency``'s rows.

    Level 0 is ``seeds`` (sorted unique ids).  Each later level lists
    the newly reached nodes in the order a FIFO BFS discovers them, so
    concatenating the levels gives the BFS visit order.  Pass the
    graph's ``adjacency`` to follow out-links or ``adjacency_t`` to
    follow in-links; with an ``expandable`` mask only the nodes it
    marks have their rows followed (the others are reached but not
    expanded).  The next level is built only when the caller asks for
    it, so stopping early bounds the work.
    """
    visited = np.zeros(adjacency.shape[0], dtype=bool)
    visited[seeds] = True
    level = seeds
    while level.size:
        yield level
        if expandable is not None:
            level = level[expandable[level]]
        targets = _gather(adjacency, level)
        targets = targets[~visited[targets]]
        __, first = np.unique(targets, return_index=True)
        level = targets[np.sort(first)]
        visited[level] = True


def bfs_order(
    graph: CSRGraph,
    seeds: int | Iterable[int],
    max_nodes: int | None = None,
) -> np.ndarray:
    """Breadth-first visit order following out-links.

    Parameters
    ----------
    graph:
        The graph to traverse.
    seeds:
        One node id or an iterable of ids; seeds are visited first in
        ascending order.
    max_nodes:
        Stop after visiting this many nodes (the BFS-crawler budget).

    Returns
    -------
    numpy.ndarray
        Node ids in visit order.  Length is at most ``max_nodes``.
    """
    seed_array = _as_seed_array(graph, seeds)
    if max_nodes is not None and max_nodes <= 0:
        raise GraphError(f"max_nodes must be positive, got {max_nodes}")
    budget = graph.num_nodes if max_nodes is None else min(
        max_nodes, graph.num_nodes
    )
    levels: list[np.ndarray] = []
    reached = 0
    for level in _bfs_levels(graph.adjacency, seed_array):
        levels.append(level)
        reached += level.size
        if reached >= budget:
            break
    return np.concatenate(levels)[:budget].astype(np.int64)


def bfs_tree_depths(
    graph: CSRGraph, seeds: int | Iterable[int]
) -> np.ndarray:
    """Depth of every node in a BFS from ``seeds`` (-1 when unreachable)."""
    seed_array = _as_seed_array(graph, seeds)
    depths = np.full(graph.num_nodes, -1, dtype=np.int64)
    levels = _bfs_levels(graph.adjacency, seed_array)
    for depth, level in enumerate(levels):
        depths[level] = depth
    return depths


def bfs_within_depth(
    graph: CSRGraph,
    seeds: int | Iterable[int],
    max_depth: int,
) -> np.ndarray:
    """All nodes within ``max_depth`` out-link hops of the seed set.

    This is the crawl rule the paper uses to form TS subgraphs
    ("crawling to all pages within three links" of a dmoz category).

    Returns a sorted array that always includes the seeds
    (``max_depth`` 0 returns exactly the seeds).
    """
    if max_depth < 0:
        raise GraphError(f"max_depth must be >= 0, got {max_depth}")
    seed_array = _as_seed_array(graph, seeds)
    levels = islice(_bfs_levels(graph.adjacency, seed_array), max_depth + 1)
    return np.sort(np.concatenate(list(levels))).astype(np.int64)


def reachable_set(graph: CSRGraph, seeds: int | Iterable[int]) -> np.ndarray:
    """All nodes reachable from ``seeds`` by out-links (sorted ids)."""
    seed_array = _as_seed_array(graph, seeds)
    levels = _bfs_levels(graph.adjacency, seed_array)
    return np.sort(np.concatenate(list(levels))).astype(np.int64)


def weakly_connected_components(graph: CSRGraph) -> list[np.ndarray]:
    """Weakly connected components, largest first.

    Edges are treated as undirected.  Used by generators to check that a
    synthetic crawl is one connected web fragment, and by tests.
    """
    return _components(graph, "weak")


def out_neighbors_of_set(
    graph: CSRGraph, nodes: Sequence[int] | np.ndarray
) -> np.ndarray:
    """Union of out-neighbors over a node set (sorted unique ids)."""
    node_array = np.asarray(nodes, dtype=np.int64)
    targets = _gather(graph.adjacency, node_array)
    if targets.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.unique(targets)


def frontier_of(graph: CSRGraph, members: np.ndarray) -> np.ndarray:
    """Pages one out-link hop outside a member set (sorted unique ids).

    ``members`` is a boolean mask over every page.  This is the
    expansion step of the best-first crawler and the SC baseline.
    """
    targets = np.unique(_gather(graph.adjacency, np.flatnonzero(members)))
    return targets[~members[targets]]
