"""Subgraph views and boundary-edge queries.

The ApproxRank/IdealRank construction needs three things from a
``(global graph, local node set)`` pair:

1. the induced local adjacency with a mapping between local and global
   ids (:func:`induced_subgraph`);
2. the *out-boundary* — edges from local pages to external pages
   (:func:`boundary_out_edges`), which feed the local → Λ column;
3. the *in-boundary* — edges from external pages to local pages
   (:func:`boundary_in_edges`), which feed the Λ → local row.

All three are computed with vectorised CSR slicing; nothing here is
O(N²).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from repro.exceptions import SubgraphError
from repro.graph.digraph import CSRGraph


def normalize_node_set(graph: CSRGraph, nodes: Iterable[int]) -> np.ndarray:
    """Validate and canonicalise a local node set.

    Returns a sorted, duplicate-free ``int64`` array.

    Raises
    ------
    SubgraphError
        If the set is empty, contains duplicates, or contains ids
        outside ``[0, graph.num_nodes)``.
    """
    if (
        isinstance(nodes, np.ndarray)
        and nodes.ndim == 1
        and np.can_cast(nodes.dtype, np.int64)
    ):
        # Lossless: skip the round trip through numpy scalars.
        node_array = nodes.astype(np.int64, copy=False)
    else:
        node_array = np.asarray(list(nodes), dtype=np.int64)
    if node_array.size == 0:
        raise SubgraphError("local node set must not be empty")
    node_array = np.sort(node_array)
    if np.any(node_array[1:] == node_array[:-1]):
        raise SubgraphError("local node set contains duplicate ids")
    if node_array[0] < 0 or node_array[-1] >= graph.num_nodes:
        raise SubgraphError(
            "local node ids must lie in "
            f"[0, {graph.num_nodes}), got range "
            f"[{node_array[0]}, {node_array[-1]}]"
        )
    return node_array


def membership_mask(graph: CSRGraph, nodes: np.ndarray) -> np.ndarray:
    """Boolean mask over all global nodes marking the local set."""
    mask = np.zeros(graph.num_nodes, dtype=bool)
    mask[nodes] = True
    return mask


@dataclass(frozen=True)
class InducedSubgraph:
    """An induced subgraph together with its id mappings.

    Attributes
    ----------
    graph:
        The induced local graph with ``len(local_to_global)`` nodes,
        re-labelled ``0 .. n-1``.
    local_to_global:
        ``local_to_global[i]`` is the global id of local node ``i``
        (sorted ascending).
    global_to_local:
        Array of length ``N``; maps a global id to its local id, or -1
        for external pages.
    """

    graph: CSRGraph
    local_to_global: np.ndarray
    global_to_local: np.ndarray = field(repr=False)

    @property
    def num_local(self) -> int:
        """Number of local pages n."""
        return int(self.local_to_global.size)

    def to_local(self, global_ids: np.ndarray) -> np.ndarray:
        """Map global ids to local ids (-1 for external pages)."""
        return self.global_to_local[np.asarray(global_ids, dtype=np.int64)]

    def to_global(self, local_ids: np.ndarray) -> np.ndarray:
        """Map local ids back to global ids."""
        return self.local_to_global[np.asarray(local_ids, dtype=np.int64)]


def induced_subgraph(
    graph: CSRGraph, nodes: Iterable[int]
) -> InducedSubgraph:
    """Extract the subgraph induced by ``nodes``.

    Edge weights are preserved.  The returned local graph keeps only
    edges whose both endpoints are local.
    """
    local = normalize_node_set(graph, nodes)
    sub_matrix = graph.adjacency[local][:, local]
    global_to_local = np.full(graph.num_nodes, -1, dtype=np.int64)
    global_to_local[local] = np.arange(local.size, dtype=np.int64)
    local.setflags(write=False)
    global_to_local.setflags(write=False)
    return InducedSubgraph(
        graph=CSRGraph(sub_matrix),
        local_to_global=local,
        global_to_local=global_to_local,
    )


def boundary_out_edges(
    graph: CSRGraph, nodes: Iterable[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges from local pages to external pages.

    Returns
    -------
    (sources, targets, weights):
        Parallel arrays in *global* ids; ``sources`` are local pages,
        ``targets`` are external pages.
    """
    local = normalize_node_set(graph, nodes)
    mask = membership_mask(graph, local)
    rows = graph.adjacency[local]
    coo = rows.tocoo()
    external = ~mask[coo.col]
    sources = local[coo.row[external]]
    targets = coo.col[external].astype(np.int64)
    weights = coo.data[external].copy()
    return sources, targets, weights


def boundary_in_edges(
    graph: CSRGraph, nodes: Iterable[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges from external pages into local pages.

    Returns
    -------
    (sources, targets, weights):
        Parallel arrays in *global* ids; ``sources`` are external pages,
        ``targets`` are local pages.
    """
    local = normalize_node_set(graph, nodes)
    mask = membership_mask(graph, local)
    cols = graph.adjacency_t[local]
    coo = cols.tocoo()
    external = ~mask[coo.col]
    targets = local[coo.row[external]]
    sources = coo.col[external].astype(np.int64)
    weights = coo.data[external].copy()
    return sources, targets, weights


def frontier(graph: CSRGraph, nodes: Iterable[int]) -> np.ndarray:
    """External pages directly linked *from* the local set.

    This is the expansion candidate set of the SC supergraph algorithm:
    pages one out-link hop outside the current graph.
    """
    __, targets, __ = boundary_out_edges(graph, nodes)
    return np.unique(targets)


def subgraph_density_report(
    graph: CSRGraph, nodes: Sequence[int] | np.ndarray
) -> dict[str, float]:
    """Summary statistics of how a subgraph couples to the outside.

    Returns a dict with node/edge counts and the fractions of the local
    pages' links that stay inside vs leave the subgraph — the quantity
    the paper uses to explain why BFS subgraphs are harder than DS ones.
    """
    local = normalize_node_set(graph, nodes)
    induced = induced_subgraph(graph, local)
    out_src, __, __ = boundary_out_edges(graph, local)
    in_src, __, __ = boundary_in_edges(graph, local)
    internal_edges = induced.graph.num_edges
    outgoing = int(out_src.size)
    incoming = int(in_src.size)
    touching = internal_edges + outgoing
    return {
        "num_local": float(local.size),
        "fraction_of_global": local.size / graph.num_nodes,
        "internal_edges": float(internal_edges),
        "outgoing_boundary_edges": float(outgoing),
        "incoming_boundary_edges": float(incoming),
        "internal_link_fraction": (
            internal_edges / touching if touching else 1.0
        ),
    }


def restrict_vector(
    values: np.ndarray, nodes: np.ndarray, normalize: bool = False
) -> np.ndarray:
    """Restrict a global score vector to a node set.

    Parameters
    ----------
    values:
        Global score vector of length N.
    nodes:
        Global ids of the local pages (as produced by
        :func:`normalize_node_set`).
    normalize:
        When True, rescale the restricted vector to sum to 1 (the
        convention used when comparing score *distributions*).
    """
    restricted = np.asarray(values, dtype=np.float64)[nodes].copy()
    if normalize:
        total = restricted.sum()
        if total > 0:
            restricted /= total
    return restricted
