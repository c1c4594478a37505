"""Deriving the region a graph update can have (strongly) affected.

A changed transition row immediately changes the scores of the pages it
points to; the perturbation then decays geometrically (by the damping
factor) along out-paths.  ``affected_region`` therefore takes the pages
whose rows changed and expands forward a configurable number of hops —
a standard locality heuristic for PageRank updating (cf. Langville &
Meyer's updating work, which the paper cites as [15]).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GraphError
from repro.graph.digraph import CSRGraph
from repro.graph.traversal import bfs_within_depth
from repro.updates.delta import GraphDelta


def changed_pages(
    old_graph: CSRGraph, new_graph: CSRGraph
) -> np.ndarray:
    """Pages whose out-rows differ between two graphs (sorted ids).

    New pages (ids beyond the old graph) are always included.

    Both adjacency matrices are canonical CSR (``CSRGraph.__init__``
    sums duplicates, drops explicit zeros and sorts indices), so two
    rows are equal iff their index/data slices are — the comparison is
    a handful of vectorised gathers over the shared rows, with no
    padded intermediate matrix even when the graph grew.
    """
    old_n = old_graph.num_nodes
    new_n = new_graph.num_nodes
    if new_n < old_n:
        raise GraphError(
            "updated graph cannot shrink: "
            f"{new_n} < {old_n} pages"
        )
    a = old_graph.adjacency
    b = new_graph.adjacency
    counts = np.diff(a.indptr)
    counts_b = np.diff(b.indptr[: old_n + 1])
    changed_mask = counts != counts_b
    same = np.flatnonzero(~changed_mask)
    cnt = counts[same]
    total = int(cnt.sum())
    if total:
        # Flat nnz indices of every shared equal-length row: for row r
        # with k entries, positions start(r) .. start(r)+k-1 in each
        # matrix.  A single elementwise compare then finds any row
        # whose sorted (column, weight) sequence moved.
        offsets = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(cnt) - cnt, cnt
        )
        a_idx = np.repeat(a.indptr[same], cnt) + offsets
        b_idx = np.repeat(b.indptr[same], cnt) + offsets
        mismatch = (a.indices[a_idx] != b.indices[b_idx]) | (
            a.data[a_idx] != b.data[b_idx]
        )
        if mismatch.any():
            rows = np.repeat(same, cnt)
            changed_mask[np.unique(rows[mismatch])] = True
    changed = np.flatnonzero(changed_mask).astype(np.int64)
    new_ids = np.arange(old_n, new_n, dtype=np.int64)
    return np.concatenate([changed, new_ids])


def update_seeds(
    old_graph: CSRGraph,
    new_graph: CSRGraph,
    delta: GraphDelta | None = None,
) -> np.ndarray:
    """Pages an update changed (sorted ids, new-graph id space).

    With a non-empty ``delta`` these are its touched sources plus the
    appended pages; otherwise the row diff of :func:`changed_pages`.
    """
    if delta is not None and not delta.is_empty:
        new_ids = np.arange(
            old_graph.num_nodes, new_graph.num_nodes, dtype=np.int64
        )
        return np.union1d(delta.touched_sources(), new_ids)
    return changed_pages(old_graph, new_graph)


def affected_region(
    old_graph: CSRGraph,
    new_graph: CSRGraph,
    hops: int = 2,
    delta: GraphDelta | None = None,
) -> np.ndarray:
    """Changed pages plus a forward halo of ``hops`` out-link steps.

    Parameters
    ----------
    old_graph / new_graph:
        The graphs before and after the update.
    hops:
        Forward expansion depth in the *new* graph.  2 captures the
        bulk of a typical perturbation at ε = 0.85 (each hop decays
        the perturbation by ε and spreads it by out-degree).
    delta:
        When the delta is available, its touched sources are used as a
        cheap starting set and the row diff is skipped (see
        :func:`update_seeds`).

    Returns
    -------
    Sorted page ids (in new-graph id space).  Guaranteed non-empty for
    a non-empty update, and never the whole graph unless the update
    genuinely reaches everything.
    """
    return forward_halo(
        new_graph, update_seeds(old_graph, new_graph, delta), hops
    )


def forward_halo(
    new_graph: CSRGraph, seeds: np.ndarray, hops: int = 2
) -> np.ndarray:
    """:func:`affected_region` from already-derived :func:`update_seeds`.

    Callers that also need the seeds (to charge the changed pages'
    score mass) derive them once and expand them here.
    """
    if hops < 0:
        raise GraphError(f"hops must be >= 0, got {hops}")
    if seeds.size == 0:
        return seeds
    return bfs_within_depth(new_graph, seeds, hops)
