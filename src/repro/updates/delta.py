"""Describing and applying graph updates."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.exceptions import GraphError
from repro.graph.digraph import CSRGraph


@dataclass(frozen=True)
class GraphDelta:
    """A batch of changes to a web graph.

    Attributes
    ----------
    added_edges:
        ``(source, target)`` pairs to add.  May reference new pages
        (ids ``old_N .. old_N + new_pages - 1``).
    removed_edges:
        ``(source, target)`` pairs to remove; removing a non-existent
        edge is an error (it indicates a stale delta).
    new_pages:
        Number of pages appended to the graph (crawled frontier pages).
    """

    added_edges: tuple[tuple[int, int], ...] = field(default=())
    removed_edges: tuple[tuple[int, int], ...] = field(default=())
    new_pages: int = 0

    def __post_init__(self) -> None:
        if self.new_pages < 0:
            raise GraphError(
                f"new_pages must be >= 0, got {self.new_pages}"
            )

    @property
    def is_empty(self) -> bool:
        """True when the delta changes nothing."""
        return (
            not self.added_edges
            and not self.removed_edges
            and self.new_pages == 0
        )

    def touched_sources(self) -> np.ndarray:
        """Pages whose out-rows this delta modifies (sorted ids)."""
        sources = [s for s, __ in self.added_edges]
        sources += [s for s, __ in self.removed_edges]
        return np.unique(np.asarray(sources, dtype=np.int64))

    def to_payload(self) -> dict:
        """JSON-safe form for shipping a delta over the serve wire."""
        return {
            "added_edges": [list(edge) for edge in self.added_edges],
            "removed_edges": [
                list(edge) for edge in self.removed_edges
            ],
            "new_pages": self.new_pages,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "GraphDelta":
        """Rebuild a delta from :meth:`to_payload` output."""
        if not isinstance(payload, dict):
            raise GraphError("delta payload must be a JSON object")

        def _edges(key: str) -> tuple[tuple[int, int], ...]:
            raw = payload.get(key, [])
            if not isinstance(raw, list):
                raise GraphError(f"{key!r} must be a list of pairs")
            edges = []
            for item in raw:
                if not isinstance(item, (list, tuple)) or len(item) != 2:
                    raise GraphError(
                        f"{key!r} entries must be (source, target) "
                        f"pairs, got {item!r}"
                    )
                edges.append((int(item[0]), int(item[1])))
            return tuple(edges)

        return cls(
            added_edges=_edges("added_edges"),
            removed_edges=_edges("removed_edges"),
            new_pages=int(payload.get("new_pages", 0)),
        )


def apply_delta(graph: CSRGraph, delta: GraphDelta) -> CSRGraph:
    """Produce the post-update graph.

    New pages get ids following the existing ones.  Edge weights are
    web-style (unit); adding an existing edge sets its weight to 1.0,
    removing a missing edge raises :class:`~repro.exceptions.GraphError`.
    Removals apply before additions, so a delta may re-add an edge it
    removes.

    The delta is validated edge by edge in the order removals, then
    additions (range checks first, so a negative id never reaches the
    key arithmetic).  The new CSR arrays come from one merge of the old
    graph's sorted ``row * size + column`` edge keys with the delta's
    keys: a few vectorised passes over the edge arrays, never an
    entry-by-entry rebuild.

    The pre-update graph's cached transition derivations are evicted
    from the process-wide :class:`~repro.perf.cache.TransitionCache`:
    the delta supersedes that operator, and keeping its blocks warm
    until garbage collection would let a long-lived caller (the online
    ranking service holds graphs across updates) accumulate stale
    operator memory for graphs it will never solve again.
    """
    old_n = graph.num_nodes
    size = old_n + delta.new_pages
    removed: set[tuple[int, int]] = set()
    for source, target in delta.removed_edges:
        _check_node(source, size)
        _check_node(target, size)
        if (source, target) in removed or not (
            source < old_n
            and target < old_n
            and graph.has_edge(source, target)
        ):
            raise GraphError(
                f"cannot remove missing edge ({source}, {target})"
            )
        removed.add((source, target))
    for source, target in delta.added_edges:
        _check_node(source, size)
        _check_node(target, size)
        if source == target:
            raise GraphError(
                f"self-loop ({source}, {source}) not allowed in deltas"
            )

    adj = graph.adjacency
    rows = np.repeat(np.arange(old_n, dtype=np.int64), np.diff(adj.indptr))
    keys = rows * size + adj.indices
    gone = np.searchsorted(keys, _edge_keys(removed, size))
    keys = np.delete(keys, gone)
    data = np.delete(adj.data, gone)
    added = np.unique(_edge_keys(delta.added_edges, size))
    at = np.searchsorted(keys, added)
    present = at < keys.size
    present[present] = keys[at[present]] == added[present]
    data[at[present]] = 1.0
    keys = np.insert(keys, at[~present], added[~present])
    data = np.insert(data, at[~present], 1.0)
    rows = keys // size
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=size), out=indptr[1:])
    matrix = sparse.csr_matrix(
        (data, keys - rows * size, indptr), shape=(size, size)
    )

    from repro.perf.cache import GLOBAL_TRANSITION_CACHE

    GLOBAL_TRANSITION_CACHE.invalidate(graph)
    return CSRGraph(matrix)


def _edge_keys(edges, size: int) -> np.ndarray:
    """``source * size + target`` per edge (ids already range-checked)."""
    return np.asarray(
        [int(source) * size + int(target) for source, target in edges],
        dtype=np.int64,
    )


def _check_node(node: int, size: int) -> None:
    if not 0 <= node < size:
        raise GraphError(
            f"node {node} out of range for updated graph of size {size}"
        )


def random_region_delta(
    graph: CSRGraph,
    region: np.ndarray,
    added: int,
    removed: int = 0,
    seed: int = 0,
) -> GraphDelta:
    """A synthetic update confined to ``region`` (for experiments).

    Adds ``added`` random region-internal edges and removes up to
    ``removed`` existing region-internal edges, deterministically.
    """
    rng = np.random.default_rng(seed)
    region = np.asarray(region, dtype=np.int64)
    if region.size < 2:
        raise GraphError("region must contain at least 2 pages")
    additions: list[tuple[int, int]] = []
    attempts = 0
    while len(additions) < added and attempts < 50 * max(added, 1):
        attempts += 1
        source = int(rng.choice(region))
        target = int(rng.choice(region))
        if source != target and not graph.has_edge(source, target):
            additions.append((source, target))
    removals: list[tuple[int, int]] = []
    if removed:
        in_region = np.zeros(graph.num_nodes, dtype=bool)
        in_region[region] = True
        sources, targets, __ = graph.edge_array()
        internal = in_region[sources] & in_region[targets]
        candidates = np.flatnonzero(internal)
        take = min(removed, candidates.size)
        chosen = rng.choice(candidates, size=take, replace=False)
        removals = [
            (int(sources[i]), int(targets[i])) for i in chosen
        ]
    return GraphDelta(
        added_edges=tuple(additions),
        removed_edges=tuple(removals),
    )
