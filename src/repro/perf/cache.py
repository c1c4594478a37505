"""Transition-matrix cache keyed on graph identity.

Every ranking algorithm in the repo starts by deriving the same CSR
structures from a :class:`~repro.graph.digraph.CSRGraph`: the
row-stochastic transition matrix ``A``, its transpose ``A^T`` (the
matrix the power iteration actually multiplies by) and — for the
extended-graph algorithms — the subgraph's local block with its derived
row sums and Λ-column.  These are pure functions of an *immutable*
graph, so rebuilding them per solve is wasted work; the ablation sweep
alone rebuilds the same local block once per E estimate.

:class:`TransitionCache` memoizes all three:

* **Keying** is by object identity (``id(graph)``), which is exact
  because :class:`CSRGraph` is immutable — a given object can never
  come to describe a different graph.  Identity keys are guarded
  against id reuse: every entry stores a weak reference to its graph
  and a lookup that finds a dead or different referent is treated as a
  miss and replaced.
* **Lifetime** follows the graph: entries hold only weak references,
  and a ``weakref.finalize`` hook evicts the entry the moment the
  graph is garbage-collected, so caching never extends a graph's life
  or leaks derived matrices for dead graphs.
* **Invalidation** is therefore automatic and total: graphs cannot
  mutate (no staleness), and death of the graph is the only other
  event (eviction).  The per-graph local-block table is additionally
  LRU-bounded so pathological many-subgraph workloads cannot grow one
  entry without limit.

A process-wide :data:`GLOBAL_TRANSITION_CACHE` is what the library
routes through (see :func:`cached_transition_matrix` and friends);
independent caches can be instantiated for isolation in tests.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.graph.digraph import CSRGraph
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.pagerank.transition import (
    csr_transpose,
    transition_matrix,
    transition_matrix_transpose,
)

#: Default bound on distinct local blocks remembered per graph.
DEFAULT_MAX_LOCAL_BLOCKS = 128


@dataclass(frozen=True)
class LocalBlockBundle:
    """The subgraph-dependent pieces of an extended-matrix assembly.

    Everything here depends only on ``(graph, local_nodes)`` — not on
    the external-importance vector E — so one bundle serves IdealRank,
    ApproxRank and every ablation estimate on the same subgraph.

    Attributes
    ----------
    local_block:
        ``A[local][:, local]`` in CSR form.
    row_sums:
        Row sums of ``local_block``.
    local_dangling:
        Mask of local pages that are dangling in the global graph.
    to_lambda:
        The extended matrix's Λ column: residual row mass per local
        page (0 for dangling pages), clipped to [0, 1].
    block_colsum:
        Column sums of ``local_block`` (used by the ApproxRank
        preprocessor's Λ-row formula).
    """

    local_block: sparse.csr_matrix
    row_sums: np.ndarray
    local_dangling: np.ndarray
    to_lambda: np.ndarray
    block_colsum: np.ndarray


def gather_local_block(
    matrix: sparse.csr_matrix, local_nodes: np.ndarray
) -> sparse.csr_matrix:
    """``matrix[local_nodes][:, local_nodes]`` from one gather of its rows.

    Reads every stored entry of the local rows once and maps its column
    to a local position through a length-N position array (-1 off the
    subgraph).  Kept entries stay in the row's stored order, so the
    result is array for array what scipy's two fancy indexings give.
    ``local_nodes`` must be sorted and unique.
    """
    num_local = local_nodes.size
    position = np.full(matrix.shape[1], -1, dtype=matrix.indices.dtype)
    position[local_nodes] = np.arange(num_local)
    starts = matrix.indptr[local_nodes]
    lengths = matrix.indptr[local_nodes + 1] - starts
    ends = np.cumsum(lengths)
    total = int(ends[-1])
    # Flat positions of every out-edge of every local page, row by row.
    offsets = np.arange(total) + np.repeat(starts - ends + lengths, lengths)
    columns = position[matrix.indices[offsets]]
    kept = np.flatnonzero(columns >= 0)
    indptr = np.zeros(num_local + 1, dtype=matrix.indptr.dtype)
    indptr[1:] = np.searchsorted(kept, ends)
    return sparse.csr_matrix(
        (matrix.data[offsets[kept]], columns[kept], indptr),
        shape=(num_local, num_local),
        copy=False,
    )


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss accounting for one :class:`TransitionCache`."""

    hits: int
    misses: int
    evictions: int
    graphs_tracked: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 when no lookups)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _GraphEntry:
    """Cached derivations for one live graph."""

    __slots__ = (
        "ref",
        "transition",
        "dangling_mask",
        "transition_t",
        "local_blocks",
    )

    def __init__(self, ref: weakref.ref):
        self.ref = ref
        self.transition: sparse.csr_matrix | None = None
        self.dangling_mask: np.ndarray | None = None
        self.transition_t: sparse.csr_matrix | None = None
        self.local_blocks: OrderedDict[bytes, LocalBlockBundle] = OrderedDict()


class TransitionCache:
    """Memoizes transition-matrix derivations per live graph.

    Thread-safe; all methods take an internal lock (the cached payloads
    are immutable, so readers can use them lock-free once returned).

    Parameters
    ----------
    max_local_blocks:
        LRU bound on distinct subgraphs remembered per graph.
    """

    def __init__(self, max_local_blocks: int = DEFAULT_MAX_LOCAL_BLOCKS):
        if max_local_blocks < 1:
            raise ValueError(
                f"max_local_blocks must be >= 1, got {max_local_blocks}"
            )
        self._max_local_blocks = max_local_blocks
        self._entries: dict[int, _GraphEntry] = {}
        # Reentrant: a cyclic GC pass inside a locked region may run
        # the eviction finalizer on the same thread.
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        # Counts already shipped to a metrics registry; the collector
        # publishes deltas against these so repeated snapshots/drains
        # never double count.
        self._published = (0, 0, 0)

    # ------------------------------------------------------------------
    # Entry management
    # ------------------------------------------------------------------

    def _entry_for(self, graph: CSRGraph) -> _GraphEntry:
        """Find or create the entry for ``graph`` (lock held)."""
        key = id(graph)
        entry = self._entries.get(key)
        if entry is not None and entry.ref() is graph:
            return entry
        # Either a fresh graph or an id reused after its predecessor
        # died before the finalizer ran; both are cache misses.
        ref = weakref.ref(graph)
        entry = _GraphEntry(ref)
        self._entries[key] = entry
        weakref.finalize(graph, self._evict, key, ref)
        return entry

    def _evict(self, key: int, ref: weakref.ref) -> None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.ref is ref:
                del self._entries[key]
                self._evictions += 1

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def transition(
        self, graph: CSRGraph
    ) -> tuple[sparse.csr_matrix, np.ndarray]:
        """``transition_matrix(graph)``, memoized on graph identity."""
        with self._lock:
            entry = self._entry_for(graph)
            if entry.transition is not None:
                self._hits += 1
                return entry.transition, entry.dangling_mask
            self._misses += 1
        matrix, dangling_mask = transition_matrix(graph)
        dangling_mask.setflags(write=False)
        with self._lock:
            entry.transition = matrix
            entry.dangling_mask = dangling_mask
        return matrix, dangling_mask

    def transition_transpose(
        self, graph: CSRGraph
    ) -> tuple[sparse.csr_matrix, np.ndarray]:
        """``transition_matrix_transpose(graph)``, memoized."""
        with self._lock:
            entry = self._entry_for(graph)
            if entry.transition_t is not None:
                self._hits += 1
                return entry.transition_t, entry.dangling_mask
            self._misses += 1
        if entry.transition is not None:
            # Reuse the cached A rather than touching the graph again.
            transpose = csr_transpose(entry.transition)
            dangling_mask = entry.dangling_mask
        else:
            transpose, dangling_mask = transition_matrix_transpose(graph)
            dangling_mask.setflags(write=False)
        with self._lock:
            entry.transition_t = transpose
            if entry.dangling_mask is None:
                entry.dangling_mask = dangling_mask
        return transpose, entry.dangling_mask

    def local_block(
        self, graph: CSRGraph, local_nodes: np.ndarray
    ) -> LocalBlockBundle:
        """The extended-assembly bundle for one subgraph, memoized.

        ``local_nodes`` must already be the normalised (sorted, unique,
        int64) node array — the form
        :func:`repro.graph.subgraph.normalize_node_set` produces.
        """
        local_nodes = np.asarray(local_nodes, dtype=np.int64)
        key = local_nodes.tobytes()
        with self._lock:
            entry = self._entry_for(graph)
            bundle = entry.local_blocks.get(key)
            if bundle is not None:
                entry.local_blocks.move_to_end(key)
                self._hits += 1
                return bundle
            self._misses += 1
        transition, dangling_mask = self.transition(graph)
        local_block = gather_local_block(transition, local_nodes)
        num_local = local_nodes.size
        # Both sums add in scipy's order, so they are bit for bit
        # ``local_block.sum(axis=1)`` and ``.sum(axis=0)``: one
        # reduceat per non-empty row, and column sums accumulated in
        # row order.
        indptr = local_block.indptr
        row_sums = np.zeros(num_local, dtype=np.float64)
        filled = np.flatnonzero(np.diff(indptr))
        row_sums[filled] = np.add.reduceat(local_block.data, indptr[filled])
        local_dangling = dangling_mask[local_nodes]
        to_lambda = np.where(local_dangling, 0.0, 1.0 - row_sums)
        # Guard against -1e-17 style float residue.
        np.clip(to_lambda, 0.0, 1.0, out=to_lambda)
        block_colsum = np.bincount(
            local_block.indices, weights=local_block.data, minlength=num_local
        )
        for array in (row_sums, local_dangling, to_lambda, block_colsum):
            array.setflags(write=False)
        bundle = LocalBlockBundle(
            local_block=local_block,
            row_sums=row_sums,
            local_dangling=local_dangling,
            to_lambda=to_lambda,
            block_colsum=block_colsum,
        )
        with self._lock:
            entry.local_blocks[key] = bundle
            entry.local_blocks.move_to_end(key)
            while len(entry.local_blocks) > self._max_local_blocks:
                entry.local_blocks.popitem(last=False)
        return bundle

    # ------------------------------------------------------------------
    # Introspection / control
    # ------------------------------------------------------------------

    def stats(self) -> CacheStats:
        """A point-in-time snapshot of the hit/miss/eviction counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                graphs_tracked=len(self._entries),
            )

    def reset_stats(self) -> None:
        """Zero the counters (entries are kept)."""
        with self._lock:
            self._hits = self._misses = self._evictions = 0
            self._published = (0, 0, 0)

    def publish_metrics(self, registry: MetricsRegistry) -> None:
        """Ship counter activity since the last publish into ``registry``.

        Publishes *deltas* (hits/misses/evictions accrued since the
        previous call), the contract registry collectors follow so that
        ``drain``/``merge`` cycles stay double-count-free.  Registered
        as a collector on the process-wide registry for the global
        cache; other caches can call it directly.
        """
        with self._lock:
            hits, misses, evictions = (
                self._hits,
                self._misses,
                self._evictions,
            )
            prev_hits, prev_misses, prev_evictions = self._published
            self._published = (hits, misses, evictions)
            graphs = len(self._entries)
        delta_hits = hits - prev_hits
        delta_misses = misses - prev_misses
        delta_evictions = evictions - prev_evictions
        # reset_stats() between publishes makes deltas negative; start
        # over from the current absolute counts in that case.
        if delta_hits < 0 or delta_misses < 0 or delta_evictions < 0:
            delta_hits, delta_misses, delta_evictions = (
                hits,
                misses,
                evictions,
            )
        if delta_hits:
            registry.counter(
                "repro_cache_hits_total",
                "Transition-cache lookups served from cache",
            ).inc(delta_hits)
        if delta_misses:
            registry.counter(
                "repro_cache_misses_total",
                "Transition-cache lookups that rebuilt the derivation",
            ).inc(delta_misses)
        if delta_evictions:
            registry.counter(
                "repro_cache_evictions_total",
                "Transition-cache entries evicted by graph death",
            ).inc(delta_evictions)
        registry.gauge(
            "repro_cache_graphs_tracked",
            "Live graphs with cached derivations",
        ).set(graphs)

    def invalidate(self, graph: CSRGraph) -> bool:
        """Explicitly evict every cached derivation for ``graph``.

        Eviction is normally weakref-driven (entries die with their
        graph), but callers that *supersede* a graph while keeping the
        old object alive — the update path producing a post-delta
        graph, a serving layer swapping in a refreshed build — can
        drop the stale operator blocks eagerly instead of carrying
        them until garbage collection.  Counts as an eviction in
        :meth:`stats`.

        Returns
        -------
        True when an entry for this exact graph object was dropped,
        False when nothing was cached for it.
        """
        with self._lock:
            key = id(graph)
            entry = self._entries.get(key)
            if entry is not None and entry.ref() is graph:
                del self._entries[key]
                self._evictions += 1
                return True
            return False

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def __contains__(self, graph: CSRGraph) -> bool:
        with self._lock:
            entry = self._entries.get(id(graph))
            return entry is not None and entry.ref() is graph


#: The process-wide cache the library routes through.
GLOBAL_TRANSITION_CACHE = TransitionCache()

# Every registry snapshot/drain pulls the global cache's counters in,
# so cache hit rates appear in obs snapshots without polling.
REGISTRY.register_collector(GLOBAL_TRANSITION_CACHE.publish_metrics)


def cached_transition_matrix(
    graph: CSRGraph,
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """``transition_matrix(graph)`` via the process-wide cache."""
    return GLOBAL_TRANSITION_CACHE.transition(graph)


def cached_transition_matrix_transpose(
    graph: CSRGraph,
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """``transition_matrix_transpose(graph)`` via the process-wide cache."""
    return GLOBAL_TRANSITION_CACHE.transition_transpose(graph)


def cached_local_block(
    graph: CSRGraph, local_nodes: np.ndarray
) -> LocalBlockBundle:
    """The subgraph assembly bundle via the process-wide cache."""
    return GLOBAL_TRANSITION_CACHE.local_block(graph, local_nodes)
