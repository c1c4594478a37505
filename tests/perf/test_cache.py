"""Property tests for the identity-keyed transition-matrix cache.

The cache's contract:

* the same live graph always gets the *identical* cached objects back
  (``is``, not merely equal);
* distinct graphs never share or leak entries;
* entries hold only weak references, so a graph can be garbage
  collected while cached, and its entry is evicted when it dies.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.graph.builder import GraphBuilder
from repro.pagerank.transition import (
    transition_matrix,
    transition_matrix_transpose,
)
from repro.perf.cache import (
    GLOBAL_TRANSITION_CACHE,
    TransitionCache,
    cached_transition_matrix,
)

from tests.conftest import random_digraph


def build_chain_graph(num_nodes: int = 6):
    builder = GraphBuilder(num_nodes)
    for node in range(num_nodes - 1):
        builder.add_edge(node, node + 1)
    return builder.build()


@pytest.fixture
def cache() -> TransitionCache:
    return TransitionCache()


class TestIdenticalObjectsForSameGraph:
    def test_transition_is_same_object(self, cache, messy_graph):
        first, first_mask = cache.transition(messy_graph)
        second, second_mask = cache.transition(messy_graph)
        assert first is second
        assert first_mask is second_mask

    def test_transpose_is_same_object(self, cache, messy_graph):
        first, _ = cache.transition_transpose(messy_graph)
        second, _ = cache.transition_transpose(messy_graph)
        assert first is second

    def test_local_block_is_same_bundle(self, cache, messy_graph):
        local = np.arange(0, 40, dtype=np.int64)
        first = cache.local_block(messy_graph, local)
        second = cache.local_block(messy_graph, local.copy())
        assert first is second

    def test_cached_values_match_direct_computation(
        self, cache, messy_graph
    ):
        matrix, mask = cache.transition(messy_graph)
        direct, direct_mask = transition_matrix(messy_graph)
        assert (matrix != direct).nnz == 0
        np.testing.assert_array_equal(mask, direct_mask)
        transpose, _ = cache.transition_transpose(messy_graph)
        direct_t, _ = transition_matrix_transpose(messy_graph)
        assert abs(transpose - direct_t).max() < 1e-15

    def test_hits_and_misses_counted(self, cache, messy_graph):
        cache.transition(messy_graph)
        cache.transition(messy_graph)
        cache.transition(messy_graph)
        stats = cache.stats()
        assert stats.misses == 1
        assert stats.hits == 2
        assert stats.hit_rate == pytest.approx(2 / 3)


class TestBundleMatchesScipy:
    """Each bundle field, bit for bit, against scipy's own slicing.

    The mean degree of 20 gives rows of more than eight local entries,
    where the order of a row sum's additions reaches its last bits.
    """

    @pytest.mark.parametrize(
        "local",
        [
            np.arange(40, 160),
            np.sort(np.random.default_rng(7).choice(300, 90, replace=False)),
            np.array([123]),
            np.arange(300, dtype=np.int64)[::3],
        ],
        ids=["range", "random", "single", "strided"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fields_equal_scipy_bytes(self, cache, local, seed):
        graph = random_digraph(
            300, mean_degree=20.0, dangling_fraction=0.2, seed=seed
        )
        local = local.astype(np.int64)
        bundle = cache.local_block(graph, local)
        transition, dangling_mask = transition_matrix(graph)
        block = transition[local][:, local]
        for name in ("indptr", "indices"):
            actual, expected = (
                getattr(bundle.local_block, name), getattr(block, name)
            )
            assert actual.dtype == expected.dtype
            np.testing.assert_array_equal(actual, expected)
        assert bundle.local_block.data.tobytes() == block.data.tobytes()
        row_sums = np.asarray(block.sum(axis=1)).ravel()
        assert bundle.row_sums.tobytes() == row_sums.tobytes()
        colsum = np.asarray(block.sum(axis=0)).ravel()
        assert bundle.block_colsum.tobytes() == colsum.tobytes()
        np.testing.assert_array_equal(
            bundle.local_dangling, dangling_mask[local]
        )
        to_lambda = np.clip(
            np.where(dangling_mask[local], 0.0, 1.0 - row_sums), 0.0, 1.0
        )
        assert bundle.to_lambda.tobytes() == to_lambda.tobytes()


class TestNoCrossGraphLeaks:
    def test_distinct_graphs_distinct_matrices(self, cache):
        graphs = [random_digraph(60, seed=s) for s in range(5)]
        matrices = [cache.transition(g)[0] for g in graphs]
        assert len({id(m) for m in matrices}) == len(graphs)
        for graph, matrix in zip(graphs, matrices):
            assert cache.transition(graph)[0] is matrix

    def test_equal_but_distinct_graphs_not_shared(self, cache):
        # Two structurally identical graphs are still different
        # objects; identity keying must not conflate them.
        first = build_chain_graph()
        second = build_chain_graph()
        assert first is not second
        assert cache.transition(first)[0] is not cache.transition(second)[0]

    def test_local_blocks_keyed_by_node_set(self, cache, messy_graph):
        a = cache.local_block(messy_graph, np.arange(0, 30, dtype=np.int64))
        b = cache.local_block(messy_graph, np.arange(5, 35, dtype=np.int64))
        assert a is not b
        assert a.local_block.shape == b.local_block.shape

    def test_local_block_lru_bound(self, messy_graph):
        cache = TransitionCache(max_local_blocks=2)
        first_nodes = np.arange(0, 10, dtype=np.int64)
        first = cache.local_block(messy_graph, first_nodes)
        cache.local_block(messy_graph, np.arange(10, 20, dtype=np.int64))
        cache.local_block(messy_graph, np.arange(20, 30, dtype=np.int64))
        # first was evicted by the LRU bound: same key, new bundle.
        assert cache.local_block(messy_graph, first_nodes) is not first

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError, match="max_local_blocks"):
            TransitionCache(max_local_blocks=0)


class TestWeakReferences:
    def test_cache_does_not_keep_graph_alive(self, cache):
        graph = random_digraph(50, seed=7)
        cache.transition(graph)
        probe = weakref.ref(graph)
        del graph
        gc.collect()
        assert probe() is None, "cache must not extend the graph's life"

    def test_entry_evicted_when_graph_dies(self, cache):
        graph = random_digraph(50, seed=8)
        cache.transition_transpose(graph)
        assert graph in cache
        assert cache.stats().graphs_tracked == 1
        del graph
        gc.collect()
        stats = cache.stats()
        assert stats.graphs_tracked == 0
        assert stats.evictions == 1

    def test_many_transient_graphs_do_not_accumulate(self, cache):
        for seed in range(10):
            cache.transition(random_digraph(30, seed=seed))
        gc.collect()
        assert cache.stats().graphs_tracked == 0

    def test_contains_and_clear(self, cache, messy_graph):
        assert messy_graph not in cache
        cache.transition(messy_graph)
        assert messy_graph in cache
        cache.clear()
        assert messy_graph not in cache

    def test_reset_stats_keeps_entries(self, cache, messy_graph):
        matrix, _ = cache.transition(messy_graph)
        cache.reset_stats()
        assert cache.stats().hits == 0
        assert cache.transition(messy_graph)[0] is matrix
        assert cache.stats().hits == 1


class TestExplicitInvalidation:
    def test_invalidate_drops_live_entry(self, cache, messy_graph):
        matrix, _ = cache.transition(messy_graph)
        assert messy_graph in cache
        assert cache.invalidate(messy_graph) is True
        assert messy_graph not in cache
        assert cache.stats().evictions == 1
        # A re-derivation is a fresh object, not the stale one.
        assert cache.transition(messy_graph)[0] is not matrix

    def test_invalidate_uncached_graph_is_a_noop(self, cache, messy_graph):
        assert cache.invalidate(messy_graph) is False
        assert cache.stats().evictions == 0

    def test_invalidate_spares_other_graphs(self, cache):
        first = random_digraph(40, seed=51)
        second = random_digraph(40, seed=52)
        kept, _ = cache.transition(second)
        cache.transition(first)
        cache.invalidate(first)
        assert second in cache
        assert cache.transition(second)[0] is kept

    def test_apply_delta_invalidates_the_old_graph(self):
        # The updates path must drop the pre-update operator: its
        # cached transition derivations can never be served again.
        from repro.updates.delta import GraphDelta, apply_delta

        graph = random_digraph(60, seed=53)
        GLOBAL_TRANSITION_CACHE.transition(graph)
        assert graph in GLOBAL_TRANSITION_CACHE
        new_graph = apply_delta(graph, GraphDelta(added_edges=[(0, 9)]))
        assert graph not in GLOBAL_TRANSITION_CACHE
        assert new_graph is not graph


class TestGlobalCacheWiring:
    def test_library_routes_through_global_cache(self):
        graph = random_digraph(40, seed=21)
        matrix, _ = cached_transition_matrix(graph)
        again, _ = GLOBAL_TRANSITION_CACHE.transition(graph)
        assert matrix is again
        del graph
        gc.collect()

    def test_transpose_reuses_cached_transition(self, cache, messy_graph):
        # Building A first means A^T is derived from the cached A; it
        # must still equal the direct derivation.
        cache.transition(messy_graph)
        transpose, mask = cache.transition_transpose(messy_graph)
        direct_t, direct_mask = transition_matrix_transpose(messy_graph)
        assert abs(transpose - direct_t).max() < 1e-15
        np.testing.assert_array_equal(mask, direct_mask)
