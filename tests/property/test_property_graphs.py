"""Property-based tests: graph substrate invariants.

The traversal and update tests check the vectorised implementations
against plain one-node-at-a-time references written here.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st
from scipy import sparse

from repro.exceptions import GraphError, SubgraphError
from repro.graph.builder import GraphBuilder
from repro.graph.digraph import CSRGraph
from repro.graph.scc import strongly_connected_components
from repro.graph.subgraph import (
    boundary_in_edges,
    boundary_out_edges,
    induced_subgraph,
)
from repro.graph.traversal import (
    bfs_order,
    bfs_tree_depths,
    bfs_within_depth,
    frontier_of,
    out_neighbors_of_set,
    reachable_set,
    weakly_connected_components,
)
from repro.serve.store import graph_fingerprint
from repro.subgraphs.frontier import dangling_frontier_subgraph
from repro.subgraphs.topic import focused_crawl
from repro.updates.delta import GraphDelta, apply_delta


@st.composite
def digraph_specs(draw, max_nodes=25):
    num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1),
                st.integers(0, num_nodes - 1),
            ),
            max_size=3 * num_nodes,
        )
    )
    return num_nodes, edges


def build(num_nodes, edges):
    builder = GraphBuilder(num_nodes)
    builder.add_edges(edges)
    return builder.build(dedup=True)


class TestDegreeInvariants:
    @given(digraph_specs())
    @hsettings(max_examples=100, deadline=None)
    def test_degree_sums_equal_edges(self, spec):
        graph = build(*spec)
        assert graph.out_degrees.sum() == graph.num_edges
        assert graph.in_degrees.sum() == graph.num_edges

    @given(digraph_specs())
    @hsettings(max_examples=100, deadline=None)
    def test_reversal_involution(self, spec):
        graph = build(*spec)
        double = graph.reversed().reversed()
        assert (double.adjacency != graph.adjacency).nnz == 0


class TestSubgraphInvariants:
    @given(digraph_specs(), st.data())
    @hsettings(max_examples=80, deadline=None)
    def test_edge_partition(self, spec, data):
        """Every edge leaving a local node is internal or out-boundary;
        every edge entering one is internal or in-boundary."""
        num_nodes, edges = spec
        graph = build(num_nodes, edges)
        local_size = data.draw(st.integers(1, num_nodes))
        local = sorted(
            data.draw(
                st.permutations(range(num_nodes))
            )[:local_size]
        )
        induced = induced_subgraph(graph, local)
        out_src, __, __ = boundary_out_edges(graph, local)
        in_src, __, __ = boundary_in_edges(graph, local)
        local_set = set(local)
        out_from_local = sum(
            1 for s, t, __ in graph.iter_edges() if s in local_set
        )
        into_local = sum(
            1 for s, t, __ in graph.iter_edges() if t in local_set
        )
        assert induced.graph.num_edges + out_src.size == out_from_local
        assert induced.graph.num_edges + in_src.size == into_local

    @given(digraph_specs(), st.data())
    @hsettings(max_examples=80, deadline=None)
    def test_mapping_roundtrip(self, spec, data):
        num_nodes, edges = spec
        graph = build(num_nodes, edges)
        local_size = data.draw(st.integers(1, num_nodes))
        local = sorted(
            data.draw(st.permutations(range(num_nodes)))[:local_size]
        )
        induced = induced_subgraph(graph, local)
        local_ids = np.arange(induced.num_local)
        round_trip = induced.to_local(induced.to_global(local_ids))
        assert round_trip.tolist() == local_ids.tolist()


class TestTraversalInvariants:
    @given(digraph_specs())
    @hsettings(max_examples=80, deadline=None)
    def test_bfs_no_duplicates(self, spec):
        graph = build(*spec)
        order = bfs_order(graph, 0)
        assert len(set(order.tolist())) == order.size

    @given(digraph_specs())
    @hsettings(max_examples=80, deadline=None)
    def test_depths_consistent_with_order(self, spec):
        graph = build(*spec)
        order = bfs_order(graph, 0)
        depths = bfs_tree_depths(graph, 0)
        # Visit order is sorted by depth.
        visit_depths = depths[order]
        assert np.all(np.diff(visit_depths) >= 0)
        # Exactly the reachable nodes are visited.
        assert order.size == int((depths >= 0).sum())

    @given(digraph_specs())
    @hsettings(max_examples=80, deadline=None)
    def test_components_partition_nodes(self, spec):
        graph = build(*spec)
        components = weakly_connected_components(graph)
        combined = np.sort(np.concatenate(components))
        assert combined.tolist() == list(range(graph.num_nodes))
        sizes = [c.size for c in components]
        assert sizes == sorted(sizes, reverse=True)


def reference_bfs(neighbors, num_nodes, seeds, expandable=None,
                  max_depth=None):
    """A plain FIFO BFS: ``(visit order, depth per node or -1)``.

    ``neighbors(node)`` gives the ids to follow; a node is expanded only
    when ``expandable`` marks it and its depth is below ``max_depth``.
    """
    depth = [-1] * num_nodes
    order = []
    queue = deque()
    for seed in sorted(set(seeds)):
        depth[seed] = 0
        queue.append(seed)
    while queue:
        node = queue.popleft()
        order.append(node)
        if max_depth is not None and depth[node] >= max_depth:
            continue
        if expandable is not None and not expandable[node]:
            continue
        for neighbor in neighbors(node):
            if depth[neighbor] == -1:
                depth[neighbor] = depth[node] + 1
                queue.append(int(neighbor))
    return order, depth


@st.composite
def traversal_cases(draw):
    """A graph (dangling pages included), a seed set and a bool mask."""
    num_nodes, edges = draw(digraph_specs())
    seeds = draw(
        st.lists(st.integers(0, num_nodes - 1), min_size=1, max_size=4)
    )
    mask = draw(
        st.lists(st.booleans(), min_size=num_nodes, max_size=num_nodes)
    )
    return build(num_nodes, edges), seeds, np.asarray(mask, dtype=bool)


def assert_ids(result, expected):
    assert result.dtype == np.int64
    assert result.tolist() == list(expected)


class TestFrontierBfsAgainstDeque:
    """Every level-BFS traversal equals a plain deque BFS."""

    @given(traversal_cases(), st.one_of(st.none(), st.integers(1, 30)))
    @hsettings(max_examples=150, deadline=None)
    def test_bfs_order_with_budget(self, case, budget):
        graph, seeds, __ = case
        order, __ = reference_bfs(
            graph.out_neighbors, graph.num_nodes, seeds
        )
        expected = order if budget is None else order[:budget]
        assert_ids(bfs_order(graph, seeds, max_nodes=budget), expected)

    @given(traversal_cases())
    @hsettings(max_examples=150, deadline=None)
    def test_depths_and_reachable_set(self, case):
        graph, seeds, __ = case
        __, depth = reference_bfs(
            graph.out_neighbors, graph.num_nodes, seeds
        )
        assert_ids(bfs_tree_depths(graph, seeds), depth)
        reached = [node for node, d in enumerate(depth) if d >= 0]
        assert_ids(reachable_set(graph, seeds), reached)

    @given(traversal_cases(), st.integers(0, 4))
    @hsettings(max_examples=150, deadline=None)
    def test_within_depth(self, case, max_depth):
        graph, seeds, __ = case
        order, __ = reference_bfs(
            graph.out_neighbors, graph.num_nodes, seeds,
            max_depth=max_depth,
        )
        assert_ids(
            bfs_within_depth(graph, seeds, max_depth), sorted(order)
        )

    @given(traversal_cases(), st.integers(0, 4))
    @hsettings(max_examples=150, deadline=None)
    def test_focused_crawl_expands_only_masked_pages(self, case, depth):
        graph, seeds, mask = case
        order, __ = reference_bfs(
            graph.out_neighbors, graph.num_nodes, seeds,
            expandable=mask, max_depth=depth,
        )
        result = focused_crawl(graph, np.asarray(seeds), mask, depth)
        assert_ids(result, sorted(order))

    @given(digraph_specs(), st.integers(0, 3))
    @hsettings(max_examples=150, deadline=None)
    def test_frontier_halo_follows_in_links(self, spec, halo_hops):
        graph = build(*spec)
        dangling = np.flatnonzero(graph.dangling_mask).tolist()
        if not dangling:
            with pytest.raises(SubgraphError, match="no dangling"):
                dangling_frontier_subgraph(graph, halo_hops)
            return
        order, __ = reference_bfs(
            graph.in_neighbors, graph.num_nodes, dangling,
            max_depth=halo_hops,
        )
        if len(order) == graph.num_nodes:
            with pytest.raises(SubgraphError, match="whole graph"):
                dangling_frontier_subgraph(graph, halo_hops)
            return
        assert_ids(
            dangling_frontier_subgraph(graph, halo_hops), sorted(order)
        )

    @given(traversal_cases())
    @hsettings(max_examples=100, deadline=None)
    def test_set_gathers(self, case):
        graph, seeds, mask = case
        union = set()
        for node in seeds:
            union.update(graph.out_neighbors(node).tolist())
        assert out_neighbors_of_set(graph, seeds).tolist() == sorted(union)
        outside = set()
        for node in np.flatnonzero(mask):
            outside.update(graph.out_neighbors(node).tolist())
        expected = sorted(outside - set(np.flatnonzero(mask).tolist()))
        assert frontier_of(graph, mask).tolist() == expected


class TestComponentsAgainstNetworkx:
    @staticmethod
    def expected(components):
        groups = [sorted(c) for c in components]
        return sorted(groups, key=lambda g: (-len(g), g[0]))

    @given(digraph_specs())
    @hsettings(max_examples=120, deadline=None)
    def test_strong_and_weak_components(self, spec):
        import networkx as nx

        graph = build(*spec)
        reference = nx.DiGraph()
        reference.add_nodes_from(range(graph.num_nodes))
        reference.add_edges_from(
            (s, t) for s, t, __ in graph.iter_edges()
        )
        for ours, theirs in (
            (
                strongly_connected_components(graph),
                nx.strongly_connected_components(reference),
            ),
            (
                weakly_connected_components(graph),
                nx.weakly_connected_components(reference),
            ),
        ):
            assert all(c.dtype == np.int64 for c in ours)
            assert [c.tolist() for c in ours] == self.expected(theirs)


def reference_apply(graph, delta):
    """The documented update semantics, one edge at a time."""
    size = graph.num_nodes + delta.new_pages

    def check(node):
        if not 0 <= node < size:
            raise GraphError(
                f"node {node} out of range for updated graph of size "
                f"{size}"
            )

    edges = {(s, t): w for s, t, w in graph.iter_edges()}
    for source, target in delta.removed_edges:
        check(source)
        check(target)
        if (source, target) not in edges:
            raise GraphError(
                f"cannot remove missing edge ({source}, {target})"
            )
        del edges[(source, target)]
    for source, target in delta.added_edges:
        check(source)
        check(target)
        if source == target:
            raise GraphError(
                f"self-loop ({source}, {source}) not allowed in deltas"
            )
        edges[(source, target)] = 1.0
    pairs = sorted(edges)
    matrix = sparse.coo_matrix(
        (
            [edges[p] for p in pairs],
            ([p[0] for p in pairs], [p[1] for p in pairs]),
        ),
        shape=(size, size),
    )
    return CSRGraph(matrix)


def assert_same_graph(result, expected):
    a, b = result.adjacency, expected.adjacency
    for left, right in (
        (a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)
    ):
        assert left.dtype == right.dtype
        np.testing.assert_array_equal(left, right)
    assert graph_fingerprint(result) == graph_fingerprint(expected)


@st.composite
def delta_cases(draw):
    """A weighted graph and a delta mixing valid and invalid edits."""
    num_nodes, edges = draw(digraph_specs(max_nodes=12))
    graph = build_weighted(num_nodes, edges)
    new_pages = draw(st.integers(0, 3))
    size = num_nodes + new_pages
    existing = [(s, t) for s, t, __ in graph.iter_edges()]
    any_id = st.integers(-2, size + 1)
    in_range = st.integers(0, size - 1)
    removal = (
        st.sampled_from(existing) if existing else st.nothing()
    ) | st.tuples(in_range, in_range) | st.tuples(any_id, any_id)
    addition = st.tuples(in_range, in_range) | st.tuples(any_id, any_id)
    removed = draw(st.lists(removal, max_size=4))
    if draw(st.booleans()):
        addition = addition | st.sampled_from(removed or [(0, 0)])
    added = draw(st.lists(addition, max_size=5))
    return graph, GraphDelta(
        added_edges=tuple(added),
        removed_edges=tuple(removed),
        new_pages=new_pages,
    )


def build_weighted(num_nodes, edges):
    """Duplicate edges sum, so some weights differ from 1.0."""
    builder = GraphBuilder(num_nodes)
    builder.add_edges(edges)
    return builder.build(dedup=False)


def outcome(fn, *args):
    try:
        return fn(*args), None
    except GraphError as exc:
        return None, str(exc)


class TestApplyDeltaAgainstReference:
    @given(delta_cases())
    @hsettings(max_examples=300, deadline=None)
    def test_matches_edge_by_edge_semantics(self, case):
        graph, delta = case
        result, error = outcome(apply_delta, graph, delta)
        expected, expected_error = outcome(reference_apply, graph, delta)
        assert error == expected_error
        if expected is not None:
            assert_same_graph(result, expected)

    @pytest.fixture
    def weighted(self):
        # 0 -> 1 has weight 2.0 (a doubled edge), the rest weight 1.0.
        return build_weighted(4, [(0, 1), (0, 1), (1, 2), (2, 0)])

    def test_weighted_edge_overwritten_to_one(self, weighted):
        updated = apply_delta(weighted, GraphDelta(added_edges=((0, 1),)))
        assert weighted.edge_weight(0, 1) == 2.0
        assert updated.edge_weight(0, 1) == 1.0
        assert updated.num_edges == weighted.num_edges

    def test_duplicated_added_edge_is_one_edge(self, weighted):
        delta = GraphDelta(added_edges=((0, 3), (0, 3)))
        updated = apply_delta(weighted, delta)
        assert updated.num_edges == weighted.num_edges + 1
        assert_same_graph(updated, reference_apply(weighted, delta))

    def test_removed_edge_can_be_re_added(self, weighted):
        delta = GraphDelta(
            removed_edges=((0, 1),), added_edges=((0, 1),)
        )
        updated = apply_delta(weighted, delta)
        assert updated.edge_weight(0, 1) == 1.0
        assert_same_graph(updated, reference_apply(weighted, delta))

    def test_removing_twice_is_a_missing_edge(self, weighted):
        delta = GraphDelta(removed_edges=((1, 2), (1, 2)))
        with pytest.raises(GraphError, match=r"missing edge \(1, 2\)"):
            apply_delta(weighted, delta)

    def test_appended_pages_link_both_ways(self, weighted):
        delta = GraphDelta(
            new_pages=2, added_edges=((4, 0), (3, 5), (5, 4))
        )
        updated = apply_delta(weighted, delta)
        assert updated.num_nodes == 6
        assert_same_graph(updated, reference_apply(weighted, delta))

    def test_errors_follow_edge_order(self, weighted):
        # Each removal is checked (range, then existence) before the
        # next one, and every removal before any addition.
        cases = [
            (((0, 3), (0, 9)), (), "missing edge (0, 3)"),
            (((0, 1), (9, 0)), (), "node 9 out of range"),
            (((0, 1), (0, -1)), (), "node -1 out of range"),
            (((0, 3),), ((1, 1),), "missing edge (0, 3)"),
            ((), ((1, 1), (0, 9)), "self-loop (1, 1)"),
            ((), ((0, 9), (1, 1)), "node 9 out of range"),
        ]
        for removed, added, message in cases:
            delta = GraphDelta(added_edges=added, removed_edges=removed)
            with pytest.raises(GraphError) as caught:
                apply_delta(weighted, delta)
            assert message in str(caught.value)

    def test_negative_id_cannot_alias_another_edge(self, weighted):
        # As ``source * 4 + target`` keys these alias the existing
        # edges (0, 1), (1, 2) and (2, 0); none may reach the merge.
        for edge in ((1, -3), (2, -2), (3, -4)):
            for delta in (
                GraphDelta(removed_edges=(edge,)),
                GraphDelta(added_edges=(edge,)),
            ):
                with pytest.raises(GraphError, match="out of range"):
                    apply_delta(weighted, delta)
