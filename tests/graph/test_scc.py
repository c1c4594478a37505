"""Tests for strongly connected components."""

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.graph.builder import GraphBuilder, graph_from_edges
from repro.graph.scc import (
    is_strongly_connected,
    largest_scc_fraction,
    strongly_connected_components,
)
from repro.generators.simple import cycle_graph, line_graph


class TestKnownStructures:
    def test_cycle_is_one_scc(self):
        graph = cycle_graph(7)
        assert is_strongly_connected(graph)
        assert largest_scc_fraction(graph) == 1.0

    def test_line_is_all_singletons(self):
        graph = line_graph(5)
        components = strongly_connected_components(graph)
        assert len(components) == 5
        assert all(c.size == 1 for c in components)
        assert not is_strongly_connected(graph)

    def test_two_cycles_bridged_one_way(self):
        # Cycle {0,1,2}, cycle {3,4,5}, one-way bridge 2 -> 3.
        graph = graph_from_edges(
            6,
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)],
        )
        components = strongly_connected_components(graph)
        assert len(components) == 2
        sizes = sorted(c.size for c in components)
        assert sizes == [3, 3]
        assert not is_strongly_connected(graph)

    def test_back_edge_merges_components(self):
        graph = graph_from_edges(
            6,
            [
                (0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                (2, 3), (3, 2),
            ],
        )
        assert is_strongly_connected(graph)

    def test_largest_first_ordering(self):
        graph = graph_from_edges(
            5, [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)]
        )
        components = strongly_connected_components(graph)
        assert components[0].size == 3
        assert components[1].size == 2

    def test_empty_graph(self):
        graph = GraphBuilder(0).build()
        assert strongly_connected_components(graph) == []
        assert largest_scc_fraction(graph) == 0.0
        assert is_strongly_connected(graph)

    def test_deep_chain_no_recursion_limit(self):
        # Paths far beyond Python's recursion limit must not overflow.
        n = 50_000
        builder = GraphBuilder(n)
        builder.add_edge_arrays(
            np.arange(n - 1), np.arange(1, n)
        )
        components = strongly_connected_components(builder.build())
        assert len(components) == n


class TestAgainstNetworkx:
    @given(
        st.integers(2, 25).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(
                        st.integers(0, n - 1), st.integers(0, n - 1)
                    ),
                    max_size=4 * n,
                ),
            )
        )
    )
    @hsettings(max_examples=80, deadline=None)
    def test_matches_networkx(self, spec):
        import networkx as nx

        num_nodes, edges = spec
        builder = GraphBuilder(num_nodes)
        builder.add_edges(edges)
        graph = builder.build(dedup=True)
        ours = {
            tuple(component.tolist())
            for component in strongly_connected_components(graph)
        }
        reference_graph = nx.DiGraph()
        reference_graph.add_nodes_from(range(num_nodes))
        reference_graph.add_edges_from(edges)
        theirs = {
            tuple(sorted(component))
            for component in nx.strongly_connected_components(
                reference_graph
            )
        }
        assert ours == theirs


class TestGeneratedWebs:
    def test_synthetic_web_has_giant_scc(self):
        from repro.generators.datasets import make_tiny_web

        web = make_tiny_web(num_pages=1500, num_groups=4, seed=4)
        assert largest_scc_fraction(web.graph) > 0.4
