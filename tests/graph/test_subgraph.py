"""Unit tests for subgraph extraction and boundary queries."""

import numpy as np
import pytest

from repro.exceptions import SubgraphError
from repro.graph.builder import graph_from_edges
from repro.graph.subgraph import (
    boundary_in_edges,
    boundary_out_edges,
    frontier,
    induced_subgraph,
    membership_mask,
    normalize_node_set,
    restrict_vector,
    subgraph_density_report,
)


@pytest.fixture
def example_graph():
    # Local set will be {0, 1, 2}; externals {3, 4}.
    return graph_from_edges(
        5,
        [
            (0, 1), (1, 2), (2, 0),      # local triangle
            (0, 3), (2, 4),              # out-boundary
            (3, 1), (3, 2), (4, 2),      # in-boundary
            (3, 4),                      # external-external
        ],
    )


class TestNormalize:
    def test_sorts_input(self, example_graph):
        result = normalize_node_set(example_graph, [2, 0, 1])
        assert result.tolist() == [0, 1, 2]

    def test_rejects_empty(self, example_graph):
        with pytest.raises(SubgraphError, match="empty"):
            normalize_node_set(example_graph, [])

    def test_rejects_duplicates(self, example_graph):
        with pytest.raises(SubgraphError, match="duplicate"):
            normalize_node_set(example_graph, [0, 0, 1])

    def test_rejects_out_of_range(self, example_graph):
        with pytest.raises(SubgraphError, match="must lie in"):
            normalize_node_set(example_graph, [0, 5])

    # Every container form gives the same array or the same error text;
    # a 1-D integer ndarray is cast directly, anything else goes
    # through a list.
    FORMS = {
        "list": list,
        "tuple": tuple,
        "generator": lambda ids: (i for i in ids),
        "int32": lambda ids: np.asarray(ids, dtype=np.int32),
        "int64": lambda ids: np.asarray(ids, dtype=np.int64),
        "uint8": lambda ids: np.asarray(ids, dtype=np.uint8),
        "float64": lambda ids: np.asarray(ids, dtype=np.float64),
    }

    @pytest.mark.parametrize("form", sorted(FORMS) + ["set"])
    def test_every_form_normalizes_alike(self, example_graph, form):
        make = set if form == "set" else self.FORMS[form]
        nodes = make([4, 0, 3])
        result = normalize_node_set(example_graph, nodes)
        assert result.dtype == np.int64
        assert result.tolist() == [0, 3, 4]
        if isinstance(nodes, np.ndarray):
            assert not np.shares_memory(result, nodes)

    @pytest.mark.parametrize(
        "ids, message",
        [
            ([], "local node set must not be empty"),
            ([1, 0, 1], "local node set contains duplicate ids"),
            ([0, 5], "local node ids must lie in [0, 5), got range [0, 5]"),
            ([2, 9, 1], "local node ids must lie in [0, 5), got range [1, 9]"),
        ],
    )
    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_every_form_fails_alike(self, example_graph, form, ids, message):
        with pytest.raises(SubgraphError) as raised:
            normalize_node_set(example_graph, self.FORMS[form](ids))
        assert str(raised.value) == message

    @pytest.mark.parametrize("form", ["int32", "int64"])
    def test_negative_ids_fail_alike(self, example_graph, form):
        with pytest.raises(SubgraphError) as raised:
            normalize_node_set(example_graph, self.FORMS[form]([-1, 2]))
        assert str(raised.value) == (
            "local node ids must lie in [0, 5), got range [-1, 2]"
        )

    def test_float_ids_truncate(self, example_graph):
        for ids in ([2.9, 0.2], np.asarray([2.9, 0.2])):
            assert normalize_node_set(example_graph, ids).tolist() == [0, 2]

    def test_membership_mask(self, example_graph):
        nodes = normalize_node_set(example_graph, [0, 2])
        mask = membership_mask(example_graph, nodes)
        assert mask.tolist() == [True, False, True, False, False]


class TestInducedSubgraph:
    def test_keeps_only_internal_edges(self, example_graph):
        induced = induced_subgraph(example_graph, [0, 1, 2])
        assert induced.graph.num_nodes == 3
        assert induced.graph.num_edges == 3  # the triangle only

    def test_id_mappings(self, example_graph):
        induced = induced_subgraph(example_graph, [1, 3])
        assert induced.local_to_global.tolist() == [1, 3]
        assert induced.to_local(np.array([3])).tolist() == [1]
        assert induced.to_local(np.array([0])).tolist() == [-1]
        assert induced.to_global(np.array([0, 1])).tolist() == [1, 3]

    def test_num_local(self, example_graph):
        assert induced_subgraph(example_graph, [0, 4]).num_local == 2

    def test_edge_weights_preserved(self):
        from repro.graph.builder import GraphBuilder

        builder = GraphBuilder(3)
        builder.add_edge(0, 1, 2.5)
        builder.add_edge(1, 2, 4.0)
        graph = builder.build()
        induced = induced_subgraph(graph, [0, 1])
        assert induced.graph.edge_weight(0, 1) == 2.5

    def test_unsorted_input_canonicalised(self, example_graph):
        induced = induced_subgraph(example_graph, [2, 0, 1])
        assert induced.local_to_global.tolist() == [0, 1, 2]


class TestBoundaries:
    def test_out_boundary(self, example_graph):
        sources, targets, weights = boundary_out_edges(
            example_graph, [0, 1, 2]
        )
        pairs = set(zip(sources.tolist(), targets.tolist()))
        assert pairs == {(0, 3), (2, 4)}
        assert np.all(weights == 1.0)

    def test_in_boundary(self, example_graph):
        sources, targets, __ = boundary_in_edges(example_graph, [0, 1, 2])
        pairs = set(zip(sources.tolist(), targets.tolist()))
        assert pairs == {(3, 1), (3, 2), (4, 2)}

    def test_external_external_edges_excluded(self, example_graph):
        out_src, out_tgt, __ = boundary_out_edges(example_graph, [0, 1, 2])
        assert (3, 4) not in set(zip(out_src.tolist(), out_tgt.tolist()))

    def test_whole_graph_has_empty_boundary(self, example_graph):
        sources, __, __ = boundary_out_edges(
            example_graph, range(example_graph.num_nodes)
        )
        assert sources.size == 0

    def test_frontier(self, example_graph):
        assert frontier(example_graph, [0, 1, 2]).tolist() == [3, 4]

    def test_frontier_empty_when_closed(self):
        graph = graph_from_edges(4, [(0, 1), (1, 0), (2, 3)])
        assert frontier(graph, [0, 1]).size == 0


class TestDensityReport:
    def test_report_fields(self, example_graph):
        report = subgraph_density_report(example_graph, [0, 1, 2])
        assert report["num_local"] == 3
        assert report["internal_edges"] == 3
        assert report["outgoing_boundary_edges"] == 2
        assert report["incoming_boundary_edges"] == 3
        assert 0 < report["internal_link_fraction"] < 1
        assert report["fraction_of_global"] == pytest.approx(0.6)

    def test_closed_subgraph_fraction_one(self):
        graph = graph_from_edges(4, [(0, 1), (1, 0), (2, 3)])
        report = subgraph_density_report(graph, [0, 1])
        assert report["internal_link_fraction"] == 1.0


class TestRestrictVector:
    def test_plain_restriction(self):
        values = np.array([0.1, 0.2, 0.3, 0.4])
        nodes = np.array([1, 3])
        assert restrict_vector(values, nodes).tolist() == [0.2, 0.4]

    def test_normalised_restriction(self):
        values = np.array([0.1, 0.2, 0.3, 0.4])
        nodes = np.array([1, 3])
        restricted = restrict_vector(values, nodes, normalize=True)
        assert restricted.sum() == pytest.approx(1.0)
        assert restricted[1] / restricted[0] == pytest.approx(2.0)

    def test_zero_mass_left_unnormalised(self):
        values = np.zeros(3)
        restricted = restrict_vector(values, np.array([0, 1]), normalize=True)
        assert restricted.tolist() == [0.0, 0.0]
