"""Unit tests for the DS/TS/BFS subgraph extractors."""

import numpy as np
import pytest

from repro.exceptions import SubgraphError
from repro.generators.datasets import make_politics_like, make_tiny_web
from repro.graph.builder import graph_from_edges
from repro.subgraphs.bfs import bfs_subgraph
from repro.subgraphs.domain import domain_subgraph
from repro.subgraphs.topic import focused_crawl, topic_subgraph


@pytest.fixture(scope="module")
def politics():
    return make_politics_like(num_pages=10_000, seed=2)


@pytest.fixture(scope="module")
def tiny(tiny_web=None):
    return make_tiny_web(num_pages=500, num_groups=3, seed=1)


class TestDomainSubgraph:
    def test_all_pages_of_domain(self, tiny):
        nodes = domain_subgraph(tiny, "site0.example")
        label = tiny.label_index("domain", "site0.example")
        expected = np.flatnonzero(tiny.labels["domain"] == label)
        assert nodes.tolist() == expected.tolist()

    def test_unknown_domain(self, tiny):
        with pytest.raises(Exception, match="not a domain"):
            domain_subgraph(tiny, "nowhere.example")

    def test_domains_partition_graph(self, tiny):
        total = sum(
            domain_subgraph(tiny, name).size
            for name in tiny.label_names["domain"]
        )
        assert total == tiny.graph.num_nodes


class TestFocusedCrawl:
    @pytest.fixture
    def chain_graph(self):
        # 0 -> 1 -> 2 -> 3 -> 4, expandable only at even nodes.
        return graph_from_edges(
            5, [(0, 1), (1, 2), (2, 3), (3, 4)]
        )

    def test_depth_zero_is_seeds(self, chain_graph):
        expandable = np.ones(5, dtype=bool)
        result = focused_crawl(
            chain_graph, np.array([2]), expandable, max_depth=0
        )
        assert result.tolist() == [2]

    def test_depth_limit_respected(self, chain_graph):
        expandable = np.ones(5, dtype=bool)
        result = focused_crawl(
            chain_graph, np.array([0]), expandable, max_depth=2
        )
        assert result.tolist() == [0, 1, 2]

    def test_non_expandable_pages_included_not_expanded(self, chain_graph):
        expandable = np.array([True, False, True, True, True])
        result = focused_crawl(
            chain_graph, np.array([0]), expandable, max_depth=3
        )
        # 1 is fetched (fringe) but its out-link to 2 is not followed.
        assert result.tolist() == [0, 1]

    def test_rejects_empty_seeds(self, chain_graph):
        with pytest.raises(SubgraphError, match="seed"):
            focused_crawl(
                chain_graph, np.array([], dtype=np.int64),
                np.ones(5, dtype=bool),
            )

    def test_rejects_negative_depth(self, chain_graph):
        with pytest.raises(SubgraphError, match="max_depth"):
            focused_crawl(
                chain_graph, np.array([0]), np.ones(5, dtype=bool), -1
            )

    def test_rejects_bad_mask_shape(self, chain_graph):
        with pytest.raises(SubgraphError, match="mask"):
            focused_crawl(
                chain_graph, np.array([0]), np.ones(3, dtype=bool)
            )

    def test_rejects_out_of_range_seeds(self, chain_graph):
        # A negative id must not wrap around to the last page.
        for seed in (-1, 5):
            with pytest.raises(SubgraphError, match="seed page ids"):
                focused_crawl(
                    chain_graph, np.array([seed]), np.ones(5, dtype=bool)
                )


class TestTopicSubgraph:
    def test_contains_all_topic_pages(self, politics):
        nodes = topic_subgraph(politics, "socialism")
        core = politics.pages_with_label("topic", "socialism")
        assert np.isin(core, nodes).all()

    def test_larger_than_core_smaller_than_graph(self, politics):
        nodes = topic_subgraph(politics, "conservatism")
        core = politics.pages_with_label("topic", "conservatism")
        assert core.size < nodes.size < politics.graph.num_nodes

    def test_depth_monotone(self, politics):
        shallow = topic_subgraph(politics, "liberalism", max_depth=1)
        deep = topic_subgraph(politics, "liberalism", max_depth=3)
        assert np.isin(shallow, deep).all()
        assert deep.size >= shallow.size

    def test_stays_small_fraction(self, politics):
        # The focused crawl must not swallow the graph (the reason it
        # exists; see module docstring).
        nodes = topic_subgraph(politics, "conservatism")
        assert nodes.size < 0.2 * politics.graph.num_nodes

    def test_unknown_topic(self, politics):
        with pytest.raises(Exception, match="not a topic"):
            topic_subgraph(politics, "astrology")


class TestBfsSubgraph:
    def test_target_size_hit(self, politics):
        nodes = bfs_subgraph(politics.graph, 0, 0.05)
        assert nodes.size == round(0.05 * politics.graph.num_nodes)

    def test_sorted_output(self, politics):
        nodes = bfs_subgraph(politics.graph, 0, 0.02)
        assert np.all(np.diff(nodes) > 0)

    def test_contains_seed(self, politics):
        nodes = bfs_subgraph(politics.graph, 17, 0.01)
        assert 17 in nodes

    def test_monotone_in_fraction(self, politics):
        small = bfs_subgraph(politics.graph, 17, 0.01)
        large = bfs_subgraph(politics.graph, 17, 0.05)
        assert np.isin(small, large).all()

    def test_rejects_bad_fraction(self, politics):
        with pytest.raises(SubgraphError, match="fraction"):
            bfs_subgraph(politics.graph, 0, 0.0)
        with pytest.raises(SubgraphError, match="fraction"):
            bfs_subgraph(politics.graph, 0, 1.0)

    def test_small_reachable_set_returns_fewer(self):
        # Seed in a tiny closed component: BFS cannot reach the target.
        graph = graph_from_edges(
            100, [(0, 1), (1, 0)] + [(i, i + 1) for i in range(2, 99)]
        )
        nodes = bfs_subgraph(graph, 0, 0.5)
        assert nodes.tolist() == [0, 1]

    def test_crosses_domains(self, politics):
        # The paper: "the crawler may follow hyperlinks and fetch Web
        # pages across multiple domains" (here: topics).
        nodes = bfs_subgraph(politics.graph, 17, 0.10)
        topics = politics.labels["topic"][nodes]
        assert np.unique(topics).size > 1


class TestDanglingFrontier:
    def test_line_graph_frontier(self):
        from repro.graph.builder import graph_from_edges
        from repro.subgraphs.frontier import dangling_frontier_subgraph

        # 0 -> 1 -> 2 -> 3 (dangling), 4 -> 3, isolated-ish 5 -> 0.
        graph = graph_from_edges(
            6, [(0, 1), (1, 2), (2, 3), (4, 3), (5, 0)]
        )
        frontier = dangling_frontier_subgraph(graph, halo_hops=0)
        assert frontier.tolist() == [3]
        frontier = dangling_frontier_subgraph(graph, halo_hops=1)
        assert frontier.tolist() == [2, 3, 4]
        frontier = dangling_frontier_subgraph(graph, halo_hops=2)
        assert frontier.tolist() == [1, 2, 3, 4]

    def test_no_dangling_rejected(self):
        from repro.exceptions import SubgraphError
        from repro.generators.simple import cycle_graph
        from repro.subgraphs.frontier import dangling_frontier_subgraph

        with pytest.raises(SubgraphError, match="no dangling"):
            dangling_frontier_subgraph(cycle_graph(5))

    def test_whole_graph_rejected(self):
        from repro.exceptions import SubgraphError
        from repro.graph.builder import graph_from_edges
        from repro.subgraphs.frontier import dangling_frontier_subgraph

        # Every page dangling or feeding a dangler.
        graph = graph_from_edges(3, [(0, 1), (2, 1)])
        with pytest.raises(SubgraphError, match="whole graph"):
            dangling_frontier_subgraph(graph, halo_hops=1)

    def test_negative_hops_rejected(self, politics):
        from repro.exceptions import SubgraphError
        from repro.subgraphs.frontier import dangling_frontier_subgraph

        with pytest.raises(SubgraphError, match="halo_hops"):
            dangling_frontier_subgraph(politics.graph, halo_hops=-1)

    def test_approxrank_ranks_frontier(self, politics):
        """The §I crawl-prioritisation use: ApproxRank scores for the
        frontier reflect in-link endorsement, which local PageRank
        cannot see at all (dangling pages have no internal structure)."""
        import numpy as np

        from repro.core.approxrank import approxrank
        from repro.pagerank.globalrank import global_pagerank
        from repro.metrics.footrule import footrule_from_scores
        from repro.baselines.localpr import local_pagerank_baseline
        from repro.subgraphs.frontier import dangling_frontier_subgraph

        frontier = dangling_frontier_subgraph(politics.graph, halo_hops=1)
        assert 0 < frontier.size < politics.graph.num_nodes
        truth = global_pagerank(politics.graph)
        reference = truth.scores[frontier]
        approx = approxrank(politics.graph, frontier)
        local = local_pagerank_baseline(politics.graph, frontier)
        assert footrule_from_scores(reference, approx.scores) < (
            footrule_from_scores(reference, local.scores)
        )
