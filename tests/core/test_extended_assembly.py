"""Array-level identity of the extended matrix against scipy's recipe.

``transition_ext_t`` is written straight into CSR arrays from one
gather of the global matrix.  The reference below is the recipe it
replaced: fancy-index the local block, sum it with scipy, stack the
four blocks of §III-B with ``hstack``/``vstack`` and transpose through
CSC.  Every case compares ``indptr``, ``indices`` and the bytes of
``data``, so a reordered sum or a kept zero fails even when the scores
would agree to rounding.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.core.extended import build_extended_graph
from repro.core.external import weights_from_scores
from repro.core.precompute import ApproxRankPreprocessor
from repro.graph.digraph import CSRGraph
from repro.pagerank.globalrank import global_pagerank
from repro.pagerank.transition import csr_transpose, transition_matrix

SEEDS = range(12)


def weighted_graph(num_nodes, local, seed, weighted=True):
    """A random digraph with dangling pages and wide rows.

    Out-degrees reach 40, so local rows hold more than eight entries
    and a row sum's order of addition shows in its last bits.  A third
    of the local pages link only inside ``local``: their rows sum to
    1 up to rounding, and to_lambda is 0 or a last-bit residue.
    """
    rng = np.random.default_rng(seed)
    local = np.asarray(local)
    rows, cols = [], []
    for node in range(num_nodes):
        if rng.random() < 0.15:
            continue
        closed = node in local and rng.random() < 0.35
        pool = local if closed else np.arange(num_nodes)
        degree = int(rng.integers(1, min(40, pool.size) + 1))
        targets = rng.choice(pool, size=degree, replace=False)
        rows.extend([node] * degree)
        cols.extend(int(t) for t in targets)
    weights = (
        rng.choice([0.5, 1.0, 2.0, 3.0, 7.0], size=len(rows))
        if weighted else np.ones(len(rows))
    )
    adjacency = sparse.csr_matrix(
        (weights, (rows, cols)), shape=(num_nodes, num_nodes)
    )
    return CSRGraph(adjacency)


def scipy_blocks(graph, local):
    """The local block and its Λ column, assembled the scipy way."""
    transition, dangling = transition_matrix(graph)
    block = transition[local][:, local].tocsr()
    row_sums = np.asarray(block.sum(axis=1)).ravel()
    to_lambda = np.where(dangling[local], 0.0, 1.0 - row_sums)
    np.clip(to_lambda, 0.0, 1.0, out=to_lambda)
    return transition, dangling, block, to_lambda


def stacked_transpose(block, to_lambda, lambda_row):
    """hstack/vstack the four blocks and transpose through CSC."""
    num_local = block.shape[0]
    lambda_self = max(1.0 - float(lambda_row.sum()), 0.0)
    column = sparse.csr_matrix(to_lambda.reshape(num_local, 1))
    bottom = sparse.csr_matrix(
        np.concatenate([lambda_row, [lambda_self]]).reshape(1, num_local + 1)
    )
    top = sparse.hstack([block, column], format="csr")
    return csr_transpose(sparse.vstack([top, bottom], format="csr"))


def reference_approx(graph, local):
    transition, dangling, block, to_lambda = scipy_blocks(graph, local)
    num_global, num_local = graph.num_nodes, local.size
    colsum = np.asarray(transition.sum(axis=0)).ravel()
    inflow = colsum[local] - np.asarray(block.sum(axis=0)).ravel()
    np.clip(inflow, 0.0, None, out=inflow)
    dangling_external = int(dangling.sum()) - int(dangling[local].sum())
    lambda_row = (
        inflow + dangling_external / num_global
    ) / (num_global - num_local)
    return stacked_transpose(block, to_lambda, lambda_row)


def reference_custom(graph, local, weights, personalization=None):
    transition, dangling, block, to_lambda = scipy_blocks(graph, local)
    if personalization is None:
        teleport = np.full(local.size, 1.0 / graph.num_nodes)
    else:
        teleport = personalization[local]
    lambda_row = (
        (transition.T @ weights)[local]
        + float(weights[dangling].sum()) * teleport
    )
    return stacked_transpose(block, to_lambda, lambda_row)


def assert_same_arrays(actual, expected):
    assert actual.shape == expected.shape
    assert actual.indptr.dtype == expected.indptr.dtype
    assert actual.indices.dtype == expected.indices.dtype
    np.testing.assert_array_equal(actual.indptr, expected.indptr)
    np.testing.assert_array_equal(actual.indices, expected.indices)
    assert actual.data.tobytes() == expected.data.tobytes()


def random_local(num_nodes, seed):
    rng = np.random.default_rng(1000 + seed)
    size = int(rng.integers(5, num_nodes // 3))
    return np.sort(rng.choice(num_nodes, size=size, replace=False))


def external_dirichlet(graph, local, seed):
    rng = np.random.default_rng(2000 + seed)
    weights = rng.dirichlet(np.ones(graph.num_nodes))
    weights[local] = 0.0
    return weights / weights.sum()


@pytest.mark.parametrize("weighted", [True, False])
@pytest.mark.parametrize("seed", SEEDS)
class TestRandomGraphs:
    def test_approx(self, seed, weighted):
        local = random_local(150, seed)
        graph = weighted_graph(150, local, seed, weighted)
        extended = ApproxRankPreprocessor(graph).extended_graph(local)
        assert_same_arrays(
            extended.transition_ext_t, reference_approx(graph, local)
        )

    def test_ideal(self, seed, weighted):
        local = random_local(150, seed)
        graph = weighted_graph(150, local, seed, weighted)
        scores = global_pagerank(graph).scores
        weights = weights_from_scores(graph, local, scores)
        extended = build_extended_graph(graph, local, weights, mode="ideal")
        assert_same_arrays(
            extended.transition_ext_t,
            reference_custom(graph, local, weights),
        )

    def test_custom_external_weights(self, seed, weighted):
        local = random_local(150, seed)
        graph = weighted_graph(150, local, seed, weighted)
        weights = external_dirichlet(graph, local, seed)
        extended = build_extended_graph(graph, local, weights)
        assert_same_arrays(
            extended.transition_ext_t,
            reference_custom(graph, local, weights),
        )

    def test_personalization(self, seed, weighted):
        local = random_local(150, seed)
        graph = weighted_graph(150, local, seed, weighted)
        rng = np.random.default_rng(3000 + seed)
        personalization = rng.dirichlet(np.ones(graph.num_nodes) * 0.3)
        scores = global_pagerank(
            graph, personalization=personalization
        ).scores
        weights = weights_from_scores(graph, local, scores)
        extended = build_extended_graph(
            graph, local, weights, mode="ideal",
            personalization=personalization,
        )
        assert_same_arrays(
            extended.transition_ext_t,
            reference_custom(graph, local, weights, personalization),
        )


class TestEdgeCases:
    def test_single_page_subgraph(self):
        local = np.array([17])
        graph = weighted_graph(60, local, seed=5)
        extended = ApproxRankPreprocessor(graph).extended_graph(local)
        assert extended.transition_ext_t.shape == (2, 2)
        assert_same_arrays(
            extended.transition_ext_t, reference_approx(graph, local)
        )

    @pytest.mark.parametrize("local", [[0, 1, 2], [3, 4, 5]])
    def test_edge_free_subgraph(self, local):
        # Pages 0-2 are dangling; 3-5 link only outside the subgraph.
        local = np.asarray(local)
        rows = [3, 3, 4, 5, 6, 7, 8, 9]
        cols = [6, 7, 8, 9, 0, 3, 4, 5]
        graph = CSRGraph(
            sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), (10, 10))
        )
        extended = ApproxRankPreprocessor(graph).extended_graph(local)
        assert_same_arrays(
            extended.transition_ext_t, reference_approx(graph, local)
        )
        weights = external_dirichlet(graph, local, seed=0)
        extended = build_extended_graph(graph, local, weights)
        assert_same_arrays(
            extended.transition_ext_t,
            reference_custom(graph, local, weights),
        )

    def test_closed_rows_drop_zero_lambda_entries(self):
        # About a third of the local pages link only inside the
        # subgraph: their rows sum to 1 up to rounding, so their Λ
        # column entries are exact zeros (dropped) or last-bit residues.
        local = np.arange(10, 40)
        graph = weighted_graph(80, local, seed=9, weighted=False)
        transpose = ApproxRankPreprocessor(graph).extended_graph(
            local
        ).transition_ext_t
        assert_same_arrays(transpose, reference_approx(graph, local))
        lambda_column = transpose[local.size].toarray().ravel()
        assert np.all(transpose.data != 0)
        assert np.count_nonzero(lambda_column[:-1]) < local.size

    def test_lambda_self_loop_zero_is_dropped(self):
        # E is a point mass on page 5, whose one out-link is local, so
        # the Λ row sums to exactly 1 and Λ → Λ is 0.
        rows = [0, 1, 2, 5, 6, 7]
        cols = [1, 2, 6, 0, 7, 5]
        graph = CSRGraph(
            sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), (8, 8))
        )
        local = np.array([0, 1, 2])
        weights = np.zeros(8)
        weights[5] = 1.0
        extended = build_extended_graph(graph, local, weights)
        transpose = extended.transition_ext_t
        assert_same_arrays(
            transpose, reference_custom(graph, local, weights)
        )
        assert transpose[local.size, local.size] == 0.0
        last_row = transpose.indices[transpose.indptr[-2]:]
        assert local.size not in last_row
