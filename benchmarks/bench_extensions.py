"""Benches for the extension subsystems.

* Supplementary experiment regenerations (aggregation baseline sweep,
  P2P convergence).
* Incremental-update path vs full recompute (§I update scenario).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import extras, p2p_convergence
from repro.pagerank.globalrank import global_pagerank
from repro.subgraphs.domain import domain_subgraph
from repro.updates.delta import apply_delta, random_region_delta
from repro.updates.rerank import incremental_rerank


class TestSupplementaryRegeneration:
    def test_regenerate_extras(self, benchmark, bench_context):
        result = benchmark.pedantic(
            lambda: extras.run(bench_context), rounds=1, iterations=1
        )
        print()
        print(result.render())
        approx = result.column("ApproxRank")
        local_pr = result.column("localPR")
        assert all(a < l for a, l in zip(approx, local_pr))

    def test_regenerate_p2p(self, benchmark, bench_context):
        result = benchmark.pedantic(
            lambda: p2p_convergence.run(
                bench_context, rounds=6, num_peers=8
            ),
            rounds=1, iterations=1,
        )
        print()
        print(result.render())
        l1 = result.column("mean L1")
        assert l1[-1] < l1[0]


class TestIncrementalUpdate:
    @pytest.fixture(scope="class")
    def update_scenario(self, au, au_truth, bench_context):
        region = domain_subgraph(au, "csu.edu.au")
        delta = random_region_delta(
            au.graph, region, added=region.size, seed=5
        )
        updated = apply_delta(au.graph, delta)
        return au.graph, updated, au_truth.scores, delta

    def test_incremental_rerank(
        self, benchmark, update_scenario, bench_context
    ):
        old_graph, new_graph, old_scores, delta = update_scenario
        result = benchmark.pedantic(
            lambda: incremental_rerank(
                old_graph, new_graph, old_scores, delta=delta,
                settings=bench_context.settings,
            ),
            rounds=3, iterations=1,
        )
        assert result.scores.sum() == pytest.approx(1.0, abs=1e-9)

    def test_full_recompute(
        self, benchmark, update_scenario, bench_context
    ):
        __, new_graph, __, __ = update_scenario
        result = benchmark.pedantic(
            lambda: global_pagerank(new_graph, bench_context.settings),
            rounds=3, iterations=1,
        )
        assert result.converged

    def test_incremental_accuracy(self, update_scenario, bench_context):
        old_graph, new_graph, old_scores, delta = update_scenario
        fresh = global_pagerank(new_graph, bench_context.settings)
        result = incremental_rerank(
            old_graph, new_graph, old_scores, delta=delta,
            settings=bench_context.settings,
        )
        error = float(np.abs(result.scores - fresh.scores).sum())
        assert error < 0.05


class TestCrawlerStrategies:
    """Best-First crawl value-per-fetch (§I's focused-crawler loop)."""

    @pytest.mark.parametrize(
        "strategy", ["approxrank", "indegree", "bfs", "random"]
    )
    def test_crawl_strategy(
        self, benchmark, strategy, au, au_truth, bench_context
    ):
        from repro.crawler.bestfirst import CrawlSimulator
        from repro.subgraphs.bfs import default_bfs_seed

        seed = default_bfs_seed(au.graph)

        def crawl():
            simulator = CrawlSimulator(
                au.graph, [seed],
                strategy=strategy,
                batch_size=50,
                settings=bench_context.settings,
                rng_seed=9,
                global_scores=au_truth.scores,
            )
            return simulator.run(1000)

        result = benchmark.pedantic(crawl, rounds=1, iterations=1)
        assert result.num_crawled == 1000
        if strategy == "approxrank":
            # Best-First with ApproxRank must clearly beat random.
            random_result = CrawlSimulator(
                au.graph, [seed], strategy="random",
                batch_size=50, rng_seed=9,
                global_scores=au_truth.scores,
            ).run(1000)
            assert result.mass_curve[-1] > (
                1.5 * random_result.mass_curve[-1]
            )


class TestSearchQuality:
    """Top-K answer agreement per ranking (Figure 1's loop)."""

    @pytest.fixture(scope="class")
    def search_setup(self, au, au_truth, bench_context):
        from repro.search.lexicon import SyntheticLexicon
        from repro.subgraphs.bfs import bfs_subgraph, default_bfs_seed

        lexicon = SyntheticLexicon(
            au.graph, group_of=au.labels["domain"],
            num_terms=800, seed=11,
        )
        nodes = bfs_subgraph(
            au.graph, default_bfs_seed(au.graph), 0.10
        )
        queries = [[int(t)] for t in lexicon.popular_terms(15)]
        return lexicon, nodes, queries

    def test_approxrank_answer_agreement(
        self, benchmark, search_setup, au, au_truth, bench_context
    ):
        from repro.core.approxrank import approxrank
        from repro.search.engine import (
            compare_engines,
            reference_engine_scores,
        )

        lexicon, nodes, queries = search_setup
        estimate = approxrank(
            au.graph, nodes, bench_context.settings,
            preprocessor=bench_context.preprocessor(au),
        )
        reference = reference_engine_scores(au_truth.scores, nodes)
        agreement = benchmark.pedantic(
            lambda: compare_engines(
                estimate, reference, lexicon, queries, k=10
            ),
            rounds=1, iterations=1,
        )
        assert agreement > 0.6

    def test_local_pr_answer_agreement(
        self, benchmark, search_setup, au, au_truth, bench_context
    ):
        from repro.baselines.localpr import local_pagerank_baseline
        from repro.search.engine import (
            compare_engines,
            reference_engine_scores,
        )

        lexicon, nodes, queries = search_setup
        estimate = local_pagerank_baseline(
            au.graph, nodes, bench_context.settings
        )
        reference = reference_engine_scores(au_truth.scores, nodes)
        agreement = benchmark.pedantic(
            lambda: compare_engines(
                estimate, reference, lexicon, queries, k=10
            ),
            rounds=1, iterations=1,
        )
        assert 0.0 <= agreement <= 1.0
