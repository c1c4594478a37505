"""Integration tests: every experiment module runs at reduced scale.

These exercise the full table/figure pipelines end-to-end on small
datasets and assert the paper's qualitative shapes, not absolute
values.
"""

import numpy as np
import pytest

from repro.experiments import (
    ablation,
    figure7,
    table2,
    table3,
    table4,
    table5,
    table6,
    theorems,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ExperimentContext


@pytest.fixture(scope="module")
def context():
    # One shared small context: datasets and ground truth are computed
    # once for the whole module.
    config = ExperimentConfig(
        au_pages=6000,
        politics_pages=6000,
        bfs_fractions=(0.02, 0.10),
        bfs_sc_fractions=(0.02,),
        sc_expansions=5,
    )
    return ExperimentContext(config)


class TestTable2:
    def test_reports_both_datasets(self, context):
        result = table2.run(context)
        names = result.column("dataset")
        assert any("politics-like" in str(n) for n in names)
        assert any("au-like" in str(n) for n in names)
        assert len(result.rows) == 4


class TestTable3:
    def test_three_ts_subgraphs(self, context):
        result = table3.run(context)
        assert result.column("subgraph") == [
            "conservatism", "liberalism", "socialism",
        ]

    def test_approxrank_wins_footrule(self, context):
        result = table3.run(context)
        sc = result.column("SC footrule (ours)")
        approx = result.column("AR footrule (ours)")
        assert all(a < s for a, s in zip(approx, sc))


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self, context):
        return table4.run(context)

    def test_twelve_domains(self, result):
        assert len(result.rows) == 12

    def test_approxrank_best_everywhere(self, result):
        approx = result.column("AR (ours)")
        for other in ("localPR (ours)", "SC (ours)", "LPR2 (ours)"):
            values = result.column(other)
            wins = sum(a < o for a, o in zip(approx, values))
            # ApproxRank should win on (nearly) every domain.
            assert wins >= 10, other

    def test_distance_shrinks_with_size(self, result):
        # The paper's trend: distances fall as the domain share grows.
        # At this reduced scale the trend is noisy, so compare the mean
        # over the 4 smallest vs the 4 largest domains with slack.
        local_pr = result.column("localPR (ours)")
        assert np.mean(local_pr[:4]) > 0.85 * np.mean(local_pr[-4:])


class TestFigure7:
    @pytest.fixture(scope="class")
    def result(self, context):
        return figure7.run(context)

    def test_sweep_points(self, result, context):
        assert len(result.rows) == len(context.config.bfs_fractions)

    def test_sc_only_on_configured_points(self, result, context):
        sc_column = result.column("SC")
        with_sc = [v for v in sc_column if v != "-"]
        assert len(with_sc) == len(context.config.bfs_sc_fractions)

    def test_approxrank_beats_baselines(self, result):
        approx = result.column("ApproxRank")
        for other in ("localPR", "LPR2"):
            values = result.column(other)
            assert all(a < o for a, o in zip(approx, values)), other


class TestRuntimeTables:
    def test_table5_rows_and_ratio(self, context):
        result = table5.run(context)
        assert len(result.rows) == 3
        ratios = result.column("SC/AR (ours)")
        # SC must be more expensive than (amortised) ApproxRank.
        assert all(r > 1 for r in ratios)

    def test_table6_sc_grows_with_n(self, context):
        results = [table6.run(context) for __ in range(5)]
        assert all(len(result.rows) == 12 for result in results)
        # Per-row minimum over 5 runs: one run takes ~0.2 s at test
        # scale, so host drift during it can swamp the size effect.
        sc_seconds = np.min(
            [result.column("SC (s)") for result in results], axis=0
        )
        # Runtime grows with subgraph size; compare the mean over the
        # 4 largest vs 4 smallest domains (wall-clock is noisy at test
        # scale, so no per-row monotonicity).
        assert np.mean(sc_seconds[-4:]) > np.mean(sc_seconds[:4])


class TestTheorems:
    def test_theorem_rows(self, context):
        result = theorems.run(context)
        assert len(result.rows) == 3
        for error in result.column("Thm1 max |err|"):
            assert error < 1e-8
        observed = result.column("Thm2 observed L1")
        bounds = result.column("Thm2 bound")
        assert all(o <= b for o, b in zip(observed, bounds))


class TestAblation:
    def test_error_shrinks_with_knowledge(self, context):
        result = ablation.run(context)
        blends = [
            row for row in result.rows
            if str(row[0]).startswith("blend")
        ]
        observed = [row[3] for row in blends]
        assert observed[0] > observed[-1]
        # Monotone non-increasing along the sweep (small tolerance).
        for earlier, later in zip(observed, observed[1:]):
            assert later <= earlier * 1.05 + 1e-9

    def test_bound_respected_everywhere(self, context):
        result = ablation.run(context)
        for row in result.rows:
            label, __, bound, observed, __ = row
            if "naive P" in str(label):
                continue  # Theorem 2 presumes P_ideal
            assert observed <= bound + 1e-9

    def test_naive_p_clearly_worse(self, context):
        result = ablation.run(context)
        by_label = {str(row[0]): row for row in result.rows}
        naive = by_label["uniform E + naive P (ablation)"]
        approx = by_label["blend 0.00"]
        # Same E, worse teleport vector -> worse score accuracy.
        assert naive[3] > approx[3]
