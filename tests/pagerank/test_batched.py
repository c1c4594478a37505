"""Regression tests: batched multi-vector solver vs single solves.

The batched solver promises that every column of one ``(n, K)`` solve
agrees with the corresponding independent single-vector solve to
solver tolerance — on messy graphs *with dangling nodes*, across all
of its internal code paths (sparse-teleport scatter, dense fold,
custom dangling distributions, per-column dampings).
"""

import numpy as np
import pytest

from repro.exceptions import ConvergenceError
from repro.pagerank.batched import (
    BatchedOutcome,
    batched_power_iteration,
    stack_teleports,
)
from repro.pagerank.solver import (
    PowerIterationSettings,
    power_iteration,
    uniform_teleport,
)
from repro.pagerank.transition import transition_matrix_transpose

from tests.conftest import random_digraph


def base_set_teleports(num_nodes: int, k: int, seed: int) -> np.ndarray:
    """K sparse base-set personalisations (ObjectRank style)."""
    rng = np.random.default_rng(seed)
    teleports = np.zeros((num_nodes, k), dtype=np.float64)
    base_size = max(3, num_nodes // 50)
    for column in range(k):
        base = rng.choice(num_nodes, size=base_size, replace=False)
        teleports[base, column] = 1.0 / base_size
    return teleports


@pytest.fixture
def dangling_setup():
    """Transition transpose + mask of a graph that has dangling nodes."""
    graph = random_digraph(300, dangling_fraction=0.25, seed=9)
    transition_t, dangling_mask = transition_matrix_transpose(graph)
    assert dangling_mask.any(), "fixture must exercise dangling pages"
    return transition_t, dangling_mask


class TestAgreementWithSingleSolver:
    def assert_columns_match(
        self, transition_t, dangling_mask, teleports, settings, batched,
        dangling_dists=None, dampings=None,
    ):
        for column in range(teleports.shape[1]):
            single_settings = settings
            if dampings is not None:
                single_settings = PowerIterationSettings(
                    damping=float(dampings[column]),
                    tolerance=settings.tolerance,
                    max_iterations=settings.max_iterations,
                )
            single = power_iteration(
                transition_t,
                teleport=teleports[:, column],
                dangling_mask=dangling_mask,
                dangling_dist=(
                    None if dangling_dists is None
                    else dangling_dists[:, column]
                ),
                settings=single_settings,
            )
            gap = np.abs(batched.scores[:, column] - single.scores).sum()
            assert gap < settings.tolerance, (
                f"column {column}: L1 gap {gap} vs tolerance"
            )

    def test_sparse_teleports_with_dangling(self, dangling_setup):
        transition_t, dangling_mask = dangling_setup
        teleports = base_set_teleports(transition_t.shape[0], 5, seed=1)
        settings = PowerIterationSettings()
        batched = batched_power_iteration(
            transition_t, teleports,
            dangling_mask=dangling_mask, settings=settings,
        )
        assert batched.converged.all()
        self.assert_columns_match(
            transition_t, dangling_mask, teleports, settings, batched
        )

    def test_dense_teleports_with_dangling(self, dangling_setup):
        # Dense columns take the broadcast (non-scatter) fold path.
        transition_t, dangling_mask = dangling_setup
        n = transition_t.shape[0]
        rng = np.random.default_rng(3)
        teleports = rng.random((n, 4)) + 0.05
        teleports /= teleports.sum(axis=0)
        settings = PowerIterationSettings()
        batched = batched_power_iteration(
            transition_t, teleports,
            dangling_mask=dangling_mask, settings=settings,
        )
        self.assert_columns_match(
            transition_t, dangling_mask, teleports, settings, batched
        )

    def test_custom_dangling_dists(self, dangling_setup):
        transition_t, dangling_mask = dangling_setup
        n = transition_t.shape[0]
        teleports = base_set_teleports(n, 3, seed=5)
        dists = np.repeat(uniform_teleport(n)[:, np.newaxis], 3, axis=1)
        settings = PowerIterationSettings()
        batched = batched_power_iteration(
            transition_t, teleports,
            dangling_mask=dangling_mask,
            dangling_dists=dists, settings=settings,
        )
        self.assert_columns_match(
            transition_t, dangling_mask, teleports, settings, batched,
            dangling_dists=dists,
        )

    def test_per_column_dampings(self, dangling_setup):
        transition_t, dangling_mask = dangling_setup
        n = transition_t.shape[0]
        teleports = base_set_teleports(n, 4, seed=7)
        dampings = np.array([0.5, 0.7, 0.85, 0.95])
        settings = PowerIterationSettings()
        batched = batched_power_iteration(
            transition_t, teleports,
            dangling_mask=dangling_mask,
            settings=settings, dampings=dampings,
        )
        self.assert_columns_match(
            transition_t, dangling_mask, teleports, settings, batched,
            dampings=dampings,
        )

    def test_tight_tolerance_agreement(self, dangling_setup):
        # At 1e-12 both solvers must land on the same fixed point.
        transition_t, dangling_mask = dangling_setup
        teleports = base_set_teleports(transition_t.shape[0], 3, seed=11)
        settings = PowerIterationSettings(
            tolerance=1e-12, max_iterations=20_000
        )
        batched = batched_power_iteration(
            transition_t, teleports,
            dangling_mask=dangling_mask, settings=settings,
        )
        self.assert_columns_match(
            transition_t, dangling_mask, teleports, settings, batched
        )


class TestPerColumnConvergence:
    def test_iterations_vary_with_damping(self, dangling_setup):
        # Lower damping converges faster; per-column accounting must
        # reflect that instead of reporting one shared count.
        transition_t, dangling_mask = dangling_setup
        teleports = base_set_teleports(transition_t.shape[0], 2, seed=13)
        batched = batched_power_iteration(
            transition_t, teleports,
            dangling_mask=dangling_mask,
            dampings=np.array([0.3, 0.95]),
        )
        assert batched.converged.all()
        assert batched.iterations[0] < batched.iterations[1]
        assert batched.sweeps == batched.iterations.max()

    def test_frozen_columns_are_pinned(self, dangling_setup):
        # A converged column's scores must be its scores at the sweep
        # it converged — later sweeps for slower columns cannot move it.
        transition_t, dangling_mask = dangling_setup
        teleports = base_set_teleports(transition_t.shape[0], 2, seed=17)
        dampings = np.array([0.3, 0.95])
        both = batched_power_iteration(
            transition_t, teleports,
            dangling_mask=dangling_mask, dampings=dampings,
        )
        alone = batched_power_iteration(
            transition_t, teleports[:, :1],
            dangling_mask=dangling_mask, dampings=dampings[:1],
        )
        assert both.iterations[0] == alone.iterations[0]
        # Not bit-identical: the shared drift-triggered renormalisation
        # may fire for the slow column's sake, rescaling the fast
        # column by 1 ± O(1e-16) before it freezes.
        np.testing.assert_allclose(
            both.scores[:, 0], alone.scores[:, 0], rtol=0, atol=1e-12
        )

    def test_residuals_below_tolerance(self, dangling_setup):
        transition_t, dangling_mask = dangling_setup
        teleports = base_set_teleports(transition_t.shape[0], 4, seed=19)
        settings = PowerIterationSettings()
        batched = batched_power_iteration(
            transition_t, teleports,
            dangling_mask=dangling_mask, settings=settings,
        )
        assert (batched.residuals < settings.tolerance).all()

    def test_columns_sum_to_one(self, dangling_setup):
        transition_t, dangling_mask = dangling_setup
        teleports = base_set_teleports(transition_t.shape[0], 4, seed=23)
        batched = batched_power_iteration(
            transition_t, teleports, dangling_mask=dangling_mask
        )
        np.testing.assert_allclose(
            batched.scores.sum(axis=0), np.ones(4), atol=1e-9
        )

    def test_divergence_raises_with_column_count(self, dangling_setup):
        transition_t, dangling_mask = dangling_setup
        teleports = base_set_teleports(transition_t.shape[0], 3, seed=29)
        with pytest.raises(ConvergenceError, match="of 3 columns"):
            batched_power_iteration(
                transition_t, teleports,
                dangling_mask=dangling_mask,
                settings=PowerIterationSettings(
                    tolerance=1e-12, max_iterations=3,
                    raise_on_divergence=True,
                ),
            )

    def test_divergence_tolerated_when_configured(self, dangling_setup):
        transition_t, dangling_mask = dangling_setup
        teleports = base_set_teleports(transition_t.shape[0], 2, seed=31)
        batched = batched_power_iteration(
            transition_t, teleports,
            dangling_mask=dangling_mask,
            settings=PowerIterationSettings(
                tolerance=1e-12, max_iterations=3,
                raise_on_divergence=False,
            ),
        )
        assert not batched.converged.any()
        assert batched.sweeps == 3


class TestOutcomeApi:
    def test_column_view_matches(self, dangling_setup):
        transition_t, dangling_mask = dangling_setup
        teleports = base_set_teleports(transition_t.shape[0], 3, seed=37)
        batched = batched_power_iteration(
            transition_t, teleports, dangling_mask=dangling_mask
        )
        assert batched.num_columns == 3
        view = batched.column(1)
        np.testing.assert_array_equal(view.scores, batched.scores[:, 1])
        assert view.iterations == batched.iterations[1]
        assert view.converged
        assert view.runtime_seconds == pytest.approx(
            batched.runtime_seconds / 3
        )

    def test_column_view_bounds(self, dangling_setup):
        transition_t, dangling_mask = dangling_setup
        teleports = base_set_teleports(transition_t.shape[0], 2, seed=41)
        batched = batched_power_iteration(
            transition_t, teleports, dangling_mask=dangling_mask
        )
        with pytest.raises(IndexError):
            batched.column(2)

    def test_stack_teleports_round_trip(self):
        vectors = [uniform_teleport(6), np.eye(6)[2]]
        block = stack_teleports(vectors, 6)
        assert block.shape == (6, 2)
        np.testing.assert_array_equal(block[:, 1], np.eye(6)[2])

    def test_stack_teleports_rejects_empty_and_misshaped(self):
        with pytest.raises(ValueError, match="at least one"):
            stack_teleports([], 4)
        with pytest.raises(ValueError, match="shape"):
            stack_teleports([np.ones(3) / 3], 4)


class TestValidation:
    def test_rejects_non_square_matrix(self, dangling_setup):
        transition_t, _ = dangling_setup
        rect = transition_t[:100]
        with pytest.raises(ValueError, match="square"):
            batched_power_iteration(rect, np.ones((100, 1)))

    def test_rejects_wrong_teleport_shape(self, dangling_setup):
        transition_t, dangling_mask = dangling_setup
        with pytest.raises(ValueError, match="teleports"):
            batched_power_iteration(
                transition_t, np.ones((7, 2)) / 7,
                dangling_mask=dangling_mask,
            )

    def test_rejects_unnormalised_columns(self, dangling_setup):
        transition_t, dangling_mask = dangling_setup
        n = transition_t.shape[0]
        bad = np.full((n, 2), 1.0 / n)
        bad[:, 1] *= 2
        with pytest.raises(ValueError, match="sum to 1"):
            batched_power_iteration(
                transition_t, bad, dangling_mask=dangling_mask
            )

    def test_rejects_negative_teleports(self, dangling_setup):
        transition_t, dangling_mask = dangling_setup
        n = transition_t.shape[0]
        bad = np.full((n, 1), 1.0 / n)
        bad[0, 0] = -bad[0, 0]
        bad[1, 0] += 2.0 / n
        with pytest.raises(ValueError, match="non-negative"):
            batched_power_iteration(
                transition_t, bad, dangling_mask=dangling_mask
            )

    def test_rejects_bad_dampings(self, dangling_setup):
        transition_t, dangling_mask = dangling_setup
        n = transition_t.shape[0]
        teleports = np.full((n, 2), 1.0 / n)
        with pytest.raises(ValueError, match="damping"):
            batched_power_iteration(
                transition_t, teleports,
                dangling_mask=dangling_mask,
                dampings=np.array([0.85, 1.0]),
            )
        with pytest.raises(ValueError, match="shape"):
            batched_power_iteration(
                transition_t, teleports,
                dangling_mask=dangling_mask,
                dampings=np.array([0.85]),
            )

    def test_rejects_wrong_dangling_mask_shape(self, dangling_setup):
        transition_t, _ = dangling_setup
        n = transition_t.shape[0]
        with pytest.raises(ValueError, match="dangling_mask"):
            batched_power_iteration(
                transition_t, np.full((n, 1), 1.0 / n),
                dangling_mask=np.zeros(n - 1, dtype=bool),
            )
