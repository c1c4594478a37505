"""Unit tests for the power-iteration solver."""

import numpy as np
import pytest
from scipy import sparse

from repro.core.extended import build_extended_graph
from repro.core.external import uniform_external_weights
from repro.exceptions import ConvergenceError
from repro.pagerank.solver import (
    DEFAULT_DAMPING,
    PowerIterationSettings,
    power_iteration,
    uniform_teleport,
)
from repro.pagerank.transition import transition_matrix_transpose
from tests.conftest import random_digraph


def two_node_transition_t():
    # 0 <-> 1: transition matrix is the swap; transpose equals itself.
    matrix = sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    return matrix


class TestSettings:
    def test_defaults_match_paper(self):
        settings = PowerIterationSettings()
        assert settings.damping == 0.85
        assert settings.tolerance == 1e-5

    @pytest.mark.parametrize("damping", [0.0, 1.0, -0.1, 1.5])
    def test_damping_bounds(self, damping):
        with pytest.raises(ValueError, match="damping"):
            PowerIterationSettings(damping=damping)

    def test_tolerance_positive(self):
        with pytest.raises(ValueError, match="tolerance"):
            PowerIterationSettings(tolerance=0.0)

    def test_max_iterations_positive(self):
        with pytest.raises(ValueError, match="max_iterations"):
            PowerIterationSettings(max_iterations=0)


class TestUniformTeleport:
    def test_sums_to_one(self):
        assert uniform_teleport(7).sum() == pytest.approx(1.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            uniform_teleport(0)


class TestPowerIteration:
    def test_symmetric_two_nodes(self, tight_settings):
        outcome = power_iteration(
            two_node_transition_t(),
            teleport=uniform_teleport(2),
            settings=tight_settings,
        )
        assert outcome.converged
        assert outcome.scores.tolist() == pytest.approx([0.5, 0.5])

    def test_scores_sum_to_one(self, tight_settings, messy_graph):
        from repro.pagerank.transition import transition_matrix_transpose

        transition_t, dangling = transition_matrix_transpose(messy_graph)
        outcome = power_iteration(
            transition_t,
            teleport=uniform_teleport(messy_graph.num_nodes),
            dangling_mask=dangling,
            settings=tight_settings,
        )
        assert outcome.scores.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(outcome.scores > 0)

    def test_dangling_mass_goes_to_dangling_dist(self, tight_settings):
        # 0 -> 1, node 1 dangling.  With dangling_dist pinned on node 0
        # the chain keeps all mass cycling 0 -> 1 -> 0.
        transition = sparse.csr_matrix(
            np.array([[0.0, 1.0], [0.0, 0.0]])
        )
        outcome = power_iteration(
            transition.T.tocsr(),
            teleport=np.array([1.0, 0.0]),
            dangling_mask=np.array([False, True]),
            dangling_dist=np.array([1.0, 0.0]),
            settings=tight_settings,
        )
        # Stationarity: x0 = 0.85 * x1 + 0.15, x1 = 0.85 * x0
        x0 = outcome.scores[0]
        assert x0 == pytest.approx(0.15 / (1 - 0.85**2), rel=1e-6)

    def test_divergence_returns_unconverged(self):
        settings = PowerIterationSettings(
            tolerance=1e-15, max_iterations=3
        )
        outcome = power_iteration(
            two_node_transition_t(),
            teleport=np.array([0.9, 0.1]),
            settings=settings,
        )
        assert not outcome.converged
        assert outcome.iterations == 3

    def test_divergence_raises_when_requested(self):
        settings = PowerIterationSettings(
            tolerance=1e-15, max_iterations=3, raise_on_divergence=True
        )
        with pytest.raises(ConvergenceError) as excinfo:
            power_iteration(
                two_node_transition_t(),
                teleport=np.array([0.9, 0.1]),
                settings=settings,
            )
        assert excinfo.value.iterations == 3
        assert excinfo.value.residual > 0


class TestValidation:
    def test_rejects_non_square(self):
        matrix = sparse.csr_matrix(np.ones((2, 3)))
        with pytest.raises(ValueError, match="square"):
            power_iteration(matrix, teleport=uniform_teleport(2))

    def test_rejects_empty(self):
        matrix = sparse.csr_matrix((0, 0))
        with pytest.raises(ValueError, match="empty"):
            power_iteration(matrix, teleport=np.empty(0))

    def test_rejects_teleport_not_summing_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            power_iteration(
                two_node_transition_t(), teleport=np.array([0.5, 0.6])
            )

    def test_rejects_negative_teleport(self):
        with pytest.raises(ValueError, match="non-negative"):
            power_iteration(
                two_node_transition_t(), teleport=np.array([-0.5, 1.5])
            )

    @pytest.mark.parametrize(
        "dist, message",
        [
            (np.array([0.5, 0.6]), "dangling_dist must sum to 1, sums to"),
            (np.array([-0.5, 1.5]), "dangling_dist must be non-negative"),
            (
                np.array([np.nan, 1.0]),
                "dangling_dist must contain only finite values; entry 0",
            ),
            (np.ones(3) / 3, r"dangling_dist must have shape \(2,\)"),
        ],
    )
    def test_rejects_distinct_bad_dangling_dist(self, dist, message):
        with pytest.raises(ValueError, match=message):
            power_iteration(
                two_node_transition_t(),
                teleport=uniform_teleport(2),
                dangling_mask=np.array([False, True]),
                dangling_dist=dist,
            )

    def test_shared_teleport_is_validated_once(self, monkeypatch):
        from repro.pagerank import solver

        names = []
        validate = solver._validate_distribution

        def counting(name, vector, size):
            names.append(name)
            return validate(name, vector, size)

        monkeypatch.setattr(solver, "_validate_distribution", counting)
        teleport = uniform_teleport(2)
        power_iteration(
            two_node_transition_t(),
            teleport=teleport,
            dangling_mask=np.array([False, True]),
            dangling_dist=teleport,
        )
        assert names == ["teleport"]

    def test_rejects_bad_dangling_mask_shape(self):
        with pytest.raises(ValueError, match="dangling_mask"):
            power_iteration(
                two_node_transition_t(),
                teleport=uniform_teleport(2),
                dangling_mask=np.array([True]),
            )


class TestDampingEffect:
    def test_lower_damping_flattens_scores(self, tight_settings):
        # Star transition: all leaves point at the hub.
        from repro.generators.simple import star_graph
        from repro.pagerank.transition import transition_matrix_transpose

        graph = star_graph(20)
        transition_t, dangling = transition_matrix_transpose(graph)
        teleport = uniform_teleport(graph.num_nodes)
        strong = power_iteration(
            transition_t, teleport, dangling_mask=dangling,
            settings=PowerIterationSettings(
                damping=0.95, tolerance=1e-12, max_iterations=20_000
            ),
        )
        weak = power_iteration(
            transition_t, teleport, dangling_mask=dangling,
            settings=PowerIterationSettings(
                damping=0.5, tolerance=1e-12, max_iterations=20_000
            ),
        )
        # The hub (node 0) dominates more under stronger damping.
        assert strong.scores[0] > weak.scores[0]

    def test_default_damping_constant(self):
        assert DEFAULT_DAMPING == 0.85


TIGHT = PowerIterationSettings(tolerance=1e-11, max_iterations=20_000)


def dense_fixed_point(transition_t, teleport, dangling_mask, dangling_dist):
    """The fixed point by a dense direct solve, independent of the loop.

    Solves ``(I − εAᵀ − ε·v·dᵀ) x = (1 − ε) t`` with ``v`` the dangling
    distribution and ``d`` the dangling indicator, normalised to sum 1.
    """
    damping = TIGHT.damping
    size = transition_t.shape[0]
    system = (
        np.eye(size)
        - damping * transition_t.toarray()
        - damping * np.outer(dangling_dist, dangling_mask.astype(float))
    )
    scores = np.linalg.solve(system, (1.0 - damping) * teleport)
    return scores / scores.sum()


class TestDenseSolveOracle:
    """``power_iteration`` lands on the same fixed point as a dense solve."""

    @staticmethod
    def assert_agree(transition_t, teleport, dangling, dangling_dist=None):
        dist = teleport if dangling_dist is None else dangling_dist
        power = power_iteration(
            transition_t, teleport, dangling, dist, settings=TIGHT
        )
        assert power.converged
        np.testing.assert_allclose(
            power.scores,
            dense_fixed_point(transition_t, teleport, dangling, dist),
            atol=1e-8,
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_fixed_point(self, seed):
        graph = random_digraph(250, seed=seed)
        transition_t, dangling = transition_matrix_transpose(graph)
        self.assert_agree(transition_t, uniform_teleport(250), dangling)

    def test_heavy_dangling(self):
        graph = random_digraph(150, dangling_fraction=0.5, seed=3)
        transition_t, dangling = transition_matrix_transpose(graph)
        self.assert_agree(transition_t, uniform_teleport(150), dangling)

    def test_personalized_teleport(self):
        graph = random_digraph(120, seed=4)
        teleport = np.random.default_rng(5).random(120)
        teleport /= teleport.sum()
        transition_t, dangling = transition_matrix_transpose(graph)
        self.assert_agree(transition_t, teleport, dangling)

    def test_extended_graph(self):
        graph = random_digraph(200, seed=6)
        local = np.arange(60)
        weights = uniform_external_weights(graph, local)
        extended = build_extended_graph(graph, local, weights)
        self.assert_agree(
            extended.transition_ext_t,
            extended.p_ideal,
            extended.dangling_mask_ext,
            extended.p_ideal,
        )
