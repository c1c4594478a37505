"""Divergence guards: NaN/Inf detection and stall patience.

Healthy damped power iteration is an L1 contraction — the residual
improves every sweep — so the guards must never fire on well-formed
problems (checked against the repo's usual graphs elsewhere); here we
feed the solver deliberately broken inputs and pin the failure mode.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.exceptions import ConvergenceError, DivergenceError
from repro.pagerank.batched import batched_power_iteration
from repro.pagerank.kernels import PowerIterationWorkspace, run_power_loop
from repro.pagerank.solver import (
    PowerIterationSettings,
    power_iteration,
    uniform_teleport,
)


def two_cycle():
    """A^T of the 2-node cycle: healthy under damping."""
    return sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


def nan_matrix():
    return sparse.csr_matrix(np.array([[0.0, 1.0], [np.nan, 0.0]]))


class TestDistributionValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_teleport_rejected_explicitly(self, bad):
        with pytest.raises(ValueError, match="finite"):
            power_iteration(two_cycle(), np.array([bad, 1.0]))

    def test_non_finite_dangling_dist_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            power_iteration(
                two_cycle(),
                uniform_teleport(2),
                dangling_mask=np.array([False, False]),
                dangling_dist=np.array([np.nan, 1.0]),
            )

    def test_error_names_the_entry(self):
        with pytest.raises(ValueError, match="entry 1"):
            power_iteration(two_cycle(), np.array([1.0, np.inf]))


class TestFiniteGuard:
    def test_nan_matrix_raises_divergence_error(self):
        with pytest.raises(DivergenceError, match="NaN/Inf"):
            power_iteration(nan_matrix(), uniform_teleport(2))

    def test_divergence_error_is_a_convergence_error(self):
        with pytest.raises(ConvergenceError):
            power_iteration(nan_matrix(), uniform_teleport(2))

    def test_trace_recorded(self):
        with pytest.raises(DivergenceError) as info:
            power_iteration(nan_matrix(), uniform_teleport(2))
        exc = info.value
        assert len(exc.residual_trace) == exc.iterations
        assert not np.isfinite(exc.residual_trace[-1])

    def test_guard_disabled_runs_to_cap(self):
        settings = PowerIterationSettings(
            check_finite=False, divergence_patience=0, max_iterations=10
        )
        outcome = power_iteration(
            nan_matrix(), uniform_teleport(2), settings=settings
        )
        assert not outcome.converged
        assert not np.isfinite(outcome.residual)


class TestPatienceGuard:
    def test_oscillating_iteration_trips_patience(self):
        # Pure 2-cycle with a zero base term: the iterate flips between
        # two states forever, residual constant — exactly the sustained
        # non-improving streak the guard exists for.
        workspace = PowerIterationWorkspace(2)
        np.copyto(workspace.x, np.array([0.9, 0.1]))
        trace: list[float] = []
        with pytest.raises(DivergenceError, match="not improved") as info:
            run_power_loop(
                two_cycle(),
                damping=0.999,
                base=np.zeros(2),
                dangling_indices=np.empty(0, dtype=np.int64),
                dangling_dist=np.zeros(2),
                tolerance=1e-12,
                max_iterations=100,
                workspace=workspace,
                divergence_patience=5,
                residual_trace=trace,
            )
        assert info.value.iterations <= 10
        assert len(info.value.residual_trace) == info.value.iterations

    def test_healthy_problem_never_trips(self):
        settings = PowerIterationSettings(divergence_patience=3)
        outcome = power_iteration(
            two_cycle(), np.array([0.7, 0.3]), settings=settings
        )
        assert outcome.converged

    def test_patience_validation(self):
        with pytest.raises(ValueError):
            PowerIterationSettings(divergence_patience=-1)


class TestBatchedGuards:
    def teleports(self):
        return np.column_stack(
            [np.array([0.5, 0.5]), np.array([0.9, 0.1])]
        )

    def test_nan_contamination_names_the_column(self):
        with pytest.raises(DivergenceError, match="column 0") as info:
            batched_power_iteration(nan_matrix(), self.teleports())
        assert len(info.value.residual_trace) > 0

    def test_oscillation_trips_patience(self):
        # A negative matrix entry makes the renormalised block
        # oscillate instead of contracting.
        amplifier = sparse.csr_matrix(
            np.array([[0.0, -2.0], [3.0, 0.0]])
        )
        settings = PowerIterationSettings(
            divergence_patience=5, max_iterations=100
        )
        with pytest.raises(DivergenceError, match="not improved"):
            batched_power_iteration(
                amplifier, self.teleports(), settings=settings
            )

    def test_healthy_batch_unaffected(self):
        outcome = batched_power_iteration(two_cycle(), self.teleports())
        assert outcome.converged.all()

    def test_guards_off_runs_to_cap(self):
        settings = PowerIterationSettings(
            check_finite=False, divergence_patience=0, max_iterations=5
        )
        outcome = batched_power_iteration(
            nan_matrix(), self.teleports(), settings=settings
        )
        assert not outcome.converged.all()
