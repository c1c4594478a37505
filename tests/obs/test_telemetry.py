"""Convergence telemetry: ring buffer semantics and recording gates.

Registry assertions are **delta-based**: the process-wide REGISTRY
accumulates across the whole test session, so each test reads the
before-value of the counters it touches.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs import state, telemetry
from repro.obs.metrics import REGISTRY
from repro.obs.telemetry import RingBuffer, SolveRecord, TRACE_TAIL

pytestmark = pytest.mark.obs


class TestRingBuffer:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            RingBuffer(0)

    def test_fills_then_evicts_oldest(self):
        buf = RingBuffer(3)
        for i in range(5):
            buf.append(i)
        assert buf.items() == [2, 3, 4]
        assert len(buf) == 3
        assert buf.total_appended == 5

    def test_order_preserved_before_wrap(self):
        buf = RingBuffer(8)
        for i in range(3):
            buf.append(i)
        assert buf.items() == [0, 1, 2]

    def test_wraps_repeatedly(self):
        buf = RingBuffer(2)
        for i in range(7):
            buf.append(i)
        assert buf.items() == [5, 6]

    def test_clear(self):
        buf = RingBuffer(2)
        buf.append(1)
        buf.clear()
        assert buf.items() == []
        assert buf.total_appended == 0


def _value(name, **labels):
    return REGISTRY.value(name, **labels)


class TestRecordSolve:
    def test_registry_always_counts_even_when_obs_off(self):
        obs.disable()
        telemetry.reset()
        before = _value("repro_solver_solves_total", solver="power")
        telemetry.record_solve(
            "power",
            iterations=12,
            residual=1e-6,
            converged=True,
            damping=0.85,
            runtime_seconds=0.01,
        )
        after = _value("repro_solver_solves_total", solver="power")
        assert after == before + 1
        # ...but the per-solve ring buffer stays empty.
        assert telemetry.SOLVE_HISTORY.items() == []

    def test_history_recorded_when_obs_on(self):
        obs.enable()
        telemetry.reset()
        trace = [10.0 ** -k for k in range(TRACE_TAIL + 10)]
        telemetry.record_solve(
            "power",
            iterations=40,
            residual=trace[-1],
            converged=True,
            damping=0.85,
            runtime_seconds=0.02,
            residual_trace=trace,
        )
        (record,) = telemetry.SOLVE_HISTORY.items()
        assert isinstance(record, SolveRecord)
        assert record.solver == "power"
        assert record.iterations == 40
        assert record.converged
        # Only the tail of a long residual trace is kept.
        assert len(record.residual_tail) == TRACE_TAIL
        assert record.residual_tail == tuple(trace[-TRACE_TAIL:])

    def test_unconverged_solves_counted(self):
        obs.disable()
        before = _value("repro_solver_unconverged_total", solver="power")
        telemetry.record_solve(
            "power",
            iterations=1000,
            residual=1e-3,
            converged=False,
            damping=0.85,
            runtime_seconds=0.5,
        )
        after = _value("repro_solver_unconverged_total", solver="power")
        assert after == before + 1


class TestRecordBatchedSolve:
    def test_counts_columns_and_unconverged(self):
        obs.enable()
        telemetry.reset()
        before_cols = _value("repro_solver_batched_columns_total")
        before_unconv = _value(
            "repro_solver_unconverged_total", solver="batched"
        )
        telemetry.record_batched_solve(
            iterations=[30, 45, 60],
            residuals=[1e-6, 1e-6, 1e-4],
            converged=[True, True, False],
            dampings=[0.85, 0.85, 0.85],
            sweeps=60,
            runtime_seconds=0.1,
            residual_trace=[1e-2, 1e-4, 1e-6],
        )
        assert _value("repro_solver_batched_columns_total") == before_cols + 3
        assert (
            _value("repro_solver_unconverged_total", solver="batched")
            == before_unconv + 1
        )
        (record,) = telemetry.SOLVE_HISTORY.items()
        assert record.solver == "batched"
        assert record.columns == 3
        assert record.sweeps == 60
        assert not record.converged  # one column capped out
        assert record.residual == pytest.approx(1e-4)  # worst column


class TestEventCounters:
    def test_divergence_counter_and_last_sweep_gauge(self):
        before = _value(
            "repro_solver_divergence_trips_total", solver="power"
        )
        telemetry.record_divergence("power", 17)
        assert (
            _value("repro_solver_divergence_trips_total", solver="power")
            == before + 1
        )
        assert (
            _value("repro_solver_last_divergence_sweep", solver="power")
            == 17
        )

    def test_workspace_allocation_counters(self):
        before_n = _value("repro_solver_workspace_allocations_total")
        before_bytes = _value("repro_solver_workspace_bytes_total")
        telemetry.record_workspace_allocation(1000, 24_000)
        assert (
            _value("repro_solver_workspace_allocations_total")
            == before_n + 1
        )
        assert (
            _value("repro_solver_workspace_bytes_total")
            == before_bytes + 24_000
        )


class TestHistoryPayload:
    def test_payload_is_json_shaped(self):
        obs.enable()
        telemetry.reset()
        telemetry.record_solve(
            "power",
            iterations=5,
            residual=1e-7,
            converged=True,
            damping=0.9,
            runtime_seconds=0.001,
            residual_trace=[1e-5, 1e-7],
        )
        (payload,) = telemetry.history_payload()
        assert payload["solver"] == "power"
        assert payload["residual_tail"] == [1e-5, 1e-7]
        assert payload["columns"] == 1
        assert payload["sweeps"] is None


class TestEnvGate:
    def test_env_var_controls_worker_inheritance(self, monkeypatch):
        import os

        obs.enable()
        assert os.environ[state.ENV_VAR] == "1"
        obs.disable()
        assert os.environ[state.ENV_VAR] == "0"

    @pytest.mark.parametrize("raw", ["", "0", "false", "no", "off", "OFF"])
    def test_falsey_env_values(self, monkeypatch, raw):
        monkeypatch.setenv(state.ENV_VAR, raw)
        assert not state._env_enabled()

    @pytest.mark.parametrize("raw", ["1", "true", "yes", "on"])
    def test_truthy_env_values(self, monkeypatch, raw):
        monkeypatch.setenv(state.ENV_VAR, raw)
        assert state._env_enabled()
