"""Tier-2 performance gate: the solver-precision benchmark in smoke mode.

Excluded from tier-1 by the ``tier2`` marker; CI runs it via
``make test-tier2`` / ``make bench-backends-smoke``.  Also carries the
``backends`` marker so the precision matrix can be exercised alone
(``pytest -m backends``).
"""

from __future__ import annotations

import pytest

from repro.pagerank.backends import float32_l1_bound
from repro.perf.backend_bench import run_backend_benchmark

pytestmark = [pytest.mark.tier2, pytest.mark.backends]


@pytest.fixture(scope="module")
def smoke_record():
    return run_backend_benchmark(smoke=True, output_path=None)


class TestSmokeGate:
    def test_gate_passes(self, smoke_record):
        assert smoke_record["gate_passed"], (
            f"backend smoke gate failed: {smoke_record['single_solve']}"
        )

    def test_baseline_cell_is_float64(self, smoke_record):
        first = smoke_record["single_solve"][0]
        assert (first["dtype"], first["layout"]) == ("float64", "none")
        assert first["l1_vs_float64"] == 0.0
        assert first["speedup_vs_float64"] == 1.0

    def test_every_cell_converged(self, smoke_record):
        assert [c["dtype"] for c in smoke_record["single_solve"]] == [
            "float64",
            "float32",
        ]
        for cell in smoke_record["single_solve"]:
            assert cell["converged"]

    def test_float32_cells_within_documented_bound(self, smoke_record):
        workload = smoke_record["workload"]
        bound = float32_l1_bound(
            workload["pages"], workload["tolerance"], workload["damping"]
        )
        (cell,) = [
            c for c in smoke_record["single_solve"]
            if c["dtype"] == "float32"
        ]
        assert cell["layout"] == "degree"
        assert cell["l1_bound"] == bound
        assert cell["within_bound"]
        assert cell["l1_vs_float64"] <= bound
