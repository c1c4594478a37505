"""Tier-2 performance gate: the estimation benchmark in smoke mode.

Excluded from the tier-1 run by the ``tier2`` marker; CI runs it via
``make bench-estimation-smoke``.  Both clauses are never waived: every
sweep point's measured error must honour its certified bound, and the
accuracy-matched operating point must touch fewer edges than one full
pass over the global graph.
"""

import pytest

from repro.estimation.bench import run_estimation_benchmark

pytestmark = [pytest.mark.estimation, pytest.mark.tier2]


@pytest.fixture(scope="module")
def smoke_record():
    return run_estimation_benchmark(smoke=True, output_path=None)


class TestSmokeGate:
    def test_gate_passes(self, smoke_record):
        assert smoke_record["gate_passed"], (
            "smoke gate failed: "
            f"accuracy_ok={smoke_record['accuracy_ok']}, "
            f"sublinear_ok={smoke_record['sublinear_ok']}, "
            f"worst margin={smoke_record['accuracy_worst_margin']:.3e}"
        )

    def test_every_certificate_honoured(self, smoke_record):
        assert smoke_record["accuracy_ok"]
        for point in smoke_record["sweep"]:
            assert point["certificate_ok"], point

    def test_nothing_is_waived(self, smoke_record):
        assert smoke_record["waivers"] == []

    def test_operating_point_is_sublinear(self, smoke_record):
        op = smoke_record["operating_point"]
        assert op is not None
        assert op["edges_touched"] < smoke_record["global_edges"]
        assert op["error_inf"] <= smoke_record["target_accuracy"]

    def test_sweep_covers_both_engines(self, smoke_record):
        estimators = {p["estimator"] for p in smoke_record["sweep"]}
        # Exact is the baseline, recorded beside the sweep.
        assert estimators == {"push"}
        assert smoke_record["exact"]["edges_touched"] > 0
