"""Unit tests for the benchmark-record diff engine (bench-diff)."""

from __future__ import annotations

import json

import pytest

from repro.perf.diff import (
    DEFAULT_THRESHOLD,
    diff_records,
    format_diff,
    load_record,
)


def record(**overrides):
    base = {
        "benchmark": "solver_backends",
        "created_unix": 1_700_000_000.0,
        "gate_passed": True,
        "single_solve": [
            {"dtype": "float64", "seconds": 1.0},
            {"dtype": "float32", "seconds": 0.5},
        ],
        "worker_sweep": [
            {"workers": 1, "seconds": 2.0, "speedup_vs_serial": 1.0},
        ],
        "best_speedup": 1.0,
    }
    base.update(overrides)
    return base


class TestClassification:
    def test_identical_records_report_nothing(self):
        report = diff_records(record(), record())
        assert report["regressions"] == []
        assert report["improvements"] == []
        assert report["neutral"] == []
        assert not report["gate_lost"]

    def test_slower_seconds_is_a_regression(self):
        new = record()
        new["single_solve"][0]["seconds"] = 2.0
        report = diff_records(record(), new)
        assert len(report["regressions"]) == 1
        entry = report["regressions"][0]
        assert entry["metric"] == "single_solve[float64].seconds"
        assert entry["change_pct"] == pytest.approx(100.0)

    def test_faster_seconds_is_an_improvement(self):
        new = record()
        new["single_solve"][0]["seconds"] = 0.5
        report = diff_records(record(), new)
        assert report["regressions"] == []
        assert len(report["improvements"]) == 1

    def test_lower_speedup_is_a_regression(self):
        new = record(best_speedup=0.5)
        report = diff_records(record(), new)
        assert any(
            e["metric"] == "best_speedup"
            for e in report["regressions"]
        )

    def test_counts_are_neutral(self):
        old = record(cpu_count=4)
        new = record(cpu_count=8)
        report = diff_records(old, new)
        assert report["regressions"] == []
        assert any(
            e["metric"] == "cpu_count" for e in report["neutral"]
        )

    def test_noise_below_threshold_suppressed(self):
        new = record()
        new["single_solve"][0]["seconds"] = 1.0 + DEFAULT_THRESHOLD / 2
        report = diff_records(record(), new)
        assert report["regressions"] == []
        tight = diff_records(record(), new, threshold=0.01)
        assert len(tight["regressions"]) == 1

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            diff_records(record(), record(), threshold=-0.1)


def semantic_record(**push_overrides):
    """A BENCH_semantic-shaped record: one family whose accuracy
    request carries the certified bound and the measured error."""
    push = {"r_max": 1e-3, "error_l1": 1e-5, "error_bound": 6e-5}
    push.update(push_overrides)
    return {
        "benchmark": "semantic",
        "gate_passed": True,
        "families": [{"family": "TS", "nodes": 265, "push": push}],
    }


class TestEstimationDirections:
    """Per-benchmark overrides: the accuracy request's error regresses
    when it grows."""

    def test_larger_error_is_a_regression(self):
        report = diff_records(
            semantic_record(), semantic_record(error_l1=2e-5)
        )
        assert [e["metric"] for e in report["regressions"]] == [
            "families[TS].push.error_l1"
        ]

    def test_overrides_scoped_to_the_estimation_benchmark(self):
        # The same leaf names stay neutral in other benchmarks.
        old = record(error_inf=1e-3)
        new = record(error_inf=2e-3)
        report = diff_records(old, new)
        assert report["regressions"] == []
        assert any(
            e["metric"] == "error_inf" for e in report["neutral"]
        )


class TestStructure:
    def test_list_entries_keyed_by_label_not_position(self):
        # Reordering sweep cells must not produce phantom changes.
        new = record()
        new["single_solve"] = list(reversed(new["single_solve"]))
        report = diff_records(record(), new)
        assert report["regressions"] == []
        assert report["improvements"] == []
        assert report["neutral"] == []

    def test_one_sided_metrics_reported(self):
        new = record()
        new["worker_sweep"].append(
            {"workers": 2, "seconds": 1.1, "speedup_vs_serial": 1.8}
        )
        report = diff_records(record(), new)
        assert any(
            path.startswith("worker_sweep[workers=2]")
            for path in report["only_in_new"]
        )
        assert report["only_in_old"] == []

    def test_timestamps_ignored(self):
        new = record(created_unix=1_800_000_000.0)
        report = diff_records(record(), new)
        assert report["neutral"] == []

    def test_gate_lost_detected(self):
        report = diff_records(record(), record(gate_passed=False))
        assert report["gate_lost"]
        assert not diff_records(
            record(gate_passed=False), record()
        )["gate_lost"]

    def test_mismatched_benchmarks_flagged(self):
        other = record(benchmark="solver_kernels")
        report = diff_records(record(), other)
        assert not report["comparable"]
        assert "different benchmarks" in format_diff(report)


class TestFormatting:
    def test_report_mentions_gate_transition(self):
        text = format_diff(diff_records(record(), record(gate_passed=False)))
        assert "PASS -> FAIL" in text
        assert "REGRESSED" in text

    def test_quiet_diff_says_so(self):
        text = format_diff(diff_records(record(), record()))
        assert "no changes above the noise threshold" in text


class TestLoadRecord:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(record()), encoding="utf-8")
        assert load_record(str(path))["benchmark"] == "solver_backends"

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(ValueError, match="must be an object"):
            load_record(str(path))
