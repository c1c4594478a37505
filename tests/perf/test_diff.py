"""Unit tests for the benchmark-record diff engine (bench-diff)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.perf.diff import (
    DEFAULT_THRESHOLD,
    SchemaMismatch,
    diff_records,
    format_diff,
    load_record,
)
from repro.perf.harness import SCHEMA


def metric(value, unit="s", better="lower"):
    return {"value": value, "unit": unit, "better": better}


ENVIRONMENT = {
    "cpu_count": 2,
    "python": "3.11.7",
    "numpy": "2.0.0",
    "scipy": "1.13.0",
    "dtype": "float64",
}


def record(**overrides):
    base = {
        "schema": SCHEMA,
        "benchmark": "backends",
        "created_unix": 1_700_000_000.0,
        "environment": dict(ENVIRONMENT),
        "workload": {"pages": 4000},
        "metrics": {
            "single_solve[float64].seconds": metric(1.0),
            "single_solve[float32].seconds": metric(0.5),
            "sweep[workers=1].seconds": metric(2.0),
            "sweep[workers=1].speedup_vs_serial": metric(1.0, "x", "higher"),
            "best_speedup": metric(1.0, "x", "higher"),
        },
        "clauses": [],
        "gate_passed": True,
    }
    base.update(overrides)
    return base


def with_metric(name, value, better=None, **overrides):
    rec = record(**overrides)
    rec["metrics"][name] = metric(
        value, better=better or rec["metrics"].get(name, metric(0))["better"]
    )
    return rec


class TestClassification:
    def test_identical_records_report_nothing(self):
        report = diff_records(record(), record())
        assert report["regressions"] == []
        assert report["improvements"] == []
        assert report["neutral"] == []
        assert not report["gate_lost"]

    def test_slower_seconds_is_a_regression(self):
        new = with_metric("single_solve[float64].seconds", 2.0)
        report = diff_records(record(), new)
        assert len(report["regressions"]) == 1
        entry = report["regressions"][0]
        assert entry["metric"] == "single_solve[float64].seconds"
        assert entry["change_pct"] == pytest.approx(100.0)

    def test_faster_seconds_is_an_improvement(self):
        new = with_metric("single_solve[float64].seconds", 0.5)
        report = diff_records(record(), new)
        assert report["regressions"] == []
        assert len(report["improvements"]) == 1

    def test_lower_speedup_is_a_regression(self):
        new = with_metric("best_speedup", 0.5)
        report = diff_records(record(), new)
        assert any(
            e["metric"] == "best_speedup"
            for e in report["regressions"]
        )

    def test_counts_are_neutral(self):
        old = with_metric("requests", 4, better="neutral")
        new = with_metric("requests", 8, better="neutral")
        report = diff_records(old, new)
        assert report["regressions"] == []
        assert any(
            e["metric"] == "requests" for e in report["neutral"]
        )

    def test_noise_below_threshold_suppressed(self):
        new = with_metric(
            "single_solve[float64].seconds", 1.0 + DEFAULT_THRESHOLD / 2
        )
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
    push = {"error_l1": 1e-5, "error_bound": 6e-5}
    push.update(push_overrides)
    return record(
        benchmark="semantic",
        metrics={
            "families[TS].nodes": metric(265, "pages", "neutral"),
            **{
                f"families[TS].push.{name}": metric(value, "L1", "lower")
                for name, value in push.items()
            },
        },
    )


class TestEstimationDirections:
    """Directions come from each record's own metric metadata."""

    def test_larger_error_is_a_regression(self):
        report = diff_records(
            semantic_record(), semantic_record(error_l1=2e-5)
        )
        assert [e["metric"] for e in report["regressions"]] == [
            "families[TS].push.error_l1"
        ]

    def test_overrides_scoped_to_the_estimation_benchmark(self):
        # The same leaf name declared neutral in another record stays
        # neutral: nothing is inferred from the name.
        old = with_metric("error_l1", 1e-3, better="neutral")
        new = with_metric("error_l1", 2e-3, better="neutral")
        report = diff_records(old, new)
        assert report["regressions"] == []
        assert any(
            e["metric"] == "error_l1" for e in report["neutral"]
        )


class TestStructure:
    def test_list_entries_keyed_by_label_not_position(self):
        # Reordering the metrics must not produce phantom changes.
        new = record()
        new["metrics"] = dict(reversed(list(new["metrics"].items())))
        report = diff_records(record(), new)
        assert report["regressions"] == []
        assert report["improvements"] == []
        assert report["neutral"] == []

    def test_one_sided_metrics_reported(self):
        new = with_metric("sweep[workers=2].seconds", 1.1)
        report = diff_records(record(), new)
        assert report["only_in_new"] == ["sweep[workers=2].seconds"]
        assert report["only_in_old"] == []
        reverse = diff_records(new, record())
        assert reverse["only_in_old"] == ["sweep[workers=2].seconds"]

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
        other = record(benchmark="kernels")
        report = diff_records(record(), other)
        assert not report["comparable"]
        assert "different benchmarks" in format_diff(report)

    def test_different_schema_refused(self):
        old = record(schema=SCHEMA - 1)
        with pytest.raises(SchemaMismatch, match="schema"):
            diff_records(old, record())
        unversioned = record()
        del unversioned["schema"]
        with pytest.raises(SchemaMismatch):
            diff_records(unversioned, record())

    def test_environment_change_warns(self):
        new = record(environment={**ENVIRONMENT, "cpu_count": 1})
        text = format_diff(diff_records(record(), new))
        assert "environments differ" in text
        assert "cpu_count: 2 -> 1" in text
        assert "environments differ" not in format_diff(
            diff_records(record(), record())
        )


class TestFormatting:
    def test_report_mentions_gate_transition(self):
        text = format_diff(diff_records(record(), record(gate_passed=False)))
        assert "PASS -> FAIL" in text
        assert "REGRESSED" in text

    def test_quiet_diff_says_so(self):
        text = format_diff(diff_records(record(), record()))
        assert "no changes above the noise threshold" in text


class TestCli:
    def write(self, tmp_path, name, rec):
        path = tmp_path / name
        path.write_text(json.dumps(rec), encoding="utf-8")
        return str(path)

    def test_strict_exits_one_on_regression_or_lost_gate(
        self, tmp_path, capsys
    ):
        old = self.write(tmp_path, "old.json", record())
        slower = self.write(
            tmp_path, "slow.json",
            with_metric("single_solve[float64].seconds", 2.0),
        )
        lost = self.write(tmp_path, "lost.json", record(gate_passed=False))
        assert main(["bench-diff", old, slower]) == 0
        assert main(["bench-diff", old, slower, "--strict"]) == 1
        assert main(["bench-diff", old, lost, "--strict"]) == 1
        assert main(["bench-diff", old, old, "--strict"]) == 0
        capsys.readouterr()

    def test_schema_mismatch_exits_two(self, tmp_path, capsys):
        old = self.write(tmp_path, "old.json", record(schema=SCHEMA - 1))
        new = self.write(tmp_path, "new.json", record())
        assert main(["bench-diff", old, new]) == 2
        assert "schema" in capsys.readouterr().err


class TestLoadRecord:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(record()), encoding="utf-8")
        assert load_record(str(path))["benchmark"] == "backends"

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(ValueError, match="must be an object"):
            load_record(str(path))
