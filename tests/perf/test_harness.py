"""Unit tests for the one benchmark harness (specs, runner, records)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.perf import harness
from repro.perf.harness import (
    REGISTRY,
    SCHEMA,
    Bench,
    Clause,
    Outcome,
    best_of,
    closed_loop,
    higher,
    lower,
    neutral,
    paired,
    render_record,
    run_bench,
)


class TestClause:
    def test_directions_and_strictness(self):
        assert Clause("c", 1.1, 1.1, "higher").passed
        assert not Clause("c", 1.1, 1.1, "higher", strict=True).passed
        assert Clause("c", 1.2, 1.1, "higher", strict=True).passed
        assert Clause("c", 1e-6, 1e-6, "lower").passed
        assert not Clause("c", 1e-6, 1e-6, "lower", strict=True).passed
        assert not Clause("c", 2e-6, 1e-6, "lower").passed

    def test_boolean_clause(self):
        assert Clause("flag", True, True, "higher").passed
        assert not Clause("flag", False, True, "higher").passed

    def test_waiver_applies_only_to_a_failing_clause(self):
        failing = Clause("s", 0.5, 1.0, "higher", waiver="why", waive=True)
        assert failing.waived
        passing = Clause("s", 1.5, 1.0, "higher", waiver="why", waive=True)
        assert not passing.waived
        unmet = Clause("s", 0.5, 1.0, "higher", waiver="why", waive=False)
        assert not unmet.waived
        never = Clause("s", 0.5, 1.0, "higher", waive=True)
        assert not never.waived


class TestTiming:
    def test_best_of_warms_up_then_keeps_the_last_result(self):
        calls = []
        seconds, result = best_of(
            lambda: calls.append(len(calls)) or len(calls), reps=3, warmup=2
        )
        assert len(calls) == 5
        assert result == 5
        assert seconds >= 0.0

    def test_paired_alternates_which_arm_runs_first(self):
        order = []
        (__, a), (__, b) = paired(
            lambda: order.append("a") or "A",
            lambda: order.append("b") or "B",
            reps=4,
        )
        assert order == ["a", "b", "b", "a", "a", "b", "b", "a"]
        assert (a, b) == ("A", "B")


class TestClosedLoop:
    def test_every_slot_answered_once(self):
        seen = []
        lock = threading.Lock()

        def send(slot):
            with lock:
                seen.append(slot)
            return slot * 10

        metrics, answers = closed_loop(send, concurrency=3, rounds=2)
        assert sorted(seen) == list(range(6))
        assert answers == [slot * 10 for slot in range(6)]
        assert metrics["requests"].value == 6
        assert metrics["wall_seconds"].better == "lower"
        assert metrics["throughput_rps"].better == "higher"
        assert metrics["p99_ms"].value >= metrics["p50_ms"].value

    def test_a_failing_request_is_raised_without_hanging(self):
        def send(slot):
            if slot == 1:
                raise ConnectionError("boom")
            return slot

        outcome = []

        def drive():
            try:
                closed_loop(send, concurrency=3, rounds=3)
            except ConnectionError as exc:
                outcome.append(exc)

        thread = threading.Thread(target=drive)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert outcome and "boom" in str(outcome[0])


def fake_bench(speedup: float, cores: int) -> Bench:
    def measure(workload):
        return Outcome(
            workload={"pages": workload[0], "seed": workload[1]},
            metrics={
                "run.seconds": lower(0.25, "s"),
                "run.speedup": higher(speedup, "x"),
                "run.requests": neutral(8, "count"),
            },
            clauses=[
                Clause("exact", True, True, "higher"),
                Clause(
                    "speedup", speedup, 1.1, "higher",
                    waiver="the machine has a single CPU core",
                    waive=cores < 2,
                ),
            ],
            facts={"digest": "abc"},
        )

    return Bench(
        name="fake",
        record="BENCH_fake.json",
        title="fake benchmark",
        build=lambda smoke, seed: (100 if smoke else 1000, seed),
        measure=measure,
    )


@pytest.fixture
def use_bench(monkeypatch):
    def install(bench):
        monkeypatch.setitem(REGISTRY, bench.name, "unused.module")
        monkeypatch.setattr(harness, "load_bench", lambda name: bench)

    return install


class TestRunner:
    def test_record_carries_its_own_meaning(self, use_bench, tmp_path):
        use_bench(fake_bench(speedup=1.5, cores=2))
        path = tmp_path / "out.json"
        record = run_bench("fake", smoke=True, seed=7, output=str(path))
        assert json.loads(path.read_text(encoding="utf-8")) == record
        assert record["schema"] == SCHEMA
        assert record["benchmark"] == "fake"
        assert (record["smoke"], record["seed"]) == (True, 7)
        assert record["workload"] == {"pages": 100, "seed": 7}
        assert set(record["environment"]) == {
            "cpu_count", "python", "numpy", "scipy", "dtype",
        }
        assert record["metrics"]["run.speedup"] == {
            "value": 1.5, "unit": "x", "better": "higher",
        }
        assert record["facts"] == {"digest": "abc"}
        assert record["gate_passed"]

    def test_gate_fails_on_an_unwaived_clause(self, use_bench):
        use_bench(fake_bench(speedup=0.9, cores=2))
        record = run_bench("fake", smoke=True)
        (speedup,) = [c for c in record["clauses"] if c["name"] == "speedup"]
        assert not speedup["passed"] and not speedup["waived"]
        assert not record["gate_passed"]
        assert "gate: FAIL (speedup)" in render_record(record)

    def test_waived_clause_keeps_the_gate(self, use_bench):
        use_bench(fake_bench(speedup=0.9, cores=1))
        record = run_bench("fake", smoke=True)
        assert record["gate_passed"]
        assert "WAIVED" in render_record(record)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            harness.load_bench("nope")


class TestCli:
    def test_bench_needs_a_registered_name(self, capsys):
        assert main(["bench"]) == 2
        assert main(["bench", "nope"]) == 2
        assert "kernels" in capsys.readouterr().err

    def test_smoke_gate_sets_the_exit_code(self, use_bench, tmp_path, capsys):
        use_bench(fake_bench(speedup=0.9, cores=2))
        out = str(tmp_path / "r.json")
        assert main(["bench", "fake", "--fast", "--output", out]) == 1
        assert "GATE FAILED: speedup" in capsys.readouterr().err
        # A full run records what it measured and exits 0.
        assert main(["bench", "fake", "--output", out]) == 0
        assert json.loads(open(out, encoding="utf-8").read())["smoke"] is False


def test_cli_import_loads_no_bench_module():
    """``serve`` boots through ``repro.cli``; it must not pay for benches."""
    code = (
        "import sys, repro.cli; "
        "print(sorted(m for m in sys.modules if m.endswith('bench') "
        "or m == 'repro.perf.harness'))"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=120, env=env,
    ).stdout
    assert out.strip() == "[]"
