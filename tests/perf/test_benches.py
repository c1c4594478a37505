"""Tier-2 gates: every registered benchmark in smoke mode.

Excluded from the tier-1 run by the ``tier2`` marker; CI runs it via
``make test-tier2`` (or one bench at a time with ``make
bench-NAME-smoke``).  Each benchmark runs once per session, through
``python -m repro bench NAME --fast`` in its own process: that is how
records are made, and it keeps one benchmark's warm caches and lazy
imports from shifting another's timings.  The parametrized tests
require the gate to pass and the record to round-trip through
``bench-diff``; the per-benchmark classes pin what the gate alone does
not.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.pagerank.backends import float32_l1_bound
from repro.perf.diff import diff_records, load_record
from repro.perf.harness import REGISTRY, render_record

pytestmark = pytest.mark.tier2

_MARKS = {
    "backends": [pytest.mark.backends],
    "serve": [pytest.mark.serve],
    "shard": [pytest.mark.serve],
    "semantic": [pytest.mark.semantic],
    "updates": [pytest.mark.updates],
}


@pytest.fixture(scope="session")
def smoke(tmp_path_factory):
    """``smoke(name)`` → (record, path) of one smoke run per session."""
    records: dict[str, tuple[dict, str]] = {}
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
    }

    def get(name: str):
        if name not in records:
            path = str(tmp_path_factory.mktemp("bench") / f"{name}.json")
            run = subprocess.run(
                [sys.executable, "-m", "repro", "bench", name, "--fast",
                 "--output", path],
                capture_output=True, text=True, env=env, timeout=900,
            )
            assert Path(path).exists(), run.stderr
            record = load_record(path)
            # The exit code is the smoke gate.
            assert (run.returncode == 0) == record["gate_passed"], run.stderr
            records[name] = (record, path)
        return records[name]

    return get


def _clause(record, name):
    (clause,) = [c for c in record["clauses"] if c["name"] == name]
    return clause


def _value(record, metric):
    return record["metrics"][metric]["value"]


BENCHES = [
    pytest.param(name, marks=_MARKS.get(name, [])) for name in REGISTRY
]


@pytest.mark.parametrize("name", BENCHES)
def test_gate_passes(smoke, name):
    record, __ = smoke(name)
    assert record["gate_passed"], render_record(record)


@pytest.mark.parametrize("name", BENCHES)
def test_record_round_trips_through_bench_diff(smoke, name, capsys):
    record, path = smoke(name)
    report = diff_records(load_record(path), record)
    assert report["comparable"]
    assert report["regressions"] == report["improvements"] == []
    assert report["neutral"] == []
    assert main(["bench-diff", path, path, "--strict"]) == 0
    assert "no changes above the noise threshold" in capsys.readouterr().out


@pytest.mark.parametrize("name", BENCHES)
def test_single_core_waivers_need_a_single_core(smoke, name):
    record, __ = smoke(name)
    for clause in record["clauses"]:
        if clause["waived"] and "single CPU core" in clause["waiver"]:
            assert (os.cpu_count() or 1) < 2, clause


class TestKernels:
    def test_batched_matches_single_scores(self, smoke):
        record, __ = smoke("kernels")
        assert (
            _value(record, "batched.max_l1_gap_vs_single")
            < record["workload"]["tolerance"]
        )

    def test_batched_saves_matrix_sweeps(self, smoke):
        record, __ = smoke("kernels")
        assert _value(record, "batched.matrix_sweeps") < _value(
            record, "single.total_iterations"
        )

    def test_cache_warm_lookup_is_cheap(self, smoke):
        record, __ = smoke("kernels")
        assert _value(record, "cache.transpose_warm_seconds") < _value(
            record, "cache.transpose_cold_seconds"
        )
        assert _value(record, "cache.local_block_warm_seconds") < _value(
            record, "cache.local_block_cold_seconds"
        )


@pytest.mark.backends
class TestBackends:
    def test_baseline_cell_is_float64(self, smoke):
        record, __ = smoke("backends")
        assert record["facts"]["single_solve[float64].layout"] == "none"
        assert _value(record, "single_solve[float64].l1_vs_float64") == 0.0
        assert (
            _value(record, "single_solve[float64].speedup_vs_float64") == 1.0
        )

    def test_every_cell_converged(self, smoke):
        record, __ = smoke("backends")
        for dtype in ("float64", "float32"):
            assert record["facts"][f"single_solve[{dtype}].converged"]

    def test_float32_cell_within_documented_bound(self, smoke):
        record, __ = smoke("backends")
        workload = record["workload"]
        bound = float32_l1_bound(
            workload["pages"], workload["tolerance"], workload["damping"]
        )
        assert record["facts"]["single_solve[float32].layout"] == "degree"
        assert _value(record, "single_solve[float32].l1_bound") == bound
        clause = _clause(record, "float32_within_l1_bound")
        assert clause["bound"] == bound and clause["passed"]


class TestParallel:
    def test_every_configuration_is_exact(self, smoke):
        record, __ = smoke("parallel")
        for workers in record["workload"]["workers"]:
            assert record["facts"][
                f"sweep[workers={workers}].exact_match_vs_serial"
            ], f"workers={workers} diverged from serial"
        assert _clause(record, "exact_agreement")["passed"]

    def test_full_sweep_recorded(self, smoke):
        # The sweep is capped at the machine's core count; everything
        # above it must be recorded as skipped, not silently dropped.
        from repro.perf.parallel_bench import TARGET_SPEEDUP, WORKER_SWEEP

        record, __ = smoke("parallel")
        cpu_count = os.cpu_count() or 1
        workload = record["workload"]
        assert workload["workers"] == [w for w in WORKER_SWEEP if w <= cpu_count]
        assert workload["skipped_worker_counts"] == [
            w for w in WORKER_SWEEP if w > cpu_count
        ]
        assert workload["target_speedup"] == TARGET_SPEEDUP
        for workers in workload["workers"]:
            assert f"sweep[workers={workers}].seconds" in record["metrics"]


@pytest.mark.serve
class TestServe:
    def test_every_request_was_answered(self, smoke):
        record, __ = smoke("serve")
        for mode in ("batching_on", "batching_off"):
            assert (
                _value(record, f"{mode}.requests")
                == record["workload"]["total_requests"]
            )


@pytest.mark.serve
class TestShard:
    def test_every_request_was_answered(self, smoke):
        record, __ = smoke("shard")
        total = record["workload"]["total_requests"]
        for shards in record["workload"]["shard_sweep"]:
            shape = f"shapes[shards={shards}]"
            assert _value(record, f"{shape}.requests") == total
            spread = [
                _value(record, f"{shape}.shard_spread.{shard}")
                for shard in range(shards)
            ]
            assert sum(spread) == total

    def test_keyspace_actually_spreads(self, smoke):
        record, __ = smoke("shard")
        shards = record["workload"]["shard_sweep"][-1]
        occupied = sum(
            1
            for shard in range(shards)
            if _value(record, f"shapes[shards={shards}].shard_spread.{shard}")
        )
        assert occupied > 1


@pytest.mark.updates
class TestUpdates:
    def test_every_update_recorded(self, smoke):
        record, __ = smoke("updates")
        per_update = record["facts"]["per_update"]
        assert len(per_update) == record["workload"]["updates"]
        assert sum(u["warm_iterations"] for u in per_update) == _value(
            record, "warm.iterations"
        )
        assert sum(u["cold_iterations"] for u in per_update) == _value(
            record, "cold.iterations"
        )

    def test_correctness_clauses_are_never_waived(self, smoke):
        record, __ = smoke("updates")
        for name in ("accuracy", "staleness"):
            clause = _clause(record, name)
            assert clause["waiver"] is None and clause["passed"]


@pytest.mark.semantic
class TestSemantic:
    def test_determinism_clause_holds(self, smoke):
        record, __ = smoke("semantic")
        assert _clause(record, "determinism")["passed"]
        facts = record["facts"]
        assert facts["determinism.answers_identical"]
        assert facts["determinism.digests_identical"]
        assert facts["determinism.scores_bit_identical"]
        assert len(facts["query_digest"]) == 64

    def test_every_certificate_honoured(self, smoke):
        record, __ = smoke("semantic")
        r_max = record["workload"]["r_max"]
        for family in ("TS", "RS", "semantic"):
            assert _clause(record, f"certificate[{family}]")["passed"]
            error = _value(record, f"families[{family}].push.error_l1")
            bound = _value(record, f"families[{family}].push.error_bound")
            assert error <= bound + 1e-9
            assert bound <= r_max

    def test_nothing_is_waivable(self, smoke):
        record, __ = smoke("semantic")
        assert all(c["waiver"] is None for c in record["clauses"])

    def test_dedup_never_raises_redundancy(self, smoke):
        record, __ = smoke("semantic")
        assert (
            _value(record, "semantic_answer.redundancy_post_dedup")
            <= _value(record, "semantic_answer.redundancy_pre_dedup") + 1e-12
        )
