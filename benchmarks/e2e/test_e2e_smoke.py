"""Smoke tests of the end-to-end benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.  They boot
real servers with two-second windows, so they take about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
import run
from workloads import WORKLOADS, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks/e2e/run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def traced_smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    result = _run("--smoke", "--trace", "1", "--out", str(out))
    assert result.returncode == 0, result.stderr[-3000:]
    return result.stdout, json.loads(out.read_text())


def test_spec_matches_declarations():
    for section in ("end_to_end", "per_layer"):
        for entry in SPEC[section]:
            declared = metrics.DECLARED[entry["name"]]
            assert (entry["unit"], entry["better"]) == (
                declared.unit, declared.better
            )
            if section == "end_to_end":
                assert entry["bound"] == declared.bound
    for workload in SPEC["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why


def test_every_metric_emitted_with_unit(traced_smoke):
    stdout, record = traced_smoke
    runs = {r["workload"]: r for r in record["runs"]}
    assert set(runs) == set(WORKLOADS)
    lines = stdout.splitlines()
    printed: dict[str, dict[str, str]] = {}
    for line in lines[:-1]:
        if line.startswith("["):
            block = printed.setdefault(line[1:].split()[0], {})
        elif len(line.split()) == 3:
            name, __, unit = line.split()
            block[name] = unit
    for name, run_record in runs.items():
        assert run_record["verifier"]["violations"] == []
        expected = [m.name for m in metrics.END_TO_END]
        if WORKLOADS[name].loop != "churn":
            expected.remove("update_p50_ms")
        assert list(run_record["metrics"]) == expected
        assert list(run_record["layers"]) == [m.name for m in metrics.PER_LAYER]
        for metric in expected + list(run_record["layers"]):
            assert printed[name][metric] == metrics.DECLARED[metric].unit
    contract = json.loads(lines[-1])
    for per_run in contract["metrics"].values():
        assert {k: v["unit"] for k, v in per_run.items()} == {
            m["name"]: m["unit"] for m in SPEC["per_layer"]
        }


def test_contract_line_for_one_workload():
    result = _run("--smoke", "--workload", "rank-hot", "--seed", "5",
                  "--trace", "0")
    assert result.returncode == 0, result.stderr[-3000:]
    line = json.loads(result.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_corrupted_answer_fails_verifier(tmp_path):
    from verify import Verifier

    inputs = build("rank-cold", 3, tmp_path)
    segment = run.measure(inputs, 0.5, 0.2, traced=False)
    sampled = [o for o in segment.outcomes
               if o.body is not None and o.request.kind == "rank"]
    clean = Verifier(inputs)
    clean.check(sampled)
    assert clean.checked == len(sampled) > 0 and clean.violations == []

    payload = json.loads(sampled[0].body)
    payload["scores"][0] = payload["scores"][0] * (1 + 1e-12)
    sampled[0].body = json.dumps(payload).encode()
    corrupted = Verifier(inputs)
    corrupted.check(sampled[:1])
    assert corrupted.violations == [
        "rank: fresh exact answer is not bit-identical"
    ]


def test_fails_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks/e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = _run("--workload", "rank-cold", "--seed", "1", "--seconds",
                  str(SPEC["run_seconds"]), "--trace", "0", cwd=tmp_path)
    assert result.returncode != 0
    assert not result.stdout.strip()
