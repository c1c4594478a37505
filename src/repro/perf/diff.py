"""Benchmark-record diffing: regression reports across PRs.

Every benchmark run through :mod:`repro.perf.harness` persists its
record as a JSON file in the repo root (``BENCH_solver.json``,
``BENCH_parallel.json``, ...).  Those files are committed, so the
performance trajectory lives in git history.  This module turns a pair
of records into a focused regression report:

* every metric present in both records is compared by name, in the
  direction the record itself declares (``better``: ``lower`` /
  ``higher`` / ``neutral``);
* changes smaller than the noise ``threshold`` (relative) are
  suppressed, because best-of-N timings on shared CI boxes still
  wobble a few percent;
* records of different schema versions are refused
  (:class:`SchemaMismatch`), and records made on different machines
  or stacks (their ``environment`` fingerprints differ) are compared
  with a warning.

The CLI front end is ``python -m repro bench-diff OLD.json NEW.json``;
``--strict`` turns regressions (or a lost gate) into exit code 1 for
CI use, and a schema mismatch exits 2.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = [
    "SchemaMismatch",
    "diff_records",
    "format_diff",
    "load_record",
]

#: Default relative change below which a metric is considered noise.
DEFAULT_THRESHOLD = 0.10


class SchemaMismatch(ValueError):
    """The two records use different record layouts."""


def load_record(path: str) -> dict[str, Any]:
    """Load one benchmark record from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    if not isinstance(record, dict):
        raise ValueError(f"{path}: benchmark record must be an object")
    return record


def diff_records(
    old: dict[str, Any],
    new: dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> dict[str, Any]:
    """Compare two benchmark records of the same benchmark.

    Returns a report dict with ``regressions``, ``improvements`` and
    ``neutral`` change lists (each entry: metric, old, new,
    change_pct), the metrics only present on one side, whether the
    environments differ, and the gate transition.  Raises
    :class:`SchemaMismatch` when the records' ``schema`` differ.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    if old.get("schema") != new.get("schema"):
        raise SchemaMismatch(
            f"cannot compare a schema {old.get('schema')} record with a "
            f"schema {new.get('schema')} record; re-record the old one "
            "with 'python -m repro bench NAME'"
        )
    old_metrics = old.get("metrics", {})
    new_metrics = new.get("metrics", {})
    regressions: list[dict[str, Any]] = []
    improvements: list[dict[str, Any]] = []
    neutral: list[dict[str, Any]] = []
    for name in sorted(old_metrics.keys() & new_metrics.keys()):
        before = old_metrics[name]["value"]
        after = new_metrics[name]["value"]
        if before == after:
            continue
        if before == 0:
            change = float("inf") if after > 0 else float("-inf")
        else:
            change = (after - before) / abs(before)
        if abs(change) < threshold:
            continue
        entry = {
            "metric": name,
            "old": before,
            "new": after,
            "change_pct": change * 100.0,
        }
        better = new_metrics[name]["better"]
        if better == "neutral":
            neutral.append(entry)
        elif (better == "lower") == (after > before):
            regressions.append(entry)
        else:
            improvements.append(entry)
    regressions.sort(key=lambda e: -abs(e["change_pct"]))
    improvements.sort(key=lambda e: -abs(e["change_pct"]))
    gate_old = bool(old.get("gate_passed", False))
    gate_new = bool(new.get("gate_passed", False))
    return {
        "benchmark": new.get("benchmark", "?"),
        "comparable": old.get("benchmark") == new.get("benchmark"),
        "environment_old": old.get("environment", {}),
        "environment_new": new.get("environment", {}),
        "threshold_pct": threshold * 100.0,
        "regressions": regressions,
        "improvements": improvements,
        "neutral": neutral,
        "only_in_old": sorted(old_metrics.keys() - new_metrics.keys()),
        "only_in_new": sorted(new_metrics.keys() - old_metrics.keys()),
        "gate_old": gate_old,
        "gate_new": gate_new,
        "gate_lost": gate_old and not gate_new,
    }


def _format_entries(title: str, entries: list, sign: str) -> list[str]:
    lines = [f"  {title}:"]
    for entry in entries:
        lines.append(
            f"    {sign} {entry['metric']}: "
            f"{entry['old']:.6g} -> {entry['new']:.6g} "
            f"({entry['change_pct']:+.1f}%)"
        )
    return lines


def format_diff(report: dict[str, Any]) -> str:
    """Human-readable regression report."""
    lines = [
        f"benchmark diff ({report['benchmark']}, "
        f"noise threshold {report['threshold_pct']:.0f}%)"
    ]
    if not report["comparable"]:
        lines.append(
            "  WARNING: records are from different benchmarks; "
            "overlapping metrics only"
        )
    old_env, new_env = report["environment_old"], report["environment_new"]
    changed = sorted(
        key for key in old_env.keys() | new_env.keys()
        if old_env.get(key) != new_env.get(key)
    )
    if changed:
        lines.append(
            "  WARNING: environments differ ("
            + ", ".join(
                f"{key}: {old_env.get(key)} -> {new_env.get(key)}"
                for key in changed
            )
            + "); timings may not be comparable"
        )
    if report["regressions"]:
        lines += _format_entries(
            f"regressions ({len(report['regressions'])})",
            report["regressions"],
            "-",
        )
    if report["improvements"]:
        lines += _format_entries(
            f"improvements ({len(report['improvements'])})",
            report["improvements"],
            "+",
        )
    if report["neutral"]:
        lines += _format_entries(
            f"neutral changes ({len(report['neutral'])})",
            report["neutral"],
            "~",
        )
    for side, names in (
        ("old", report["only_in_old"]),
        ("new", report["only_in_new"]),
    ):
        if names:
            lines.append(
                f"  only in {side}: {len(names)} metric(s) "
                f"(e.g. {names[0]})"
            )
    if not (
        report["regressions"]
        or report["improvements"]
        or report["neutral"]
    ):
        lines.append("  no changes above the noise threshold")
    lines.append(
        "  gate    : {} -> {}{}".format(
            "PASS" if report["gate_old"] else "FAIL",
            "PASS" if report["gate_new"] else "FAIL",
            "  (REGRESSED)" if report["gate_lost"] else "",
        )
    )
    return "\n".join(lines)
