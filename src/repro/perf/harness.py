"""One benchmark harness: declarative specs, one runner, one record shape.

Every benchmark in this repository is a :class:`Bench`: a workload
builder (full or smoke size, seeded) and a measure function that runs
its arms and returns an :class:`Outcome` — the workload parameters,
metrics that carry their own unit and direction, and the gate's
:class:`Clause` list.  A spec lives next to the code it measures,
because it needs that package's internals; this module owns what they
share:

* timing — :func:`best_of` (warm-up, then best of N) and
  :func:`paired` (two arms, alternating which runs first, so neither
  one always pays the other's first-touch costs);
* :func:`closed_loop`, the lock-stepped HTTP load driver;
* gate evaluation with waivers, the record writer and the one summary
  renderer;
* :data:`REGISTRY`, the benchmarks by name, imported lazily so that
  ``import repro.cli`` (and with it ``serve``) loads none of them.

Records are schema-versioned JSON (``"schema": SCHEMA``).  Each metric
is ``{"value", "unit", "better"}`` with ``better`` one of ``lower`` /
``higher`` / ``neutral``, and each record carries an ``environment``
fingerprint (cpu count, python, numpy, scipy, solver dtype), so
``python -m repro bench-diff`` reads directions from the record and
warns when two records come from different machines.

The CLI front end is ``python -m repro bench NAME [--fast] [--seed S]
[--output PATH]``.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

__all__ = [
    "Bench",
    "Clause",
    "DEFAULT_SEED",
    "Metric",
    "Outcome",
    "REGISTRY",
    "SCHEMA",
    "best_of",
    "closed_loop",
    "environment",
    "failing_clauses",
    "higher",
    "load_bench",
    "lower",
    "neutral",
    "paired",
    "prefixed",
    "render_record",
    "run_bench",
    "timed",
]

#: Version of the record layout; ``bench-diff`` refuses to compare
#: records of different versions.
SCHEMA = 2

#: Workload seed when the caller gives none.
DEFAULT_SEED = 2009

#: Benchmark name → the module whose ``BENCH`` attribute is its spec.
REGISTRY: dict[str, str] = {
    "kernels": "repro.perf.bench",
    "backends": "repro.perf.backend_bench",
    "parallel": "repro.perf.parallel_bench",
    "serve": "repro.serve.bench",
    "updates": "repro.updates.bench",
    "shard": "repro.serve.cluster.bench",
    "semantic": "repro.semantic.bench",
}


@dataclass(frozen=True)
class Metric:
    """One measured number with its unit and which way is better."""

    value: float
    unit: str
    better: str  # "lower" | "higher" | "neutral"


def lower(value: float, unit: str) -> Metric:
    """A cost: the metric regresses when it grows."""
    return Metric(value, unit, "lower")


def higher(value: float, unit: str) -> Metric:
    """A rate or quality: the metric regresses when it shrinks."""
    return Metric(value, unit, "higher")


def neutral(value: float, unit: str) -> Metric:
    """A size or count that describes the run; no direction."""
    return Metric(value, unit, "neutral")


@dataclass(frozen=True)
class Clause:
    """One gate condition: ``value`` against ``bound``.

    ``better="higher"`` passes when ``value >= bound`` (``>`` when
    ``strict``), ``"lower"`` when ``value <= bound`` (``<``).  A
    boolean clause is ``value=<flag>, bound=True, better="higher"``.
    ``waiver`` names the condition under which a failing clause is
    waived; ``waive`` says whether that condition holds on this run.
    A clause with no ``waiver`` is never waived.
    """

    name: str
    value: Any
    bound: Any
    better: str
    strict: bool = False
    waiver: str | None = None
    waive: bool = False

    @property
    def passed(self) -> bool:
        if self.better == "higher":
            return bool(
                self.value > self.bound
                if self.strict
                else self.value >= self.bound
            )
        return bool(
            self.value < self.bound if self.strict else self.value <= self.bound
        )

    @property
    def waived(self) -> bool:
        return bool(self.waiver) and self.waive and not self.passed


@dataclass
class Outcome:
    """What one benchmark run measured.

    ``workload`` holds the parameters that were run, ``metrics`` the
    numbers, ``clauses`` the gate, and ``facts`` any non-numeric
    results worth keeping (answer sets, digests, per-step detail).
    """

    workload: dict[str, Any]
    metrics: dict[str, Metric]
    clauses: list[Clause]
    facts: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Bench:
    """A benchmark spec: how to build its workload and measure it."""

    name: str
    record: str  # default record path, relative to the working dir
    title: str
    build: Callable[[bool, int], Any]  # (smoke, seed) -> workload
    measure: Callable[[Any], Outcome]


# ----------------------------------------------------------------------
# Timing.
# ----------------------------------------------------------------------


def timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    """Wall-clock seconds of one call and its result."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def best_of(
    fn: Callable[[], Any], reps: int, warmup: int = 1
) -> tuple[float, Any]:
    """Best wall-clock of ``reps`` calls after ``warmup`` untimed ones.

    The warm-up absorbs first-call costs (lazy imports, buffer page
    faults, dtype casts) that belong to no steady state; the best of
    several damps scheduler noise.  Returns the best time and the last
    call's result.
    """
    for __ in range(warmup):
        fn()
    best = float("inf")
    result = None
    for __ in range(reps):
        seconds, result = timed(fn)
        best = min(best, seconds)
    return best, result


def paired(
    first: Callable[[], Any],
    second: Callable[[], Any],
    reps: int = 1,
) -> tuple[tuple[float, Any], tuple[float, Any]]:
    """Time two arms ``reps`` times, alternating which runs first.

    Repetition ``r`` runs ``first`` first when ``r`` is even and
    ``second`` first otherwise, so caches warmed by one arm favour
    each side equally often.  Returns ``(best, last result)`` per arm.
    """
    arms = (first, second)
    best = [float("inf"), float("inf")]
    results: list[Any] = [None, None]
    for rep in range(reps):
        order = (0, 1) if rep % 2 == 0 else (1, 0)
        for index in order:
            seconds, results[index] = timed(arms[index])
            best[index] = min(best[index], seconds)
    return (best[0], results[0]), (best[1], results[1])


def closed_loop(
    send: Callable[[int], Any], concurrency: int, rounds: int
) -> tuple[dict[str, Metric], list[Any]]:
    """Drive ``concurrency`` threads through ``rounds`` lock-stepped bursts.

    Every burst starts on a barrier, so each round fires
    ``concurrency`` simultaneous requests.  ``send(slot)`` issues
    request ``slot = round * concurrency + worker`` and returns its
    answer.  Returns the loop's metrics (requests, wall clock,
    throughput, p50/p99 latency) and the answers by slot; the first
    request error is re-raised after every thread has stopped.
    """
    total = rounds * concurrency
    latencies = [0.0] * total
    answers: list[Any] = [None] * total
    errors: list[Exception] = []
    barrier = threading.Barrier(concurrency)

    def worker(worker_index: int) -> None:
        try:
            for round_index in range(rounds):
                slot = round_index * concurrency + worker_index
                barrier.wait()
                started = time.perf_counter()
                answers[slot] = send(slot)
                latencies[slot] = time.perf_counter() - started
        except Exception as exc:  # surfaced after the join
            errors.append(exc)
            barrier.abort()  # release the workers waiting on this one

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"loadgen-{i}")
        for i in range(concurrency)
    ]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start
    if errors:
        raise errors[0]
    lat = np.asarray(latencies)
    return {
        "requests": neutral(total, "count"),
        "wall_seconds": lower(wall, "s"),
        "throughput_rps": higher(
            total / wall if wall > 0 else float("inf"), "req/s"
        ),
        "p50_ms": lower(float(np.percentile(lat, 50) * 1e3), "ms"),
        "p99_ms": lower(float(np.percentile(lat, 99) * 1e3), "ms"),
    }, answers


def prefixed(prefix: str, metrics: dict[str, Metric]) -> dict[str, Metric]:
    """``metrics`` with every name under ``prefix.``."""
    return {f"{prefix}.{name}": metric for name, metric in metrics.items()}


# ----------------------------------------------------------------------
# The runner.
# ----------------------------------------------------------------------


def load_bench(name: str) -> Bench:
    """Import and return the spec registered under ``name``."""
    if name not in REGISTRY:
        raise ValueError(
            f"unknown benchmark {name!r}; known: {', '.join(REGISTRY)}"
        )
    return importlib.import_module(REGISTRY[name]).BENCH


def environment() -> dict[str, Any]:
    """The fingerprint of the machine and stack a record was made on."""
    import scipy

    from repro.pagerank.backends import default_backend

    return {
        "cpu_count": int(os.cpu_count() or 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "dtype": default_backend().dtype.name,
    }


def _number(value: Any) -> Any:
    """A JSON-native number (or flag) for a metric or clause value."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


def run_bench(
    name: str,
    smoke: bool = False,
    seed: int = DEFAULT_SEED,
    output: str | None = None,
) -> dict[str, Any]:
    """Build, measure and gate one benchmark; return its record.

    ``output`` is where the JSON record is written (``None`` skips
    writing).  The record's ``gate_passed`` holds when every clause
    passed or was waived.
    """
    bench = load_bench(name)
    outcome = bench.measure(bench.build(smoke, seed))
    clauses = [
        {
            "name": clause.name,
            "value": _number(clause.value),
            "bound": _number(clause.bound),
            "better": clause.better,
            "strict": clause.strict,
            "passed": clause.passed,
            "waived": clause.waived,
            "waiver": clause.waiver,
        }
        for clause in outcome.clauses
    ]
    record: dict[str, Any] = {
        "schema": SCHEMA,
        "benchmark": bench.name,
        "title": bench.title,
        "created_unix": time.time(),
        "smoke": bool(smoke),
        "seed": int(seed),
        "environment": environment(),
        "workload": outcome.workload,
        "metrics": {
            metric_name: {
                "value": _number(metric.value),
                "unit": metric.unit,
                "better": metric.better,
            }
            for metric_name, metric in outcome.metrics.items()
        },
        "clauses": clauses,
        "facts": outcome.facts,
        "gate_passed": all(c["passed"] or c["waived"] for c in clauses),
    }
    if output is not None:
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
    return record


def failing_clauses(record: dict[str, Any]) -> list[str]:
    """Names of the clauses that neither passed nor were waived."""
    return [
        c["name"]
        for c in record["clauses"]
        if not (c["passed"] or c["waived"])
    ]


def _show(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}"


def render_record(record: dict[str, Any]) -> str:
    """The one human-readable rendering of any benchmark record."""
    workload = ", ".join(
        f"{key}={value}" for key, value in record["workload"].items()
    )
    environment_line = ", ".join(
        f"{key}={value}" for key, value in record["environment"].items()
    )
    lines = [
        f"{record['title']}{' (smoke)' if record['smoke'] else ''}",
        f"  workload   : {workload}",
        f"  environment: {environment_line}",
    ]
    metrics = record["metrics"]
    width = max((len(name) for name in metrics), default=0)
    for name, metric in metrics.items():
        lines.append(
            f"  {name:<{width}}  {_show(metric['value'])} {metric['unit']}"
        )
    for clause in record["clauses"]:
        op = {"higher": ">", "lower": "<"}[clause["better"]]
        if not clause["strict"]:
            op += "="
        status = (
            "PASS" if clause["passed"]
            else "WAIVED" if clause["waived"]
            else "FAIL"
        )
        need = (
            _show(clause["bound"]) if isinstance(clause["bound"], bool)
            else f"{op} {_show(clause['bound'])}"
        )
        line = (
            f"  {status:<6} {clause['name']}: {_show(clause['value'])} "
            f"(need {need})"
        )
        if clause["waiver"]:
            line += f"; waived when {clause['waiver']}"
        lines.append(line)
    failing = failing_clauses(record)
    lines.append(
        "  gate: PASS" if record["gate_passed"]
        else f"  gate: FAIL ({', '.join(failing)})"
    )
    return "\n".join(lines)
