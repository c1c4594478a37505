"""Closed-loop serving benchmark: micro-batching on vs off.

The measurement harness behind ``benchmarks/bench_serve.py`` and the
``python -m repro bench-serve`` CLI subcommand.  The workload is the
serving-side worst case for a per-request solver: ``concurrency``
load-generator threads fire simultaneous **cold** ``/rank`` requests
(same subgraph, distinct damping factors, so nothing hits the score
store) in lock-stepped bursts against a real server socket.  The same
workload runs twice —

* **batching on**: group commit solves a burst's first request at
  once and coalesces the rest, which arrive while it runs, into one
  multi-column batched solve;
* **batching off**: every request is its own solve on the same
  single solver thread (the sequential baseline).

Recorded per mode: wall-clock, throughput, and p50/p99 request
latency.  Two correctness clauses ride along and are **never** waived:

* ``agreement_max_abs_diff`` — batched scores vs the offline
  :func:`repro.core.approxrank.approxrank` fixed point per damping
  (both sides converge independently to the same tight tolerance);
* ``bit_identical_singleton`` — a lone request (batch of one) must be
  **bit-identical** to the offline path, because it routes through the
  identical ``ApproxRankPreprocessor.rank`` code.

The wall-clock speedup clause is waived (and recorded as such) on a
single-core container only in the sense that it remains *reported*;
unlike process parallelism the batched win is algorithmic — one sparse
mat-mat sweep serves every column — so it normally shows even on one
core.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import replace
from typing import Any

import numpy as np

from repro.core.approxrank import approxrank
from repro.generators.datasets import make_tiny_web
from repro.pagerank.solver import PowerIterationSettings
from repro.serve.batching import BatchPolicy
from repro.serve.client import RankingClient
from repro.serve.server import RankingService, start_background_server
from repro.serve.store import ScoreStore

__all__ = [
    "DEFAULT_OUTPUT",
    "run_serve_benchmark",
    "format_serve_summary",
]

#: Default record location (repo root when run from the checkout).
DEFAULT_OUTPUT = "BENCH_serve.json"

FULL_PAGES = 4_000
SMOKE_PAGES = 600
FULL_ROUNDS = 5
SMOKE_ROUNDS = 2

#: Concurrent load-generator threads (the ISSUE's ≥8-request burst).
DEFAULT_CONCURRENCY = 8

#: Tight solver tolerance so independent solves land within
#: AGREEMENT_ATOL of the shared fixed point.
BENCH_TOLERANCE = 1e-9
AGREEMENT_ATOL = 1e-6

#: Batched wall-clock must beat sequential by this factor (on
#: hardware where the clause applies).
TARGET_SPEEDUP = 1.1


def _burst_dampings(
    rounds: int, concurrency: int
) -> list[list[float]]:
    """Distinct damping factors per (round, worker) — all cold keys."""
    total = rounds * concurrency
    grid = np.linspace(0.60, 0.90, total, endpoint=False)
    return [
        [float(grid[r * concurrency + w]) for w in range(concurrency)]
        for r in range(rounds)
    ]


def _run_mode(
    graph,
    local_nodes: np.ndarray,
    settings: PowerIterationSettings,
    bursts: list[list[float]],
    concurrency: int,
    enabled: bool,
) -> dict[str, Any]:
    """Drive one full closed-loop run; returns timing + served scores."""
    policy = BatchPolicy(
        enabled=enabled,
        max_batch_size=concurrency,
        max_pending=4 * concurrency,
    )
    service = RankingService(
        graph,
        store=ScoreStore(
            capacity=len(bursts) * concurrency + concurrency
        ),
        policy=policy,
        settings=settings,
        solver_threads=1,
    )
    latencies: list[float] = [0.0] * (len(bursts) * concurrency)
    served: dict[float, np.ndarray] = {}
    errors: list[BaseException] = []
    barrier = threading.Barrier(concurrency)
    nodes = local_nodes.tolist()

    with start_background_server(service) as handle:
        host, port = handle.address
        client = RankingClient(host, port, timeout=120.0)

        def worker(worker_index: int) -> None:
            try:
                for round_index, burst in enumerate(bursts):
                    damping = burst[worker_index]
                    barrier.wait()
                    started = time.perf_counter()
                    payload = client.rank(nodes, damping=damping)
                    latency = time.perf_counter() - started
                    slot = round_index * concurrency + worker_index
                    latencies[slot] = latency
                    served[damping] = np.asarray(
                        payload["scores"], dtype=np.float64
                    )
            except BaseException as exc:  # surfaced after the join
                errors.append(exc)

        threads = [
            threading.Thread(
                target=worker, args=(i,), name=f"loadgen-{i}"
            )
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

    total = len(bursts) * concurrency
    lat = np.asarray(latencies)
    return {
        "enabled": enabled,
        "requests": total,
        "wall_seconds": wall,
        "throughput_rps": total / wall if wall > 0 else float("inf"),
        "p50_ms": float(np.percentile(lat, 50) * 1e3),
        "p99_ms": float(np.percentile(lat, 99) * 1e3),
        "_served": served,
    }


def run_serve_benchmark(
    smoke: bool = False,
    pages: int | None = None,
    seed: int = 2009,
    concurrency: int = DEFAULT_CONCURRENCY,
    rounds: int | None = None,
    output_path: str | None = DEFAULT_OUTPUT,
) -> dict[str, Any]:
    """Run the serving benchmark and (optionally) write the record.

    Parameters
    ----------
    smoke:
        Small workload + hard gate (``gate_passed`` is the CI
        criterion).
    pages / rounds / concurrency:
        Workload shape overrides.
    seed:
        Dataset generation seed.
    output_path:
        Where to write the JSON record; ``None`` skips writing.

    Returns
    -------
    The record that was (or would have been) written.
    """
    if concurrency < 2:
        raise ValueError(
            f"concurrency must be >= 2 to batch, got {concurrency}"
        )
    num_pages = pages if pages is not None else (
        SMOKE_PAGES if smoke else FULL_PAGES
    )
    num_rounds = rounds if rounds is not None else (
        SMOKE_ROUNDS if smoke else FULL_ROUNDS
    )
    dataset = make_tiny_web(num_pages=num_pages, seed=seed)
    graph = dataset.graph
    local_nodes = np.arange(max(num_pages // 5, 8), dtype=np.int64)
    settings = PowerIterationSettings(tolerance=BENCH_TOLERANCE)
    bursts = _burst_dampings(num_rounds, concurrency)

    batched = _run_mode(
        graph, local_nodes, settings, bursts, concurrency, enabled=True
    )
    sequential = _run_mode(
        graph, local_nodes, settings, bursts, concurrency, enabled=False
    )

    # Agreement clause (never waived): every batched answer must sit
    # within AGREEMENT_ATOL of the offline fixed point for its ε.
    served = batched.pop("_served")
    sequential.pop("_served")
    max_diff = 0.0
    for damping in bursts[0]:
        offline = approxrank(
            graph,
            local_nodes,
            replace(settings, damping=damping),
        )
        diff = float(
            np.max(np.abs(offline.scores - served[damping]))
        )
        max_diff = max(max_diff, diff)
    agreement_ok = max_diff <= AGREEMENT_ATOL

    # Bit-identity clause (never waived): a lone request takes the
    # exact offline code path, so the wire answer must be bit-equal.
    single_settings = replace(settings, damping=0.5)
    single_service = RankingService(
        graph, settings=settings, solver_threads=1
    )
    with start_background_server(single_service) as handle:
        client = RankingClient(*handle.address, timeout=120.0)
        wire = client.rank_scores(local_nodes.tolist(), damping=0.5)
    offline_single = approxrank(graph, local_nodes, single_settings)
    bit_identical = bool(
        np.array_equal(wire.scores, offline_single.scores)
    )

    cpu_count = os.cpu_count() or 1
    speedup = (
        sequential["wall_seconds"] / batched["wall_seconds"]
        if batched["wall_seconds"] > 0
        else float("inf")
    )
    speedup_ok = speedup >= TARGET_SPEEDUP
    speedup_gate_waived = cpu_count < 2 and not speedup_ok
    gate_passed = bool(
        agreement_ok
        and bit_identical
        and (speedup_ok or speedup_gate_waived)
    )

    record: dict[str, Any] = {
        "benchmark": "serve",
        "smoke": smoke,
        "created_unix": time.time(),
        "pages": num_pages,
        "subgraph_size": int(local_nodes.size),
        "concurrency": concurrency,
        "rounds": num_rounds,
        "total_requests": num_rounds * concurrency,
        "cpu_count": cpu_count,
        "solver_tolerance": BENCH_TOLERANCE,
        "batching_on": batched,
        "batching_off": sequential,
        "speedup": speedup,
        "target_speedup": TARGET_SPEEDUP,
        "agreement_max_abs_diff": max_diff,
        "agreement_atol": AGREEMENT_ATOL,
        "agreement_ok": agreement_ok,
        "bit_identical_singleton": bit_identical,
        "speedup_gate_waived": speedup_gate_waived,
        "gate_passed": gate_passed,
    }
    if output_path:
        with open(output_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
    return record


def format_serve_summary(record: dict[str, Any]) -> str:
    """Human-readable summary of a benchmark record."""
    lines = [
        "serve benchmark ({} pages, subgraph {}, {}x{} requests, "
        "{} cpu)".format(
            record["pages"],
            record["subgraph_size"],
            record["rounds"],
            record["concurrency"],
            record["cpu_count"],
        ),
        "  {:<14} {:>10} {:>12} {:>10} {:>10}".format(
            "mode", "wall (s)", "rps", "p50 (ms)", "p99 (ms)"
        ),
    ]
    for label, key in (
        ("batching on", "batching_on"),
        ("batching off", "batching_off"),
    ):
        mode = record[key]
        lines.append(
            "  {:<14} {:>10.3f} {:>12.1f} {:>10.1f} {:>10.1f}".format(
                label,
                mode["wall_seconds"],
                mode["throughput_rps"],
                mode["p50_ms"],
                mode["p99_ms"],
            )
        )
    lines.append(
        "  speedup {:.2f}x (target {:.2f}x{})".format(
            record["speedup"],
            record["target_speedup"],
            ", waived: single core"
            if record["speedup_gate_waived"]
            else "",
        )
    )
    lines.append(
        "  agreement max|Δ| {:.2e} (atol {:.0e})  "
        "singleton bit-identical: {}".format(
            record["agreement_max_abs_diff"],
            record["agreement_atol"],
            record["bit_identical_singleton"],
        )
    )
    lines.append(
        "  gate: {}".format(
            "PASSED" if record["gate_passed"] else "FAILED"
        )
    )
    return "\n".join(lines)
