"""Error-vs-time Pareto benchmark for the sublinear estimators.

The measurement harness behind ``benchmarks/bench_estimation.py`` and
the ``python -m repro bench-estimation`` CLI subcommand.  One BFS
subgraph of the 30k-page AU-like web is ranked two ways:

* **exact** — the power-iteration solver at a very tight tolerance
  (1e-12); this run is both the *baseline* every error is measured
  against and the cost yardstick for the sublinearity clause;
* **push** — a sweep over residual thresholds ``r_max``.

Each sweep point records the measured error against the baseline, the
certified ``error_bound`` the engine itself reported, wall-clock
seconds (the fastest of ``TIMING_REPEATS`` calls), and
``edges_touched``.  Two clauses gate the record and are **never**
waived:

* **accuracy** — at *every* sweep point, the measured L1 error must
  sit under the certified L1 bound.  A tiny documented
  ``baseline_slack`` (1e-9) absorbs the baseline's own truncation
  error and float roundoff: push certificates are *exact* identities
  and routinely match the measured error to ~1e-16, which the slack
  must not mask but float comparison noise would otherwise fail.
* **sublinearity** — at the accuracy-matched operating point (the
  cheapest sweep point whose measured ∞-error is at or under
  ``target_accuracy``), ``edges_touched`` must be strictly below the
  *global* edge count — the estimate has to be genuinely cheaper than
  touching the whole graph once.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable

import numpy as np

from repro.core.precompute import ApproxRankPreprocessor
from repro.estimation.exact import ExactEstimator
from repro.estimation.push import PushEstimator
from repro.generators.datasets import make_au_like
from repro.pagerank.solver import PowerIterationSettings
from repro.subgraphs.bfs import bfs_subgraph

__all__ = [
    "DEFAULT_OUTPUT",
    "run_estimation_benchmark",
    "format_estimation_summary",
]

#: Default record location (repo root when run from the checkout).
DEFAULT_OUTPUT = "BENCH_estimate.json"

FULL_PAGES = 30_000
SMOKE_PAGES = 3_000

#: BFS crawl fraction: the subgraph is a few percent of the web, the
#: regime ApproxRank targets.
SUBGRAPH_FRACTION = 0.025

#: Baseline tolerance: the "truth" the estimates are measured against
#: is solved ~7 orders tighter than the errors being certified.
BASELINE_TOLERANCE = 1e-12

#: Sweep grids (full / smoke).
FULL_R_MAX_GRID = (1e-2, 1e-3, 1e-4)
SMOKE_R_MAX_GRID = (1e-2, 1e-3)

#: The ∞-error an operating point must reach to count as
#: accuracy-matched for the sublinearity clause.
TARGET_ACCURACY = 1e-3

#: Every timed call runs this many times and the fastest is recorded:
#: the calls take milliseconds, so a single timing is dominated by
#: scheduler noise and first-call effects, and the minimum is the
#: most repeatable figure.
TIMING_REPEATS = 25

#: Absorbs baseline truncation (≤ tol/(1−ε) ≈ 7e-12) and float
#: roundoff when a certificate is exact to the last bit.  Orders of
#: magnitude below every certified bound in the sweep, so it can never
#: mask a genuine certificate violation.
BASELINE_SLACK = 1e-9


def _measure(
    scores: np.ndarray, baseline: np.ndarray
) -> tuple[float, float]:
    """(∞-norm, L1-norm) error of an estimate against the baseline."""
    gap = np.abs(scores - baseline)
    return float(gap.max()), float(gap.sum())


def _best_of(call: Callable[[], Any]) -> tuple[Any, float]:
    """``call()``'s result and its fastest wall time over the repeats."""
    best = np.inf
    for _ in range(TIMING_REPEATS):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    return result, float(best)


def run_estimation_benchmark(
    smoke: bool = False,
    pages: int | None = None,
    seed: int = 2009,
    output_path: str | None = DEFAULT_OUTPUT,
) -> dict[str, Any]:
    """Run the estimation Pareto benchmark; optionally write the record.

    Parameters
    ----------
    smoke:
        Small workload + hard gate (``gate_passed`` is the CI
        criterion).
    pages:
        Workload size override.
    seed:
        Seeds the synthetic web and the BFS crawl seed page.
    output_path:
        Where to write the JSON record; ``None`` skips writing.

    Returns
    -------
    The record that was (or would have been) written.
    """
    num_pages = pages if pages is not None else (
        SMOKE_PAGES if smoke else FULL_PAGES
    )
    r_max_grid = SMOKE_R_MAX_GRID if smoke else FULL_R_MAX_GRID

    dataset = make_au_like(num_pages=num_pages, seed=seed)
    graph = dataset.graph
    local = bfs_subgraph(
        graph, seed_page=seed % graph.num_nodes,
        fraction=SUBGRAPH_FRACTION,
    )
    prep = ApproxRankPreprocessor(graph)
    settings = PowerIterationSettings(tolerance=BASELINE_TOLERANCE)

    # Baseline + exact cost yardstick in one run: the estimator wraps
    # the same solver and reports its honest edges_touched.
    exact, exact_seconds = _best_of(
        lambda: ExactEstimator().estimate(
            graph, local, settings=settings, preprocessor=prep
        )
    )
    baseline = exact.scores
    global_edges = int(graph.num_edges)

    points: list[dict[str, Any]] = []
    for r_max in r_max_grid:
        engine = PushEstimator(r_max=r_max)
        scores, seconds = _best_of(
            lambda: engine.estimate(
                graph, local, settings=settings, preprocessor=prep
            )
        )
        err_inf, err_l1 = _measure(scores.scores, baseline)
        bound = float(scores.extras["error_bound"])
        points.append(
            {
                "estimator": engine.name,
                "r_max": float(r_max),
                "error_inf": err_inf,
                "error_l1": err_l1,
                "error_bound": bound,
                "certificate_ok": bool(err_l1 <= bound + BASELINE_SLACK),
                "seconds": seconds,
                "edges_touched": int(scores.extras["edges_touched"]),
                "edges_fraction": (
                    float(scores.extras["edges_touched"]) / global_edges
                ),
            }
        )

    accuracy_ok = all(p["certificate_ok"] for p in points)
    worst_certificate_margin = max(
        p["error_l1"] - p["error_bound"] for p in points
    )

    # Sublinearity clause: the cheapest point that actually reaches
    # the target accuracy must beat one full pass over the graph.
    qualifying = [
        p for p in points if p["error_inf"] <= TARGET_ACCURACY
    ]
    operating_point = (
        min(qualifying, key=lambda p: p["edges_touched"])
        if qualifying
        else None
    )
    sublinear_ok = bool(
        operating_point is not None
        and operating_point["edges_touched"] < global_edges
    )
    gate_passed = bool(accuracy_ok and sublinear_ok)

    record: dict[str, Any] = {
        "benchmark": "estimation",
        "smoke": smoke,
        "created_unix": time.time(),
        "pages": num_pages,
        "global_edges": global_edges,
        "subgraph_nodes": int(local.size),
        "subgraph_fraction": SUBGRAPH_FRACTION,
        "baseline_tolerance": BASELINE_TOLERANCE,
        "baseline_slack": BASELINE_SLACK,
        "seed": seed,
        "timing_repeats": TIMING_REPEATS,
        "exact": {
            "seconds": exact_seconds,
            "iterations": exact.iterations,
            "edges_touched": int(exact.extras["edges_touched"]),
        },
        "sweep": points,
        "target_accuracy": TARGET_ACCURACY,
        "accuracy_ok": accuracy_ok,
        "accuracy_worst_margin": float(worst_certificate_margin),
        "operating_point": operating_point,
        "sublinear_ok": sublinear_ok,
        # Both clauses are correctness claims, never waived.
        "waivers": [],
        "gate_passed": gate_passed,
    }
    if output_path:
        with open(output_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
    return record


def format_estimation_summary(record: dict[str, Any]) -> str:
    """Human-readable summary of an estimation benchmark record."""
    lines = [
        "estimation benchmark ({} pages, {} global edges, "
        "{}-node subgraph)".format(
            record["pages"],
            record["global_edges"],
            record["subgraph_nodes"],
        ),
        "  exact baseline: {:.3f}s, {} iterations, "
        "{} edges touched".format(
            record["exact"]["seconds"],
            record["exact"]["iterations"],
            record["exact"]["edges_touched"],
        ),
        "  {:<12} {:>10} {:>11} {:>11} {:>9} {:>12} {:>8}".format(
            "point", "param", "err_inf", "bound", "seconds",
            "edges", "edges%",
        ),
    ]
    for p in record["sweep"]:
        lines.append(
            "  {:<12} {:>10} {:>11.2e} {:>11.2e} {:>9.3f} "
            "{:>12} {:>7.1%}".format(
                p["estimator"], f"r={p['r_max']:g}", p["error_inf"],
                p["error_bound"], p["seconds"], p["edges_touched"],
                p["edges_fraction"],
            )
        )
    lines.append(
        "  accuracy: every certificate honoured "
        "(worst measured-bound margin {:+.2e})  ok: {}".format(
            record["accuracy_worst_margin"], record["accuracy_ok"]
        )
    )
    op = record["operating_point"]
    if op is not None:
        lines.append(
            "  operating point (err_inf <= {:g}): {} {} — "
            "{} edges ({:.1%} of graph)  sublinear ok: {}".format(
                record["target_accuracy"],
                op["estimator"],
                f"r_max={op['r_max']:g}",
                op["edges_touched"],
                op["edges_fraction"],
                record["sublinear_ok"],
            )
        )
    else:
        lines.append(
            "  no sweep point reached err_inf <= {:g} — "
            "sublinear ok: False".format(record["target_accuracy"])
        )
    lines.append(
        "  gate: {}".format(
            "PASSED" if record["gate_passed"] else "FAILED"
        )
    )
    return "\n".join(lines)
