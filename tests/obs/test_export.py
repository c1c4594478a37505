"""Export sinks: Prometheus text, JSON snapshots, the obs-report view."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import obs
from repro.obs import telemetry
from repro.obs.export import (
    SNAPSHOT_SCHEMA,
    build_snapshot,
    load_snapshot,
    parse_prometheus_text,
    render_report,
    to_prometheus_text,
    write_snapshot,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer, set_tracer

pytestmark = pytest.mark.obs

GOLDEN_PATH = Path(__file__).parent / "data" / "prometheus_golden.txt"
UPDATES_GOLDEN_PATH = (
    Path(__file__).parent / "data" / "prometheus_updates_golden.txt"
)
SEMANTIC_GOLDEN_PATH = (
    Path(__file__).parent / "data" / "prometheus_semantic_golden.txt"
)


def golden_registry() -> MetricsRegistry:
    """A fixed workload whose text exposition is pinned by the golden file."""
    reg = MetricsRegistry()
    reg.counter(
        "repro_cache_hits_total", "Transition-matrix cache hits"
    ).inc(42)
    reg.counter(
        "repro_cache_misses_total", "Transition-matrix cache misses"
    ).inc(7)
    reg.gauge(
        "repro_cache_graphs_tracked", "Graphs currently cached"
    ).set(3)
    reg.counter(
        "repro_solver_solves_total",
        "Completed power-iteration solves",
        solver="power",
    ).inc(10)
    reg.counter(
        "repro_solver_solves_total",
        "Completed power-iteration solves",
        solver="batched",
    ).inc(2)
    hist = reg.histogram(
        "repro_solver_iterations",
        "Power-iteration sweeps per solve (per column for batched)",
        buckets=(10, 50, 100),
        solver="power",
    )
    for its in (5, 10, 11, 49, 50, 99, 150):
        hist.observe(its)
    reg.gauge(
        'repro_test_escaping', "Label escaping", path='a"b\\c\nd'
    ).set(1.5)
    return reg


def updates_golden_registry() -> MetricsRegistry:
    """A fixed update-stream workload pinned by the updates golden file.

    The ``repro_update_*`` family the incremental re-ranking engine
    emits: update counts, regions re-ranked, staleness spend against
    the Theorem-2 budget, and background refresh counts.
    """
    reg = MetricsRegistry()
    reg.counter(
        "repro_update_applied_total",
        "Graph updates absorbed by the score store.",
    ).inc(3)
    reg.counter(
        "repro_update_regions_reranked_total",
        "Affected regions re-ranked by the incremental engine.",
    ).inc(3)
    reg.counter(
        "repro_update_staleness_spent_total",
        "Cumulative Theorem-2 staleness charge applied to store "
        "entries (L1 score-mass units).",
    ).inc(0.125)
    reg.gauge(
        "repro_update_staleness_budget",
        "Per-entry Theorem-2 staleness budget of the score store.",
    ).set(1.0)
    reg.gauge(
        "repro_update_stale_entries",
        "Store entries currently served in the stale-but-bounded "
        "state.",
    ).set(2)
    reg.counter(
        "repro_update_background_refreshes_total",
        "Stale store entries re-ranked in the background after a "
        "graph update.",
    ).inc(2)
    return reg


def semantic_golden_registry() -> MetricsRegistry:
    """A fixed semantic workload pinned by the semantic golden file.

    Populated through :func:`record_semantic_metrics` itself — the
    publishing path shared by the serving route, the CLI and the
    bench — with synthetic :class:`SemanticAnswer` accounting, so the
    golden file pins the ``repro_semantic_*`` family names, labels
    and the neighborhood bucket layout end to end.
    """
    import numpy as np

    from repro.pagerank.result import SubgraphScores
    from repro.semantic.metrics import record_semantic_metrics
    from repro.semantic.pipeline import SemanticAnswer

    def answer(estimator, bound, pruned, merges, size):
        return SemanticAnswer(
            hits=(),
            local_nodes=np.arange(size, dtype=np.int64),
            scores=SubgraphScores(
                local_nodes=np.arange(size, dtype=np.int64),
                scores=np.full(size, 1 / size),
                method="approxrank",
                iterations=8,
                residual=1e-10,
                converged=True,
                runtime_seconds=0.01,
                extras={},
            ),
            query_digest="0" * 64,
            estimator=estimator,
            error_bound=bound,
            candidates_pruned=pruned,
            dedup_merges=merges,
            neighborhood_size=size,
        )

    reg = MetricsRegistry()
    record_semantic_metrics(
        answer("exact", 0.0, 83, 2, 51), registry=reg
    )
    record_semantic_metrics(
        answer("push", 0.02, 40, 0, 7), registry=reg
    )
    return reg


class TestPrometheusText:
    def test_matches_golden_file(self):
        text = to_prometheus_text(golden_registry().snapshot())
        assert text == GOLDEN_PATH.read_text(encoding="utf-8")

    def test_updates_family_matches_golden_file(self):
        text = to_prometheus_text(updates_golden_registry().snapshot())
        assert text == UPDATES_GOLDEN_PATH.read_text(encoding="utf-8")

    def test_semantic_family_matches_golden_file(self):
        text = to_prometheus_text(semantic_golden_registry().snapshot())
        assert text == SEMANTIC_GOLDEN_PATH.read_text(encoding="utf-8")


    def test_histogram_buckets_are_cumulative_and_end_at_count(self):
        text = to_prometheus_text(golden_registry().snapshot())
        lines = [
            line
            for line in text.splitlines()
            if line.startswith("repro_solver_iterations_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        # le="10", le="50", le="100", le="+Inf": inclusive bounds.
        assert counts == [2, 5, 6, 7]
        assert 'le="+Inf"' in lines[-1]
        assert "repro_solver_iterations_count{solver=\"power\"} 7" in text

    def test_integers_render_without_decimal_point(self):
        reg = MetricsRegistry()
        reg.counter("repro_test_total").inc(5)
        reg.gauge("repro_test_fractional").set(2.25)
        text = to_prometheus_text(reg.snapshot())
        assert "repro_test_total 5\n" in text
        assert "repro_test_fractional 2.25" in text

    def test_empty_registry_renders_empty_string(self):
        assert to_prometheus_text(MetricsRegistry().snapshot()) == ""


class TestParsePrometheusText:
    """The exposition parser is the exact inverse of the renderer."""

    def test_round_trip_is_exact(self):
        # Tied to the same fixed workload the golden file pins: what
        # the renderer emits, the parser must reconstruct exactly —
        # histograms de-cumulated, label escapes unwound, ints intact.
        snapshot = golden_registry().snapshot()
        text = to_prometheus_text(snapshot)
        assert parse_prometheus_text(text)["families"] == (
            snapshot["families"]
        )

    def test_golden_file_parses_back_to_the_registry(self):
        parsed = parse_prometheus_text(
            GOLDEN_PATH.read_text(encoding="utf-8")
        )
        assert parsed["families"] == (
            golden_registry().snapshot()["families"]
        )

    def test_updates_golden_file_parses_back_to_the_registry(self):
        parsed = parse_prometheus_text(
            UPDATES_GOLDEN_PATH.read_text(encoding="utf-8")
        )
        assert parsed["families"] == (
            updates_golden_registry().snapshot()["families"]
        )

    def test_semantic_golden_file_parses_back_to_the_registry(self):
        parsed = parse_prometheus_text(
            SEMANTIC_GOLDEN_PATH.read_text(encoding="utf-8")
        )
        assert parsed["families"] == (
            semantic_golden_registry().snapshot()["families"]
        )

    def test_histogram_buckets_decumulated(self):
        parsed = parse_prometheus_text(
            to_prometheus_text(golden_registry().snapshot())
        )
        family = parsed["families"]["repro_solver_iterations"]
        sample = family["samples"][0]
        # Per-bucket counts for (10, 50, 100, +Inf), not cumulative.
        assert sample["bucket_counts"] == [2, 3, 1, 1]
        assert sample["count"] == 7
        assert family["buckets"] == [10, 50, 100]

    def test_label_escapes_unwound(self):
        parsed = parse_prometheus_text(
            to_prometheus_text(golden_registry().snapshot())
        )
        sample = parsed["families"]["repro_test_escaping"]["samples"][0]
        assert sample["labels"]["path"] == 'a"b\\c\nd'

    def test_empty_text_parses_to_no_families(self):
        assert parse_prometheus_text("")["families"] == {}

    def test_garbage_line_rejected(self):
        with pytest.raises(ValueError, match="unparseable"):
            parse_prometheus_text("!!! not an exposition line")


class TestSnapshotRoundTrip:
    def test_build_snapshot_is_json_serialisable(self):
        obs.enable()
        telemetry.reset()
        tracer = Tracer()
        set_tracer(tracer)
        with tracer.span("unit-test"):
            telemetry.record_solve(
                "power",
                iterations=3,
                residual=1e-8,
                converged=True,
                damping=0.85,
                runtime_seconds=0.001,
            )
        snapshot = build_snapshot(golden_registry())
        encoded = json.dumps(snapshot)  # must not raise
        decoded = json.loads(encoded)
        assert decoded["schema"] == SNAPSHOT_SCHEMA
        assert decoded["obs_enabled"] is True
        assert decoded["spans"][0]["name"] == "unit-test"
        assert decoded["solve_history"][0]["solver"] == "power"

    def test_write_then_load(self, tmp_path):
        target = tmp_path / "nested" / "obs.json"
        written = write_snapshot(target, registry=golden_registry())
        loaded = load_snapshot(target)
        assert loaded == json.loads(json.dumps(written))

    def test_load_rejects_non_snapshot_json(self, tmp_path):
        bogus = tmp_path / "not_obs.json"
        bogus.write_text('{"hello": "world"}', encoding="utf-8")
        with pytest.raises(ValueError, match="not a repro obs snapshot"):
            load_snapshot(bogus)


class TestRenderReport:
    def test_empty_snapshot_renders_placeholder(self):
        snapshot = {
            "schema": SNAPSHOT_SCHEMA,
            "obs_enabled": False,
            "metrics": {"families": {}},
            "spans": [],
            "solve_history": [],
        }
        assert (
            render_report(snapshot)
            == "observability report: no recorded activity\n"
        )

    def test_sections_render_from_a_real_workload(self):
        obs.enable()
        telemetry.reset()
        tracer = Tracer()
        set_tracer(tracer)
        reg = golden_registry()
        with tracer.span("experiment:unit") as node:
            node.add_counter("subgraphs", 4)
            telemetry.record_solve(
                "power",
                iterations=77,
                residual=2e-6,
                converged=True,
                damping=0.85,
                runtime_seconds=0.01,
                residual_trace=[1e-2, 1e-4, 2e-6],
            )
        report = render_report(build_snapshot(reg))
        assert report.startswith(
            f"observability report (schema {SNAPSHOT_SCHEMA}, obs enabled)"
        )
        assert "Transition cache" in report
        assert "hit-rate 85.7%" in report  # 42 / (42 + 7)
        assert "Solver iterations (per solve)" in report
        assert "Span tree" in report
        assert "experiment:unit" in report
        assert "[subgraphs=4]" in report
        assert "Recent solves" in report
        assert "tail" in report

    def test_solver_line_renders_from_backend_info_labels(self):
        # The info gauge carries exactly the /healthz payload as labels;
        # the sample at 1 is the active solver.
        from repro.pagerank.backends import backend_info, resolve_backend

        reg = golden_registry()
        for spec, value in (("float64", 0.0), ("float32", 1.0)):
            reg.gauge(
                "repro_solver_backend_info",
                "Active solver precision",
                **backend_info(resolve_backend(spec)),
            ).set(value)
        lines = render_report(build_snapshot(reg)).splitlines()
        header = lines.index("Solver iterations (per solve)")
        assert lines[header + 1] == "  dtype float32 (layout degree)"
        assert "  dtype float64 (layout none)" not in lines

    def test_serve_section_renders_from_serve_metrics(self):
        reg = MetricsRegistry()
        reg.counter(
            "repro_serve_requests_total",
            "HTTP requests served, by endpoint and status.",
            endpoint="/rank", status="200",
        ).inc(12)
        reg.counter(
            "repro_serve_requests_total",
            "HTTP requests served, by endpoint and status.",
            endpoint="/rank", status="503",
        ).inc(2)
        reg.histogram(
            "repro_serve_request_seconds",
            "End-to-end request handling latency.",
            buckets=(0.01, 0.1, 1.0),
            endpoint="/rank",
        ).observe(0.05)
        hist = reg.histogram(
            "repro_serve_batch_size",
            "Distinct solve columns per flushed micro-batch.",
            buckets=(1, 2, 4, 8),
        )
        hist.observe(4)
        hist.observe(2)
        reg.counter("repro_serve_store_hits_total").inc(9)
        reg.counter("repro_serve_store_misses_total").inc(3)
        reg.counter(
            "repro_serve_store_evictions_total", reason="ttl"
        ).inc(1)
        reg.counter(
            "repro_serve_rejected_total", reason="overloaded"
        ).inc(2)
        report = render_report(build_snapshot(reg))
        assert "Serving" in report
        assert "/rank" in report
        assert "micro-batches 2  mean columns 3.00" in report
        assert "hit-rate 75.0%" in report
        assert "ttl=1" in report
        assert "rejected: overloaded=2" in report

    def test_serve_section_absent_without_serve_traffic(self):
        report = render_report(build_snapshot(golden_registry()))
        assert "Serving" not in report

    def test_updates_section_renders_from_update_metrics(self):
        report = render_report(build_snapshot(updates_golden_registry()))
        assert "Updates (incremental re-ranking)" in report
        assert "updates applied 3" in report
        assert "staleness spent 0.125" in report
        assert "budget 1" in report
        assert "regions re-ranked 3  background refreshes 2" in report
        assert "stale-but-bounded entries 2" in report

    def test_updates_section_absent_without_update_traffic(self):
        report = render_report(build_snapshot(golden_registry()))
        assert "Updates (incremental re-ranking)" not in report

    def test_estimation_section_absent_without_estimate_traffic(self):
        # An accuracy request is answered by the exact path: it
        # publishes no estimator families of its own, so obs-report
        # has no estimation section even with push-spec traffic.
        import asyncio

        import numpy as np

        from repro.generators.datasets import make_tiny_web
        from repro.obs.metrics import REGISTRY
        from repro.serve.server import RankingService

        # The process-wide registry: where an engine's own metrics
        # would land.
        service = RankingService(make_tiny_web(num_pages=200, seed=3).graph)

        async def main():
            outcome = await service.rank_with_meta(
                np.arange(20, 60), estimator="push:r_max=1e-3"
            )
            await service.close()
            return outcome

        assert asyncio.run(main()).estimator == "push"
        snapshot = build_snapshot(REGISTRY)
        families = snapshot["metrics"]["families"]
        assert "repro_serve_store_misses_total" in families
        assert not [
            name for name in families if name.startswith("repro_estimate_")
        ]
        assert "Estimation" not in render_report(snapshot)

    def test_semantic_section_renders_from_semantic_metrics(self):
        report = render_report(
            build_snapshot(semantic_golden_registry())
        )
        assert "Semantic" in report
        assert "queries[exact] x1" in report
        assert "queries[push] x1" in report
        assert "candidates pruned 123  dedup merges 2" in report
        assert "neighborhoods 2  mean 29.0 pages" in report

    def test_semantic_section_absent_without_semantic_traffic(self):
        report = render_report(build_snapshot(golden_registry()))
        assert "Semantic" not in report

    def test_unconverged_solves_flagged(self):
        obs.enable()
        telemetry.reset()
        telemetry.record_solve(
            "power",
            iterations=1000,
            residual=1e-3,
            converged=False,
            damping=0.85,
            runtime_seconds=0.5,
        )
        reg = MetricsRegistry()
        reg.histogram(
            "repro_solver_iterations",
            buckets=(10, 100, 1000),
            solver="power",
        ).observe(1000)
        reg.counter(
            "repro_solver_unconverged_total", solver="power"
        ).inc()
        report = render_report(build_snapshot(reg))
        assert "UNCONVERGED" in report
        assert "unconverged 1" in report
