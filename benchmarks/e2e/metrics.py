"""Metric declarations, and how each is computed from a run.

End-to-end metrics come from the client side of an untraced run.
Per-layer metrics come from the traced launcher's counters over the
same window, plus the client latency of the traced run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from loadgen import Outcome


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Allowed worsening before a change counts as a regression: a share
    #: of the parent's median, or an absolute amount when ``absolute``.
    bound: float | None = None
    absolute: bool = False


#: Times and rates get 25%, the most a bound may be: on the shared
#: 2-core host the benchmark was measured on, the host's own speed moved
#: by up to 1.85 times between runs (set-up, which does fixed work,
#: moved with it), and ten runs of one workload spread by 3-39%
#: (README.md, "How steady it is").
END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("throughput_rps", "req/s", "higher", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("latency_p99_ms", "ms", "lower", 0.25),
    Metric("error_frac", "ratio", "lower", 0.005, absolute=True),
    #: 1 - error_frac: never 0, so it can stand in BENCHMARK.json, where
    #: bounds are shares of the median; near 1 its 0.5% is error_frac's
    #: +0.005.
    Metric("success_frac", "ratio", "higher", 0.005),
    Metric("stale_frac", "ratio", "lower", 0.02, absolute=True),
    Metric("update_p50_ms", "ms", "lower", 0.25),
    Metric("server_rss_mb", "MiB", "lower", 0.10),
]

#: Every shimmed callable; each yields .calls, .busy_s, .ms_p50, .ms_p99.
CALLABLES = [
    "serve.service.rank_with_meta",
    "serve.service.search",
    "serve.service.semantic_search",
    "serve.service.apply_update",
    "serve.batching.submit",
    "serve.store.lookup",
    "serve.store.put",
    "serve.store.apply_update",
    "serve.store.subgraph_digest",
    "core.precompute.init",
    "core.precompute.extended_graph",
    "core.precompute.rank",
    "core.precompute.rank_warm",
    "core.extended.solve",
    "core.extended.solve_many",
    "estimation.push.estimate",
    "semantic.select",
    "semantic.finish",
    "search.engine.search",
    "updates.apply_delta",
    "serve.cluster.http_request",
]
#: Entry points whose call count is work served, not work spent.
_SERVED = {
    "serve.service.rank_with_meta", "serve.service.search",
    "serve.service.semantic_search", "serve.service.apply_update",
}

DERIVED = [
    Metric("serve.server.outside_service_ms_p50", "ms", "lower"),
    Metric("serve.batching.wait_ms_mean", "ms", "lower"),
    Metric("serve.batching.columns_mean", "count", "higher"),
    Metric("serve.store.hit_ratio", "ratio", "higher"),
    Metric("serve.store.stale_hit_share", "ratio", "lower"),
    Metric("pagerank.iterations_mean", "count", "lower"),
    Metric("perf.cache.hit_ratio", "ratio", "higher"),
    Metric("estimation.push.edges_touched_mean", "count", "lower"),
    Metric("semantic.neighborhood_pages_mean", "count", "lower"),
    Metric("updates.refreshes_per_update", "count", "higher"),
    Metric("serve.cluster.retries", "count", "lower"),
    Metric("trace.overhead_frac", "ratio", "lower"),
]

PER_LAYER = [
    Metric(f"{name}.{suffix}", unit,
           "higher" if suffix == "calls" and name in _SERVED else "lower")
    for name in CALLABLES
    for suffix, unit in (
        ("calls", "count"), ("busy_s", "s"), ("ms_p50", "ms"), ("ms_p99", "ms")
    )
] + DERIVED

DECLARED = {m.name: m for m in END_TO_END + PER_LAYER}

#: Which end-to-end metric each layer metric should move, and where.
LAYER_MAP = [
    ("serve.batching.wait_ms_mean", "latency_p50_ms, throughput_rps",
     "rank-cold, rank-sweep"),
    ("serve.batching.columns_mean, core.extended.solve_many.*",
     "throughput_rps", "rank-sweep"),
    ("core.precompute.extended_graph.*, core.extended.solve.*",
     "latency_p50_ms", "rank-cold"),
    ("estimation.push.estimate.*", "latency_p99_ms", "rank-cold"),
    ("serve.server.outside_service_ms_p50, serve.store.lookup.*, "
     "serve.store.subgraph_digest.*, search.engine.search.*",
     "latency_p50_ms, throughput_rps", "rank-hot"),
    ("semantic.select.*, semantic.finish.*", "latency_p50_ms", "semantic"),
    ("updates.apply_delta.*, core.precompute.init.*, "
     "serve.store.apply_update.*, serve.service.apply_update.*",
     "update_p50_ms", "update-churn"),
    ("updates.refreshes_per_update, core.precompute.rank_warm.*, "
     "serve.store.stale_hit_share", "stale_frac", "update-churn"),
    ("serve.cluster.http_request.*", "latency_p50_ms (reads)",
     "update-churn"),
    ("serve.cluster.retries", "error_frac", "update-churn"),
    ("core.precompute.init.*", "setup_s", "every workload"),
]

_EXACT_READS = {"rank", "search", "semantic"}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def read_latencies_ms(window: list[Outcome]) -> np.ndarray:
    return np.array([
        (o.end - o.start) * 1e3
        for o in window if o.ok and o.request.kind != "update"
    ])


def end_to_end(
    window: list[Outcome],
    updates: list[Outcome],
    window_s: float,
    setup_s: list[float],
    rss_mb: float,
) -> dict[str, float]:
    """The end-to-end metrics of one run, in declaration order.

    ``updates`` holds every update the run sent, whenever its reply
    came; ``update_p50_ms`` is left out when there are none.
    """
    reads = [o for o in window if o.request.kind != "update"]
    latencies = read_latencies_ms(window)
    exact = [o for o in reads if o.ok and o.request.kind in _EXACT_READS]
    done = [(o.end - o.start) * 1e3 for o in updates if o.ok]
    error_frac = _ratio(sum(not o.ok for o in window), len(window))
    values = {
        "setup_s": float(np.median(setup_s)),
        "throughput_rps": latencies.size / window_s,
        "latency_p50_ms": float(np.percentile(latencies, 50)),
        "latency_p99_ms": float(np.percentile(latencies, 99)),
        "error_frac": error_frac,
        "success_frac": 1.0 - error_frac,
        "stale_frac": _ratio(sum(o.stale for o in exact), len(exact)),
        "update_p50_ms": float(np.median(done)) if done else 0.0,
        "server_rss_mb": rss_mb,
    }
    if not updates:
        del values["update_p50_ms"]
    return values


def per_layer(
    dump: dict, client_p50_ms: float, traced_rps: float, untraced_rps: float
) -> dict[str, float]:
    """Per-layer metrics from one traced window's counters."""
    calls = dump["callables"]
    counts = dump["counts"]
    values: dict[str, float] = {}
    for name in CALLABLES:
        stats = calls.get(name, {})
        for suffix in ("calls", "busy_s", "ms_p50", "ms_p99"):
            values[f"{name}.{suffix}"] = stats.get(suffix, 0)

    def count(key: str) -> float:
        return counts.get(key, 0.0)

    def mean_per_call(key: str, name: str) -> float:
        return _ratio(count(key), calls.get(name, {}).get("calls", 0))

    top = calls.get("serve.service.top", {})
    submit = calls.get("serve.batching.submit", {})
    columns = count("batch.columns")
    lookups = calls.get("serve.store.lookup", {}).get("calls", 0)
    values.update({
        "serve.server.outside_service_ms_p50": (
            client_p50_ms - top.get("ms_p50", 0.0)
        ),
        # A request's wait is its submit time minus the solve of the
        # batch that carried it; solve time is shared per column.
        "serve.batching.wait_ms_mean": (
            submit.get("ms_mean", 0.0)
            - 1e3 * _ratio(count("batch.solve_request_s"), columns)
            if submit else 0.0
        ),
        "serve.batching.columns_mean": _ratio(columns, count("batch.groups")),
        "serve.store.hit_ratio": _ratio(count("store.hits"), lookups),
        "serve.store.stale_hit_share": _ratio(
            count("store.stale_hits"), count("store.hits")
        ),
        "pagerank.iterations_mean": _ratio(
            count("solve.iterations"), count("solve.outcomes")
        ),
        "perf.cache.hit_ratio": _ratio(
            count("cache.hits"), count("cache.hits") + count("cache.misses")
        ),
        "estimation.push.edges_touched_mean": mean_per_call(
            "push.edges_touched", "estimation.push.estimate"
        ),
        "semantic.neighborhood_pages_mean": mean_per_call(
            "semantic.pages", "semantic.select"
        ),
        "updates.refreshes_per_update": mean_per_call(
            "updates.refreshes", "serve.service.apply_update"
        ),
        "serve.cluster.retries": count("cluster.retries"),
        "trace.overhead_frac": 1.0 - _ratio(traced_rps, untraced_rps),
    })
    return values
