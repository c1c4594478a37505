"""Boot the repro server with timing shims around each layer.

Usage::

    python3 benchmarks/e2e/traced_server.py --trace-out PATH <repro CLI args>

The launcher replaces the public callables of every serving layer with
shims that time each call, then hands the remaining arguments to
``repro.cli.main`` exactly as ``python -m repro`` would.  Nothing in
``src/`` changes.  ``SIGUSR1`` zeroes every counter (the start of the
measured window) and ``SIGUSR2`` writes them to ``PATH`` (its end).

Sync callables record self time per thread: a call's duration minus
the time spent in shimmed callees on the same thread.  Coroutines
record inclusive wall time, waits included.  Percentiles are always of
inclusive per-call durations.
"""

from __future__ import annotations

import contextvars
import functools
import json
import signal
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402


class Recorder:
    """Per-callable durations plus the counts derived metrics need."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._durations: dict[str, list[float]] = defaultdict(list)
        self._busy: dict[str, float] = defaultdict(float)
        self._counts: dict[str, float] = defaultdict(float)
        self._baselines: dict[str, float] = {}
        self.probes: dict[str, callable] = {}

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, duration: float, busy: float) -> None:
        with self._lock:
            self._durations[name].append(duration)
            self._busy[name] += busy

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self._counts[name] += amount

    def reset(self) -> None:
        with self._lock:
            self._durations.clear()
            self._busy.clear()
            self._counts.clear()
            self._baselines = {k: f() for k, f in self.probes.items()}

    def dump(self, path: Path) -> None:
        with self._lock:
            durations = {k: list(v) for k, v in self._durations.items()}
            busy = dict(self._busy)
            counts = dict(self._counts)
            for key, probe in self.probes.items():
                counts[key] = probe() - self._baselines.get(key, 0.0)
        callables = {}
        for name, values in durations.items():
            ms = np.asarray(values) * 1e3
            callables[name] = {
                "calls": len(values),
                "busy_s": busy[name],
                "ms_mean": float(ms.mean()),
                "ms_p50": float(np.percentile(ms, 50)),
                "ms_p99": float(np.percentile(ms, 99)),
            }
        partial = path.with_suffix(".tmp")
        partial.write_text(json.dumps({
            "callables": callables, "counts": counts,
        }))
        partial.replace(path)


RECORDER = Recorder()
#: Set while a service coroutine runs, so nested service calls (search
#: ranks through rank_with_meta) are not counted as top-level calls.
_IN_SERVICE = contextvars.ContextVar("in_service", default=False)


def sync_shim(fn, name, namer=None, observe=None):
    @functools.wraps(fn)
    def shim(*args, **kwargs):
        label = namer(args, kwargs) if namer else name
        stack = RECORDER.stack()
        children = [0.0]
        stack.append(children)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            RECORDER.record(label, duration, duration - children[0])
        if observe is not None:
            observe(result, args, kwargs, duration)
        return result

    return shim


def async_shim(fn, name, service=False, skip=None):
    @functools.wraps(fn)
    async def shim(*args, **kwargs):
        if skip is not None and skip(args, kwargs):
            return await fn(*args, **kwargs)
        top = service and not _IN_SERVICE.get()
        token = _IN_SERVICE.set(True) if service else None
        start = time.perf_counter()
        try:
            return await fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            if token is not None:
                _IN_SERVICE.reset(token)
            RECORDER.record(name, duration, duration)
            if top:
                RECORDER.record("serve.service.top", duration, 0.0)

    return shim


def _is_warm(args, kwargs):
    initial = kwargs.get("initial", args[3] if len(args) > 3 else None)
    return initial is not None


def _observe_lookup(hit, args, kwargs, duration):
    if hit is not None:
        RECORDER.count("store.hits")
        if hit.stale:
            RECORDER.count("store.stale_hits")


def _observe_solve(outcome, args, kwargs, duration):
    outcomes = outcome if isinstance(outcome, list) else [outcome]
    RECORDER.count("solve.outcomes", len(outcomes))
    RECORDER.count("solve.iterations", sum(o.iterations for o in outcomes))


def _observe_group(result, args, kwargs, duration):
    columns = len(args[3])
    RECORDER.count("batch.groups")
    RECORDER.count("batch.columns", columns)
    RECORDER.count("batch.solve_request_s", duration * columns)


def install() -> None:
    """Wrap every layer's public callables (see README for the list)."""
    from repro.core import extended, precompute
    from repro.estimation import push
    from repro.obs.metrics import REGISTRY
    from repro.perf.cache import GLOBAL_TRANSITION_CACHE
    from repro.search import engine
    from repro.semantic import pipeline
    from repro.serve import batching, server, store
    from repro.serve.cluster import router
    from repro.updates import delta

    service = server.RankingService
    for method in ("rank_with_meta", "search", "semantic_search"):
        setattr(service, method, async_shim(
            getattr(service, method), f"serve.service.{method}", service=True
        ))
    service.apply_update = async_shim(
        service.apply_update, "serve.service.apply_update"
    )
    service._solve_group = sync_shim(
        service._solve_group, "serve.batching.solve_group",
        observe=_observe_group,
    )
    service._refresh_entry_sync = sync_shim(
        service._refresh_entry_sync, "updates.refresh",
        observe=lambda *a: RECORDER.count("updates.refreshes"),
    )
    batching.RankBatcher.submit = async_shim(
        batching.RankBatcher.submit, "serve.batching.submit"
    )

    score_store = store.ScoreStore
    score_store.lookup = sync_shim(
        score_store.lookup, "serve.store.lookup", observe=_observe_lookup
    )
    score_store.put = sync_shim(score_store.put, "serve.store.put")
    score_store.apply_update = sync_shim(
        score_store.apply_update, "serve.store.apply_update"
    )
    digest = sync_shim(store.subgraph_digest, "serve.store.subgraph_digest")
    for module in (store, server, router):
        module.subgraph_digest = digest

    prep = precompute.ApproxRankPreprocessor
    prep.__init__ = sync_shim(prep.__init__, "core.precompute.init")
    prep.extended_graph = sync_shim(
        prep.extended_graph, "core.precompute.extended_graph"
    )
    prep.rank = sync_shim(prep.rank, None, namer=lambda a, k: (
        "core.precompute.rank_warm" if _is_warm(a, k)
        else "core.precompute.rank"
    ))
    ext = extended.ExtendedLocalGraph
    ext.solve = sync_shim(ext.solve, "core.extended.solve", observe=_observe_solve)
    ext.solve_many = sync_shim(
        ext.solve_many, "core.extended.solve_many", observe=_observe_solve
    )

    push.PushEstimator.estimate = sync_shim(
        push.PushEstimator.estimate, "estimation.push.estimate",
        observe=lambda scores, *a: RECORDER.count(
            "push.edges_touched", scores.extras["edges_touched"]
        ),
    )
    semantic = pipeline.SemanticPipeline
    semantic.select = sync_shim(
        semantic.select, "semantic.select",
        observe=lambda selection, *a: RECORDER.count(
            "semantic.pages", selection.nodes.size
        ),
    )
    semantic.finish = sync_shim(semantic.finish, "semantic.finish")
    engine.SubgraphSearchEngine.search = sync_shim(
        engine.SubgraphSearchEngine.search, "search.engine.search"
    )
    apply = sync_shim(delta.apply_delta, "updates.apply_delta")
    for module in (delta, server, router):
        module.apply_delta = apply
    # Health probes are the router's background chatter, not the
    # router-to-replica hop a request pays for.
    router.http_request = async_shim(
        router.http_request, "serve.cluster.http_request",
        skip=lambda a, k: a[3] == "/healthz",
    )

    RECORDER.probes = {
        "cache.hits": lambda: GLOBAL_TRANSITION_CACHE.stats().hits,
        "cache.misses": lambda: GLOBAL_TRANSITION_CACHE.stats().misses,
        "cluster.retries": lambda: sum(
            sample["value"]
            for sample in REGISTRY.snapshot(run_collectors=False)["families"]
            .get("repro_cluster_retries_total", {"samples": []})["samples"]
        ),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--trace-out":
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[1])
    install()
    RECORDER.reset()
    # Handlers run on the main thread between bytecodes, possibly while
    # it holds the recorder lock, so the work goes to a fresh thread.
    signal.signal(signal.SIGUSR1, lambda *a: threading.Thread(
        target=RECORDER.reset
    ).start())
    signal.signal(signal.SIGUSR2, lambda *a: threading.Thread(
        target=RECORDER.dump, args=(out,)
    ).start())
    from repro.cli import main as cli_main

    return cli_main(argv[2:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
