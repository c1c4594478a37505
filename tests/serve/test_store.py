"""Tests for the score store: keys, LRU/TTL, persistence, updates.

The store's contract:

* keys are content-based — two structurally identical graphs share a
  fingerprint; subgraph digests ignore node order; ε is part of the
  identity;
* LRU capacity and TTL expiry govern freshness (TTL via an injectable
  clock, so no sleeping);
* :meth:`ScoreStore.apply_update` migrates every surviving entry into
  the *stale-but-bounded* state — served flagged, charged against the
  Theorem-2 staleness budget — and evicts the moment a cumulative
  charge crosses the budget (an over-budget entry is never served,
  which the lookup path double-checks under concurrent reads);
* the served staleness is a sound L1 certificate end to end: an
  estimate's own bound plus every update charge bounds the gap to the
  exact answer on the current graph.
"""

import numpy as np
import pytest

from repro.core.approxrank import approxrank
from repro.estimation import resolve_estimator
from repro.exceptions import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.pagerank.solver import PowerIterationSettings
from repro.perf.cache import GLOBAL_TRANSITION_CACHE
from repro.serve.store import (
    ScoreStore,
    graph_fingerprint,
    subgraph_digest,
)
from repro.updates.delta import GraphDelta, apply_delta, random_region_delta

from tests.conftest import random_digraph

pytestmark = pytest.mark.serve

SETTINGS = PowerIterationSettings(tolerance=1e-8)


@pytest.fixture(scope="module")
def graph():
    return random_digraph(120, seed=11)


@pytest.fixture(scope="module")
def nodes():
    return np.arange(30, dtype=np.int64)


@pytest.fixture(scope="module")
def scores(graph, nodes):
    return approxrank(graph, nodes, SETTINGS)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestFingerprints:
    def test_stable_across_objects(self, graph):
        # A rebuilt graph with identical arrays shares the fingerprint
        # — this is what lets a restarted server warm-load a store.
        clone = random_digraph(120, seed=11)
        assert clone is not graph
        assert graph_fingerprint(clone) == graph_fingerprint(graph)

    def test_differs_across_graphs(self, graph):
        other = random_digraph(120, seed=12)
        assert graph_fingerprint(other) != graph_fingerprint(graph)

    def test_memoised(self, graph):
        assert graph_fingerprint(graph) is graph_fingerprint(graph)

    def test_subgraph_digest_order_insensitive(self):
        forward = subgraph_digest([1, 2, 3])
        shuffled = subgraph_digest([3, 1, 2])
        assert forward == shuffled
        assert subgraph_digest([1, 2, 4]) != forward

    def test_subgraph_digest_bytes_pinned(self):
        # Router placement and persisted store keys depend on these
        # exact bytes: the sha256 of the sorted, deduplicated int64
        # ids, whatever form the node set arrives in.
        canonical = np.arange(0, 2500, 7, dtype=np.int64)
        messy = list(canonical) + list(canonical[::3])
        np.random.default_rng(0).shuffle(messy)
        expected = (
            "37e93dcbd3bf03f01097e1d69d222612562a569550beeca4ed929ccabfea4ef2"
        )
        assert subgraph_digest(canonical) == expected
        assert subgraph_digest(messy) == expected
        assert subgraph_digest(np.asarray(messy)) == expected
        assert subgraph_digest(canonical.astype(np.int32)) == expected
        assert subgraph_digest(canonical.tolist()) == expected
        assert subgraph_digest([5, 3, 3, 11, 2]) == (
            "227930245d2a837b8783552b50cca4234c6f342006ed8fbce8b6add22a02102f"
        )


class TestLruAndTtl:
    def test_miss_then_hit(self, graph, nodes, scores):
        store = ScoreStore(registry=MetricsRegistry())
        assert store.get(graph, nodes, 0.85) is None
        store.put(graph, nodes, 0.85, scores)
        assert store.get(graph, nodes, 0.85) is scores

    def test_damping_is_part_of_the_key(self, graph, nodes, scores):
        store = ScoreStore(registry=MetricsRegistry())
        store.put(graph, nodes, 0.85, scores)
        assert store.get(graph, nodes, 0.5) is None

    def test_lru_eviction_order(self, graph, scores):
        store = ScoreStore(capacity=2, registry=MetricsRegistry())
        a = np.arange(10, dtype=np.int64)
        b = np.arange(10, 20, dtype=np.int64)
        c = np.arange(20, 30, dtype=np.int64)
        store.put(graph, a, 0.85, scores)
        store.put(graph, b, 0.85, scores)
        store.get(graph, a, 0.85)  # refresh a: b becomes LRU
        store.put(graph, c, 0.85, scores)
        assert store.get(graph, a, 0.85) is scores
        assert store.get(graph, b, 0.85) is None
        assert len(store) == 2

    def test_ttl_expiry_with_injected_clock(self, graph, nodes, scores):
        clock = FakeClock()
        store = ScoreStore(
            ttl_seconds=10.0, clock=clock, registry=MetricsRegistry()
        )
        store.put(graph, nodes, 0.85, scores)
        clock.advance(9.0)
        assert store.get(graph, nodes, 0.85) is scores
        clock.advance(2.0)
        assert store.get(graph, nodes, 0.85) is None
        assert len(store) == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            ScoreStore(capacity=0)
        with pytest.raises(ValueError, match="ttl_seconds"):
            ScoreStore(ttl_seconds=0.0)

    def test_metrics_counters(self, graph, nodes, scores):
        registry = MetricsRegistry()
        store = ScoreStore(capacity=1, registry=registry)
        store.get(graph, nodes, 0.85)           # miss
        store.put(graph, nodes, 0.85, scores)
        store.get(graph, nodes, 0.85)           # hit
        other = np.arange(5, dtype=np.int64)
        store.put(graph, other, 0.85, scores)   # capacity eviction
        snapshot = registry.snapshot()["families"]
        def total(name):
            return sum(
                s["value"]
                for s in snapshot[name]["samples"]
            )
        assert total("repro_serve_store_misses_total") == 1
        assert total("repro_serve_store_hits_total") == 1
        assert total("repro_serve_store_evictions_total") == 1


class TestPersistence:
    def test_round_trip(self, tmp_path, graph, nodes, scores):
        store = ScoreStore(registry=MetricsRegistry())
        store.put(graph, nodes, 0.85, scores)
        assert store.persist(tmp_path) == 1

        fresh = ScoreStore(registry=MetricsRegistry())
        assert fresh.warm_load(tmp_path, graph) == 1
        loaded = fresh.get(graph, nodes, 0.85)
        assert loaded is not None
        np.testing.assert_array_equal(loaded.local_nodes, scores.local_nodes)
        np.testing.assert_array_equal(loaded.scores, scores.scores)
        assert loaded.method == scores.method
        assert loaded.iterations == scores.iterations
        assert loaded.converged == scores.converged
        assert loaded.extras.get("lambda_score") == pytest.approx(
            scores.extras["lambda_score"]
        )

    def test_other_graphs_entries_skipped(
        self, tmp_path, graph, nodes, scores
    ):
        store = ScoreStore(registry=MetricsRegistry())
        store.put(graph, nodes, 0.85, scores)
        store.persist(tmp_path)
        other = random_digraph(120, seed=12)
        fresh = ScoreStore(registry=MetricsRegistry())
        assert fresh.warm_load(tmp_path, other) == 0

    def test_missing_directory_is_empty(self, tmp_path, graph):
        store = ScoreStore(registry=MetricsRegistry())
        assert store.warm_load(tmp_path / "nope", graph) == 0

    def test_extras_and_variant_survive_restart(
        self, tmp_path, graph, nodes, scores
    ):
        """Regression: persist used to keep only ``lambda_score``.

        The full ``extras`` (an accuracy request's certificate
        included) plus the stale flag and staleness charge must
        survive a persist/warm_load cycle, and an archive tagged with
        the ``"exact"`` variant — the format older stores wrote —
        still loads into the one exact slot.
        """
        from dataclasses import replace

        certified = replace(
            scores,
            extras={
                **scores.extras,
                "estimator": "push",
                "error_bound": 0.0125,
                "r_max": 0.02,
            },
        )
        store = ScoreStore(registry=MetricsRegistry())
        store.put(
            graph, nodes, 0.85, certified, stale=True, staleness=0.0125
        )
        assert store.persist(tmp_path) == 1
        _tag_variant(tmp_path, "exact")

        fresh = ScoreStore(registry=MetricsRegistry())
        assert fresh.warm_load(tmp_path, graph) == 1
        hit = fresh.lookup(graph, nodes, 0.85)
        assert hit is not None
        np.testing.assert_array_equal(
            hit.scores.scores, certified.scores
        )
        assert hit.scores.extras["estimator"] == "push"
        assert hit.scores.extras["error_bound"] == 0.0125
        assert hit.scores.extras["r_max"] == 0.02
        assert hit.stale is True
        assert hit.staleness == 0.0125

    def test_non_exact_variant_archive_is_not_served(
        self, tmp_path, graph, nodes, scores
    ):
        # An archive of the retired push engine holds push estimates,
        # not an exact solve: loading it would serve it as
        # bit-identical.  warm_load skips it.
        store = ScoreStore(registry=MetricsRegistry())
        store.put(graph, nodes, 0.85, scores)
        assert store.persist(tmp_path) == 1
        _tag_variant(tmp_path, "push:r_max=0.001")

        fresh = ScoreStore(registry=MetricsRegistry())
        assert fresh.warm_load(tmp_path, graph) == 0
        assert fresh.lookup(graph, nodes, 0.85) is None

    def test_exact_entry_stale_state_survives_restart(
        self, tmp_path, graph, nodes, scores
    ):
        # A warm-started refresh leaves an exact-variant entry flagged
        # with its residual charge; a restart must not launder it
        # back to fresh.
        store = ScoreStore(registry=MetricsRegistry())
        store.put(
            graph, nodes, 0.85, scores, stale=True, staleness=0.25
        )
        store.persist(tmp_path)
        fresh = ScoreStore(registry=MetricsRegistry())
        fresh.warm_load(tmp_path, graph)
        hit = fresh.lookup(graph, nodes, 0.85)
        assert hit is not None
        assert hit.stale is True
        assert hit.staleness == 0.25


def _tag_variant(directory, variant: str) -> None:
    """Rewrite every persisted archive with a ``variant`` field, as
    stores that keyed entries by estimator wrote them."""
    for path in directory.glob("entry-*.npz"):
        with np.load(path) as archive:
            fields = {name: archive[name] for name in archive.files}
        np.savez(path, variant=np.str_(variant), **fields)


class TestApplyUpdate:
    def _delta_touching(self, graph, node: int) -> GraphDelta:
        target = (node + 1) % graph.num_nodes
        return GraphDelta(added_edges=[(node, target)])

    def test_affected_entries_served_stale_but_bounded(self, graph, scores):
        # An entry intersecting the affected region survives the update
        # in the stale-but-bounded state: still served (flagged, with
        # its Theorem-2 charge attached) and queued for refresh —
        # instead of cache-missing the next reader into a cold solve.
        store = ScoreStore(registry=MetricsRegistry())
        inside = np.arange(30, dtype=np.int64)
        store.put(graph, inside, 0.85, scores)
        delta = self._delta_touching(graph, 5)
        new_graph = apply_delta(graph, delta)
        report = store.apply_update(graph, new_graph, delta=delta)
        assert report.evicted == 0
        assert report.stale == 1
        assert report.staleness_charge > 0
        assert len(report.stale_entries) == 1
        np.testing.assert_array_equal(report.stale_entries[0][0], inside)
        hit = store.lookup(new_graph, inside, 0.85)
        assert hit is not None
        assert hit.scores is scores
        assert hit.stale is True
        assert hit.staleness == pytest.approx(report.staleness_charge)
        assert hit.staleness <= store.staleness_budget

    def test_unaffected_entries_migrate(self, graph, scores):
        # An entry disjoint from the affected region is rekeyed to the
        # new fingerprint (Theorem-2-bounded staleness) and stays warm;
        # it is charged and flagged but not queued for refresh.
        store = ScoreStore(registry=MetricsRegistry())
        delta = self._delta_touching(graph, 5)
        new_graph = apply_delta(graph, delta)
        from repro.updates.affected import affected_region

        region = affected_region(graph, new_graph, 2, delta)
        outside = np.setdiff1d(
            np.arange(graph.num_nodes, dtype=np.int64), region
        )[:10]
        assert outside.size == 10, "need nodes outside the region"
        outside_scores = approxrank(graph, outside, SETTINGS)
        store.put(graph, outside, 0.85, outside_scores)
        report = store.apply_update(graph, new_graph, delta=delta)
        assert report.migrated == 1
        assert report.evicted == 0
        assert report.stale == 0
        assert report.stale_entries == ()
        hit = store.lookup(new_graph, outside, 0.85)
        assert hit is not None
        assert hit.scores is outside_scores
        assert hit.stale is True
        assert hit.staleness == pytest.approx(report.staleness_charge)

    def test_delta_less_update_diffs_rows_once(
        self, graph, scores, monkeypatch
    ):
        # Without a delta the seeds are a full row diff; the region
        # expansion and the charge share one derivation of them.
        from repro.updates import affected

        calls = []
        diff = affected.changed_pages
        monkeypatch.setattr(
            affected,
            "changed_pages",
            lambda *args: calls.append(args) or diff(*args),
        )
        store = ScoreStore(registry=MetricsRegistry())
        inside = np.arange(30, dtype=np.int64)
        store.put(graph, inside, 0.85, scores)
        new_graph = apply_delta(graph, self._delta_touching(graph, 5))
        report = store.apply_update(graph, new_graph)
        assert len(calls) == 1
        assert report.stale == 1

    def test_update_metrics_emitted(self, graph, scores):
        registry = MetricsRegistry()
        store = ScoreStore(registry=registry)
        inside = np.arange(30, dtype=np.int64)
        store.put(graph, inside, 0.85, scores)
        delta = self._delta_touching(graph, 5)
        new_graph = apply_delta(graph, delta)
        store.apply_update(graph, new_graph, delta=delta)
        families = registry.snapshot()["families"]
        for name in (
            "repro_update_applied_total",
            "repro_update_staleness_spent_total",
            "repro_update_staleness_budget",
            "repro_update_stale_entries",
        ):
            assert name in families, name
        spent = sum(
            s["value"]
            for s in families["repro_update_staleness_spent_total"][
                "samples"
            ]
        )
        assert spent > 0
        budget = families["repro_update_staleness_budget"]["samples"]
        assert budget[0]["value"] == store.staleness_budget

    def test_update_invalidates_transition_cache(self, scores):
        # The old graph's cached transition derivations die with it.
        # (apply_delta already invalidates once; re-warm the cache to
        # prove the store's own apply_update does so too.)
        graph = random_digraph(80, seed=33)
        store = ScoreStore(registry=MetricsRegistry())
        delta = GraphDelta(added_edges=[(0, 7)])
        new_graph = apply_delta(graph, delta)
        GLOBAL_TRANSITION_CACHE.transition(graph)
        assert graph in GLOBAL_TRANSITION_CACHE
        store.apply_update(graph, new_graph, delta=delta)
        assert graph not in GLOBAL_TRANSITION_CACHE


class TestStalenessBudget:
    """The never-serve-over-budget guarantee, under every path.

    The budget can be crossed at charge time (apply_update evicts
    instead of migrating) and must also be enforced at lookup time —
    the last line of defence when a charge lands on an entry between a
    reader's key computation and its read.  TTL and the staleness
    budget are independent axes: a stale-but-bounded entry still dies
    at its TTL horizon.
    """

    def _apply_one(self, store, graph, node):
        delta = GraphDelta(
            added_edges=[(node, (node + 1) % graph.num_nodes)]
        )
        new_graph = apply_delta(graph, delta)
        report = store.apply_update(graph, new_graph, delta=delta)
        return new_graph, report

    def test_cumulative_charge_crosses_budget_and_evicts(
        self, graph, scores
    ):
        # One small-churn update certifies at ~0.53 under the default
        # budget of 1.0: the first survives stale, the second pushes
        # the cumulative charge over and must evict at charge time.
        registry = MetricsRegistry()
        store = ScoreStore(registry=registry)
        inside = np.arange(30, dtype=np.int64)
        store.put(graph, inside, 0.85, scores)
        g1, r1 = self._apply_one(store, graph, 5)
        assert r1.evicted == 0
        hit = store.lookup(g1, inside, 0.85)
        assert hit is not None and hit.stale
        g2, r2 = self._apply_one(store, g1, 6)
        assert r2.evicted == 1
        assert store.lookup(g2, inside, 0.85) is None
        snapshot = registry.snapshot()["families"]
        evictions = {
            s["labels"].get("reason"): s["value"]
            for s in snapshot["repro_serve_store_evictions_total"][
                "samples"
            ]
        }
        assert evictions.get("staleness", 0) >= 1

    def test_over_budget_entry_never_served_at_lookup(
        self, graph, nodes, scores
    ):
        # However an over-budget entry got in, lookup must evict it
        # rather than serve it.
        store = ScoreStore(registry=MetricsRegistry())
        store.put(
            graph,
            nodes,
            0.85,
            scores,
            stale=True,
            staleness=store.staleness_budget * 2,
        )
        assert store.lookup(graph, nodes, 0.85) is None
        assert len(store) == 0

    def test_tight_budget_evicts_at_charge_time(self, graph, scores):
        store = ScoreStore(
            registry=MetricsRegistry(), staleness_budget=1e-6
        )
        inside = np.arange(30, dtype=np.int64)
        store.put(graph, inside, 0.85, scores)
        g1, r1 = self._apply_one(store, graph, 5)
        assert r1.evicted == 1
        assert r1.stale == 0 and r1.migrated == 0
        assert store.lookup(g1, inside, 0.85) is None
        # The evicted entry still lands on the refresh work list, so
        # the serving layer re-ranks it instead of forgetting it.
        assert len(r1.stale_entries) == 1

    def test_ttl_still_applies_to_stale_entries(self, graph, scores):
        clock = FakeClock()
        store = ScoreStore(
            ttl_seconds=10.0, clock=clock, registry=MetricsRegistry()
        )
        inside = np.arange(30, dtype=np.int64)
        store.put(graph, inside, 0.85, scores)
        clock.advance(8.0)
        g1, _ = self._apply_one(store, graph, 5)
        # Migration restamps the TTL clock (the entry was re-vouched
        # for at update time), so it outlives its original horizon...
        clock.advance(8.0)
        hit = store.lookup(g1, inside, 0.85)
        assert hit is not None and hit.stale
        # ...but not the new one: TTL expiry beats staleness bookkeeping.
        clock.advance(3.0)
        assert store.lookup(g1, inside, 0.85) is None

    def test_concurrent_reads_never_see_over_budget(self, graph, scores):
        import threading

        store = ScoreStore(registry=MetricsRegistry())
        inside = np.arange(30, dtype=np.int64)
        budget = store.staleness_budget
        # Pre-build a chain of updates; each charges ~0.53, so the
        # entry crosses the budget mid-stream while readers hammer it.
        graphs = [graph]
        steps = []
        g = graph
        for node in (5, 6, 7, 8):
            delta = GraphDelta(
                added_edges=[(node, (node + 3) % g.num_nodes)]
            )
            ng = apply_delta(g, delta)
            steps.append((g, ng, delta))
            graphs.append(ng)
            g = ng
        store.put(graph, inside, 0.85, scores)
        over_budget: list[float] = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                for gr in graphs:
                    hit = store.lookup(gr, inside, 0.85)
                    if hit is not None and hit.staleness > budget:
                        over_budget.append(hit.staleness)

        threads = [
            threading.Thread(target=reader) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        try:
            for old, new, delta in steps:
                store.apply_update(old, new, delta=delta)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert over_budget == []
        assert store.lookup(graphs[-1], inside, 0.85) is None

    def test_concurrent_updates_and_writes_stay_bounded(
        self, graph, scores
    ):
        """Router-store concurrency: ``put`` vs ``apply_update``.

        The shard router replicates every successful answer into its
        local store (``_remember`` → ``put``) while ``/update``
        charges it (``apply_update``) — from different threads.  No
        interleaving may let a lookup serve an over-budget entry, and
        the store must stay internally consistent (no lost locks, no
        exceptions) under the churn.
        """
        import threading

        store = ScoreStore(registry=MetricsRegistry())
        inside = np.arange(30, dtype=np.int64)
        budget = store.staleness_budget
        graphs = [graph]
        steps = []
        g = graph
        for node in (9, 10, 11, 12, 13, 14):
            delta = GraphDelta(
                added_edges=[(node, (node + 7) % g.num_nodes)]
            )
            ng = apply_delta(g, delta)
            steps.append((g, ng, delta))
            graphs.append(ng)
            g = ng
        store.put(graph, inside, 0.85, scores)
        violations: list[str] = []
        stop = threading.Event()

        def writer():
            # A degraded-mode router keeps re-putting fresh answers
            # for the *current* graph while updates land.
            while not stop.is_set():
                for gr in graphs:
                    store.put(gr, inside, 0.85, scores)

        def reader():
            while not stop.is_set():
                for gr in graphs:
                    hit = store.lookup(gr, inside, 0.85)
                    if hit is not None and hit.staleness > budget:
                        violations.append(
                            f"served staleness {hit.staleness}"
                        )

        threads = [
            threading.Thread(target=writer),
            threading.Thread(target=reader),
            threading.Thread(target=reader),
        ]
        for thread in threads:
            thread.start()
        try:
            for old, new, delta in steps:
                store.apply_update(old, new, delta=delta)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert violations == []
        # The store survived the churn coherently: every remaining
        # entry is within budget and lookups still function.
        for gr in graphs:
            hit = store.lookup(gr, inside, 0.85)
            assert hit is None or hit.staleness <= budget


@pytest.mark.estimation
class TestComposedCertificate:
    """Solve, then k updates: the served bound still certifies.

    Mirrors the serve path end to end — ``put`` of the exact solve, as
    ``RankingService`` does for every request, then chained
    ``apply_update`` charges with no refresher — and checks the bound
    each request is served with against the measured L1 gap over the
    extended vector (local pages plus Λ) to ``approxrank`` on the
    graph as it stands after each update: the entry's ``staleness``
    for a plain request, the accuracy request's ``error_bound``
    (truncation plus staleness) for a push spec.  The last link is a
    float32 warm refresh, as the service's background refresher runs
    it when float32 is the process default.
    """

    UPDATES = 4
    SPECS = ["exact", "push:r_max=1e-2", "push:r_max=1e-3"]
    SETTINGS = PowerIterationSettings(tolerance=1e-12)
    NODES = np.arange(40, 120, dtype=np.int64)

    def _chain(self, spec, seed):
        """Solve, put, then yield ``(graph, store, request)`` after
        each of the k updates."""
        settings = self.SETTINGS
        graph = random_digraph(400, mean_degree=5.0, seed=seed)
        request = resolve_estimator(spec)
        solved = approxrank(graph, self.NODES, settings)
        store = ScoreStore(registry=MetricsRegistry())
        store.put(graph, self.NODES, settings.damping, solved)
        region = np.arange(0, 200, dtype=np.int64)
        for step in range(self.UPDATES):
            delta = random_region_delta(
                graph, region, added=1, seed=seed * 100 + step
            )
            new_graph = apply_delta(graph, delta)
            store.apply_update(graph, new_graph, delta=delta)
            graph = new_graph
            yield graph, store, request

    def _served_bound(self, request, hit):
        if request is None:
            return hit.staleness
        return request.error_bound(hit.scores, self.SETTINGS, hit.staleness)

    def _gap_to_truth(self, graph, served):
        truth = approxrank(graph, self.NODES, self.SETTINGS)
        return np.abs(served.scores - truth.scores).sum() + abs(
            served.extras["lambda_score"] - truth.extras["lambda_score"]
        )

    @pytest.mark.parametrize("seed", [3, 17, 29])
    @pytest.mark.parametrize("spec", SPECS)
    def test_staleness_bounds_l1_gap_after_every_update(self, spec, seed):
        damping = self.SETTINGS.damping
        for step, (graph, store, request) in enumerate(
            self._chain(spec, seed)
        ):
            hit = store.lookup(graph, self.NODES, damping)
            assert hit is not None, f"evicted after update {step}"
            gap = self._gap_to_truth(graph, hit.scores)
            assert gap <= self._served_bound(request, hit), (
                spec, seed, step,
            )

    @pytest.mark.parametrize("spec", SPECS)
    def test_float32_refresh_keeps_staleness_sound(self, spec):
        """After the k updates, refresh the entry the way
        ``RankingService._refresh_entry_sync`` does with float32 as
        the process default: a cold solve put back fresh.  The entry
        serves unflagged and bit-identical to offline ``approxrank``
        under float32, and the float64 answer stays within its
        certified bound (the accuracy request's, which a plain request
        would be shipped with ``?estimator=push``), read with float32
        active."""
        from repro.core.precompute import ApproxRankPreprocessor
        from repro.pagerank.backends import set_default_backend

        damping = self.SETTINGS.damping
        for seed in (3, 17, 29):
            *__, (graph, store, request) = self._chain(spec, seed)
            set_default_backend("float32")
            try:
                fresh = ApproxRankPreprocessor(graph).rank(
                    self.NODES, self.SETTINGS
                )
                store.put(graph, self.NODES, damping, fresh)
                hit = store.lookup(graph, self.NODES, damping)
                offline = approxrank(graph, self.NODES, self.SETTINGS)
                bound = self._served_bound(
                    request or resolve_estimator("push"), hit
                )
            finally:
                set_default_backend(None)
            assert hit.scores is fresh
            assert hit.stale is False and hit.staleness == 0.0
            assert np.array_equal(hit.scores.scores, offline.scores)
            gap = self._gap_to_truth(graph, hit.scores)
            assert gap <= bound, (spec, seed, gap, bound)


class TestCertificateChecks:
    """``put`` refuses an entry that breaks a certificate condition —
    one bad entry per clause."""

    def _put(self, graph, nodes, scores, staleness=0.0):
        ScoreStore(registry=MetricsRegistry()).put(
            graph, nodes, 0.85, scores, stale=staleness > 0,
            staleness=staleness,
        )

    def _with_scores(self, scores, values, **extras):
        from dataclasses import replace

        return replace(
            scores,
            scores=np.asarray(values, dtype=np.float64),
            extras={**scores.extras, **extras},
        )

    def test_a_valid_entry_is_accepted(self, graph, nodes, scores):
        self._put(graph, nodes, scores, staleness=0.5)

    def test_non_finite_scores_refused(self, graph, nodes, scores):
        values = scores.scores.copy()
        values[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            self._put(graph, nodes, self._with_scores(scores, values))

    def test_negative_score_refused(self, graph, nodes, scores):
        values = scores.scores.copy()
        values[3] = -1e-6
        with pytest.raises(ValueError, match="negative"):
            self._put(graph, nodes, self._with_scores(scores, values))

    def test_mass_above_one_refused(self, graph, nodes, scores):
        # The local scores are fine; Λ pushes the n+1 mass over 1.
        lam = 1.0 - float(scores.scores.sum()) + 1e-6
        bad = self._with_scores(scores, scores.scores, lambda_score=lam)
        with pytest.raises(ValueError, match="mass"):
            self._put(graph, nodes, bad)

    def test_warm_load_skips_an_archive_failing_the_check(
        self, tmp_path, graph, nodes, scores
    ):
        store = ScoreStore(registry=MetricsRegistry())
        store.put(graph, nodes, 0.85, scores)
        store.persist(tmp_path)
        (path,) = tmp_path.glob("entry-*.npz")
        with np.load(path) as archive:
            fields = {name: archive[name] for name in archive.files}
        fields["scores"] = -fields["scores"]
        np.savez(path, **fields)
        fresh = ScoreStore(registry=MetricsRegistry())
        assert fresh.warm_load(tmp_path, graph) == 0
        assert fresh.lookup(graph, nodes, 0.85) is None

    @pytest.mark.parametrize("staleness", [-0.1, float("nan"), np.inf])
    def test_bad_staleness_refused(self, graph, nodes, scores, staleness):
        with pytest.raises(ValueError, match="staleness"):
            self._put(graph, nodes, scores, staleness=staleness)
