"""The online ranking service and its asyncio HTTP front end.

Figure 1 of the paper frames ApproxRank as the ranking engine behind a
*localized search engine*; this module is that box made concrete. Two
layers:

* :class:`RankingService` — the transport-free engine.  It owns the
  global graph, an amortised
  :class:`~repro.core.precompute.ApproxRankPreprocessor` (one global
  pass shared by every query), a :class:`~repro.serve.store.ScoreStore`
  of warm results, and a :class:`~repro.serve.batching.RankBatcher`
  that coalesces cold bursts.  A ``rank`` call resolves as: store hit →
  answer immediately; miss → micro-batch → solve → store → answer.  A
  batch of **one** routes through the exact offline
  ``ApproxRankPreprocessor.rank`` path, so a lone served request is
  bit-identical to :func:`repro.core.approxrank.approxrank`; only
  same-subgraph bursts with distinct dampings take the batched
  multi-column kernel.
* :class:`RankingServer` — a dependency-free asyncio HTTP/1.1 server
  over the :data:`ROUTES` table: ``POST /rank``, ``POST /search``,
  ``POST /semantic-search`` (query→select→rank→dedup, see
  :mod:`repro.semantic`), ``POST /update`` (apply a graph delta),
  ``GET /healthz`` and ``GET /metrics`` (Prometheus text), with
  keep-alive connections and a graceful shutdown that stops
  accepting, drains in-flight requests and flushes the batcher.  The
  shards and the router of :mod:`repro.serve.cluster` are subclasses
  dispatching through the same table.

Answers cross the wire through :mod:`repro.serve.wire`, which keeps
scores bit-identical over HTTP.

:func:`start_background_server` runs a server on a dedicated thread
with its own event loop — the harness tests and the closed-loop
benchmark drive the real socket path through it.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import logging
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable

import numpy as np

from repro.core.precompute import ApproxRankPreprocessor
from repro.core.extended import solve_to_subgraph_scores
from repro.estimation import resolve_estimator
from repro.exceptions import (
    DatasetError,
    DeadlineExceededError,
    EstimationError,
    GraphError,
    ReproError,
    ServeError,
    ServiceOverloadedError,
    SubgraphError,
)
from repro.graph.digraph import CSRGraph
from repro.graph.subgraph import normalize_node_set
from repro.obs.export import to_prometheus_text
from repro.obs.metrics import (
    REGISTRY,
    SECONDS_BUCKETS,
    MetricsRegistry,
)
from repro.pagerank.result import SubgraphScores
from repro.pagerank.solver import PowerIterationSettings
from repro.search.engine import SearchHit, SubgraphSearchEngine
from repro.search.lexicon import SyntheticLexicon
from repro.semantic.metrics import record_semantic_metrics
from repro.semantic.pipeline import (
    SemanticAnswer,
    SemanticPipeline,
    SemanticSelection,
)
from repro.serve.batching import BatchPolicy, RankBatcher
from repro.serve.store import ScoreStore, graph_fingerprint, subgraph_digest
from repro.serve.wire import read_message, ranked_payload, scores_fields
from repro.updates.delta import GraphDelta, apply_delta

__all__ = [
    "RankingService",
    "RankingServer",
    "RankOutcome",
    "Request",
    "Route",
    "ROUTES",
    "BackgroundServer",
    "start_background_server",
]


@dataclass(frozen=True)
class RankOutcome:
    """A served ranking plus its cache and staleness accounting.

    ``stale`` is True when the scores predate a graph update and are
    served under the Theorem-2 bound; ``staleness`` is the entry's
    cumulative charge (0.0 for fresh results).  A non-stale outcome is
    bit-identical to the offline solve on the current graph.
    """

    scores: SubgraphScores
    cache_hit: bool
    stale: bool = False
    staleness: float = 0.0

log = logging.getLogger(__name__)

#: Deadline-propagation header: seconds of budget remaining at send
#: time.  A hop that cannot finish inside it drops the work (503)
#: instead of burning solver time on an answer nobody is waiting for.
DEADLINE_HEADER = "X-Repro-Deadline"

_JSON = {"Content-Type": "application/json"}
_TEXT = {"Content-Type": "text/plain; version=0.0.4; charset=utf-8"}


@dataclass(frozen=True)
class _GraphState:
    """The swappable per-graph trio the service serves from."""

    graph: CSRGraph
    preprocessor: ApproxRankPreprocessor
    fingerprint: str


class RankingService:
    """Transport-free online ranking engine (see module docstring).

    Parameters
    ----------
    graph:
        The global graph to serve subgraph rankings of.
    store:
        Warm score store; a default LRU store is created when omitted.
    policy:
        Micro-batching knobs; defaults to :class:`BatchPolicy`.
    settings:
        Base solver settings; a request's ``damping`` overrides the
        damping field per call.
    lexicon:
        Term assignment for ``/search``.  Built lazily (synthetic,
        seeded) when omitted, and rebuilt after a graph update adds
        pages.
    solver_threads:
        Size of the dedicated solve executor.  One thread is the
        honest default: the solver is CPU-bound, so the batcher's
        coalescing — not thread oversubscription — is the concurrency
        mechanism.
    registry:
        Metrics registry (the process-wide one by default).
    default_estimator:
        Estimator spec applied to requests that do not name one
        (``None`` = exact).  A per-request ``estimator`` always
        overrides it; ``"exact"`` requests take the bit-identical
        batched path regardless of this default.
    semantic_pipeline:
        Pre-built :class:`~repro.semantic.pipeline.SemanticPipeline`
        for ``/semantic-search`` (its graph must be the served
        graph).  Built lazily with default knobs when omitted, and
        rebuilt — reusing the embeddings where the lexicon survives —
        after a graph update.
    """

    def __init__(
        self,
        graph: CSRGraph,
        store: ScoreStore | None = None,
        policy: BatchPolicy | None = None,
        settings: PowerIterationSettings | None = None,
        lexicon: SyntheticLexicon | None = None,
        solver_threads: int = 1,
        registry: MetricsRegistry | None = None,
        default_estimator: str | None = None,
        semantic_pipeline: SemanticPipeline | None = None,
    ):
        self._registry = registry if registry is not None else REGISTRY
        self._settings = (
            settings if settings is not None else PowerIterationSettings()
        )
        self.store = (
            store
            if store is not None
            else ScoreStore(registry=self._registry)
        )
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, int(solver_threads)),
            thread_name_prefix="repro-serve-solve",
        )
        self.batcher = RankBatcher(
            self._solve_group,
            policy=policy,
            executor=self._executor,
            registry=self._registry,
        )
        self._state = _GraphState(
            graph=graph,
            preprocessor=ApproxRankPreprocessor(graph),
            fingerprint=graph_fingerprint(graph),
        )
        self._default_estimator = default_estimator
        if default_estimator is not None:
            # Fail at construction, not first request.
            resolve_estimator(default_estimator)
        self._lexicon = lexicon
        self._lexicon_lock = threading.Lock()
        self._semantic = semantic_pipeline
        if semantic_pipeline is not None:
            if semantic_pipeline.graph is not graph:
                raise DatasetError(
                    "semantic_pipeline was built for a different "
                    "graph"
                )
            if self._lexicon is None:
                # /search and /semantic-search must agree on term
                # assignments.
                self._lexicon = semantic_pipeline.lexicon
        self._semantic_lock = threading.Lock()
        # Selection cache: (fingerprint, query digest) → selected
        # neighborhood.  The query digest is the semantic analogue of
        # the subgraph digest — same digest, same G_l — so repeated
        # queries skip the embed/select stage entirely (the rank
        # stage below it caches in the ScoreStore as usual).
        self._semantic_selections: dict[
            tuple[str, str], SemanticSelection
        ] = {}
        self._update_lock = asyncio.Lock()
        self._refresh_tasks: set[asyncio.Task] = set()
        self._updates_applied = 0
        self._staleness_spent = 0.0
        self._iterations_saved = 0
        self._entries_refreshed = 0

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------

    @property
    def graph(self) -> CSRGraph:
        """The global graph currently served."""
        return self._state.graph

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the graph currently served."""
        return self._state.fingerprint

    @property
    def settings(self) -> PowerIterationSettings:
        """Base solver settings."""
        return self._settings

    def _require_lexicon(self) -> SyntheticLexicon:
        with self._lexicon_lock:
            if self._lexicon is None:
                self._lexicon = SyntheticLexicon(self._state.graph)
            return self._lexicon

    def _require_semantic(self) -> SemanticPipeline:
        """The semantic pipeline for the *current* graph state.

        Rebuilt after a graph swap; the embedding matrix is reused
        when the lexicon survived the update (edge-only deltas keep
        term assignments, so the vectors are still valid).
        """
        state = self._state
        lexicon = self._require_lexicon()
        with self._semantic_lock:
            pipeline = self._semantic
            if (
                pipeline is not None
                and pipeline.graph is state.graph
                and pipeline.lexicon is lexicon
            ):
                return pipeline
            embeddings = None
            if (
                pipeline is not None
                and pipeline.lexicon is lexicon
                and pipeline.embeddings.num_pages
                == state.graph.num_nodes
            ):
                embeddings = pipeline.embeddings
            rebuilt = SemanticPipeline(
                state.graph,
                lexicon,
                embeddings=embeddings,
                dim=(
                    pipeline.embeddings.dim
                    if pipeline is not None
                    else 256
                ),
                embedding_seed=(
                    pipeline.embeddings.seed
                    if pipeline is not None
                    else 0
                ),
                top_m=(
                    pipeline.top_m if pipeline is not None else 20
                ),
                similarity_threshold=(
                    pipeline.similarity_threshold
                    if pipeline is not None
                    else 0.05
                ),
                max_hops=(
                    pipeline.max_hops if pipeline is not None else 1
                ),
                tau=(pipeline.tau if pipeline is not None else 0.9),
                settings=(
                    pipeline.settings
                    if pipeline is not None
                    else self._settings
                ),
                preprocessor=state.preprocessor,
            )
            self._semantic = rebuilt
            self._semantic_selections.clear()
            return rebuilt

    # ------------------------------------------------------------------
    # Solving (runs on the executor thread)
    # ------------------------------------------------------------------

    def _solve_group(
        self,
        group_key: Any,
        local_nodes: np.ndarray,
        dampings: tuple[float, ...],
    ) -> list[SubgraphScores]:
        state = self._state
        if group_key[0] != state.fingerprint:
            # The graph was swapped while this batch sat in the queue;
            # solving against the new operator would silently answer
            # with the wrong graph's scores.
            raise ServeError(
                "graph was updated while the request was queued; retry"
            )
        if len(dampings) == 1:
            # The exact offline path: bit-identical to approxrank().
            settings = replace(self._settings, damping=dampings[0])
            return [state.preprocessor.rank(local_nodes, settings)]
        # Same subgraph, several ε: one extended matrix, one batched
        # multi-column solve — the serving payoff of PR 1's kernel.
        start = time.perf_counter()
        extended = state.preprocessor.extended_graph(local_nodes)
        teleports = np.repeat(
            extended.p_ideal[:, None], len(dampings), axis=1
        )
        outcomes = extended.solve_many(
            teleports,
            self._settings,
            dampings=np.asarray(dampings, dtype=np.float64),
        )
        runtime = time.perf_counter() - start
        return [
            solve_to_subgraph_scores(
                extended,
                method="approxrank",
                total_runtime=runtime,
                solve=outcome,
                extras={
                    "preprocess_seconds": (
                        state.preprocessor.preprocess_seconds
                    ),
                    "batched_columns": len(dampings),
                },
            )
            for outcome in outcomes
        ]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _resolve_damping(self, damping: float | None) -> float:
        if damping is None:
            return self._settings.damping
        value = float(damping)
        # Route validation through the settings dataclass so the
        # accepted range has exactly one definition.
        replace(self._settings, damping=value)
        return value

    async def rank(
        self,
        nodes: Iterable[int],
        damping: float | None = None,
        deadline_seconds: float | None = None,
        estimator: str | None = None,
    ) -> tuple[SubgraphScores, bool]:
        """Scores for one subgraph; returns ``(scores, cache_hit)``."""
        outcome = await self.rank_with_meta(
            nodes, damping, deadline_seconds, estimator=estimator
        )
        return outcome.scores, outcome.cache_hit

    async def rank_with_meta(
        self,
        nodes: Iterable[int],
        damping: float | None = None,
        deadline_seconds: float | None = None,
        estimator: str | None = None,
    ) -> RankOutcome:
        """Scores plus cache/staleness accounting for one subgraph.

        A warm hit on a stale-but-bounded entry is served immediately
        with its staleness charge attached (the store guarantees the
        charge is within budget); a miss solves fresh.

        ``estimator`` opts a request into the sublinear engines (spec
        string, e.g. ``"montecarlo:walks=20000"``); it falls back to
        the service's ``default_estimator``.  Estimated results are
        *never* bit-identical to the offline solve, so they are always
        flagged stale, carry their certified ``error_bound`` as the
        staleness charge, and live in the store under the estimator's
        own variant key — an exact request can never be answered from
        an estimated entry.
        """
        spec = estimator if estimator is not None else (
            self._default_estimator
        )
        if spec is not None:
            engine = resolve_estimator(spec)
            if engine.name != "exact":
                return await self._rank_estimated(
                    engine, nodes, damping, deadline_seconds
                )
        state = self._state
        local = normalize_node_set(state.graph, nodes)
        epsilon = self._resolve_damping(damping)
        hit = self.store.lookup(state.graph, local, epsilon)
        if hit is not None:
            return RankOutcome(
                scores=hit.scores,
                cache_hit=True,
                stale=hit.stale,
                staleness=hit.staleness,
            )
        group_key = (state.fingerprint, subgraph_digest(local))
        scores = await self.batcher.submit(
            group_key, local, epsilon, deadline_seconds
        )
        self.store.put(state.graph, local, epsilon, scores)
        return RankOutcome(scores=scores, cache_hit=False)

    async def _rank_estimated(
        self,
        engine,
        nodes: Iterable[int],
        damping: float | None,
        deadline_seconds: float | None,
    ) -> RankOutcome:
        """The opt-in sublinear path: estimate, certify, cache.

        Estimates bypass the micro-batcher (there is no multi-column
        kernel to amortise) and run on the solver executor.  The
        certified error bound doubles as the entry's staleness charge:
        both it and any later Theorem-2 update charges upper-bound the
        score drift, so the store's budget accounting uniformly caps
        total certified error.
        """
        state = self._state
        local = normalize_node_set(state.graph, nodes)
        epsilon = self._resolve_damping(damping)
        variant = engine.variant
        hit = self.store.lookup(state.graph, local, epsilon, variant)
        if hit is not None:
            return RankOutcome(
                scores=hit.scores,
                cache_hit=True,
                stale=True,
                staleness=hit.staleness,
            )
        settings = replace(self._settings, damping=epsilon)
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(
            self._executor,
            lambda: engine.estimate(
                state.graph, local, settings, state.preprocessor
            ),
        )
        if deadline_seconds is not None:
            try:
                scores = await asyncio.wait_for(
                    asyncio.shield(future), timeout=deadline_seconds
                )
            except asyncio.TimeoutError:
                raise DeadlineExceededError(
                    f"estimate missed its {deadline_seconds:.3f}s "
                    "deadline",
                    deadline_seconds=deadline_seconds,
                )
        else:
            scores = await future
        bound = float(scores.extras.get("error_bound", 0.0))
        self.store.put(
            state.graph,
            local,
            epsilon,
            scores,
            stale=True,
            staleness=bound,
            variant=variant,
        )
        return RankOutcome(
            scores=scores,
            cache_hit=False,
            stale=True,
            staleness=bound,
        )

    async def search(
        self,
        nodes: Iterable[int],
        terms: Iterable[int],
        k: int = 10,
        mode: str = "all",
        damping: float | None = None,
        deadline_seconds: float | None = None,
        estimator: str | None = None,
    ) -> tuple[list[SearchHit], RankOutcome]:
        """Top-``k`` matching pages of a ranked subgraph (Figure 1).

        ``estimator`` selects the ranking engine exactly as in
        :meth:`rank_with_meta` — the answer list is then ordered by
        the estimated scores and the outcome carries the certified
        bound (a bogus spec raises
        :class:`~repro.exceptions.EstimationError`, a 400 at the
        HTTP layer).
        """
        outcome = await self.rank_with_meta(
            nodes, damping, deadline_seconds, estimator=estimator
        )
        engine = SubgraphSearchEngine(
            outcome.scores, self._require_lexicon()
        )
        return engine.search(list(terms), k=k, mode=mode), outcome

    async def semantic_search(
        self,
        terms: Iterable[int],
        k: int = 10,
        estimator: str | None = None,
        damping: float | None = None,
        deadline_seconds: float | None = None,
    ) -> tuple[SemanticAnswer, RankOutcome]:
        """Query→select→rank→dedup over the semantic ``G_l``.

        The selection stage is cached by query digest (same query +
        same embedding config ⇒ same neighborhood, no re-embed); the
        ranking stage goes through :meth:`rank_with_meta`, so it
        honours ``estimator`` (and the service default) and the
        ScoreStore's variant-keyed caching.  The exact path is
        bit-identical to the offline
        :meth:`~repro.semantic.pipeline.SemanticPipeline.run`.
        """
        pipeline = self._require_semantic()
        term_list = [int(t) for t in terms]
        state = self._state
        key = (state.fingerprint, pipeline.query_digest(term_list))
        with self._semantic_lock:
            selection = self._semantic_selections.get(key)
        if selection is None:
            loop = asyncio.get_running_loop()
            selection = await loop.run_in_executor(
                self._executor,
                lambda: pipeline.select(term_list),
            )
            with self._semantic_lock:
                if len(self._semantic_selections) >= 1024:
                    self._semantic_selections.clear()
                self._semantic_selections[key] = selection
        outcome = await self.rank_with_meta(
            selection.nodes,
            damping,
            deadline_seconds,
            estimator=estimator,
        )
        answer = pipeline.finish(
            selection,
            outcome.scores,
            k=k,
            estimator_name=str(
                outcome.scores.extras.get("estimator", "exact")
            ),
        )
        record_semantic_metrics(answer, self._registry)
        return answer, outcome

    async def apply_update(
        self,
        delta: GraphDelta,
        hops: int = 2,
        migrate_unaffected: bool = True,
        refresh: bool = False,
    ):
        """Apply a :class:`GraphDelta` and swap the served graph.

        Runs the rebuild + new global pass off the event loop, then
        atomically swaps the state and migrates affected store entries
        into the stale-but-bounded state (see
        :meth:`ScoreStore.apply_update`): they keep serving — flagged,
        charged against the Theorem-2 budget — while an incremental
        re-rank brings them back.  The refresh is scheduled off-loop
        by default (a background task warm-starts each stale entry
        from its previous score vector); ``refresh=True`` awaits it
        before returning instead.
        """
        async with self._update_lock:
            old_state = self._state
            loop = asyncio.get_running_loop()
            new_graph = await loop.run_in_executor(
                None, apply_delta, old_state.graph, delta
            )
            new_prep = await loop.run_in_executor(
                None, ApproxRankPreprocessor, new_graph
            )
            report = await loop.run_in_executor(
                None,
                lambda: self.store.apply_update(
                    old_state.graph,
                    new_graph,
                    delta=delta,
                    hops=hops,
                    migrate_unaffected=migrate_unaffected,
                ),
            )
            with self._lexicon_lock:
                if new_graph.num_nodes != old_state.graph.num_nodes:
                    self._lexicon = None
            new_state = _GraphState(
                graph=new_graph,
                preprocessor=new_prep,
                fingerprint=graph_fingerprint(new_graph),
            )
            self._state = new_state
            self._updates_applied += 1
            self._staleness_spent += report.staleness_charge
        if report.stale_entries:
            if refresh:
                await self._refresh_entries(
                    new_state, report.stale_entries, mode="eager"
                )
                report = replace(
                    report, refreshed=len(report.stale_entries)
                )
            else:
                task = asyncio.create_task(
                    self._refresh_entries(
                        new_state,
                        report.stale_entries,
                        mode="background",
                    )
                )
                self._refresh_tasks.add(task)
                task.add_done_callback(self._refresh_tasks.discard)
        return report

    # ------------------------------------------------------------------
    # Incremental refresh (stale-but-bounded entries)
    # ------------------------------------------------------------------

    def _refresh_entry_sync(
        self,
        state: _GraphState,
        nodes: np.ndarray,
        damping: float,
    ) -> int:
        """Re-rank one stale entry, warm-starting from its old vector.

        Returns the iterations the warm start saved.  The refreshed
        entry is re-inserted still flagged stale, carrying the solver
        truncation bound ``(residual + tolerance)/(1−ε)`` — it is
        within that of a cold solve but not bit-identical, and the
        serving contract only unflags bit-identical results.  A cold
        refresh (no warm vector available) inserts fresh.
        """
        hit = self.store.lookup(state.graph, nodes, damping)
        initial = None
        if hit is not None:
            old = hit.scores
            lam = old.extras.get("lambda_score")
            if lam is None:
                lam = max(1.0 - float(old.scores.sum()), 0.0)
            candidate = np.concatenate(
                [np.asarray(old.scores, dtype=np.float64), [float(lam)]]
            )
            if candidate.sum() > 0 and np.all(candidate >= 0):
                initial = candidate
        settings = replace(
            self._settings,
            damping=damping,
            safe_restart=initial is not None,
        )
        fresh = state.preprocessor.rank(
            nodes, settings, initial=initial
        )
        if initial is not None:
            remaining = (fresh.residual + settings.tolerance) / (
                1.0 - damping
            )
            self.store.put(
                state.graph,
                np.asarray(fresh.local_nodes),
                damping,
                fresh,
                stale=True,
                staleness=remaining,
            )
        else:
            self.store.put(
                state.graph,
                np.asarray(fresh.local_nodes),
                damping,
                fresh,
            )
        return int(fresh.extras.get("iterations_saved", 0))

    async def _refresh_entries(
        self,
        state: _GraphState,
        entries,
        mode: str,
    ) -> None:
        loop = asyncio.get_running_loop()
        for nodes, damping in entries:
            if state is not self._state:
                # The graph moved on while this refresh waited; the
                # next update's work list supersedes this one.
                return
            saved = await loop.run_in_executor(
                None,
                self._refresh_entry_sync,
                state,
                np.asarray(nodes, dtype=np.int64),
                float(damping),
            )
            self._iterations_saved += saved
            self._entries_refreshed += 1
            self._registry.counter(
                "repro_update_background_refreshes_total",
                "Stale store entries re-ranked after a graph update, "
                "by scheduling mode.",
                mode=mode,
            ).inc()

    async def close(self) -> None:
        """Drain refreshes and the batcher, release the executor."""
        if self._refresh_tasks:
            await asyncio.gather(
                *tuple(self._refresh_tasks), return_exceptions=True
            )
        await self.batcher.drain()
        self._executor.shutdown(wait=True)

    def health(self) -> dict:
        """The ``/healthz`` payload."""
        from repro.pagerank.backends import backend_info

        state = self._state
        store_stats = self.store.stats()
        return {
            "status": "ok",
            "graph_nodes": state.graph.num_nodes,
            "graph_edges": state.graph.num_edges,
            "graph_fingerprint": state.fingerprint[:16],
            "store": store_stats,
            "batching": self.batcher.policy.enabled,
            "pending": self.batcher.pending,
            "solver_backend": backend_info(),
            "default_estimator": self._default_estimator or "exact",
            "updates": {
                "applied": self._updates_applied,
                "staleness_spent": self._staleness_spent,
                "staleness_budget": self.store.staleness_budget,
                "stale_entries": store_stats.get("stale_entries", 0),
                "iterations_saved": self._iterations_saved,
                "entries_refreshed": self._entries_refreshed,
                "pending_refreshes": len(self._refresh_tasks),
            },
        }


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One HTTP request as a route handler sees it.

    ``body`` is the parsed JSON object and ``raw_body`` its bytes (the
    router forwards those verbatim); ``query`` is the raw query
    string, passed through dispatch so a forwarding hop can put it
    back on the target.
    """

    path: str
    query: str
    headers: dict[str, str]
    raw_body: bytes
    body: dict

    @property
    def estimator(self) -> str | None:
        """The opt-in estimator spec: ``?estimator=`` wins over the
        body field.

        The query splits on ``&`` and the *first* ``=`` only, so specs
        — which embed ``=`` and ``,`` in their value — survive intact.
        """
        for part in self.query.split("&"):
            key, sep, value = part.partition("=")
            if sep and key == "estimator":
                return urllib.parse.unquote(value)
        return self.body.get("estimator")

    @property
    def deadline(self) -> float | None:
        """The tighter of the body deadline and the propagated header.

        The router stamps :data:`DEADLINE_HEADER` with the seconds of
        budget remaining when it forwarded the request; queued work
        that cannot finish inside the *end-to-end* budget is then
        dropped by the batcher without spending solver time.
        """
        body_deadline = self.body.get("deadline_seconds")
        header_value = self.headers.get(DEADLINE_HEADER.lower())
        header_deadline: float | None = None
        if header_value is not None:
            try:
                header_deadline = float(header_value)
            except ValueError:
                raise ValueError(
                    f"malformed {DEADLINE_HEADER} header: "
                    f"{header_value!r}"
                )
        if body_deadline is None:
            return header_deadline
        if header_deadline is None:
            return float(body_deadline)
        return min(float(body_deadline), header_deadline)

    def nodes(self) -> list[int]:
        nodes = self.body.get("nodes")
        if not isinstance(nodes, list) or not nodes:
            raise SubgraphError(
                "'nodes' must be a non-empty list of page ids"
            )
        return [int(node) for node in nodes]

    def terms(self) -> list[int]:
        terms = self.body.get("terms")
        if not isinstance(terms, list) or not terms:
            raise DatasetError(
                "'terms' must be a non-empty list of term ids"
            )
        return [int(term) for term in terms]


def _parse_json(body: bytes) -> dict:
    try:
        payload = json.loads(body.decode("utf-8") or "{}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"request body is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    return payload


def _error(exc: Exception, prefix: str = "") -> dict:
    return {"error": f"{prefix}{exc}", "kind": type(exc).__name__}


def _subgraph_key(request: Request) -> str:
    """Placement of a node-set query: its subgraph digest, so a hot
    subgraph always warms the same shard's store."""
    return subgraph_digest(request.nodes())


def _terms_key(request: Request) -> str:
    """Placement of a semantic query: a digest of its term set.

    The full :func:`~repro.semantic.pipeline.semantic_query_digest`
    needs the replica's embedding configuration, but placement only
    needs *consistency*: same terms, same shard, warm selection cache.
    """
    canonical = json.dumps(sorted(set(request.terms())))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


@dataclass(frozen=True)
class Route:
    """One endpoint: its method, the server method answering it, and
    — for a *ranked* route — its placement key.

    ``handler`` names a :class:`RankingServer` method so the router
    and the shards override behaviour by overriding that method.  A
    route is ranked exactly when it has a placement function: the
    router forwards it to the shard the key hashes to, shards arm
    their fault sites on it, and its answer carries the contract
    fields of :func:`~repro.serve.wire.ranked_payload`.
    """

    method: str
    handler: str
    placement: Callable[[Request], str] | None = None

    @property
    def ranked(self) -> bool:
        return self.placement is not None


#: Every endpoint, declared once for the server, the shards and the
#: router.  The keys are also the metrics ``endpoint`` labels; any
#: other path is bucketed as "unknown" so a scan cannot explode
#: cardinality.
ROUTES: dict[str, Route] = {
    "/rank": Route("POST", "_rank", _subgraph_key),
    "/search": Route("POST", "_search", _subgraph_key),
    "/semantic-search": Route("POST", "_semantic_search", _terms_key),
    "/healthz": Route("GET", "_healthz"),
    "/metrics": Route("GET", "_metrics"),
    "/update": Route("POST", "_update"),
}


class RankingServer:
    """Asyncio HTTP/1.1 front end for a :class:`RankingService`.

    Parameters
    ----------
    service:
        The engine to serve.
    host / port:
        Bind address; port 0 picks an ephemeral port (tests).
    drain_timeout:
        Grace period for in-flight requests at shutdown; connections
        still busy afterwards are cancelled.
    registry:
        Metrics registry for request counters and latency histograms.
    """

    def __init__(
        self,
        service: RankingService,
        host: str = "127.0.0.1",
        port: int = 0,
        drain_timeout: float = 5.0,
        registry: MetricsRegistry | None = None,
    ):
        self.service = service
        self._host = host
        self._port = port
        self._drain_timeout = drain_timeout
        self._registry = registry if registry is not None else REGISTRY
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._closing = False

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); valid after :meth:`start`."""
        if self._server is None:
            raise ServeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound address."""
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        return self.address

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` (or cancellation)."""
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, then close."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._connections:
            done, pending = await asyncio.wait(
                self._connections, timeout=self._drain_timeout
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        await self.service.close()

    async def run(self) -> None:
        """Start and serve until cancelled; then shut down gracefully."""
        await self.start()
        try:
            await self.serve_forever()
        finally:
            await self.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                keep_alive = await self._handle_one_request(
                    reader, writer
                )
                if not keep_alive or self._closing:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        except asyncio.CancelledError:
            # Shutdown (or a simulated shard crash) cancelled this
            # handler; finish quietly — re-raising from a start_server
            # handler only feeds asyncio's noisy connection_made
            # callback, and the socket is closed below either way.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_one_request(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        try:
            message = await read_message(reader)
        except ValueError as exc:
            # The head cannot be framed, so neither can the next
            # request on this connection: answer, then close.
            await self._respond(
                writer, 400, {"error": str(exc)}, keep_alive=False
            )
            return False
        if message is None:
            return False
        request_line, headers, body = message
        try:
            method, target, version = request_line.split(" ", 2)
        except ValueError:
            await self._respond(
                writer, 400, {"error": "malformed request line"},
                keep_alive=False,
            )
            return False

        keep_alive = (
            headers.get("connection", "").lower() != "close"
            and version != "HTTP/1.0"
            and not self._closing
        )

        started = time.perf_counter()
        path, _, query = target.partition("?")
        status, payload = await self._dispatch(
            method, path, query, headers, body
        )
        endpoint = path if path in ROUTES else "unknown"
        elapsed = time.perf_counter() - started
        self._registry.counter(
            "repro_serve_requests_total",
            "HTTP requests served, by endpoint and status.",
            endpoint=endpoint,
            status=str(status),
        ).inc()
        self._registry.histogram(
            "repro_serve_request_seconds",
            "End-to-end request handling latency.",
            buckets=SECONDS_BUCKETS,
            endpoint=endpoint,
        ).observe(elapsed)
        await self._respond(writer, status, payload, keep_alive=keep_alive)
        return keep_alive

    async def _dispatch(
        self,
        method: str,
        path: str,
        query: str,
        headers: dict[str, str],
        body: bytes,
    ) -> tuple[int, Any]:
        """Route one request; returns ``(status, payload)``.

        This is the one place an exception becomes a status: overload
        and missed deadlines are 503s, invalid input is a 400, and
        anything else is a 500.
        """
        route = ROUTES.get(path)
        if route is None:
            return 404, {"error": f"unknown path {path}"}
        if method != route.method:
            return 405, {"error": f"use {route.method}"}
        try:
            request = Request(
                path, query, headers, body, _parse_json(body)
            )
            return await self._answer(route, request)
        except ConnectionResetError:
            # A shard's injected connection drop: no status at all.
            raise
        except (ServiceOverloadedError, DeadlineExceededError) as exc:
            return 503, _error(exc)
        except (
            SubgraphError,
            GraphError,
            DatasetError,
            EstimationError,
            ValueError,
        ) as exc:
            return 400, _error(exc)
        except ReproError as exc:
            return 500, _error(exc)
        except Exception as exc:  # noqa: BLE001 — last-resort 500
            return 500, _error(exc, "internal error: ")

    async def _answer(self, route: Route, request: Request):
        """Run the route's handler; the cluster servers hook in here."""
        return await getattr(self, route.handler)(request)

    def _ranked(self, fields: dict, outcome: RankOutcome):
        return 200, ranked_payload(
            fields, outcome, self.service.fingerprint[:16]
        )

    # ------------------------------------------------------------------
    # Route handlers (named by ROUTES)
    # ------------------------------------------------------------------

    async def _rank(self, request: Request):
        outcome = await self.service.rank_with_meta(
            request.nodes(),
            damping=request.body.get("damping"),
            deadline_seconds=request.deadline,
            estimator=request.estimator,
        )
        return self._ranked(scores_fields(outcome.scores), outcome)

    async def _search(self, request: Request):
        terms = request.terms()
        hits, outcome = await self.service.search(
            request.nodes(),
            terms=terms,
            k=int(request.body.get("k", 10)),
            mode=str(request.body.get("mode", "all")),
            damping=request.body.get("damping"),
            deadline_seconds=request.deadline,
            estimator=request.estimator,
        )
        return self._ranked({
            "hits": [
                {"page": hit.page, "score": hit.score, "rank": hit.rank}
                for hit in hits
            ],
        }, outcome)

    async def _semantic_search(self, request: Request):
        answer, outcome = await self.service.semantic_search(
            terms=request.terms(),
            k=int(request.body.get("k", 10)),
            estimator=request.estimator,
            damping=request.body.get("damping"),
            deadline_seconds=request.deadline,
        )
        # The answer's own certificate fields are present on the exact
        # path too, as in the offline SemanticPipeline.run answer.
        return self._ranked({
            "hits": [
                {
                    "page": hit.page,
                    "score": hit.score,
                    "rank": hit.rank,
                    "similarity": hit.similarity,
                    "cluster_size": hit.cluster_size,
                    "merged_score": hit.merged_score,
                }
                for hit in answer.hits
            ],
            "nodes": answer.local_nodes.tolist(),
            "query_digest": answer.query_digest,
            "estimator": answer.estimator,
            "estimated": answer.estimated,
            "error_bound": answer.error_bound,
            "neighborhood_size": answer.neighborhood_size,
            "candidates_pruned": answer.candidates_pruned,
            "dedup_merges": answer.dedup_merges,
            "clusters": answer.extras.get("clusters", []),
        }, outcome)

    async def _healthz(self, request: Request):
        return 200, self.service.health()

    async def _metrics(self, request: Request):
        return 200, to_prometheus_text(self._registry.snapshot())

    async def _update(self, request: Request):
        """Apply a wire-shipped :class:`GraphDelta` and swap the graph."""
        delta = GraphDelta.from_payload(
            request.body.get("delta", request.body)
        )
        report = await self.service.apply_update(delta)
        return 200, {
            "graph_fingerprint": self.service.fingerprint[:16],
            "graph_nodes": self.service.graph.num_nodes,
            "graph_edges": self.service.graph.num_edges,
            "stale_entries": report.stale,
            "evicted": report.evicted,
            "staleness_charge": report.staleness_charge,
        }

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        keep_alive: bool,
    ) -> None:
        reasons = {
            200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 500: "Internal Server Error",
            503: "Service Unavailable",
        }
        if isinstance(payload, str):
            headers = dict(_TEXT)
            body = payload.encode("utf-8")
        else:
            headers = dict(_JSON)
            body = (json.dumps(payload) + "\n").encode("utf-8")
        headers["Content-Length"] = str(len(body))
        headers["Connection"] = "keep-alive" if keep_alive else "close"
        if status == 503:
            headers["Retry-After"] = "1"
        head = [f"HTTP/1.1 {status} {reasons.get(status, 'Error')}"]
        head += [f"{name}: {value}" for name, value in headers.items()]
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        )
        await writer.drain()


# ----------------------------------------------------------------------
# Background-thread harness (tests / benchmark / CLI-adjacent tooling)
# ----------------------------------------------------------------------


class BackgroundServer:
    """A :class:`RankingServer` running on its own thread + event loop.

    The thread owns the loop; :meth:`stop` requests a graceful
    shutdown from outside and joins the thread.  Use as a context
    manager::

        with start_background_server(service) as handle:
            client = RankingClient(*handle.address)
            ...
    """

    def __init__(self, server: RankingServer):
        self._server = server
        self._address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._thread_main,
            name="repro-serve-http",
            daemon=True,
        )

    @property
    def address(self) -> tuple[str, int]:
        if self._address is None:
            raise ServeError("background server is not running")
        return self._address

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The thread's event loop; valid while running.  Lets a
        manager schedule work onto the server (e.g. a simulated crash)
        via ``call_soon_threadsafe``."""
        if self._loop is None:
            raise ServeError("background server is not running")
        return self._loop

    def _thread_main(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            self._address = await self._server.start()
        except BaseException as exc:  # surface bind errors to starter
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        serving = asyncio.ensure_future(self._server.serve_forever())
        await self._stop_event.wait()
        await self._server.stop()
        serving.cancel()
        await asyncio.gather(serving, return_exceptions=True)

    def start(self) -> "BackgroundServer":
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def stop(self, timeout: float = 10.0) -> bool:
        """Request shutdown and join the server thread.

        Returns ``True`` when the thread exited within ``timeout``.  A
        thread still alive afterwards is a leak — the event loop is
        wedged (a hung solve, an undrained connection) — and is
        reported loudly on the ``repro.serve`` logger instead of being
        ignored; the daemon flag keeps it from blocking interpreter
        exit, but every result it might still write is untrustworthy.
        """
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout)
        if self._thread.is_alive():
            log.warning(
                "background server thread %r failed to stop within "
                "%.1fs and is leaking (event loop wedged?)",
                self._thread.name,
                timeout,
            )
            return False
        return True

    def __enter__(self) -> "BackgroundServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_background_server(
    service: RankingService,
    host: str = "127.0.0.1",
    port: int = 0,
    registry: MetricsRegistry | None = None,
) -> BackgroundServer:
    """Boot a server for ``service`` on a daemon thread; returns the
    running handle (its ``address`` carries the ephemeral port)."""
    server = RankingServer(
        service, host=host, port=port, registry=registry
    )
    return BackgroundServer(server).start()
