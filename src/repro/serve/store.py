"""The score store: warm ranking results keyed by graph + subgraph.

An online ranking service answers most queries for a handful of hot
subgraphs; recomputing ApproxRank on every request would waste the
paper's own amortisation result (§IV-B).  The :class:`ScoreStore`
keeps solved :class:`~repro.pagerank.result.SubgraphScores` warm,
keyed by

* the **graph fingerprint** — a content hash of the CSR arrays, so two
  structurally identical graphs share entries and a rebuilt
  (post-update) graph automatically misses;
* the **subgraph digest** — a hash of the sorted local node ids;
* the **damping factor** — ε changes the fixed point, so it is part of
  the identity of a score vector.

Every entry is an exact solve; an accuracy request
(``?estimator=push:r_max=x``) shares entries with plain requests.
:meth:`ScoreStore.put` checks each entry's certificate conditions at
the door: finite non-negative scores, at most unit mass over the n+1
extended vector, and a finite non-negative staleness charge.

Freshness is governed three ways:

* **LRU capacity** — least-recently-used entries fall out first;
* **TTL expiry** — entries older than ``ttl_seconds`` are dropped at
  read time (the store never serves a result older than its TTL);
* **update-driven staleness accounting** — :meth:`ScoreStore.apply_update`
  consumes a :class:`~repro.updates.delta.GraphDelta`'s affected
  region and migrates every surviving entry into a *stale-but-bounded*
  state instead of evicting it: the entry keeps serving immediately
  (flagged, with its cumulative staleness charge attached) while the
  serving layer re-ranks it cold in the background and puts it back
  fresh.  The charge per update is the Theorem-2 bound
  ``ε/(1−ε)·‖ΔE‖₁`` made computable through Ng et al.'s perturbation
  bound (see :func:`repro.updates.rerank.staleness_charge_bound`);
  the moment an entry's cumulative charge exceeds the store's
  ``staleness_budget`` it is evicted — an over-budget entry is
  *never* served.

Entries persist to ``.npz`` files (one per entry) so a restarted
server can warm-load yesterday's scores for the same graph without a
single solve.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from repro.graph.digraph import CSRGraph
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.pagerank.backends import default_backend
from repro.pagerank.result import SubgraphScores
from repro.updates.affected import forward_halo, update_seeds
from repro.updates.delta import GraphDelta

__all__ = [
    "DEFAULT_STALENESS_BUDGET",
    "ScoreStore",
    "StoreEntry",
    "StoreHit",
    "StoreUpdateReport",
    "graph_fingerprint",
    "subgraph_digest",
]

#: Default Theorem-2 staleness budget (L1 units of score mass): the
#: maximum cumulative ``ε/(1−ε)·‖ΔE‖₁`` charge an entry may carry and
#: still be served.  The charge is a *worst-case certificate* — Ng et
#: al.'s perturbation bound amplified by Theorem 2 carries an
#: ``(ε/(1−ε))²`` factor (~64x the changed score mass at ε = 0.85) —
#: so the budget is calibrated to the certificate's scale, not to the
#: (orders-of-magnitude smaller) typical error.  1.0 is half the L1
#: diameter of probability distributions: one small-churn update (a
#: page changed on a ~100-node graph certifies at ≈0.5) survives
#: stale-but-bounded, the second evicts and forces a re-solve.
#: Services with tighter SLOs pass their own budget.
DEFAULT_STALENESS_BUDGET = 1.0

#: Fingerprints are content hashes; computing one scans every CSR
#: array, so memoise per graph object (CSRGraph is immutable).
_FINGERPRINTS: "weakref.WeakKeyDictionary[CSRGraph, str]" = (
    weakref.WeakKeyDictionary()
)


def graph_fingerprint(graph: CSRGraph) -> str:
    """Content hash of a graph's CSR arrays (hex, stable across runs).

    Two graphs with identical structure and weights share a
    fingerprint even when they are distinct objects (e.g. one loaded
    from npz and one built in memory), which is what lets a restarted
    server warm-load a persisted store.
    """
    cached = _FINGERPRINTS.get(graph)
    if cached is not None:
        return cached
    adj = graph.adjacency
    digest = hashlib.sha256()
    digest.update(np.int64(adj.shape[0]).tobytes())
    for array in (adj.indptr, adj.indices, adj.data):
        digest.update(np.ascontiguousarray(array).tobytes())
    fingerprint = digest.hexdigest()
    _FINGERPRINTS[graph] = fingerprint
    return fingerprint


def subgraph_digest(local_nodes: Iterable[int]) -> str:
    """Hex digest identifying a local node set (order-insensitive).

    The digest is the sha256 of the sorted, deduplicated int64 ids.  A
    strictly increasing array — what
    :func:`~repro.graph.subgraph.normalize_node_set` returns — is
    already in that form and is hashed without re-sorting.
    """
    if isinstance(local_nodes, np.ndarray):
        nodes = local_nodes.astype(np.int64, copy=False).ravel()
    else:
        nodes = np.asarray(list(local_nodes), dtype=np.int64).ravel()
    if not np.all(nodes[1:] > nodes[:-1]):
        nodes = np.unique(nodes)
    return hashlib.sha256(
        np.ascontiguousarray(nodes).tobytes()
    ).hexdigest()


def _damping_token(damping: float) -> str:
    # repr of a float is its shortest round-trip form: exact identity.
    return repr(float(damping))


def _json_default(value):
    # Extras hold numpy scalars (and occasionally small arrays, e.g.
    # SC expansion sizes); coerce both so json round-trips them as
    # plain Python numbers/lists.
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(
        f"extras value of type {type(value).__name__} is not "
        "JSON-serialisable"
    )


def _encode_extras(extras) -> str:
    return json.dumps(dict(extras), default=_json_default, sort_keys=True)


#: Float slack on the unit-mass condition of the n+1 vector.
_MASS_SLACK = 1e-9


def _check_certificate(scores: SubgraphScores, staleness: float) -> None:
    """Reject an entry whose scores or charge cannot be certified.

    The scores must be finite and non-negative with total mass — the
    local pages plus Λ — at most ``1 + _MASS_SLACK``; the staleness
    charge must be finite and non-negative.  Every bound the store
    serves assumes these, so a violation raises :class:`ValueError`
    at the door instead of being served.  While float32 is the active
    precision the mass may also exceed 1 by the float32 roundoff of
    the normalisation, one float32 epsilon per entry.
    """
    values = np.asarray(scores.scores)
    if not np.all(np.isfinite(values)):
        raise ValueError("store entry has non-finite scores")
    if values.size and values.min() < 0.0:
        raise ValueError(
            f"store entry has a negative score {values.min():.3g}"
        )
    mass = float(values.sum()) + float(
        scores.extras.get("lambda_score", 0.0)
    )
    slack = _MASS_SLACK
    if default_backend().dtype == np.float32:
        slack += (values.size + 1) * float(np.finfo(np.float32).eps)
    if not mass <= 1.0 + slack:
        raise ValueError(
            f"store entry carries mass {mass!r} over the n+1 vector, "
            f"above 1 + {slack:.3g}"
        )
    if not (np.isfinite(staleness) and staleness >= 0.0):
        raise ValueError(
            f"store entry staleness must be finite and >= 0, got "
            f"{staleness!r}"
        )


@dataclass
class StoreEntry:
    """One resident entry.

    ``fragment`` is the entry's encoded ``/rank`` answer fields
    (:func:`repro.serve.wire.rank_body` builds it on the first answer
    that reads the entry).  It lives and dies with the entry: an
    update's re-keying keeps it, because the scores do not change,
    while a put always starts a new entry without one.
    """

    scores: SubgraphScores
    fingerprint: str
    digest: str
    damping: float
    inserted_at: float
    stale: bool = False
    staleness: float = 0.0
    fragment: bytes | None = field(default=None, repr=False)


@dataclass(frozen=True)
class StoreHit:
    """One served store entry plus its staleness accounting.

    ``stale`` is True when the entry predates a graph update and is
    being served under the Theorem-2 bound; ``staleness`` is its
    cumulative charge (0.0 for fresh entries).  An entry whose charge
    exceeds the store's budget is never returned.
    """

    scores: SubgraphScores
    stale: bool = False
    staleness: float = 0.0
    #: The entry served, which holds its encoded ``/rank`` fragment.
    entry: StoreEntry | None = field(
        default=None, repr=False, compare=False
    )


@dataclass(frozen=True)
class StoreUpdateReport:
    """What :meth:`ScoreStore.apply_update` did to the store.

    Attributes
    ----------
    region:
        The affected region of the update (changed pages + halo).
    evicted:
        Entries dropped because they went over the staleness budget.
    migrated:
        Entries whose subgraph is disjoint from the region, rekeyed to
        the new graph's fingerprint (charged, but not queued for
        refresh).
    stale:
        Region-intersecting entries migrated into the stale-but-
        bounded state (served flagged until refreshed).
    staleness_charge:
        The Theorem-2 charge this update added to every surviving
        entry (at the store's reference damping of each entry; the
        recorded value uses the entry-specific dampings, so this field
        reports the maximum across entries, 0.0 when none survived).
    stale_entries:
        ``(local_nodes, damping)`` of every entry now in the stale
        state — the work list a background refresher should re-rank.
    """

    region: np.ndarray
    evicted: int
    migrated: int
    stale: int = 0
    staleness_charge: float = 0.0
    stale_entries: tuple = ()


class ScoreStore:
    """LRU + TTL cache of solved subgraph scores (see module docs).

    Parameters
    ----------
    capacity:
        Maximum number of entries; the least recently *used* entry is
        evicted when a put would exceed it.
    ttl_seconds:
        Age limit for served entries; ``None`` disables expiry.  Age
        is measured with ``clock`` (monotonic by default).
    clock:
        Injectable time source, so tests can expire entries without
        sleeping.
    registry:
        Metrics registry for hit/miss/eviction counters (the
        process-wide one by default).
    staleness_budget:
        Maximum cumulative Theorem-2 staleness charge an entry may
        carry and still be served; an entry crossing it is evicted at
        charge time (and double-checked at lookup time, so a stale
        read can never slip past the bound).
    """

    def __init__(
        self,
        capacity: int = 128,
        ttl_seconds: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        registry: MetricsRegistry | None = None,
        staleness_budget: float = DEFAULT_STALENESS_BUDGET,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(
                f"ttl_seconds must be positive or None, got {ttl_seconds}"
            )
        if staleness_budget <= 0:
            raise ValueError(
                f"staleness_budget must be positive, got {staleness_budget}"
            )
        self._capacity = int(capacity)
        self._ttl = ttl_seconds
        self._clock = clock
        self._registry = registry if registry is not None else REGISTRY
        self._budget = float(staleness_budget)
        self._lock = threading.RLock()
        self._entries: "OrderedDict[tuple[str, str, str], StoreEntry]" = (
            OrderedDict()
        )

    @property
    def staleness_budget(self) -> float:
        """The Theorem-2 budget entries are charged against."""
        return self._budget

    # ------------------------------------------------------------------
    # Metrics plumbing
    # ------------------------------------------------------------------

    def _count_hit(self) -> None:
        self._registry.counter(
            "repro_serve_store_hits_total",
            "Score-store lookups answered from a warm entry.",
        ).inc()

    def _count_miss(self) -> None:
        self._registry.counter(
            "repro_serve_store_misses_total",
            "Score-store lookups that required a solve.",
        ).inc()

    def _count_eviction(self, reason: str, amount: int = 1) -> None:
        if amount:
            self._registry.counter(
                "repro_serve_store_evictions_total",
                "Score-store entries dropped, by reason.",
                reason=reason,
            ).inc(amount)

    def _set_size_gauge(self) -> None:
        self._registry.gauge(
            "repro_serve_store_entries",
            "Score-store entries currently resident.",
        ).set(len(self._entries))
        self._registry.gauge(
            "repro_update_stale_entries",
            "Store entries currently served in the stale-but-bounded "
            "state.",
        ).set(
            sum(1 for entry in self._entries.values() if entry.stale)
        )

    def _count_staleness(self, amount: float) -> None:
        if amount > 0:
            self._registry.counter(
                "repro_update_staleness_spent_total",
                "Cumulative Theorem-2 staleness charge applied to "
                "store entries (L1 score-mass units).",
            ).inc(amount)
        self._registry.gauge(
            "repro_update_staleness_budget",
            "Per-entry Theorem-2 staleness budget of the score store.",
        ).set(self._budget)

    # ------------------------------------------------------------------
    # Core cache operations
    # ------------------------------------------------------------------

    @staticmethod
    def _key(
        fingerprint: str,
        local_nodes: np.ndarray,
        damping: float,
        digest: str | None = None,
    ) -> tuple[str, str, str]:
        return (
            fingerprint,
            digest if digest is not None else subgraph_digest(local_nodes),
            _damping_token(damping),
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(
        self,
        graph: CSRGraph,
        local_nodes: np.ndarray,
        damping: float,
    ) -> SubgraphScores | None:
        """The warm entry for this (graph, subgraph, ε), or ``None``.

        Convenience wrapper over :meth:`lookup` for callers that do
        not care about staleness accounting.
        """
        hit = self.lookup(graph, local_nodes, damping)
        return None if hit is None else hit.scores

    def lookup(
        self,
        graph: CSRGraph,
        local_nodes: np.ndarray,
        damping: float,
        digest: str | None = None,
    ) -> StoreHit | None:
        """The warm entry plus staleness accounting, or ``None``.

        A hit refreshes the entry's LRU position.  An entry older than
        the TTL, or one whose cumulative staleness charge exceeds the
        budget, is evicted and reported as a miss — the lookup-time
        budget check is the last line of defence ensuring an
        over-budget entry is *never* served, whatever path charged it.
        ``digest`` is ``subgraph_digest(local_nodes)`` when the caller
        already has it.
        """
        key = self._key(
            graph_fingerprint(graph), local_nodes, damping, digest
        )
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._count_miss()
                return None
            if (
                self._ttl is not None
                and self._clock() - entry.inserted_at > self._ttl
            ):
                del self._entries[key]
                self._count_eviction("ttl")
                self._count_miss()
                self._set_size_gauge()
                return None
            if entry.staleness > self._budget:
                del self._entries[key]
                self._count_eviction("staleness")
                self._count_miss()
                self._set_size_gauge()
                return None
            self._entries.move_to_end(key)
            self._count_hit()
            return StoreHit(
                scores=entry.scores,
                stale=entry.stale,
                staleness=entry.staleness,
                entry=entry,
            )

    def put(
        self,
        graph: CSRGraph,
        local_nodes: np.ndarray,
        damping: float,
        scores: SubgraphScores,
        stale: bool = False,
        staleness: float = 0.0,
        digest: str | None = None,
    ) -> StoreEntry:
        """Insert (or refresh) an entry, evicting LRU beyond capacity.

        A default put inserts a fresh, charge-free entry: the caller
        vouches that ``scores`` are bit-identical to the offline
        solve on ``graph``.  ``stale`` / ``staleness`` restore a
        flagged entry with its cumulative charge: a persisted one
        :meth:`warm_load` reads back, or a stale shard answer the
        cluster router keeps for degraded reads.  ``digest`` is as in
        :meth:`lookup`.  Returns the new entry.  Raises
        :class:`ValueError` when the entry fails a certificate check
        (see module docs).
        """
        _check_certificate(scores, staleness)
        fingerprint = graph_fingerprint(graph)
        key = self._key(fingerprint, local_nodes, damping, digest)
        entry = StoreEntry(
            scores=scores,
            fingerprint=fingerprint,
            digest=key[1],
            damping=float(damping),
            inserted_at=self._clock(),
            stale=bool(stale),
            staleness=float(staleness),
        )
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._count_eviction("capacity")
            self._set_size_gauge()
        return entry

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._count_eviction("invalidated", dropped)
            self._set_size_gauge()
            return dropped

    def stats(self) -> dict:
        """Current size/limits (counters live in the registry)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self._capacity,
                "ttl_seconds": self._ttl,
                "stale_entries": sum(
                    1
                    for entry in self._entries.values()
                    if entry.stale
                ),
                "staleness_budget": self._budget,
            }

    # ------------------------------------------------------------------
    # Update-driven invalidation
    # ------------------------------------------------------------------

    def apply_update(
        self,
        old_graph: CSRGraph,
        new_graph: CSRGraph,
        delta: GraphDelta | None = None,
        hops: int = 2,
        old_scores: np.ndarray | None = None,
    ) -> StoreUpdateReport:
        """Absorb a graph update: charge entries and migrate them stale.

        Every surviving entry of ``old_graph`` is rekeyed to
        ``new_graph``'s fingerprint in the *stale-but-bounded* state:
        flagged stale, with the update's Theorem-2 charge added to its
        cumulative staleness (see
        :func:`repro.updates.rerank.staleness_charge_bound`).  Entries
        whose subgraph intersects the update's affected region go onto
        the refresh work list (``report.stale_entries``); disjoint
        entries just carry the charge.  An entry whose cumulative
        charge would exceed the staleness budget is evicted instead —
        over-budget entries are never served, which :meth:`lookup`
        double-checks at read time.

        ``old_scores`` — the old graph's global score vector, when the
        caller has one — tightens the charge: the changed pages'
        actual score mass feeds Ng et al.'s perturbation bound.
        Without it each changed page is charged the uniform surrogate
        ``1/N`` (documented, conservative only in expectation — pass
        real scores when serving under a tight budget).

        Stale entries keep serving flagged until a caller refreshes
        them (the service re-ranks the work list, see
        :meth:`repro.serve.server.RankingService.apply_update`).
        """
        seeds = update_seeds(old_graph, new_graph, delta)
        region = forward_halo(new_graph, seeds, hops)
        old_n = old_graph.num_nodes
        new_n = new_graph.num_nodes
        if old_scores is not None:
            old_scores = np.asarray(old_scores, dtype=np.float64)
            stale_mass = np.full(new_n, 1.0 / new_n)
            stale_mass[:old_n] = old_scores
            changed_mass = float(stale_mass[seeds].sum())
        else:
            changed_mass = seeds.size / max(old_n, 1)

        from repro.updates.rerank import staleness_charge_bound

        old_fp = graph_fingerprint(old_graph)
        new_fp = graph_fingerprint(new_graph)
        work_list: list[tuple[np.ndarray, float]] = []
        evicted = 0
        migrated = 0
        stale_count = 0
        max_charge = 0.0
        with self._lock:
            self._registry.counter(
                "repro_update_applied_total",
                "Graph updates absorbed by the score store.",
            ).inc()
            for key in list(self._entries):
                if key[0] != old_fp:
                    continue
                entry = self._entries.pop(key)
                nodes = np.asarray(entry.scores.local_nodes)
                damping = entry.damping
                delta_e = 2.0 * damping / (1.0 - damping) * changed_mass
                charge = staleness_charge_bound(delta_e, damping)
                max_charge = max(max_charge, charge)
                self._count_staleness(charge)
                staleness = entry.staleness + charge
                affected = bool(
                    np.intersect1d(
                        nodes, region, assume_unique=True
                    ).size
                )
                if staleness > self._budget:
                    # Over budget: the Theorem-2 bound no longer
                    # vouches for these scores — evict, never serve.
                    evicted += 1
                    self._count_eviction("staleness")
                    work_list.append((nodes, damping))
                    continue
                self._entries[(new_fp, key[1], key[2])] = replace(
                    entry,
                    fingerprint=new_fp,
                    inserted_at=self._clock(),
                    stale=True,
                    staleness=staleness,
                )
                if affected:
                    stale_count += 1
                    work_list.append((nodes, damping))
                else:
                    migrated += 1
            self._set_size_gauge()

        # The old operator is dead either way: drop its cached
        # transition derivations alongside the score entries.
        from repro.perf.cache import GLOBAL_TRANSITION_CACHE

        GLOBAL_TRANSITION_CACHE.invalidate(old_graph)
        return StoreUpdateReport(
            region=region,
            evicted=evicted,
            migrated=migrated,
            stale=stale_count,
            staleness_charge=max_charge,
            stale_entries=tuple(work_list),
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def persist(self, directory: str | os.PathLike) -> int:
        """Write every entry to ``directory`` (one npz per entry).

        Returns the number of files written.  Scalars, the method
        label, the *full* ``extras`` mapping (as JSON) and the entry's
        stale/staleness state ride along with the score arrays, so a
        warm-loaded entry round-trips the complete
        :class:`SubgraphScores` accounting across a restart.
        """
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        written = 0
        with self._lock:
            entries = list(self._entries.items())
        for key, entry in entries:
            name = hashlib.sha256(
                "|".join(key).encode("ascii")
            ).hexdigest()[:32]
            scores = entry.scores
            np.savez(
                target / f"entry-{name}.npz",
                local_nodes=np.asarray(scores.local_nodes),
                scores=np.asarray(scores.scores),
                iterations=np.int64(scores.iterations),
                residual=np.float64(scores.residual),
                converged=np.bool_(scores.converged),
                runtime_seconds=np.float64(scores.runtime_seconds),
                lambda_score=np.float64(
                    scores.extras.get("lambda_score", np.nan)
                ),
                method=np.str_(scores.method),
                fingerprint=np.str_(entry.fingerprint),
                damping=np.float64(entry.damping),
                extras_json=np.str_(_encode_extras(scores.extras)),
                stale=np.bool_(entry.stale),
                staleness=np.float64(entry.staleness),
            )
            written += 1
        return written

    def warm_load(
        self, directory: str | os.PathLike, graph: CSRGraph
    ) -> int:
        """Load persisted entries matching ``graph``'s fingerprint.

        Entries persisted for other graphs are skipped silently (the
        directory may hold several generations).  Returns the number
        of entries loaded; each gets a fresh TTL clock but keeps its
        persisted extras, stale flag and staleness charge (files from
        before those fields were persisted load as fresh entries with
        the legacy lambda-score-only extras).  Archives tagged with a
        ``variant`` other than ``"exact"`` hold the scores of a retired
        estimator engine, not an exact solve, and are skipped, as are
        entries that fail :meth:`put`'s certificate check.
        """
        source = Path(directory)
        if not source.is_dir():
            return 0
        fingerprint = graph_fingerprint(graph)
        loaded = 0
        for path in sorted(source.glob("entry-*.npz")):
            with np.load(path) as archive:
                if str(archive["fingerprint"]) != fingerprint:
                    continue
                if (
                    "variant" in archive.files
                    and str(archive["variant"]) != "exact"
                ):
                    continue
                if "extras_json" in archive.files:
                    extras = json.loads(str(archive["extras_json"]))
                else:
                    extras = {}
                    lambda_score = float(archive["lambda_score"])
                    if not np.isnan(lambda_score):
                        extras["lambda_score"] = lambda_score
                scores = SubgraphScores(
                    local_nodes=np.asarray(
                        archive["local_nodes"], dtype=np.int64
                    ),
                    scores=np.asarray(
                        archive["scores"], dtype=np.float64
                    ),
                    method=str(archive["method"]),
                    iterations=int(archive["iterations"]),
                    residual=float(archive["residual"]),
                    converged=bool(archive["converged"]),
                    runtime_seconds=float(archive["runtime_seconds"]),
                    extras=extras,
                )
                damping = float(archive["damping"])
                stale = (
                    bool(archive["stale"])
                    if "stale" in archive.files
                    else False
                )
                staleness = (
                    float(archive["staleness"])
                    if "staleness" in archive.files
                    else 0.0
                )
            try:
                self.put(
                    graph,
                    np.asarray(scores.local_nodes),
                    damping,
                    scores,
                    stale=stale,
                    staleness=staleness,
                )
            except ValueError:
                continue  # fails the certificate check: never served
            loaded += 1
        return loaded
