"""Online ranking service: store → batcher → server (Figure 1, live).

The serving subsystem turns the batch library into the "localized
search engine" of the paper's Figure 1: a long-lived process that
holds one global graph (and its amortised ApproxRank preprocessor)
warm and answers subgraph ranking and Top-K search queries over HTTP.

Layering, bottom up:

* :mod:`repro.serve.store` — :class:`ScoreStore`, an LRU + TTL cache
  of solved :class:`~repro.pagerank.result.SubgraphScores` keyed by
  (graph fingerprint, subgraph digest, damping), with npz
  persist/warm-load and :class:`~repro.updates.delta.GraphDelta`-driven
  invalidation;
* :mod:`repro.serve.batching` — :class:`RankBatcher`, the
  group-commit admission queue: a cold request solves at once, and
  the requests that arrive while its subgraph's solve runs go out
  together as one batched multi-column solve, with bounded depth
  (503 on overload) and per-request deadlines;
* :mod:`repro.serve.server` — :class:`RankingService` (the
  transport-free engine) and :class:`RankingServer` (stdlib-asyncio
  HTTP/1.1 over one ``ROUTES`` table: ``POST /rank``, ``POST
  /search``, ``POST /semantic-search``, ``POST /update``, ``GET
  /healthz``, ``GET /metrics``), plus :func:`start_background_server`
  for tests and benchmarks;
* :mod:`repro.serve.wire` — HTTP message framing shared by both
  transports, and the one codec for ranked answers;
* :mod:`repro.serve.client` — :class:`RankingClient`, the blocking
  stdlib HTTP client;
* :mod:`repro.serve.bench` — the batching-on-vs-off spec behind
  ``python -m repro bench serve`` (``BENCH_serve.json``), run by
  :mod:`repro.perf.harness`.
"""

from repro.serve.batching import BatchPolicy, RankBatcher
from repro.serve.client import RankingClient
from repro.serve.server import (
    BackgroundServer,
    RankingServer,
    RankingService,
    start_background_server,
)
from repro.serve.store import (
    ScoreStore,
    StoreUpdateReport,
    graph_fingerprint,
    subgraph_digest,
)

__all__ = [
    "BackgroundServer",
    "BatchPolicy",
    "RankBatcher",
    "RankingClient",
    "RankingServer",
    "RankingService",
    "ScoreStore",
    "StoreUpdateReport",
    "graph_fingerprint",
    "start_background_server",
    "subgraph_digest",
]
