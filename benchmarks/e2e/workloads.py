"""The five traffic mixes and the inputs each one sends.

Every request stream and every update delta is a pure function of
``--seed``, and the graph is the same for every seed.  All of it is
generated before a server is booted, so the timed window only writes
pre-encoded bytes.  The server receives nothing but the saved graph and
these requests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.generators.datasets import make_au_like
from repro.graph.digraph import CSRGraph
from repro.graph.io import save_npz
from repro.search.lexicon import SyntheticLexicon
from repro.serve.store import graph_fingerprint
from repro.subgraphs.bfs import bfs_subgraph
from repro.updates.delta import apply_delta, random_region_delta

NUM_PAGES = 50_000
#: Every seed serves this one graph; ``--seed`` varies the requests, so
#: runs with different seeds differ in the pages they ask for, not in
#: the graph the server loads.
GRAPH_SEED = 2009
#: BFS subgraph sizes, as shares of the graph (about 100-2,500 pages).
MIN_FRACTION, MAX_FRACTION = 0.002, 0.05
#: Sizes are drawn log-uniformly in STRATA equal-probability strata.
STRATA = 64
SWEEP_FRACTION = 0.01
#: The strata whose requests use push: 10 of 64 (15%), spread over all
#: sizes and the same for every seed, so the slowest requests are the
#: same kind of request whatever the seed.
PUSH_STRATA = np.linspace(
    0, STRATA - 1, round(0.15 * STRATA)
).round().astype(int)
PUSH_ESTIMATOR = "push:r_max=1e-3"
SWEEP_DAMPINGS = (0.85, 0.80)
HOT_POOL = 64
ZIPF_EXPONENT = 1.1
POPULAR_TERMS = 20
K = 10
#: Streams of distinct inputs repeat with these periods.  Each is longer
#: than the server cache a repeat could hit: 512 subgraphs against the
#: 128-entry score store and transition cache, 2,048 queries against
#: the 1,024-entry semantic selection cache.  A repeat is therefore
#: still cold.  A period of 512 holds eight requests of every size
#: stratum; over six seeds its mean crawl size plus crawl degree moved
#: by 0.2%, no more than with a period of 2,048, which took four times
#: as long to crawl.
RANK_CYCLE, SEMANTIC_CYCLE = 512, 2048
#: Length of the Zipf draws over a hot pool before they repeat.
HOT_CYCLE = 4096
#: The one /update of a window is sent UPDATE_OFFSET_S after it opens.
#: An update stalls the thread-placed cluster's reads for about 1.5 s
#: and slows about ten of them; with two or more per window those reads
#: reach the slowest 1% and read p99 swings with how they fall (see
#: README.md, "Settings and why").
UPDATE_OFFSET_S = 0.5
UPDATE_ADDED, UPDATE_REMOVED = 6, 2


@dataclass(frozen=True)
class Workload:
    """One traffic mix: what it sends, and why it exists."""

    name: str
    why: str
    #: ``serve`` boots one server; ``serve-cluster`` the sharded fleet.
    command: str
    #: ``shared``: both connections pull from one stream;
    #: ``lockstep``: the two connections send the same subgraph at two
    #: dampings and wait for each other; ``churn``: connection A reads,
    #: connection B posts one update into the window.
    loop: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "rank-cold",
            "distinct BFS subgraph per /rank (15% push): store misses, "
            "extended-graph assembly, solve, push and the batcher linger",
            "serve",
            "shared",
        ),
        Workload(
            "rank-sweep",
            "both connections rank the same fresh subgraph at two "
            "dampings: the one mix where batching coalesces columns",
            "serve",
            "lockstep",
        ),
        Workload(
            "rank-hot",
            "Zipf over 64 cached subgraphs, half /rank half /search: "
            "store hits isolate HTTP, JSON, digest, lookup and search",
            "serve",
            "shared",
        ),
        Workload(
            "semantic",
            "distinct /semantic-search queries: selection, small-"
            "neighborhood solve and dedup on every request",
            "serve",
            "shared",
        ),
        Workload(
            "update-churn",
            "cluster reads of a hot pool beside an /update in the window: "
            "deltas, rebuilds, stale serving and router fan-out",
            "serve-cluster",
            "churn",
        ),
    )
}


@dataclass(frozen=True)
class Request:
    """One pre-encoded HTTP request plus what the verifier needs."""

    kind: str  # rank | push | search | semantic | update
    raw: bytes
    nodes: np.ndarray | None = None
    damping: float = 0.85
    terms: tuple[int, ...] = ()


@dataclass
class Inputs:
    """Everything one workload run sends, plus offline references."""

    workload: Workload
    graph: CSRGraph
    graph_path: Path
    #: One request per read kind, answered during set-up.
    probes: list[Request]
    #: One stream per connection (``shared`` loops use streams[0]).
    streams: list[list[Request]]
    #: Reads sent once, in order, after set-up and before the load: a
    #: hot pool is cached before the warm-up, as in a long-running
    #: deployment (in the cluster this also fills the router's
    #: degraded-mode store, which answers reads while an update
    #: propagates).
    primer: list[Request] = field(default_factory=list)
    #: ``churn`` only: the update, and the graph it makes.
    update: Request | None = None
    updated: CSRGraph | None = None
    #: The term assignment the server builds for itself, when needed.
    lexicon: SyntheticLexicon | None = None


def encode(path: str, body: dict) -> bytes:
    payload = json.dumps(body, separators=(",", ":")).encode()
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    )
    return head.encode("latin-1") + payload


def short_fingerprint(graph: CSRGraph) -> str:
    """The 16-hex-digit fingerprint every answer names its graph by."""
    return graph_fingerprint(graph)[:16]


class _Subgraphs:
    """BFS crawls from random seed pages, none drawn twice."""

    def __init__(self, graph: CSRGraph, rng: np.random.Generator):
        self._graph = graph
        self._rng = rng
        self._seen: set[bytes] = set()

    def draw(self, share: float) -> np.ndarray:
        """A crawl of ``share`` of the graph not drawn before."""
        while True:
            seed = int(self._rng.integers(self._graph.num_nodes))
            nodes = bfs_subgraph(self._graph, seed, share)
            key = nodes.tobytes()
            # Dead-end seeds give tiny crawls; keep only real subgraphs.
            if (nodes.size >= share * self._graph.num_nodes / 2
                    and key not in self._seen):
                self._seen.add(key)
                return nodes


def _shares(strata: np.ndarray) -> np.ndarray:
    """Subgraph sizes (shares of N) at the midpoints of log strata."""
    position = (np.asarray(strata) + 0.5) / STRATA
    return MIN_FRACTION * (MAX_FRACTION / MIN_FRACTION) ** position


def _stratified(rng, count: int) -> np.ndarray:
    """Size strata where every block of STRATA draws holds each stratum
    once: any stretch of a stream, for any seed, asks for nearly the
    same amount of work, so seeds vary pages, not load."""
    blocks = -(-count // STRATA)
    return np.concatenate(
        [rng.permutation(STRATA) for __ in range(blocks)]
    )[:count]


def _hot_pool(crawls: "_Subgraphs") -> list[np.ndarray]:
    """Pool entries by popularity rank.  Ranks map to size strata in
    one fixed order, the same for every seed, so the popularity-weighted
    answer size does not change with the seed."""
    order = np.random.default_rng(0).permutation(STRATA)[:HOT_POOL]
    return [crawls.draw(share) for share in _shares(order)]


def _zipf_choice(rng, count: int, size: int) -> np.ndarray:
    weights = np.arange(1, count + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    return rng.choice(count, size=size, p=weights / weights.sum())


def _rank(nodes: np.ndarray, damping: float | None = None) -> Request:
    body = {"nodes": nodes.tolist()}
    if damping is not None:
        body["damping"] = damping
    return Request(
        "rank", encode("/rank", body), nodes,
        damping if damping is not None else 0.85,
    )


def _push(nodes: np.ndarray) -> Request:
    return Request(
        "push",
        encode(f"/rank?estimator={PUSH_ESTIMATOR}", {"nodes": nodes.tolist()}),
        nodes,
    )


def _search(nodes: np.ndarray, terms: tuple[int, ...]) -> Request:
    body = {"nodes": nodes.tolist(), "terms": list(terms), "k": K}
    return Request("search", encode("/search", body), nodes, terms=terms)


def _semantic(terms: tuple[int, ...]) -> Request:
    body = {"terms": list(terms), "k": K}
    return Request("semantic", encode("/semantic-search", body), terms=terms)


def build(name: str, seed: int, workdir: Path) -> Inputs:
    """Generate the graph and every request of one workload run.

    Every loaded server replays the same streams.
    """
    workload = WORKLOADS[name]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    graph = make_au_like(num_pages=NUM_PAGES, seed=GRAPH_SEED).graph
    workdir.mkdir(parents=True, exist_ok=True)
    graph_path = workdir / "graph.npz"
    save_npz(graph, graph_path)
    crawls = _Subgraphs(graph, rng)
    inputs = Inputs(workload, graph, graph_path, [], [[]])
    middle = (MIN_FRACTION * MAX_FRACTION) ** 0.5

    if name == "rank-cold":
        inputs.probes = [_rank(crawls.draw(middle)), _push(crawls.draw(middle))]
        strata = _stratified(rng, RANK_CYCLE)
        inputs.streams = [[
            (_push if is_push else _rank)(crawls.draw(share))
            for share, is_push in zip(_shares(strata),
                                      np.isin(strata, PUSH_STRATA))
        ]]
    elif name == "rank-sweep":
        inputs.probes = [_rank(crawls.draw(SWEEP_FRACTION))]
        shared = [crawls.draw(SWEEP_FRACTION) for __ in range(RANK_CYCLE)]
        inputs.streams = [
            [_rank(nodes, damping) for nodes in shared]
            for damping in SWEEP_DAMPINGS
        ]
    elif name == "rank-hot":
        pool = _hot_pool(crawls)
        inputs.lexicon = SyntheticLexicon(graph)
        popular = inputs.lexicon.popular_terms(POPULAR_TERMS).tolist()
        probe_nodes = crawls.draw(middle)
        inputs.probes = [
            _rank(probe_nodes), _search(probe_nodes, (int(popular[0]),))
        ]
        ranks = inputs.primer = [_rank(nodes) for nodes in pool]
        searches: dict[tuple, Request] = {}
        stream = []
        for index in _zipf_choice(rng, HOT_POOL, HOT_CYCLE):
            if rng.random() < 0.5:
                stream.append(ranks[index])
                continue
            count = int(rng.integers(1, 3))
            terms = tuple(sorted(
                int(t) for t in rng.choice(popular, size=count, replace=False)
            ))
            key = (int(index), terms)
            if key not in searches:
                searches[key] = _search(pool[index], terms)
            stream.append(searches[key])
        inputs.streams = [stream]
    elif name == "semantic":
        lexicon = inputs.lexicon = SyntheticLexicon(graph)
        seen: set[tuple[int, ...]] = set()
        queries = []
        while len(queries) < SEMANTIC_CYCLE + 1:
            count = int(rng.integers(1, 4))
            terms = tuple(sorted(set(
                _zipf_choice(rng, lexicon.num_terms, count).tolist()
            )))
            # A query must match some page, or selection answers 400.
            if terms in seen or not any(
                lexicon.document_frequency(t) for t in terms
            ):
                continue
            seen.add(terms)
            queries.append(_semantic(terms))
        inputs.probes = [queries.pop()]
        inputs.streams = [queries]
    elif name == "update-churn":
        pool = _hot_pool(crawls)
        inputs.probes = [_rank(crawls.draw(middle))]
        ranks = inputs.primer = [_rank(nodes) for nodes in pool]
        inputs.streams = [
            [ranks[i] for i in _zipf_choice(rng, HOT_POOL, HOT_CYCLE)]
        ]
        delta = random_region_delta(
            graph, pool[int(rng.integers(HOT_POOL))], UPDATE_ADDED,
            UPDATE_REMOVED, seed=int(rng.integers(2**31)),
        )
        inputs.updated = apply_delta(graph, delta)
        inputs.update = Request(
            "update", encode("/update", {"delta": delta.to_payload()})
        )
    return inputs
