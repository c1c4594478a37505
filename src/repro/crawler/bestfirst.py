"""The crawl simulator and its frontier-scoring strategies.

The simulation protocol, shared by every strategy so comparisons are
fair:

1. start from seed pages (already "fetched");
2. each step, the frontier is every uncrawled page reachable by one
   out-link from a crawled page (link targets are visible before a
   page is fetched — that is what crawl queues are made of);
3. the strategy scores the frontier; the top ``batch_size`` pages are
   fetched; repeat until ``budget`` pages are crawled or the frontier
   is empty.

Strategies
----------
``approxrank``
    Rank the crawled + frontier subgraph with the extended Λ walk and
    score each frontier page by its estimated global PageRank — the
    paper's Best-First crawler.
``local-pagerank``
    Same subgraph, plain local PageRank (no Λ) — the baseline that
    ignores the uncrawled web's pull.
``indegree``
    Score a frontier page by how many crawled pages link to it — the
    classic cheap heuristic.
``bfs``
    First-seen first-fetched (breadth-first crawl order).
``random``
    Uniform random frontier choice (seeded; the floor).

Deterministic given the configuration; ties everywhere break by
ascending page id.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.approxrank import approxrank
from repro.exceptions import SubgraphError
from repro.graph.digraph import CSRGraph
from repro.graph.traversal import frontier_of
from repro.pagerank.localrank import local_pagerank
from repro.pagerank.solver import PowerIterationSettings

#: Names accepted by :class:`CrawlSimulator`.
STRATEGIES = (
    "approxrank", "local-pagerank", "indegree", "bfs", "random",
)


@dataclass(frozen=True)
class CrawlResult:
    """Outcome of one simulated crawl.

    Attributes
    ----------
    strategy:
        The frontier-scoring strategy used.
    crawl_order:
        Page ids in fetch order (seeds first).
    steps:
        Number of fetch rounds performed.
    mass_curve:
        Cumulative *true* global-PageRank mass of the crawled set
        after every round (only available when the simulator was given
        ``global_scores``); the value-per-fetch curve the strategies
        are compared on.
    runtime_seconds:
        Wall clock of the whole simulation.
    """

    strategy: str
    crawl_order: np.ndarray
    steps: int
    mass_curve: tuple[float, ...] = field(default=())
    runtime_seconds: float = 0.0

    @property
    def num_crawled(self) -> int:
        """Pages fetched, including the seeds."""
        return int(self.crawl_order.size)


class CrawlSimulator:
    """Simulates Best-First crawling over a known global graph.

    Parameters
    ----------
    graph:
        The (hidden) global graph the crawler explores.
    seed_pages:
        Initially crawled pages.
    strategy:
        One of :data:`STRATEGIES`.
    batch_size:
        Pages fetched per round (crawlers fetch in batches; re-ranking
        per single fetch would be unrealistically expensive).
    settings:
        Solver knobs for the ranking strategies.
    rng_seed:
        Seed for the ``random`` strategy.
    global_scores:
        Optional true global PageRank vector; when given, the result
        carries the cumulative-mass curve.
    """

    def __init__(
        self,
        graph: CSRGraph,
        seed_pages,
        strategy: str = "approxrank",
        batch_size: int = 20,
        settings: PowerIterationSettings | None = None,
        rng_seed: int = 0,
        global_scores: np.ndarray | None = None,
    ):
        if strategy not in STRATEGIES:
            raise SubgraphError(
                f"unknown strategy {strategy!r}; pick one of "
                f"{STRATEGIES}"
            )
        if batch_size < 1:
            raise SubgraphError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        seeds = np.unique(
            np.asarray(list(seed_pages), dtype=np.int64)
        )
        if seeds.size == 0:
            raise SubgraphError("need at least one seed page")
        if seeds.min() < 0 or seeds.max() >= graph.num_nodes:
            raise SubgraphError("a seed page id is out of range")
        self._graph = graph
        self._strategy = strategy
        self._batch_size = int(batch_size)
        self._settings = settings or PowerIterationSettings()
        self._rng = np.random.default_rng(rng_seed)
        self._seeds = seeds
        if global_scores is not None:
            global_scores = np.asarray(global_scores, dtype=np.float64)
            if global_scores.shape != (graph.num_nodes,):
                raise SubgraphError(
                    "global_scores must cover the graph"
                )
        self._global_scores = global_scores

    def run(self, budget: int) -> CrawlResult:
        """Crawl until ``budget`` pages are fetched (or frontier dry).

        ``budget`` includes the seeds.
        """
        if budget < self._seeds.size:
            raise SubgraphError(
                f"budget {budget} smaller than the seed set "
                f"({self._seeds.size})"
            )
        start = time.perf_counter()
        crawled = np.zeros(self._graph.num_nodes, dtype=bool)
        order: list[int] = list(self._seeds)
        crawled[self._seeds] = True
        arrival: dict[int, int] = {
            int(page): index for index, page in enumerate(order)
        }
        mass_curve: list[float] = []
        if self._global_scores is not None:
            mass_curve.append(
                float(self._global_scores[self._seeds].sum())
            )
        steps = 0
        while len(order) < budget:
            frontier = frontier_of(self._graph, crawled)
            if frontier.size == 0:
                break
            for page in frontier:
                arrival.setdefault(int(page), len(arrival))
            take = min(self._batch_size, budget - len(order))
            chosen = self._select(crawled, frontier, take, arrival)
            crawled[chosen] = True
            order.extend(int(page) for page in chosen)
            steps += 1
            if self._global_scores is not None:
                mass_curve.append(
                    float(self._global_scores[crawled].sum())
                )
        runtime = time.perf_counter() - start
        return CrawlResult(
            strategy=self._strategy,
            crawl_order=np.asarray(order, dtype=np.int64),
            steps=steps,
            mass_curve=tuple(mass_curve),
            runtime_seconds=runtime,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _select(
        self,
        crawled: np.ndarray,
        frontier: np.ndarray,
        take: int,
        arrival: dict[int, int],
    ) -> np.ndarray:
        if self._strategy == "random":
            permuted = self._rng.permutation(frontier)
            return np.sort(permuted[:take])
        if self._strategy == "bfs":
            by_arrival = sorted(
                (arrival[int(page)], int(page)) for page in frontier
            )
            return np.asarray(
                [page for __, page in by_arrival[:take]],
                dtype=np.int64,
            )
        if self._strategy == "indegree":
            crawled_ids = np.flatnonzero(crawled)
            rows = self._graph.adjacency[crawled_ids]
            counts = np.zeros(self._graph.num_nodes)
            np.add.at(counts, rows.indices, 1.0)
            scores = counts[frontier]
        else:
            scores = self._rank_subgraph_scores(crawled, frontier)
        order = np.lexsort((frontier, -scores))
        return np.sort(frontier[order[:take]])

    def _rank_subgraph_scores(
        self, crawled: np.ndarray, frontier: np.ndarray
    ) -> np.ndarray:
        subgraph = np.union1d(np.flatnonzero(crawled), frontier)
        if self._strategy == "approxrank" and (
            subgraph.size < self._graph.num_nodes
        ):
            result = approxrank(
                self._graph, subgraph, self._settings
            )
        else:
            result = local_pagerank(
                self._graph, subgraph, self._settings
            )
        positions = np.searchsorted(result.local_nodes, frontier)
        return result.scores[positions]
