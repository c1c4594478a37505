"""Serve-path chaos matrix: the cluster's contract under injected faults.

Each cell pairs one ranked route of the route table with one
scenario.  A scenario arms one (or all) of the serve-path fault kinds
from :mod:`repro.resilience.faults` — ``kill_shard``, ``slow_shard``,
``drop_conn``, ``flap_health`` — against a real 2×2 thread-placement
cluster, then hammers the router on that route and asserts the
serving contract on **every** response:

* a 200 is **bit-identical** to the route's offline answer —
  :func:`repro.core.approxrank.approxrank` for ``/rank``, the
  :class:`~repro.search.engine.SubgraphSearchEngine` hits for
  ``/search``, :meth:`~repro.semantic.pipeline.SemanticPipeline.run`
  for ``/semantic-search`` (no updates happen here, so even degraded
  answers must match), and any stale/degraded answer is *flagged*,
  with staleness within the store's Theorem-2 budget;
* the only permitted failure is an honest 503 (shard unavailable or
  load shed) carrying the recovery history.

Never silently wrong: an answer that differs from the offline one
fails the matrix outright.

Fault decisions are deterministic — site-keyed seeded streams — so a
red run replays exactly under the same spec.  Excluded from tier-1;
run with ``make chaos-serve``.
"""

import time

import numpy as np
import pytest

from repro.core.approxrank import approxrank
from repro.exceptions import ServeRequestError
from repro.generators.datasets import make_tiny_web
from repro.pagerank.solver import PowerIterationSettings
from repro.search.engine import SubgraphSearchEngine
from repro.search.lexicon import SyntheticLexicon
from repro.semantic.pipeline import SemanticPipeline
from repro.resilience.faults import (
    FaultInjector,
    disarm_serve_faults,
    get_injector,
    set_injector,
)
from repro.resilience.policy import RetryPolicy
from repro.serve.client import RankingClient
from repro.serve.cluster import start_cluster
from repro.serve.server import ROUTES

pytestmark = [pytest.mark.serve, pytest.mark.chaos_serve]

SETTINGS = PowerIterationSettings(tolerance=1e-9)
ROUNDS = 3

#: The router's health-probe cadence.  Each round starts by waiting one
#: interval, so health faults (``flap_health``) meet live traffic no
#: matter how fast the requests themselves are answered.
PROBE_INTERVAL = 0.05

#: The fault matrix: every serve-path kind alone, then all at once.
SCENARIOS = {
    "kill": "kill_shard:p=0.25,seed=11,max=1",
    "slow": "slow_shard:p=0.4,ms=400,seed=7",
    "drop": "drop_conn:p=0.35,seed=5",
    "flap": "flap_health:p=0.5,seed=3",
    "everything": (
        "kill_shard:p=0.1,seed=2,max=1;"
        "slow_shard:p=0.2,ms=400,seed=4;"
        "drop_conn:p=0.2,seed=6;"
        "flap_health:p=0.3,seed=8"
    ),
}


#: Query terms per request: the /search terms (matched with mode
#: "any") and the /semantic-search query.
QUERIES = [[0, 1, 2], [3, 4], [5, 6, 7], [8, 9], [10, 11, 12], [13, 14]]
K = 5

#: The routes under test: every ranked route of the table, so a new
#: ranked route joins the matrix (and needs a case below) by itself.
RANKED = sorted(path for path, route in ROUTES.items() if route.ranked)

#: Per ranked route: how to send request ``(nodes, terms)``, and the
#: part of its answer the offline reference pins.
CASES = {
    "/rank": (
        lambda client, nodes, terms: client.rank(nodes),
        lambda payload: payload["scores"],
    ),
    "/search": (
        lambda client, nodes, terms: client.search(
            nodes, terms=terms, k=K, mode="any"
        ),
        lambda payload: [
            (hit["page"], hit["score"], hit["rank"])
            for hit in payload["hits"]
        ],
    ),
    "/semantic-search": (
        lambda client, nodes, terms: client.semantic_search(terms, k=K),
        lambda payload: (
            payload["nodes"],
            payload["query_digest"],
            [(hit["page"], hit["score"]) for hit in payload["hits"]],
        ),
    ),
}


@pytest.fixture(scope="module")
def web():
    return make_tiny_web(num_pages=200, seed=17)


@pytest.fixture(scope="module")
def subgraphs(web):
    rng = np.random.default_rng(29)
    return [
        np.unique(
            rng.choice(web.graph.num_nodes, size=16, replace=False)
        ).astype(np.int64).tolist()
        for __ in range(len(QUERIES))
    ]


@pytest.fixture(scope="module")
def offline(web, subgraphs):
    """Each route's offline answers: ``approxrank`` for /rank, the
    search engine's hits for /search, ``SemanticPipeline.run`` for
    /semantic-search — built the way a replica builds its own."""
    lexicon = SyntheticLexicon(web.graph)
    pipeline = SemanticPipeline(web.graph, lexicon, settings=SETTINGS)
    ranks = [
        approxrank(web.graph, np.asarray(nodes), SETTINGS)
        for nodes in subgraphs
    ]
    answers = [pipeline.run(terms, k=K) for terms in QUERIES]
    return {
        "/rank": [scores.scores.tolist() for scores in ranks],
        "/search": [
            [
                (hit.page, hit.score, hit.rank)
                for hit in SubgraphSearchEngine(scores, lexicon).search(
                    terms, k=K, mode="any"
                )
            ]
            for scores, terms in zip(ranks, QUERIES)
        ],
        "/semantic-search": [
            (
                answer.local_nodes.tolist(),
                answer.query_digest,
                [(hit.page, hit.score) for hit in answer.hits],
            )
            for answer in answers
        ],
    }


@pytest.fixture
def armed_faults(monkeypatch):
    """Arm a REPRO_FAULTS spec for the in-process cluster threads."""

    def arm(spec: str) -> None:
        monkeypatch.setenv("REPRO_FAULTS", spec)
        set_injector(None)  # force re-parse of the new spec

    yield arm
    disarm_serve_faults()
    set_injector(None)


def _run_scenario(web, path, subgraphs, expected):
    """Drive one ranked route through the router; classify every
    response against the contract.  Returns (outcome counts,
    violations)."""
    send, read = CASES[path]
    outcomes = {"fresh": 0, "flagged": 0, "unavailable": 0}
    violations: list[str] = []
    handle = start_cluster(
        web.graph,
        num_shards=2,
        replicas_per_shard=2,
        placement="thread",
        manager_kwargs={"settings": SETTINGS, "seed": 1},
        retry_policy=RetryPolicy(
            max_attempts=4, backoff_base=0.01,
            backoff_max=0.05, seed=13,
        ),
        attempt_timeout=0.25,
        probe_interval=PROBE_INTERVAL,
        probe_timeout=0.2,
        eject_threshold=2,
        breaker_threshold=3,
        breaker_reset=0.2,
    )
    try:
        budget = handle.router.store.staleness_budget
        client = RankingClient(*handle.address, timeout=30.0)
        for __ in range(ROUNDS):
            time.sleep(PROBE_INTERVAL)
            for index, nodes in enumerate(subgraphs):
                try:
                    payload = send(client, nodes, QUERIES[index])
                except ServeRequestError as exc:
                    if exc.status == 503:
                        # Honest refusal — carries the history.
                        outcomes["unavailable"] += 1
                        continue
                    violations.append(
                        f"request {index}: unexpected HTTP "
                        f"{exc.status}"
                    )
                    continue
                flagged = bool(
                    payload.get("stale") or payload.get("degraded")
                )
                if read(payload) != expected[index]:
                    # No updates ran, so even a degraded (last-known)
                    # answer must be the offline one.
                    violations.append(
                        f"request {index}: silently wrong answer "
                        f"(flagged={flagged})"
                    )
                if flagged:
                    staleness = float(payload.get("staleness", 0.0))
                    if staleness > budget:
                        violations.append(
                            f"request {index}: served over budget "
                            f"({staleness} > {budget})"
                        )
                    outcomes["flagged"] += 1
                else:
                    outcomes["fresh"] += 1
    finally:
        handle.stop()
    return outcomes, violations


@pytest.mark.parametrize("path", RANKED)
class TestChaosMatrix:
    @pytest.mark.parametrize(
        "name", sorted(SCENARIOS), ids=sorted(SCENARIOS)
    )
    def test_contract_holds_under_fault(
        self, path, name, web, subgraphs, offline, armed_faults
    ):
        armed_faults(SCENARIOS[name])
        outcomes, violations = _run_scenario(
            web, path, subgraphs, offline[path]
        )
        assert violations == []
        total = sum(outcomes.values())
        assert total == ROUNDS * len(subgraphs)
        # The cluster must still make progress under chaos: the
        # matrix is vacuous if every answer was a refusal.
        assert outcomes["fresh"] + outcomes["flagged"] > 0
        # And the chaos must actually have happened: at least one
        # armed kind fired at some shard site.
        injector = get_injector()
        assert injector is not None
        fired = sum(
            injector.fired_at(kind, f"shard-{shard}")
            for kind in injector.kinds
            for shard in range(2)
        )
        assert fired >= 1, "no fault fired; scenario is vacuous"

    def test_no_faults_armed_is_all_fresh(
        self, path, web, subgraphs, offline, monkeypatch
    ):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        set_injector(None)
        outcomes, violations = _run_scenario(
            web, path, subgraphs, offline[path]
        )
        assert violations == []
        assert outcomes["fresh"] == ROUNDS * len(subgraphs)
        assert outcomes["unavailable"] == 0


class TestDeterminism:
    def test_site_streams_replay_identically(self):
        spec = "slow_shard:p=0.5,seed=9"
        first = FaultInjector.from_spec(spec)
        second = FaultInjector.from_spec(spec)
        decisions_a = [
            first.should_fire_at("slow_shard", "shard-0")
            for __ in range(50)
        ]
        decisions_b = [
            second.should_fire_at("slow_shard", "shard-0")
            for __ in range(50)
        ]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)

    def test_sites_draw_independent_streams(self):
        injector = FaultInjector.from_spec("drop_conn:p=0.5,seed=21")
        stream_a = [
            injector.should_fire_at("drop_conn", "shard-0")
            for __ in range(60)
        ]
        stream_b = [
            injector.should_fire_at("drop_conn", "shard-1")
            for __ in range(60)
        ]
        assert stream_a != stream_b
