"""Off-the-clock checks of sampled answers against the offline library.

The rules are the serving contract:

* a fresh exact ``/rank`` answer is ``np.array_equal`` to offline
  ``approxrank()`` on the graph version its ``graph_fingerprint`` names
  (on ``rank-sweep``, where a pair may be solved as two columns of one
  batched solve, within ``SWEEP_LINF`` instead; the share that is still
  bit-identical is recorded);
* a push answer is within its ``error_bound`` in L1;
* a stale answer is within its ``staleness`` in L1;
* ``/search`` and ``/semantic-search`` answers are identical to the
  offline search engine and ``SemanticPipeline.run``;
* the ``/update`` moves the cluster to the graph the delta makes.
"""

from __future__ import annotations

import json

import numpy as np

from loadgen import Outcome
from repro.core.approxrank import approxrank
from repro.core.precompute import ApproxRankPreprocessor
from repro.pagerank.solver import PowerIterationSettings
from repro.search.engine import SubgraphSearchEngine
from repro.semantic.pipeline import SemanticPipeline
from workloads import K, Inputs, short_fingerprint

#: The batched-vs-single agreement bound recorded in BENCH_serve.json.
SWEEP_LINF = 1e-6
#: Certificates bound the distance to the exact fixed point; the offline
#: reference is itself converged only to the solver tolerance.
BASELINE_SLACK = 1e-9


class Verifier:
    """Checks sampled outcomes; ``violations`` lists every failure."""

    def __init__(self, inputs: Inputs):
        self._inputs = inputs
        self._versions = {
            short_fingerprint(graph): graph
            for graph in (inputs.graph, inputs.updated) if graph is not None
        }
        self._preprocessors: dict[str, ApproxRankPreprocessor] = {}
        self._references: dict[tuple, object] = {}
        self._pipeline: SemanticPipeline | None = None
        self.checked = 0
        self.bit_identical = 0
        self.batched_fresh = 0
        self.violations: list[str] = []

    def check(self, outcomes: list[Outcome]) -> None:
        for outcome in outcomes:
            if outcome.body is None or not outcome.ok:
                continue
            payload = json.loads(outcome.body)
            kind = outcome.request.kind
            try:
                getattr(self, f"_check_{kind}")(outcome, payload)
            except (KeyError, ValueError, TypeError) as exc:
                self._fail(outcome, f"malformed answer ({exc!r})")
            self.checked += 1

    def summary(self) -> dict:
        return {
            "checked": self.checked,
            "violations": self.violations,
            "sweep_bit_identical_share": (
                self.bit_identical / self.batched_fresh
                if self.batched_fresh else None
            ),
        }

    # ------------------------------------------------------------------

    def _fail(self, outcome: Outcome, why: str) -> None:
        self.violations.append(f"{outcome.request.kind}: {why}")

    def _graph(self, payload: dict):
        fingerprint = payload.get("graph_fingerprint")
        if fingerprint is None:
            return self._inputs.graph, short_fingerprint(self._inputs.graph)
        return self._versions[fingerprint], fingerprint

    def _reference(self, graph, fingerprint, nodes, damping):
        # Hot pools repeat a few subgraphs many times: solve each once.
        key = (fingerprint, nodes.tobytes(), damping)
        if key not in self._references:
            prep = self._preprocessors.get(fingerprint)
            if prep is None:
                prep = self._preprocessors[fingerprint] = (
                    ApproxRankPreprocessor(graph)
                )
            settings = PowerIterationSettings(damping=damping)
            self._references[key] = approxrank(
                graph, nodes, settings, preprocessor=prep
            )
        return self._references[key]

    def _scores(self, outcome, payload):
        request = outcome.request
        if payload["nodes"] != request.nodes.tolist():
            self._fail(outcome, "answer ranks a different node set")
            return None, None
        graph, fingerprint = self._graph(payload)
        reference = self._reference(
            graph, fingerprint, request.nodes, request.damping
        )
        return np.asarray(payload["scores"]), reference.scores

    def _within(self, outcome, scores, reference, bound, name) -> None:
        distance = float(np.abs(scores - reference).sum())
        if distance > bound + BASELINE_SLACK:
            self._fail(outcome, f"L1 error {distance:.3g} exceeds {name} "
                                f"{bound:.3g}")

    def _check_rank(self, outcome, payload) -> None:
        scores, reference = self._scores(outcome, payload)
        if scores is None:
            return
        if payload["stale"]:
            self._within(outcome, scores, reference,
                         payload["staleness"], "staleness")
        elif self._inputs.workload.loop == "lockstep":
            self.batched_fresh += 1
            self.bit_identical += int(np.array_equal(scores, reference))
            gap = float(np.abs(scores - reference).max())
            if gap > SWEEP_LINF:
                self._fail(outcome, f"L-inf gap {gap:.3g} > {SWEEP_LINF}")
        elif not np.array_equal(scores, reference):
            self._fail(outcome, "fresh exact answer is not bit-identical")

    def _check_push(self, outcome, payload) -> None:
        scores, reference = self._scores(outcome, payload)
        if scores is not None:
            self._within(outcome, scores, reference,
                         payload["error_bound"], "error_bound")

    def _check_search(self, outcome, payload) -> None:
        request = outcome.request
        graph, fingerprint = self._graph(payload)
        reference = self._reference(
            graph, fingerprint, request.nodes, request.damping
        )
        hits = SubgraphSearchEngine(reference, self._inputs.lexicon).search(
            list(request.terms), k=K
        )
        expected = [
            {"page": h.page, "score": h.score, "rank": h.rank} for h in hits
        ]
        if payload["stale"] or payload["hits"] != expected:
            self._fail(outcome, "search hits differ from the offline engine")

    def _check_semantic(self, outcome, payload) -> None:
        if self._pipeline is None:
            self._pipeline = SemanticPipeline(
                self._inputs.graph, self._inputs.lexicon
            )
        answer = self._pipeline.run(list(outcome.request.terms), k=K)
        expected = [
            {
                "page": h.page, "score": h.score, "rank": h.rank,
                "similarity": h.similarity, "cluster_size": h.cluster_size,
                "merged_score": h.merged_score,
            }
            for h in answer.hits
        ]
        if (
            payload["stale"]
            or payload["hits"] != expected
            or payload["nodes"] != answer.local_nodes.tolist()
            or payload["query_digest"] != answer.query_digest
        ):
            self._fail(outcome, "answer differs from SemanticPipeline.run")

    def _check_update(self, outcome, payload) -> None:
        expected = short_fingerprint(self._inputs.updated)
        if payload["graph_fingerprint"] != expected:
            self._fail(outcome, "the update moved the cluster to "
                                f"{payload['graph_fingerprint']}, expected "
                                f"{expected}")
