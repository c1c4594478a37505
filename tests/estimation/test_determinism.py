"""Estimated scores are one answer per configuration, bit for bit.

The contract the store's variant token relies on: one push
configuration is one answer — bit-identical across runs, and across a
persist/warm_load cycle through the ScoreStore, still flagged stale
with its certificate as the staleness charge, never shadowing the
exact slot.
"""

import numpy as np
import pytest

from repro.estimation import PushEstimator
from repro.serve.store import ScoreStore

from tests.estimation.conftest import SETTINGS

pytestmark = pytest.mark.estimation

R_MAX = 1e-3


@pytest.fixture(scope="module")
def reference(graph, local_nodes, prep):
    return PushEstimator(r_max=R_MAX).estimate(
        graph, local_nodes, settings=SETTINGS, preprocessor=prep
    )


class TestWorkerMatrix:
    """Push runs on one thread, so the matrix is a single column."""

    def test_bit_identical_across_repeat_runs(
        self, graph, local_nodes, prep, reference
    ):
        again = PushEstimator(r_max=R_MAX).estimate(
            graph, local_nodes, settings=SETTINGS, preprocessor=prep
        )
        assert np.array_equal(again.scores, reference.scores)
        assert again.extras["pushes"] == reference.extras["pushes"]
        assert (
            again.extras["edges_touched"]
            == reference.extras["edges_touched"]
        )
        assert (
            again.extras["error_bound"] == reference.extras["error_bound"]
        )


class TestPersistReload:
    def test_scores_survive_store_round_trip(
        self, tmp_path, graph, local_nodes, reference
    ):
        engine = PushEstimator(r_max=R_MAX)
        store = ScoreStore()
        store.put(
            graph,
            local_nodes,
            SETTINGS.damping,
            reference,
            stale=True,
            staleness=reference.extras["error_bound"],
            variant=engine.variant,
        )
        assert store.persist(tmp_path) == 1

        reloaded_store = ScoreStore()
        assert reloaded_store.warm_load(tmp_path, graph) == 1
        hit = reloaded_store.lookup(
            graph, local_nodes, SETTINGS.damping, variant=engine.variant
        )
        assert hit is not None
        assert np.array_equal(hit.scores.scores, reference.scores)
        assert hit.stale
        assert hit.staleness == reference.extras["error_bound"]
        assert hit.scores.extras["estimator"] == "push"
        assert hit.scores.extras["pushes"] == reference.extras["pushes"]
        # The exact slot stays empty: estimated entries never shadow it.
        assert (
            reloaded_store.get(graph, local_nodes, SETTINGS.damping)
            is None
        )
