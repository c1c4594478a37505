"""An accuracy request's answer is one answer, bit for bit.

The same request is bit-identical across runs, and — since it is the
exact solve — it lives in the store's one exact slot: it survives a
persist/warm_load cycle as a fresh entry an exact lookup finds.
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
    """The solve runs on one thread, so the matrix is a single column."""

    def test_bit_identical_across_repeat_runs(
        self, graph, local_nodes, prep, reference
    ):
        again = PushEstimator(r_max=R_MAX).estimate(
            graph, local_nodes, settings=SETTINGS, preprocessor=prep
        )
        assert np.array_equal(again.scores, reference.scores)
        assert again.iterations == reference.iterations
        assert (
            again.extras["error_bound"] == reference.extras["error_bound"]
        )


class TestPersistReload:
    def test_scores_survive_store_round_trip(
        self, tmp_path, graph, local_nodes, reference
    ):
        store = ScoreStore()
        store.put(graph, local_nodes, SETTINGS.damping, reference)
        assert store.persist(tmp_path) == 1

        reloaded_store = ScoreStore()
        assert reloaded_store.warm_load(tmp_path, graph) == 1
        hit = reloaded_store.lookup(graph, local_nodes, SETTINGS.damping)
        assert hit is not None
        assert np.array_equal(hit.scores.scores, reference.scores)
        assert not hit.stale
        assert hit.staleness == 0.0
        assert (
            hit.scores.extras["error_bound"]
            == reference.extras["error_bound"]
        )
