"""Residual local-push engine: the invariant, the bound, the locality.

The decomposition ``p = p̂ + Σ_u r(u)·ppr(u)`` makes ``‖r‖₁`` an
*exact* L1 error certificate, so these tests can demand more than
"error under bound": the measured error must track the reported bound
to float precision, and shrinking ``r_max`` must both tighten the answer
and keep the work proportional to the pushed frontier.
"""

import numpy as np
import pytest

from repro.core.approxrank import approxrank
from repro.estimation import PushEstimator
from repro.exceptions import EstimationError

from tests.estimation.conftest import SETTINGS

pytestmark = pytest.mark.estimation

#: Baseline truncation (~tol/(1−ε)) + float roundoff; the certificate
#: itself is exact, so the slack is only for the comparison baseline.
BASELINE_SLACK = 1e-9


@pytest.fixture(scope="module")
def exact(graph, local_nodes, prep):
    return approxrank(graph, local_nodes, SETTINGS, prep)


class TestCertificate:
    @pytest.mark.parametrize("r_max", [1e-2, 1e-3, 1e-4])
    def test_measured_l1_error_within_bound(
        self, graph, local_nodes, prep, exact, r_max
    ):
        scores = PushEstimator(r_max=r_max).estimate(
            graph, local_nodes, settings=SETTINGS, preprocessor=prep
        )
        local_gap = float(
            np.abs(scores.scores - exact.scores).sum()
        )
        lambda_gap = abs(
            scores.extras["lambda_score"]
            - exact.extras["lambda_score"]
        )
        measured = local_gap + lambda_gap
        assert (
            measured <= scores.extras["error_bound"] + BASELINE_SLACK
        )

    def test_reported_bound_at_most_r_max(
        self, graph, local_nodes, prep
    ):
        scores = PushEstimator(r_max=1e-3).estimate(
            graph, local_nodes, settings=SETTINGS, preprocessor=prep
        )
        assert scores.extras["error_bound"] <= 1e-3
        assert scores.extras["error_bound_apriori"] == pytest.approx(
            1e-3 / (1.0 - SETTINGS.damping)
        )

    def test_smaller_r_max_tightens_the_answer(
        self, graph, local_nodes, prep, exact
    ):
        errors = []
        for r_max in (1e-2, 1e-4):
            scores = PushEstimator(r_max=r_max).estimate(
                graph, local_nodes, settings=SETTINGS, preprocessor=prep
            )
            errors.append(
                float(np.abs(scores.scores - exact.scores).sum())
            )
        assert errors[1] < errors[0]


class TestLocality:
    def test_work_grows_with_precision(self, graph, local_nodes, prep):
        cheap = PushEstimator(r_max=1e-1).estimate(
            graph, local_nodes, settings=SETTINGS, preprocessor=prep
        )
        precise = PushEstimator(r_max=1e-4).estimate(
            graph, local_nodes, settings=SETTINGS, preprocessor=prep
        )
        assert (
            cheap.extras["edges_touched"]
            < precise.extras["edges_touched"]
        )
        assert cheap.extras["pushes"] < precise.extras["pushes"]

    def test_deterministic_without_a_seed(self, graph, local_nodes, prep):
        # Push has no randomness at all: two runs are bit-identical.
        first = PushEstimator(r_max=1e-3).estimate(
            graph, local_nodes, settings=SETTINGS, preprocessor=prep
        )
        second = PushEstimator(r_max=1e-3).estimate(
            graph, local_nodes, settings=SETTINGS, preprocessor=prep
        )
        assert np.array_equal(first.scores, second.scores)

    def test_estimate_underestimates_nothing_negative(
        self, graph, local_nodes, prep
    ):
        # p̂ only ever accumulates non-negative pushed mass, and sits
        # below the true fixed point coordinate-wise.
        scores = PushEstimator(r_max=1e-3).estimate(
            graph, local_nodes, settings=SETTINGS, preprocessor=prep
        )
        assert (scores.scores >= 0.0).all()


class TestValidation:
    @pytest.mark.parametrize("r_max", [0.0, -1e-3, 2.0])
    def test_r_max_range_enforced(self, r_max):
        with pytest.raises(EstimationError, match="r_max"):
            PushEstimator(r_max=r_max)
