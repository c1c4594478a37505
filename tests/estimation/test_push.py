"""The accuracy request's certificate: sound, within r_max, or refused.

``PushEstimator.estimate`` answers ``push:r_max=x`` with the exact
solve and certifies it with ``residual/(1−ε)`` over the n+1 extended
vector.  These tests solve at the default tolerance and measure the
error against a 1e-12-tolerance baseline: the bound must cover the
measured gap, never exceed ``r_max``, and an ``r_max`` below it must
be refused rather than answered.
"""

import numpy as np
import pytest

from repro.core.approxrank import approxrank
from repro.estimation import PushEstimator
from repro.exceptions import EstimationError
from repro.pagerank.solver import PowerIterationSettings

from tests.estimation.conftest import SETTINGS

pytestmark = pytest.mark.estimation

#: The default solver settings (tolerance 1e-5) the requests run at.
DEFAULT = PowerIterationSettings()

#: Absorbs the baseline's own truncation and float roundoff.
BASELINE_SLACK = 1e-9


@pytest.fixture(scope="module")
def baseline(graph, local_nodes, prep):
    return approxrank(graph, local_nodes, SETTINGS, prep)


def _l1_gap(scores, baseline) -> float:
    """Measured L1 error over the n+1 vector (local pages plus Λ)."""
    return float(np.abs(scores.scores - baseline.scores).sum()) + abs(
        scores.extras["lambda_score"] - baseline.extras["lambda_score"]
    )


class TestCertificate:
    @pytest.mark.parametrize("r_max", [1e-2, 1e-3, 1e-4])
    def test_measured_l1_error_within_bound(
        self, graph, local_nodes, prep, baseline, r_max
    ):
        scores = PushEstimator(r_max=r_max).estimate(
            graph, local_nodes, settings=DEFAULT, preprocessor=prep
        )
        measured = _l1_gap(scores, baseline)
        assert measured > 0.0  # the default tolerance truncates
        assert (
            measured <= scores.extras["error_bound"] + BASELINE_SLACK
        )

    def test_reported_bound_at_most_r_max(
        self, graph, local_nodes, prep
    ):
        scores = PushEstimator(r_max=1e-3).estimate(
            graph, local_nodes, settings=DEFAULT, preprocessor=prep
        )
        assert 0.0 < scores.extras["error_bound"] <= 1e-3
        assert scores.extras["error_bound"] <= (
            DEFAULT.tolerance / (1.0 - DEFAULT.damping)
        )

    def test_smaller_r_max_tightens_the_answer(
        self, graph, local_nodes, prep, baseline
    ):
        # Every r_max the certificate meets gets the same exact answer
        # (so the error never exceeds the tightest accepted r_max);
        # an r_max below the certificate is refused, naming both.
        bound = None
        for r_max in (1e-2, 1e-4):
            scores = PushEstimator(r_max=r_max).estimate(
                graph, local_nodes, settings=DEFAULT, preprocessor=prep
            )
            assert _l1_gap(scores, baseline) <= r_max
            bound = scores.extras["error_bound"]
        too_tight = bound / 2.0
        with pytest.raises(EstimationError) as info:
            PushEstimator(r_max=too_tight).estimate(
                graph, local_nodes, settings=DEFAULT, preprocessor=prep
            )
        assert f"{too_tight:.3g}" in str(info.value)
        assert f"{bound:.3g}" in str(info.value)


class TestLocality:
    def test_deterministic_without_a_seed(self, graph, local_nodes, prep):
        first = PushEstimator(r_max=1e-3).estimate(
            graph, local_nodes, settings=DEFAULT, preprocessor=prep
        )
        second = PushEstimator(r_max=1e-3).estimate(
            graph, local_nodes, settings=DEFAULT, preprocessor=prep
        )
        assert np.array_equal(first.scores, second.scores)
        assert first.extras["error_bound"] == second.extras["error_bound"]

    def test_estimate_underestimates_nothing_negative(
        self, graph, local_nodes, prep
    ):
        scores = PushEstimator(r_max=1e-3).estimate(
            graph, local_nodes, settings=DEFAULT, preprocessor=prep
        )
        assert (scores.scores >= 0.0).all()
        assert scores.extras["lambda_score"] >= 0.0


class TestValidation:
    @pytest.mark.parametrize("r_max", [0.0, -1e-3, 2.0])
    def test_r_max_range_enforced(self, r_max):
        with pytest.raises(EstimationError, match="r_max"):
            PushEstimator(r_max=r_max)

    def test_float32_adds_its_clamp(self, graph, local_nodes, prep):
        from repro.pagerank.backends import (
            float32_l1_bound,
            set_default_backend,
        )

        scores = prep.rank(local_nodes, DEFAULT)
        plain = PushEstimator.error_bound(scores, DEFAULT)
        set_default_backend("float32")
        try:
            clamped = PushEstimator.error_bound(scores, DEFAULT)
        finally:
            set_default_backend(None)
        assert clamped == pytest.approx(
            plain
            + float32_l1_bound(
                local_nodes.size + 1, DEFAULT.tolerance, DEFAULT.damping
            )
        )
