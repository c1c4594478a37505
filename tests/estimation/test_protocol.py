"""Estimator spec parsing and the accuracy request's estimate().

``resolve_estimator`` parses the wire grammar: ``None``/``"exact"``
mean the plain exact path (``None``), ``push[:r_max=x]`` an accuracy
request.  ``PushEstimator.estimate`` is the exact solve — pinned
bit-identical to a direct ``approxrank()`` call — with its certified
bound in ``extras``.
"""

import numpy as np
import pytest

from repro.core.approxrank import approxrank
from repro.estimation import PushEstimator, resolve_estimator
from repro.exceptions import EstimationError

from tests.estimation.conftest import SETTINGS

pytestmark = pytest.mark.estimation


class TestRegistry:
    def test_builtin_engines_registered(self):
        # The engine table is fixed: exactly exact and push.
        with pytest.raises(
            EstimationError, match="known estimators: exact, push$"
        ):
            resolve_estimator("quantum")

    def test_resolve_by_bare_name(self):
        assert resolve_estimator("exact") is None
        assert resolve_estimator("push").r_max == 1e-3

    def test_resolve_none_is_exact(self):
        assert resolve_estimator(None) is None

    def test_resolve_passes_instances_through(self):
        engine = PushEstimator(r_max=1e-2)
        assert resolve_estimator(engine) is engine

    def test_spec_parameters_are_coerced(self):
        engine = resolve_estimator("push: r_max = 0.005 ")
        assert engine.r_max == 0.005

    def test_push_spec_accepts_scientific_notation(self):
        assert resolve_estimator("push:r_max=1e-4").r_max == 1e-4

    def test_unknown_name_raises(self):
        with pytest.raises(EstimationError, match="unknown estimator"):
            resolve_estimator("simulated-annealing")

    def test_unknown_parameter_raises(self):
        with pytest.raises(EstimationError):
            resolve_estimator("push:threshold=1e-4")

    @pytest.mark.parametrize(
        "spec",
        [
            "quantum",
            "montecarlo",
            "push:oops",
            "push:r_max=true",
            "push:r_max=1e-3,r_max=0.5",
            "push:r_max=",
            "push:r_max=nan",
            "exact:r_max=1e-3",
        ],
    )
    def test_bogus_specs_raise(self, spec):
        with pytest.raises(EstimationError):
            resolve_estimator(spec)

    def test_engines_satisfy_the_protocol(self, graph, local_nodes):
        # Every engine a spec can name answers estimate() with the
        # certificate in extras.
        engine = resolve_estimator("push:r_max=1e-2")
        scores = engine.estimate(graph, local_nodes, settings=SETTINGS)
        assert scores.extras["estimator"] == engine.name == "push"
        assert 0.0 <= scores.extras["error_bound"] <= 1e-2


class TestExactEngine:
    """The accuracy request's estimate() is the exact solve."""

    def test_bit_identical_to_approxrank(self, graph, local_nodes, prep):
        direct = approxrank(graph, local_nodes, SETTINGS, prep)
        via_request = PushEstimator(r_max=1e-3).estimate(
            graph, local_nodes, settings=SETTINGS, preprocessor=prep
        )
        assert np.array_equal(via_request.scores, direct.scores)
        np.testing.assert_array_equal(
            via_request.local_nodes, direct.local_nodes
        )
        assert via_request.method == direct.method
        assert via_request.iterations == direct.iterations
        assert via_request.residual == direct.residual

    def test_protocol_extras_present(self, graph, local_nodes, prep):
        scores = PushEstimator(r_max=1e-3).estimate(
            graph, local_nodes, settings=SETTINGS, preprocessor=prep
        )
        assert scores.extras["estimator"] == "push"
        assert scores.extras["r_max"] == 1e-3
        assert scores.extras["error_bound"] == pytest.approx(
            scores.residual / (1.0 - SETTINGS.damping)
        )
        assert "lambda_score" in scores.extras
