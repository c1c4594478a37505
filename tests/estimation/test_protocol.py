"""The RankEstimator protocol and spec parsing.

The contract every engine signs: a ``name``, an ``estimate()`` with
the exact-solver signature, a ``variant`` token carrying every
parameter that affects the returned scores, and extras holding
``estimator``/``error_bound``/``edges_touched``.  The exact engine is
additionally pinned bit-identical to a direct ``approxrank()`` call —
selecting ``--estimator exact`` anywhere must be a no-op.
"""

import numpy as np
import pytest

from repro.core.approxrank import approxrank
from repro.estimation import (
    ExactEstimator,
    PushEstimator,
    RankEstimator,
    resolve_estimator,
)
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
        assert isinstance(resolve_estimator("exact"), ExactEstimator)
        assert isinstance(resolve_estimator("push"), PushEstimator)

    def test_resolve_none_is_exact(self):
        assert isinstance(resolve_estimator(None), ExactEstimator)

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

    def test_engines_satisfy_the_protocol(self):
        for engine in (ExactEstimator(), PushEstimator()):
            assert isinstance(engine, RankEstimator)


class TestVariantTokens:
    """The variant IS the store-key component: every parameter in."""

    def test_exact_variant_is_bare(self):
        assert ExactEstimator().variant == "exact"

    def test_push_variant_round_trips_through_the_spec_grammar(self):
        engine = PushEstimator(r_max=1e-3)
        assert engine.variant == "push:r_max=0.001"
        assert resolve_estimator(engine.variant).variant == engine.variant

    def test_distinct_parameters_distinct_variants(self):
        assert (
            PushEstimator(r_max=1e-3).variant
            != PushEstimator(r_max=1e-4).variant
        )


class TestExactEngine:
    def test_bit_identical_to_approxrank(self, graph, local_nodes, prep):
        direct = approxrank(graph, local_nodes, SETTINGS, prep)
        via_protocol = ExactEstimator().estimate(
            graph, local_nodes, settings=SETTINGS, preprocessor=prep
        )
        assert np.array_equal(via_protocol.scores, direct.scores)
        np.testing.assert_array_equal(
            via_protocol.local_nodes, direct.local_nodes
        )
        assert via_protocol.method == direct.method
        assert via_protocol.iterations == direct.iterations

    def test_protocol_extras_present(self, graph, local_nodes, prep):
        scores = ExactEstimator().estimate(
            graph, local_nodes, settings=SETTINGS, preprocessor=prep
        )
        assert scores.extras["estimator"] == "exact"
        assert scores.extras["error_bound"] == 0.0
        assert scores.extras["edges_touched"] > 0
