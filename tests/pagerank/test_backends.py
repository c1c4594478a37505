"""Tests for the solver and its float32 switch.

Three load-bearing guarantees:

* **Bit-identity of the default path** — the float64 solver with the
  original layout must reproduce the historical solver output byte for
  byte.
* **Cross-precision agreement** — every dtype must agree with float64:
  to 1e-12 L1 for float64 itself, and within the documented
  :func:`float32_l1_bound` for float32.
* **Caller-invisible relabeling** — degree-ordered CSR layouts are an
  internal detail; scores always come back float64 in original node
  order.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.graph.relabel import (
    degree_order_permutation,
    inverse_permutation,
    permute_csr,
    permute_vector,
    restore_vector,
)
from repro.pagerank.backends import (
    DTYPES,
    backend_info,
    default_backend,
    float32_l1_bound,
    resolve_backend,
    set_default_backend,
)
from repro.pagerank.solver import (
    PowerIterationSettings,
    power_iteration,
    uniform_teleport,
)
from repro.pagerank.transition import transition_matrix_transpose

pytestmark = pytest.mark.backends


def solve(graph, backend=None, settings=None):
    transition_t, dangling = transition_matrix_transpose(graph)
    return power_iteration(
        transition_t,
        teleport=uniform_teleport(graph.num_nodes),
        dangling_mask=dangling,
        settings=settings or PowerIterationSettings(),
        backend=backend,
    )


@pytest.fixture
def env_default(monkeypatch):
    """A process default re-read from a patched environment, reset after."""
    monkeypatch.delenv("REPRO_DTYPE", raising=False)
    set_default_backend(None)
    yield monkeypatch
    set_default_backend(None)


class TestRegistry:
    """The per-dtype solver instances and ``backend=`` spec parsing."""

    def test_get_backend_caches_instances(self):
        assert resolve_backend("float64") is resolve_backend("float64")
        assert resolve_backend("float64") is not resolve_backend(
            "float32"
        )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="'float64' or 'float32'"):
            resolve_backend("fortran")

    def test_spec_resolution(self):
        backend = resolve_backend("float32")
        assert backend.dtype == np.dtype(np.float32)

    def test_bad_dtype_spec_rejected(self):
        for spec in ("float16", "reference:float32", "f4", "Float64"):
            with pytest.raises(ValueError, match="backend must be"):
                resolve_backend(spec)

    def test_backend_info_payload(self):
        assert backend_info(resolve_backend("float32")) == {
            "dtype": "float32",
            "layout": "degree",
        }
        assert backend_info(resolve_backend("float64")) == {
            "dtype": "float64",
            "layout": "none",
        }


class TestDefaultSelection:
    def test_set_default_backend_none_resets_to_env(self, env_default):
        set_default_backend("float32")
        assert default_backend().dtype == np.dtype(np.float32)
        set_default_backend(None)
        assert default_backend().dtype == np.dtype(np.float64)

    def test_env_spec_drives_default(self, env_default):
        env_default.setenv("REPRO_DTYPE", "float32")
        set_default_backend(None)
        assert default_backend().dtype == np.dtype(np.float32)

    @pytest.mark.parametrize(
        "value", ["foo", " float32", "float32 ", "f4", "single", "d", ""]
    )
    def test_env_dtype_outside_the_two_names_rejected(
        self, env_default, value
    ):
        # numpy would parse "f4"/"single"/"d" as aliases and raise
        # TypeError on garbage; the contract is exactly two names.
        env_default.setenv("REPRO_DTYPE", value)
        set_default_backend(None)
        with pytest.raises(ValueError, match="REPRO_DTYPE"):
            default_backend()
        with pytest.raises(ValueError, match="REPRO_DTYPE"):
            resolve_backend(None)


class TestAgreement:
    """Satellite: parametrized per-dtype agreement sweep."""

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_cell_agrees_with_reference_f64(self, dtype, messy_graph):
        baseline = solve(messy_graph)  # default: float64
        outcome = solve(messy_graph, backend=dtype)
        gap = float(np.abs(outcome.scores - baseline.scores).sum())
        if dtype == "float64":
            assert gap <= 1e-12
        else:
            settings = PowerIterationSettings()
            bound = float32_l1_bound(
                messy_graph.num_nodes,
                settings.tolerance,
                settings.damping,
            )
            assert gap <= bound

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_scores_are_float64_and_normalised(self, dtype, messy_graph):
        outcome = solve(messy_graph, backend=dtype)
        assert outcome.scores.dtype == np.dtype(np.float64)
        assert outcome.scores.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.all(outcome.scores > 0)

    def test_reference_f64_is_bit_identical_to_default(
        self, messy_graph, tight_settings
    ):
        explicit = solve(
            messy_graph, backend="float64", settings=tight_settings
        )
        implicit = solve(messy_graph, settings=tight_settings)
        assert np.array_equal(explicit.scores, implicit.scores)


class TestFloat32Mode:
    def test_tolerance_floor_clamps_only_float32(self):
        f32 = resolve_backend("float32")
        f64 = resolve_backend("float64")
        assert f64.effective_tolerance(1e-12, 10_000) == 1e-12
        assert f32.effective_tolerance(1e-12, 10_000) > 1e-12
        assert f32.effective_tolerance(1e-3, 10_000) == 1e-3

    def test_bound_grows_with_size(self):
        settings = PowerIterationSettings()
        small = float32_l1_bound(100, settings.tolerance, settings.damping)
        large = float32_l1_bound(
            10**8, settings.tolerance, settings.damping
        )
        assert 0 < small <= large

    def test_float32_uses_degree_layout(self, messy_graph):
        backend = resolve_backend("float32")
        transition_t, __ = transition_matrix_transpose(messy_graph)
        prepared = backend.prepare(transition_t)
        assert prepared.perm is not None
        assert not prepared.identity
        assert prepared.matrix.dtype == np.dtype(np.float32)

    def test_prepare_is_memoised_per_matrix(self, messy_graph):
        backend = resolve_backend("float32")
        transition_t, __ = transition_matrix_transpose(messy_graph)
        assert backend.prepare(transition_t) is backend.prepare(
            transition_t
        )


class TestRelabel:
    def test_permutation_orders_by_descending_degree(self):
        matrix = sparse.csr_matrix(
            np.array(
                [
                    [0.0, 1.0, 0.0],
                    [1.0, 1.0, 1.0],
                    [0.0, 0.0, 0.0],
                ]
            )
        )
        perm = degree_order_permutation(matrix)
        assert perm.tolist() == [1, 0, 2]

    def test_permute_csr_round_trips(self, messy_graph):
        transition_t, __ = transition_matrix_transpose(messy_graph)
        perm = degree_order_permutation(transition_t)
        inv = inverse_permutation(perm)
        relabeled = permute_csr(transition_t, perm)
        restored = permute_csr(relabeled, inv)
        assert np.array_equal(
            restored.toarray(), transition_t.toarray()
        )

    def test_vector_restore_inverts_permute(self):
        rng = np.random.default_rng(0)
        vector = rng.random(50)
        perm = rng.permutation(50)
        relabeled = permute_vector(vector, perm)
        assert np.array_equal(restore_vector(relabeled, perm), vector)

    def test_relabeled_solve_returns_original_order(self, messy_graph):
        # The visible contract: a degree-relabeling backend must hand
        # back scores indexed by the caller's node ids.
        baseline = solve(messy_graph)
        relabeled = solve(
            messy_graph, backend=resolve_backend("float32")
        )
        # Same top domain structure: ranking of the clear winners agrees.
        top = np.argsort(baseline.scores)[-5:]
        settings = PowerIterationSettings()
        bound = float32_l1_bound(
            messy_graph.num_nodes, settings.tolerance, settings.damping
        )
        assert float(
            np.abs(relabeled.scores[top] - baseline.scores[top]).sum()
        ) <= bound
