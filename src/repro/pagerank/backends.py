"""The solver behind every power iteration, and its float32 switch.

Every power-iteration variant in this repo (plain, extrapolated,
adaptive, batched) funnels through the same damped sweep.
:class:`SolverBackend` runs it on the allocation-free scipy
``_sparsetools`` kernels of :mod:`repro.pagerank.kernels`: it prepares
a transition matrix (dtype cast, optional cache-aware relabeling,
zero-copy index sharing), then runs the fused kernel operations over
it (damped step with residual, mat-vec, dense mat-mat).

Its one choice is the **score dtype**.  float64 (the default) keeps
the caller's matrix and layout, so results are bit-identical to the
historical solver.  float32 makes the big arrays (matrix values,
iterates, scratch) float32 — half the memory traffic of the
bandwidth-bound sweep — and relabels the matrix in descending-degree
order for cache locality; ``_sparsetools`` dispatches on the array
dtypes, so the same kernels serve both.  Public results are returned
as float64 in original node order either way.

Reduced precision raises the convergence floor: the L1 residual of a
float32 iterate carries roundoff of roughly ``sqrt(n)·eps32`` (signed
per-component errors, random-walk accumulation), so the effective
tolerance is clamped to :meth:`SolverBackend.tolerance_floor` and the
score error against a float64 solve is bounded by the two residuals
through the standard damped-contraction argument (DESIGN.md §11):

    ‖x32 − x64‖₁ ≤ (tol32_eff + tol64) / (1 − damping)

:func:`float32_l1_bound` is that documented bound; the benchmark gate
(``python -m repro bench backends``) and the tier-1 agreement tests
enforce it.

Selection
---------
``resolve_backend(None)`` returns the process default, set by
:func:`set_default_backend` or the ``REPRO_DTYPE`` environment
variable (exactly ``float64`` or ``float32``).  The CLI's
``--float32`` flag sets the same default, so the choice flows through
``run_all``, the benchmarks and the serving tier without signature
changes anywhere.
"""

from __future__ import annotations

import os
import threading
import weakref
from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy import sparse

from repro.graph.relabel import (
    degree_order_permutation,
    inverse_permutation,
    permute_csr,
)
from repro.obs.metrics import REGISTRY
from repro.pagerank import kernels

__all__ = [
    "PreparedSystem",
    "SolverBackend",
    "backend_info",
    "default_backend",
    "float32_l1_bound",
    "resolve_backend",
    "set_default_backend",
]

#: The score dtypes a solver runs in, by name.
DTYPES = ("float64", "float32")


def float32_l1_bound(
    size: int, tolerance: float, damping: float
) -> float:
    """Documented L1 error bound of a float32 solve vs float64.

    Both iterates sit within their residual of the same fixed point;
    the damped update is a ``damping``-contraction in L1, so each is
    within ``residual / (1 − damping)`` of it (DESIGN.md §11).  The
    float32 residual cannot fall below its roundoff floor, hence the
    clamp.
    """
    tol32 = max(tolerance, _f32_floor(size))
    return (tol32 + tolerance) / (1.0 - damping)


def _f32_floor(size: int) -> float:
    """Convergence floor of a float32 L1 residual over ``size`` entries.

    Each component of the residual carries roundoff of a few ulps of
    the component magnitude (~1/size for a probability vector);
    signed errors accumulate like a random walk, giving a floor of
    roughly ``sqrt(size)·eps32``.  The factor 8 is measured headroom
    (see BENCH_backend.json) so healthy solves declare convergence
    instead of stalling at the cap.
    """
    eps = float(np.finfo(np.float32).eps)
    return 8.0 * float(np.sqrt(max(size, 1))) * eps


@dataclass(frozen=True)
class PreparedSystem:
    """A transition matrix made ready for one solver precision.

    ``matrix`` is ``A^T`` in the solver's dtype and (optionally) the
    cache-aware relabeled domain.  When no transformation is needed the
    original matrix object passes through untouched — and when only the
    dtype changes, the index arrays (``indices``/``indptr``) are
    *shared* with the source matrix, so preparing a float32 view of a
    cached transpose costs one O(nnz) value cast and zero index copies.

    ``perm`` (``perm[new_id] = old_id``) is ``None`` when the layout is
    unchanged; callers map node-indexed vectors through
    :meth:`to_backend` / :meth:`from_backend` and never see relabeled
    ids.
    """

    matrix: sparse.csr_matrix
    dtype: np.dtype
    perm: np.ndarray | None = None
    inv: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def identity(self) -> bool:
        """True when no cast and no relabel happened (zero-copy)."""
        return self.perm is None and self.dtype == np.float64

    def to_backend(self, vector: np.ndarray) -> np.ndarray:
        """Cast + permute a float64 node vector into kernel domain."""
        if self.perm is not None:
            vector = vector[self.perm]
        if vector.dtype != self.dtype:
            vector = vector.astype(self.dtype)
        return vector

    def from_backend(self, vector: np.ndarray) -> np.ndarray:
        """Restore a kernel-domain vector to float64, original order."""
        if vector.dtype != np.float64:
            vector = vector.astype(np.float64)
        if self.perm is not None:
            restored = np.empty_like(vector)
            restored[self.perm] = vector
            vector = restored
        return vector

    def to_backend_block(self, block: np.ndarray) -> np.ndarray:
        """Row-permute + cast an ``(n, K)`` block into kernel domain."""
        if self.perm is not None:
            block = block[self.perm]
        return np.ascontiguousarray(block, dtype=self.dtype)

    def from_backend_block(self, block: np.ndarray) -> np.ndarray:
        """Restore an ``(n, K)`` block to float64, original row order."""
        if block.dtype != np.float64:
            block = block.astype(np.float64)
        if self.perm is not None:
            restored = np.empty_like(block)
            restored[self.perm] = block
            block = restored
        return block

    def map_indices(self, indices: np.ndarray) -> np.ndarray:
        """Relabel node indices (e.g. dangling ids) into kernel domain.

        Returned sorted so gathers walk the hot end of the iterate in
        ascending order.
        """
        if self.inv is None or not indices.size:
            return indices
        return np.sort(self.inv[indices])


class SolverBackend:
    """The damped power-iteration kernels at one score precision.

    An instance is identified by its dtype and is stateless apart from
    a per-matrix :class:`PreparedSystem` cache (identity-keyed,
    weakref-evicted, like :class:`repro.perf.cache.TransitionCache`).
    The layout follows the dtype: float64 keeps the original layout so
    its results stay bit-identical to the historical solver; float32
    (already not bit-identical) takes the degree-ordered cache win.
    """

    def __init__(self, dtype: Any = np.float64):
        dtype = np.dtype(dtype)
        if dtype.name not in DTYPES:
            raise ValueError(
                f"the solver supports float64/float32, got {dtype}"
            )
        self.dtype = dtype
        self.layout = "none" if dtype == np.float64 else "degree"
        self._prepared: dict[int, tuple[Any, PreparedSystem]] = {}
        self._lock = threading.Lock()

    # -- precision policy ----------------------------------------------

    def tolerance_floor(self, size: int) -> float:
        """Lowest meaningful convergence tolerance at this precision."""
        if self.dtype == np.dtype(np.float32):
            return _f32_floor(size)
        return 0.0

    def effective_tolerance(self, tolerance: float, size: int) -> float:
        """Requested tolerance clamped to the precision floor."""
        return max(float(tolerance), self.tolerance_floor(size))

    def drift_tolerance(self) -> float:
        """Column-sum drift that triggers renormalisation (batched)."""
        return 1e-12 if self.dtype == np.dtype(np.float64) else 1e-5

    # -- preparation ---------------------------------------------------

    def prepare(self, transition_t: sparse.csr_matrix) -> PreparedSystem:
        """Cast/relabel ``A^T`` for this precision, memoised per matrix.

        Keyed on matrix identity (transition matrices are derived from
        immutable graphs and themselves never mutated); entries hold a
        weak reference to the source matrix and die with it.
        """
        key = id(transition_t)
        with self._lock:
            hit = self._prepared.get(key)
            if hit is not None:
                ref, prepared = hit
                if ref() is transition_t:
                    return prepared
        prepared = self._build_prepared(transition_t)
        if prepared.identity and prepared.matrix is transition_t:
            return prepared  # nothing to cache: zero-copy passthrough
        with self._lock:
            try:
                ref = weakref.ref(
                    transition_t,
                    lambda _ref, _key=key: self._prepared.pop(_key, None),
                )
            except TypeError:  # pragma: no cover - unweakrefable matrix
                ref = lambda: transition_t  # noqa: E731
            self._prepared[key] = (ref, prepared)
        return prepared

    def _build_prepared(
        self, transition_t: sparse.csr_matrix
    ) -> PreparedSystem:
        perm = inv = None
        matrix = transition_t
        if self.layout == "degree":
            perm = degree_order_permutation(matrix)
            if np.array_equal(perm, np.arange(perm.size)):
                perm = None  # already degree-ordered; skip the copy
            else:
                inv = inverse_permutation(perm)
                matrix = permute_csr(matrix, perm)
        if matrix.dtype != self.dtype:
            if matrix is transition_t:
                # Cast values only; share the index arrays zero-copy
                # (the in-place transpose-reuse half of the layout
                # work: one O(nnz) cast, no O(nnz) index copies).
                matrix = sparse.csr_matrix(
                    (
                        matrix.data.astype(self.dtype),
                        matrix.indices,
                        matrix.indptr,
                    ),
                    shape=matrix.shape,
                    copy=False,
                )
            else:
                matrix.data = matrix.data.astype(self.dtype)
        return PreparedSystem(
            matrix=matrix, dtype=self.dtype, perm=perm, inv=inv
        )

    # -- kernel operations ---------------------------------------------

    def step(
        self,
        transition_t: sparse.csr_matrix,
        x: np.ndarray,
        out: np.ndarray,
        *,
        damping: float,
        base: np.ndarray,
        dangling_indices: np.ndarray,
        dangling_dist: np.ndarray,
        scratch: np.ndarray,
        workspace=None,
    ) -> float:
        """One fused damped step ``x → out``; returns the L1 residual.

        ``out`` ends normalised to sum 1; ``scratch`` is clobbered.
        """
        kernels.damped_step_into(
            transition_t,
            x,
            out,
            damping=damping,
            base=base,
            dangling_indices=dangling_indices,
            dangling_dist=dangling_dist,
            scratch=scratch,
            workspace=workspace,
        )
        return kernels.l1_residual_into(out, x, scratch)

    def matvec_into(
        self, matrix: sparse.csr_matrix, x: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """``out[:] = matrix @ x`` without allocating the result."""
        return kernels.csr_matvec_into(matrix, x, out)

    def matmat_into(
        self,
        matrix: sparse.csr_matrix,
        block: np.ndarray,
        out: np.ndarray,
    ) -> np.ndarray:
        """``out[:] = matrix @ block`` for a C-contiguous dense block."""
        return kernels.csr_matmat_dense_into(matrix, block, out)

    def matmat_accumulate(
        self,
        matrix: sparse.csr_matrix,
        block: np.ndarray,
        out: np.ndarray,
    ) -> np.ndarray:
        """``out += matrix @ block`` for a C-contiguous dense block."""
        return kernels.csr_matmat_dense_accumulate(matrix, block, out)


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------

_INSTANCES: dict[str, SolverBackend] = {}
_instances_lock = threading.Lock()

_default_lock = threading.Lock()
_default_backend: SolverBackend | None = None  # None → read REPRO_DTYPE


def _instance(value: str, source: str) -> SolverBackend:
    """The cached solver for a dtype name taken from ``source``."""
    if value not in DTYPES:
        raise ValueError(
            f"{source} must be 'float64' or 'float32', got {value!r}"
        )
    with _instances_lock:
        instance = _INSTANCES.get(value)
        if instance is None:
            instance = _INSTANCES[value] = SolverBackend(value)
    return instance


def resolve_backend(
    backend: "SolverBackend | str | None" = None,
) -> SolverBackend:
    """Resolve a ``backend=`` argument to a solver.

    ``None`` → the process default; ``"float64"`` / ``"float32"`` → the
    cached solver of that precision; an instance → itself.  A string
    resolution republishes the ``repro_solver_backend_info`` gauge so
    the active precision is always visible in observability snapshots.
    """
    if isinstance(backend, SolverBackend):
        return backend
    if isinstance(backend, str):
        resolved = _instance(backend, "backend")
        _publish_backend_info(resolved)
        return resolved
    return default_backend()


def default_backend() -> SolverBackend:
    """The process-default solver (``REPRO_DTYPE``, lazily resolved)."""
    global _default_backend
    with _default_lock:
        if _default_backend is None:
            _default_backend = _instance(
                os.environ.get("REPRO_DTYPE", "float64"), "REPRO_DTYPE"
            )
            _publish_backend_info(_default_backend)
        return _default_backend


def set_default_backend(spec: "SolverBackend | str | None") -> None:
    """Set the process-default solver.

    ``None`` resets to environment-driven resolution (``REPRO_DTYPE``,
    default ``float64``).
    """
    global _default_backend
    resolved = None if spec is None else resolve_backend(spec)
    with _default_lock:
        _default_backend = resolved
    if resolved is not None:
        _publish_backend_info(resolved)


def backend_info(
    backend: "SolverBackend | None" = None,
) -> dict[str, Any]:
    """Structured description of the active (or given) solver.

    The payload served by ``/healthz`` and rendered in the obs-report
    Solver section.
    """
    backend = backend if backend is not None else default_backend()
    return {"dtype": backend.dtype.name, "layout": backend.layout}


_last_info_labels: "dict[str, str] | None" = None


def _publish_backend_info(backend: SolverBackend) -> None:
    """Publish the active solver as an info-style gauge (value 1).

    Exactly one label set carries value 1 at any time: switching
    precision zeroes the previous label set first, so dashboards and
    the obs-report can read "the" active solver off the gauge.
    """
    global _last_info_labels
    labels = backend_info(backend)
    help_text = (
        "Active solver precision (info gauge: value 1 on the active "
        "label set)"
    )
    if _last_info_labels is not None and _last_info_labels != labels:
        REGISTRY.gauge(
            "repro_solver_backend_info", help_text, **_last_info_labels
        ).set(0.0)
    REGISTRY.gauge(
        "repro_solver_backend_info", help_text, **labels
    ).set(1.0)
    _last_info_labels = labels
