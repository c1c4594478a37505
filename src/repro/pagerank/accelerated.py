"""Accelerated PageRank solvers (§II-B of the paper).

The paper's related-work section surveys two classic accelerations of
the power iteration, both of which this module implements so the
engine matches the state of practice the paper assumes:

* **Aitken/quadratic extrapolation** (Kamvar, Haveliwala, Manning,
  Golub — WWW'03): periodically extrapolate the iterate sequence to
  cancel the second eigenvalue's contribution.  We implement the
  Aitken Δ² form applied component-wise every ``period`` iterations.
* **Adaptive PageRank** (Kamvar, Haveliwala, Golub — tech report
  2003): freeze pages whose scores have converged and stop spending
  mat-vec work on their rows.  We implement the practical variant that
  filters the *update*, not the matrix — rebuilding a shrinking matrix
  each sweep costs more than it saves at our scales, so frozen pages
  simply keep their value while the residual is measured over active
  pages only.

Both solvers converge to the same fixed point as the plain power
iteration (the tests assert agreement to solver tolerance) and report
the same :class:`~repro.pagerank.solver.PowerIterationOutcome`.  Like
the plain solver, their inner loops run on the allocation-free kernels
of the selected :class:`~repro.pagerank.backends.SolverBackend`:
iterate, scratch and (for the extrapolated variant) history buffers
are preallocated once and every step is in-place arithmetic.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import sparse

from repro.exceptions import ConvergenceError
from repro.pagerank.backends import SolverBackend, resolve_backend
from repro.pagerank.kernels import (
    PowerIterationWorkspace,
    dangling_mass,
)
from repro.pagerank.solver import (
    PowerIterationOutcome,
    PowerIterationSettings,
    _validate_distribution,
)


def power_iteration_extrapolated(
    transition_t: sparse.csr_matrix,
    teleport: np.ndarray,
    dangling_mask: np.ndarray | None = None,
    dangling_dist: np.ndarray | None = None,
    settings: PowerIterationSettings | None = None,
    period: int = 10,
    backend: "SolverBackend | str | None" = None,
) -> PowerIterationOutcome:
    """Power iteration with periodic Aitken Δ² extrapolation.

    Parameters
    ----------
    transition_t, teleport, dangling_mask, dangling_dist, settings:
        As in :func:`repro.pagerank.solver.power_iteration`.
    period:
        Extrapolate once every ``period`` iterations (needs three
        consecutive iterates; 10 matches the WWW'03 recommendation of
        applying extrapolation infrequently).
    backend:
        Solver precision (instance, ``"float64"`` / ``"float32"``, or
        ``None`` for the process default), as in
        :func:`repro.pagerank.solver.power_iteration`.

    Notes
    -----
    Component-wise Aitken extrapolation can overshoot into negative
    values on components with non-geometric error decay; the
    extrapolated vector is clipped at 0 and renormalised, which
    preserves the fixed point (the subsequent plain iterations contract
    toward it as usual).
    """
    if settings is None:
        settings = PowerIterationSettings()
    if period < 3:
        raise ValueError(f"period must be >= 3, got {period}")
    size = transition_t.shape[0]
    if size == 0:
        raise ValueError("cannot rank an empty graph")
    teleport = _validate_distribution("teleport", teleport, size)
    if dangling_dist is None:
        dangling_dist = teleport
    else:
        dangling_dist = _validate_distribution(
            "dangling_dist", dangling_dist, size
        )
    if dangling_mask is None:
        dangling_indices = np.empty(0, dtype=np.int64)
    else:
        dangling_indices = np.flatnonzero(
            np.asarray(dangling_mask, dtype=bool)
        )

    backend = resolve_backend(backend)
    prepared = backend.prepare(transition_t)
    damping = settings.damping
    base = prepared.to_backend((1.0 - damping) * teleport)
    dangling_dist = prepared.to_backend(dangling_dist)
    dangling_indices = prepared.map_indices(dangling_indices)
    tolerance = backend.effective_tolerance(settings.tolerance, size)

    workspace = PowerIterationWorkspace(size, dtype=prepared.dtype)
    np.copyto(workspace.x, prepared.to_backend(teleport))
    # Rotating three-slot history of iterates (oldest first); slots are
    # preallocated and recycled, never reallocated.
    history = [np.empty(size, dtype=prepared.dtype) for _ in range(3)]
    np.copyto(history[0], workspace.x)
    hist_len = 1

    start = time.perf_counter()
    residual = np.inf
    iterations = 0
    for iterations in range(1, settings.max_iterations + 1):
        residual = backend.step(
            prepared.matrix,
            workspace.x,
            workspace.x_next,
            damping=damping,
            base=base,
            dangling_indices=dangling_indices,
            dangling_dist=dangling_dist,
            scratch=workspace.scratch,
            workspace=workspace,
        )
        if hist_len < 3:
            np.copyto(history[hist_len], workspace.x_next)
            hist_len += 1
        else:
            history.append(history.pop(0))
            np.copyto(history[2], workspace.x_next)
        workspace.swap()
        if residual < tolerance:
            return PowerIterationOutcome(
                scores=prepared.from_backend(workspace.x),
                iterations=iterations,
                residual=residual,
                converged=True,
                runtime_seconds=time.perf_counter() - start,
            )
        if iterations % period == 0 and hist_len == 3:
            extrapolated = _aitken_extrapolate(*history)
            np.copyto(workspace.x, extrapolated)
            np.copyto(history[0], extrapolated)
            hist_len = 1
    if settings.raise_on_divergence:
        raise ConvergenceError(
            "extrapolated power iteration did not converge within "
            f"{settings.max_iterations} iterations "
            f"(residual {residual:.3e})",
            iterations=iterations,
            residual=residual,
        )
    return PowerIterationOutcome(
        scores=prepared.from_backend(workspace.x),
        iterations=iterations,
        residual=residual,
        converged=False,
        runtime_seconds=time.perf_counter() - start,
    )


def _aitken_extrapolate(
    x0: np.ndarray, x1: np.ndarray, x2: np.ndarray
) -> np.ndarray:
    """Component-wise Aitken Δ² extrapolation of three iterates."""
    delta1 = x1 - x0
    delta2 = x2 - 2.0 * x1 + x0
    safe = np.abs(delta2) > 1e-15
    extrapolated = x2.copy()
    extrapolated[safe] = x0[safe] - delta1[safe] ** 2 / delta2[safe]
    np.clip(extrapolated, 0.0, None, out=extrapolated)
    total = extrapolated.sum()
    if total <= 0:
        return x2
    return extrapolated / total


def power_iteration_adaptive(
    transition_t: sparse.csr_matrix,
    teleport: np.ndarray,
    dangling_mask: np.ndarray | None = None,
    dangling_dist: np.ndarray | None = None,
    settings: PowerIterationSettings | None = None,
    freeze_tolerance_fraction: float = 1e-3,
    check_period: int = 8,
    backend: "SolverBackend | str | None" = None,
) -> PowerIterationOutcome:
    """Adaptive power iteration: freeze pages that stopped moving.

    Every ``check_period`` iterations, pages whose per-component change
    fell below ``freeze_tolerance_fraction * tolerance / N`` are
    frozen: their scores stop being updated (their *outgoing*
    contributions continue, so mass stays consistent).  Frozen pages
    thaw automatically if the global residual stalls, guaranteeing the
    same fixed point as the plain iteration.

    Returns the usual :class:`PowerIterationOutcome`; ``iterations``
    counts full sweeps (each still one mat-vec — the saving at Python/
    scipy granularity is in the update and residual arithmetic, and the
    point here is algorithmic fidelity to §II-B, not constant factors).
    """
    if settings is None:
        settings = PowerIterationSettings()
    if check_period < 1:
        raise ValueError(
            f"check_period must be >= 1, got {check_period}"
        )
    if freeze_tolerance_fraction <= 0:
        raise ValueError(
            "freeze_tolerance_fraction must be positive, got "
            f"{freeze_tolerance_fraction}"
        )
    size = transition_t.shape[0]
    if size == 0:
        raise ValueError("cannot rank an empty graph")
    teleport = _validate_distribution("teleport", teleport, size)
    if dangling_dist is None:
        dangling_dist = teleport
    else:
        dangling_dist = _validate_distribution(
            "dangling_dist", dangling_dist, size
        )
    if dangling_mask is None:
        dangling_indices = np.empty(0, dtype=np.int64)
    else:
        dangling_indices = np.flatnonzero(
            np.asarray(dangling_mask, dtype=bool)
        )

    backend = resolve_backend(backend)
    prepared = backend.prepare(transition_t)
    damping = settings.damping
    base = prepared.to_backend((1.0 - damping) * teleport)
    dangling_dist = prepared.to_backend(dangling_dist)
    dangling_indices = prepared.map_indices(dangling_indices)
    tolerance = backend.effective_tolerance(settings.tolerance, size)
    freeze_threshold = (
        freeze_tolerance_fraction * settings.tolerance / size
    )

    workspace = PowerIterationWorkspace(size, dtype=prepared.dtype)
    np.copyto(workspace.x, prepared.to_backend(teleport))
    x, x_next, scratch = workspace.x, workspace.x_next, workspace.scratch
    frozen = np.zeros(size, dtype=bool)
    start = time.perf_counter()
    residual = np.inf
    stall_residual = np.inf
    iterations = 0
    for iterations in range(1, settings.max_iterations + 1):
        # The plain damped step, un-normalised, so the frozen pages can
        # be pinned *before* the renormalisation (matching the original
        # update order exactly).  The mat-vec goes through the backend
        # (compiled or scipy); the cheap vector arithmetic around it is
        # plain numpy either way.
        mass = dangling_mass(x, dangling_indices, workspace)
        backend.matvec_into(prepared.matrix, x, x_next)
        x_next *= damping
        if mass:
            np.multiply(dangling_dist, damping * mass, out=scratch)
            x_next += scratch
        x_next += base
        # Frozen pages keep their previous value.
        np.copyto(x_next, x, where=frozen)
        x_next /= x_next.sum()
        np.subtract(x_next, x, out=scratch)
        np.abs(scratch, out=scratch)
        residual = float(scratch.sum())
        x, x_next = x_next, x
        if residual < tolerance:
            return PowerIterationOutcome(
                scores=prepared.from_backend(x),
                iterations=iterations,
                residual=residual,
                converged=True,
                runtime_seconds=time.perf_counter() - start,
            )
        if iterations % check_period == 0:
            frozen |= scratch < freeze_threshold
            # Thaw everything if progress stalled: frozen components
            # may be holding the residual up.
            if residual >= 0.5 * stall_residual:
                frozen[:] = False
            stall_residual = residual
    if settings.raise_on_divergence:
        raise ConvergenceError(
            "adaptive power iteration did not converge within "
            f"{settings.max_iterations} iterations "
            f"(residual {residual:.3e})",
            iterations=iterations,
            residual=residual,
        )
    return PowerIterationOutcome(
        scores=prepared.from_backend(x),
        iterations=iterations,
        residual=residual,
        converged=False,
        runtime_seconds=time.perf_counter() - start,
    )
