"""Generic PageRank power iteration.

Solves the fixed point of

    x  =  damping * (A^T x  +  dangling_dist * m(x))  +  (1 - damping) * teleport

where ``m(x)`` is the probability mass sitting on dangling pages.  With
``dangling_dist = teleport`` this is the standard PageRank equation of
§II-A; IdealRank/ApproxRank reuse the same solver with their extended
matrices, ``teleport = P_ideal`` and ``dangling_dist = P_ideal`` (see
``repro.core.extended`` for why that choice makes Theorem 1 exact).

Convergence is declared when the L1 distance between successive
iterates drops below the tolerance, matching the paper's criterion
(|L1| < 0.00001 in §V-A).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.exceptions import ConvergenceError, DivergenceError
from repro.obs import telemetry
from repro.pagerank.backends import SolverBackend, resolve_backend
from repro.pagerank.kernels import PowerIterationWorkspace, run_power_loop


#: Damping factor ε used throughout the paper's experiments (§V-A).
DEFAULT_DAMPING = 0.85

#: Convergence tolerance on the L1 change between iterates (§V-A).
DEFAULT_TOLERANCE = 1e-5

#: Iteration cap; the paper's global runs converge in ~131 iterations,
#: so 1000 leaves a wide margin while still catching divergence bugs.
DEFAULT_MAX_ITERATIONS = 1000


@dataclass(frozen=True)
class PowerIterationSettings:
    """Solver knobs shared by every ranking algorithm.

    Attributes
    ----------
    damping:
        Probability ε of following a hyperlink (vs teleporting).
    tolerance:
        L1 convergence threshold between successive iterates.
    max_iterations:
        Hard cap on iterations.
    raise_on_divergence:
        When True, failing to converge raises
        :class:`~repro.exceptions.ConvergenceError`; when False the
        best iterate is returned with ``converged=False``.
    check_finite:
        Guard every sweep against NaN/Inf contamination of the iterate
        (one scalar ``isfinite`` on the residual); on detection raise
        :class:`~repro.exceptions.DivergenceError` immediately instead
        of iterating garbage to the cap.
    divergence_patience:
        Raise :class:`~repro.exceptions.DivergenceError` after this
        many *consecutive* sweeps whose residual failed to improve on
        the best seen (the damped update contracts in L1, so a healthy
        run improves every sweep).  ``0`` disables the guard.
    """

    damping: float = DEFAULT_DAMPING
    tolerance: float = DEFAULT_TOLERANCE
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    raise_on_divergence: bool = False
    check_finite: bool = True
    divergence_patience: int = 25

    def __post_init__(self) -> None:
        if not 0.0 < self.damping < 1.0:
            raise ValueError(f"damping must be in (0, 1), got {self.damping}")
        if self.tolerance <= 0:
            raise ValueError(
                f"tolerance must be positive, got {self.tolerance}"
            )
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if self.divergence_patience < 0:
            raise ValueError(
                f"divergence_patience must be >= 0, "
                f"got {self.divergence_patience}"
            )


@dataclass(frozen=True)
class PowerIterationOutcome:
    """Raw solver output (scores plus convergence accounting)."""

    scores: np.ndarray
    iterations: int
    residual: float
    converged: bool
    runtime_seconds: float


def _validate_distribution(name: str, vector: np.ndarray, size: int) -> np.ndarray:
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (size,):
        raise ValueError(
            f"{name} must have shape ({size},), got {vector.shape}"
        )
    # Non-finite entries must be rejected explicitly: every elementwise
    # comparison against NaN is False, so a NaN-carrying vector would
    # otherwise sail past the sign check and surface only as a
    # baffling "sums to nan" (or, with compensating Infs, not at all).
    if not np.all(np.isfinite(vector)):
        bad = int(np.flatnonzero(~np.isfinite(vector))[0])
        raise ValueError(
            f"{name} must contain only finite values; "
            f"entry {bad} is {vector[bad]!r}"
        )
    if np.any(vector < 0):
        raise ValueError(f"{name} must be non-negative")
    total = vector.sum()
    if not np.isclose(total, 1.0, rtol=0, atol=1e-8):
        raise ValueError(f"{name} must sum to 1, sums to {total!r}")
    return vector


def power_iteration(
    transition_t: sparse.csr_matrix,
    teleport: np.ndarray,
    dangling_mask: np.ndarray | None = None,
    dangling_dist: np.ndarray | None = None,
    settings: PowerIterationSettings | None = None,
    workspace: PowerIterationWorkspace | None = None,
    backend: "SolverBackend | str | None" = None,
) -> PowerIterationOutcome:
    """Run the damped power iteration to its stationary distribution.

    Every solve starts cold, from the personalisation vector.

    The iteration itself runs on the allocation-free kernels of the
    selected :class:`~repro.pagerank.backends.SolverBackend`: iterate
    and scratch buffers are preallocated once (or supplied by the
    caller) and every step is an in-place fused sweep.  The matrix is
    passed through :meth:`~repro.pagerank.backends.SolverBackend.prepare`
    (dtype cast, optional cache-aware relabeling — memoised per
    matrix), and results are always returned as float64 in original
    node order regardless of the solver's internal domain.

    Parameters
    ----------
    transition_t:
        ``A^T`` where ``A`` is the (sub-)row-stochastic transition
        matrix; dangling rows of ``A`` must be all-zero.
    teleport:
        Personalisation vector (sums to 1).
    dangling_mask:
        Boolean mask of dangling pages in ``A``; ``None`` means no
        dangling pages.
    dangling_dist:
        Where dangling mass is redistributed; defaults to ``teleport``.
    settings:
        Solver knobs; defaults to the paper's (ε=0.85, tol=1e-5).
    workspace:
        Optional preallocated
        :class:`~repro.pagerank.kernels.PowerIterationWorkspace` of the
        right size; pass one when solving repeatedly on the same graph
        so the steady state allocates nothing.  Its dtype must match
        the solver's; a mismatched workspace is ignored (a private
        one is allocated) rather than clobbered with casts.
    backend:
        Solver precision: a
        :class:`~repro.pagerank.backends.SolverBackend` instance,
        ``"float64"`` / ``"float32"``, or ``None`` for the process
        default (``REPRO_DTYPE``).

    Returns
    -------
    PowerIterationOutcome
        Scores summing to 1 plus convergence accounting.

    Raises
    ------
    ConvergenceError
        When ``settings.raise_on_divergence`` and the iteration cap is
        hit first.
    """
    if settings is None:
        settings = PowerIterationSettings()
    size = transition_t.shape[0]
    if transition_t.shape != (size, size):
        raise ValueError(
            f"transition_t must be square, got {transition_t.shape}"
        )
    if size == 0:
        raise ValueError("cannot rank an empty graph")
    # Callers often pass one array as both vectors (an extended-graph
    # solve redistributes dangling mass through P_ideal); check it once.
    shared = dangling_dist is None or dangling_dist is teleport
    teleport = _validate_distribution("teleport", teleport, size)
    if shared:
        dangling_dist = teleport
    else:
        dangling_dist = _validate_distribution(
            "dangling_dist", dangling_dist, size
        )
    if dangling_mask is None:
        dangling_indices = np.empty(0, dtype=np.int64)
    else:
        dangling_mask = np.asarray(dangling_mask, dtype=bool)
        if dangling_mask.shape != (size,):
            raise ValueError(
                f"dangling_mask must have shape ({size},), "
                f"got {dangling_mask.shape}"
            )
        dangling_indices = np.flatnonzero(dangling_mask)

    backend = resolve_backend(backend)
    prepared = backend.prepare(transition_t)

    caller_workspace = workspace is not None
    if workspace is not None and workspace.size != size:
        raise ValueError(
            f"workspace is sized for {workspace.size}, problem is {size}"
        )
    if workspace is not None and workspace.dtype != prepared.dtype:
        # Caller-owned buffers in the wrong precision for this solve:
        # solve in a private workspace rather than clobbering them.
        workspace = None
        caller_workspace = False
    if workspace is None:
        workspace = PowerIterationWorkspace(size, dtype=prepared.dtype)

    np.copyto(workspace.x, prepared.to_backend(teleport))

    damping = settings.damping
    base = prepared.to_backend((1.0 - damping) * teleport)
    kernel_dangling_dist = prepared.to_backend(dangling_dist)
    kernel_dangling_indices = prepared.map_indices(dangling_indices)
    tolerance = backend.effective_tolerance(settings.tolerance, size)
    guarded = settings.check_finite or settings.divergence_patience > 0
    trace: list[float] | None = [] if guarded else None
    start = time.perf_counter()
    try:
        iterations, residual, converged = run_power_loop(
            prepared.matrix,
            damping=damping,
            base=base,
            dangling_indices=kernel_dangling_indices,
            dangling_dist=kernel_dangling_dist,
            tolerance=tolerance,
            max_iterations=settings.max_iterations,
            workspace=workspace,
            check_finite=settings.check_finite,
            divergence_patience=settings.divergence_patience,
            residual_trace=trace,
            backend=backend,
        )
    except DivergenceError as exc:
        telemetry.record_divergence("power", exc.iterations or 0)
        raise
    runtime = time.perf_counter() - start
    telemetry.record_solve(
        "power",
        iterations=iterations,
        residual=residual,
        converged=converged,
        damping=damping,
        runtime_seconds=runtime,
        residual_trace=trace,
    )
    if prepared.identity:
        # A caller-owned workspace will be reused; hand back a private
        # copy of the final iterate so the next solve cannot clobber it.
        scores = workspace.x.copy() if caller_workspace else workspace.x
    else:
        # Restoration (cast to float64 / inverse permutation) already
        # produces a private array.
        scores = prepared.from_backend(workspace.x)
    if not converged and settings.raise_on_divergence:
        raise ConvergenceError(
            f"power iteration did not reach tolerance "
            f"{settings.tolerance} within {settings.max_iterations} "
            f"iterations (residual {residual:.3e})",
            iterations=iterations,
            residual=residual,
        )
    return PowerIterationOutcome(
        scores=scores,
        iterations=iterations,
        residual=residual,
        converged=converged,
        runtime_seconds=runtime,
    )


def uniform_teleport(size: int) -> np.ndarray:
    """The standard uniform personalisation vector ``[1/n]``."""
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    return np.full(size, 1.0 / size, dtype=np.float64)
