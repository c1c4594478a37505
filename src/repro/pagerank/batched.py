"""Batched multi-vector power iteration.

Many workloads in this repo solve the *same* transition structure for
several right-hand sides: ObjectRank ranks once per keyword base set,
the ablation and stability studies sweep teleport vectors and damping
factors, and extended-graph callers may request several
personalisations of one subgraph.  Running those solves one at a time
re-reads the sparse matrix from memory once per solve per iteration —
and sparse mat-vec is memory-bound on the matrix, not the vector.

:func:`batched_power_iteration` stacks K teleport/dangling vectors
into an ``(n, K)`` dense block and drives all K walks through a single
sparse mat-mat per iteration (one pass over the matrix serves every
column), with per-column convergence tracking: a column that reaches
tolerance is frozen at its converged value and recorded, while the
remaining columns keep iterating.  Each column follows exactly the
update of :func:`repro.pagerank.solver.power_iteration`, so the
per-column results agree with K independent single solves to solver
tolerance — including dangling-mass redistribution, which is applied
per column from that column's own dangling distribution.

The inner loop runs on the allocation-free mat-mat kernels of the
selected :class:`~repro.pagerank.backends.SolverBackend`: the iterate
block, the scratch block and the per-column accumulators are
preallocated once (in the solver's dtype — the float32 mode halves
the block traffic too).

Per-column damping is supported (``dampings=``) so a damping sweep is
one batched solve instead of a loop of full solves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.exceptions import ConvergenceError, DivergenceError
from repro.obs import telemetry
from repro.pagerank.backends import SolverBackend, resolve_backend
from repro.pagerank.solver import (
    PowerIterationOutcome,
    PowerIterationSettings,
)


@dataclass(frozen=True)
class BatchedOutcome:
    """Raw output of one batched solve.

    Attributes
    ----------
    scores:
        ``(n, K)`` block; column k is the stationary distribution of
        walk k (sums to 1).
    iterations:
        Per-column iteration counts — the sweep at which each column
        first met the tolerance (or the final sweep if it never did).
    residuals:
        Per-column L1 residual at that column's last update.
    converged:
        Per-column convergence flags.
    sweeps:
        Total matrix sweeps performed (``= iterations.max()``); K
        sequential solves would have performed ``iterations.sum()``.
    runtime_seconds:
        Wall-clock of the whole batch.
    """

    scores: np.ndarray
    iterations: np.ndarray
    residuals: np.ndarray
    converged: np.ndarray
    sweeps: int
    runtime_seconds: float

    @property
    def num_columns(self) -> int:
        """K, the number of stacked walks."""
        return self.scores.shape[1]

    def column(self, k: int) -> PowerIterationOutcome:
        """View column ``k`` as a single-solve outcome.

        ``runtime_seconds`` is the batch wall-clock divided evenly
        across columns (the honest per-walk amortised cost).
        """
        if not 0 <= k < self.num_columns:
            raise IndexError(
                f"column {k} out of range for batch of {self.num_columns}"
            )
        return PowerIterationOutcome(
            scores=self.scores[:, k].copy(),
            iterations=int(self.iterations[k]),
            residual=float(self.residuals[k]),
            converged=bool(self.converged[k]),
            runtime_seconds=self.runtime_seconds / self.num_columns,
        )


def _validate_block(name: str, block: np.ndarray, size: int, k: int) -> np.ndarray:
    block = np.ascontiguousarray(block, dtype=np.float64)
    if block.ndim == 1:
        block = block.reshape(size, 1) if block.size == size else block
    if block.shape != (size, k):
        raise ValueError(
            f"{name} must have shape ({size}, {k}), got {block.shape}"
        )
    if float(block.min()) < 0:
        raise ValueError(f"{name} must be non-negative")
    totals = np.ones(size, dtype=np.float64) @ block
    if not np.allclose(totals, 1.0, rtol=0, atol=1e-8):
        raise ValueError(
            f"every column of {name} must sum to 1, sums are {totals!r}"
        )
    return block


def batched_power_iteration(
    transition_t: sparse.csr_matrix,
    teleports: np.ndarray,
    dangling_mask: np.ndarray | None = None,
    dangling_dists: np.ndarray | None = None,
    settings: PowerIterationSettings | None = None,
    dampings: np.ndarray | None = None,
    backend: "SolverBackend | str | None" = None,
) -> BatchedOutcome:
    """Solve K damped walks over one matrix in a single iteration loop.

    Parameters
    ----------
    transition_t:
        ``A^T`` as in :func:`repro.pagerank.solver.power_iteration`.
    teleports:
        ``(n, K)`` block of personalisation vectors, one per column
        (each sums to 1).
    dangling_mask:
        Boolean mask of dangling pages, shared by every column (it is a
        property of the matrix, not of the walk).
    dangling_dists:
        ``(n, K)`` block of dangling redistribution vectors; defaults
        to ``teleports`` (column k redistributes through its own
        teleport, matching the single solver's default).
    settings:
        Solver knobs shared by every column.
    dampings:
        Optional length-K per-column damping factors overriding
        ``settings.damping`` (used by damping sweeps); every value must
        lie in (0, 1).
    backend:
        Solver precision (instance, ``"float64"`` / ``"float32"``, or
        ``None`` for the process default), as in
        :func:`repro.pagerank.solver.power_iteration`.

    Returns
    -------
    BatchedOutcome
        Per-column scores and convergence accounting.

    Raises
    ------
    ConvergenceError
        When ``settings.raise_on_divergence`` and any column fails to
        converge within the iteration cap.
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
    teleports = np.ascontiguousarray(teleports, dtype=np.float64)
    if teleports.ndim != 2 or teleports.shape[0] != size:
        raise ValueError(
            f"teleports must have shape ({size}, K), got {teleports.shape}"
        )
    k = teleports.shape[1]
    if k == 0:
        raise ValueError("need at least one teleport column")
    teleports = _validate_block("teleports", teleports, size, k)
    if dangling_dists is None:
        dangling_dists = teleports
        dists_are_teleports = True
    else:
        dangling_dists = _validate_block(
            "dangling_dists", dangling_dists, size, k
        )
        dists_are_teleports = False
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
    tolerance = backend.effective_tolerance(settings.tolerance, size)
    drift_tolerance = backend.drift_tolerance()
    # Move the blocks into the solver's domain (row permutation +
    # dtype); in float64 these are no-op
    # passthroughs of the validated float64 blocks.
    teleports = prepared.to_backend_block(teleports)
    if dists_are_teleports:
        dangling_dists = teleports
    else:
        dangling_dists = prepared.to_backend_block(dangling_dists)
    dangling_indices = prepared.map_indices(dangling_indices)

    uniform_damping = dampings is None
    if dampings is None:
        damping_row = np.full(k, settings.damping, dtype=np.float64)
    else:
        damping_row = np.asarray(dampings, dtype=np.float64)
        if damping_row.shape != (k,):
            raise ValueError(
                f"dampings must have shape ({k},), got {damping_row.shape}"
            )
        if np.any((damping_row <= 0.0) | (damping_row >= 1.0)):
            raise ValueError("every damping must be in (0, 1)")

    x = teleports.copy()

    x_next = np.empty_like(x)
    scratch = np.empty_like(x)
    gather = (
        np.empty((dangling_indices.size, k), dtype=prepared.dtype)
        if dangling_indices.size
        else None
    )
    masses = np.empty(k, dtype=prepared.dtype)
    coef = np.empty(k, dtype=prepared.dtype)
    column_sums = np.empty(k, dtype=prepared.dtype)
    column_drift = np.empty(k, dtype=prepared.dtype)
    column_residuals = np.empty(k, dtype=prepared.dtype)
    # Column reductions over a C-contiguous (n, K) block through
    # ``sum(axis=0)`` degenerate into n tiny length-K inner loops; a
    # BLAS mat-vec against a ones vector reads the block in one
    # stream (~15x faster at K=8).
    ones = np.ones(size, dtype=prepared.dtype)

    if uniform_damping:
        damping = float(settings.damping)
        # With one shared damping the `x_next *= damping` pass can be
        # folded into the matrix itself: scale the stored values once
        # (one pass over the nnz, amortised over every sweep and every
        # column) and let the mat-mat produce damped mass directly.
        # The index arrays are shared with the prepared matrix.
        propagate = sparse.csr_matrix(
            (
                prepared.matrix.data * prepared.dtype.type(damping),
                prepared.matrix.indices,
                prepared.matrix.indptr,
            ),
            shape=prepared.matrix.shape,
        )
    else:
        damping = 0.0
        propagate = prepared.matrix

    # ObjectRank-style personalisations concentrate on small base
    # sets, leaving most teleport rows zero.  When the row support is
    # sparse enough, scattering the teleport term over just those rows
    # beats broadcasting a coefficient over the whole (n, K) block.
    tel_rows = np.flatnonzero(np.any(teleports != 0.0, axis=1))
    use_scatter = (
        uniform_damping
        and dists_are_teleports
        and 0 < tel_rows.size * 4 <= size
    )
    if use_scatter:
        tel_nz = np.ascontiguousarray(teleports[tel_rows])
        seed_buf = np.empty_like(tel_nz)
    else:
        tel_nz = seed_buf = None

    # The precomputed (1 − damping)·P block is only read by the paths
    # that cannot fold it into a per-column coefficient.
    if uniform_damping and dists_are_teleports:
        base = None
    else:
        base = ((1.0 - damping_row) * teleports).astype(
            prepared.dtype, copy=False
        )

    iterations = np.zeros(k, dtype=np.int64)
    residuals = np.full(k, np.inf, dtype=np.float64)
    converged = np.zeros(k, dtype=bool)
    active = np.ones(k, dtype=bool)

    # Divergence guards (see PowerIterationSettings): per-column best
    # residual + non-improving streaks, and a sweep-level residual
    # trace for the DivergenceError forensics.
    guarded = settings.check_finite or settings.divergence_patience > 0
    best_residuals = np.full(k, np.inf, dtype=np.float64)
    stall_streaks = np.zeros(k, dtype=np.int64)
    residual_history: list[float] = []

    start = time.perf_counter()
    sweeps = 0
    for sweeps in range(1, settings.max_iterations + 1):
        if gather is not None:
            np.take(x, dangling_indices, axis=0, out=gather)
            gather.sum(axis=0, out=masses)
        if uniform_damping:
            # Fast path: seed x_next with the teleport + dangling term
            # and let the damping-scaled mat-mat accumulate propagated
            # mass on top — no fill, no scale and no separate base-add
            # passes over the (n, K) block.
            if dists_are_teleports:
                # damping·m_k·P_k + (1−damping)·P_k collapses to one
                # per-column coefficient on the teleport block.
                if gather is not None:
                    np.multiply(masses, damping, out=coef)
                    coef += 1.0 - damping
                else:
                    coef.fill(1.0 - damping)
                if use_scatter:
                    backend.matmat_into(propagate, x, x_next)
                    np.multiply(tel_nz, coef, out=seed_buf)
                    x_next[tel_rows] += seed_buf
                else:
                    np.multiply(teleports, coef, out=x_next)
                    backend.matmat_accumulate(propagate, x, x_next)
            else:
                np.copyto(x_next, base)
                if gather is not None:
                    np.multiply(masses, damping, out=coef)
                    np.multiply(dangling_dists, coef, out=scratch)
                    x_next += scratch
                backend.matmat_accumulate(propagate, x, x_next)
        else:
            # Per-column dampings (damping sweeps): the scale cannot be
            # folded into the matrix, so apply it as a row broadcast.
            if gather is not None:
                masses *= damping_row
            backend.matmat_into(propagate, x, x_next)
            x_next *= damping_row
            if gather is not None:
                np.multiply(dangling_dists, masses, out=scratch)
                x_next += scratch
            x_next += base
        # The damped update preserves column mass exactly (the
        # teleport/dangling coefficients are built to complement the
        # propagated mass), so column sums drift from 1 only by
        # floating-point rounding.  Measure the drift with a cheap
        # BLAS reduction and pay the broadcast renormalisation pass
        # only when it actually accumulates.
        np.dot(ones, x_next, out=column_sums)
        np.subtract(column_sums, 1.0, out=column_drift)
        np.abs(column_drift, out=column_drift)
        if float(column_drift.max()) > drift_tolerance:
            x_next /= column_sums
        # Converged columns are pinned at their converged value so
        # later sweeps cannot move them.
        if not active.all():
            frozen = ~active
            x_next[:, frozen] = x[:, frozen]
        np.subtract(x_next, x, out=scratch)
        np.abs(scratch, out=scratch)
        np.dot(ones, scratch, out=column_residuals)
        x, x_next = x_next, x
        if guarded:
            residual_history.append(
                float(np.max(column_residuals[active]))
                if active.any()
                else 0.0
            )
        if settings.check_finite and not np.all(
            np.isfinite(column_residuals[active])
        ):
            bad = int(
                np.flatnonzero(active & ~np.isfinite(column_residuals))[0]
            )
            telemetry.record_divergence("batched", sweeps)
            raise DivergenceError(
                f"batched power iteration: column {bad} produced a "
                f"non-finite residual at sweep {sweeps}: the iterate "
                f"is contaminated with NaN/Inf",
                iterations=sweeps,
                residual=float(column_residuals[bad]),
                residual_trace=residual_history,
            )
        if settings.divergence_patience > 0:
            still_off = active & (column_residuals >= tolerance)
            worse = still_off & (column_residuals >= best_residuals)
            improved = still_off & (column_residuals < best_residuals)
            stall_streaks[worse] += 1
            stall_streaks[improved] = 0
            best_residuals[improved] = column_residuals[improved]
            if np.any(stall_streaks >= settings.divergence_patience):
                bad = int(np.argmax(stall_streaks))
                telemetry.record_divergence("batched", sweeps)
                raise DivergenceError(
                    f"batched power iteration: column {bad} has not "
                    f"improved for {int(stall_streaks[bad])} consecutive "
                    f"sweeps (best {float(best_residuals[bad]):.3e}, "
                    f"current {float(column_residuals[bad]):.3e} at "
                    f"sweep {sweeps}): diverging or cycling",
                    iterations=sweeps,
                    residual=float(column_residuals[bad]),
                    residual_trace=residual_history,
                )
        newly_done = active & (column_residuals < tolerance)
        iterations[active] = sweeps
        residuals[active] = column_residuals[active]
        if newly_done.any():
            converged |= newly_done
            active &= ~newly_done
        if not active.any():
            runtime = time.perf_counter() - start
            telemetry.record_batched_solve(
                iterations=iterations.tolist(),
                residuals=residuals.tolist(),
                converged=converged.tolist(),
                dampings=damping_row.tolist(),
                sweeps=sweeps,
                runtime_seconds=runtime,
                residual_trace=residual_history,
            )
            return BatchedOutcome(
                scores=prepared.from_backend_block(x),
                iterations=iterations,
                residuals=residuals,
                converged=converged,
                sweeps=sweeps,
                runtime_seconds=runtime,
            )
    runtime = time.perf_counter() - start
    telemetry.record_batched_solve(
        iterations=iterations.tolist(),
        residuals=residuals.tolist(),
        converged=converged.tolist(),
        dampings=damping_row.tolist(),
        sweeps=sweeps,
        runtime_seconds=runtime,
        residual_trace=residual_history,
    )
    if settings.raise_on_divergence:
        laggard = int(np.argmax(residuals * active))
        raise ConvergenceError(
            f"batched power iteration: {int(active.sum())} of {k} "
            f"columns did not reach tolerance {settings.tolerance} "
            f"within {settings.max_iterations} iterations "
            f"(worst residual {float(residuals[laggard]):.3e})",
            iterations=settings.max_iterations,
            residual=float(residuals[laggard]),
        )
    return BatchedOutcome(
        scores=prepared.from_backend_block(x),
        iterations=iterations,
        residuals=residuals,
        converged=converged,
        sweeps=sweeps,
        runtime_seconds=runtime,
    )


def stack_teleports(vectors: "list[np.ndarray] | tuple[np.ndarray, ...]", size: int) -> np.ndarray:
    """Stack per-walk teleport vectors into the ``(n, K)`` block form."""
    if not vectors:
        raise ValueError("need at least one teleport vector")
    block = np.empty((size, len(vectors)), dtype=np.float64)
    for k, vector in enumerate(vectors):
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (size,):
            raise ValueError(
                f"teleport {k} must have shape ({size},), "
                f"got {vector.shape}"
            )
        block[:, k] = vector
    return block
