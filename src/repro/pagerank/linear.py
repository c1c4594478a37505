"""PageRank as a sparse linear system (§II-B related work).

Del Corso, Gullí and Romani ("Fast PageRank computation via a sparse
linear system", the paper's reference [25]) observe that the PageRank
fixed point

    x = ε (A^T x + d^T x · v) + (1 − ε) t

is the solution of the linear system

    (I − ε A^T − ε v d^T) x = (1 − ε) t

where ``d`` is the dangling indicator, ``v`` the dangling-jump
distribution and ``t`` the teleport vector.  Solving it with a Krylov
method (BiCGSTAB here) converges in far fewer matrix–vector products
than the power iteration when the spectrum is unfavourable, at the cost
of less predictable behaviour.  The operator is applied matrix-free —
the rank-one dangling term never materialises.

The solver returns the same :class:`PowerIterationOutcome` shape as the
others and the tests assert agreement with the power iteration to
solver tolerance.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import sparse

from repro.exceptions import ConvergenceError
from repro.pagerank.solver import (
    PowerIterationOutcome,
    PowerIterationSettings,
    _validate_distribution,
)


def solve_linear_system(
    transition_t: sparse.csr_matrix,
    teleport: np.ndarray,
    dangling_mask: np.ndarray | None = None,
    dangling_dist: np.ndarray | None = None,
    settings: PowerIterationSettings | None = None,
) -> PowerIterationOutcome:
    """Solve the PageRank linear system with BiCGSTAB.

    Parameters match :func:`repro.pagerank.solver.power_iteration`;
    ``settings.tolerance`` is interpreted as the residual tolerance of
    the linear solve (then the result is renormalised to a probability
    vector, which the exact solution already is).

    Returns
    -------
    PowerIterationOutcome
        ``iterations`` counts operator applications (matrix–vector
        products), the comparable unit to power-iteration steps.
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
    teleport = _validate_distribution("teleport", teleport, size)
    if dangling_dist is None:
        dangling_dist = teleport
    else:
        dangling_dist = _validate_distribution(
            "dangling_dist", dangling_dist, size
        )
    if dangling_mask is None:
        dangling = np.zeros(size, dtype=np.float64)
    else:
        dangling_mask = np.asarray(dangling_mask, dtype=bool)
        if dangling_mask.shape != (size,):
            raise ValueError(
                f"dangling_mask must have shape ({size},), got "
                f"{dangling_mask.shape}"
            )
        dangling = dangling_mask.astype(np.float64)
    # Imported here: scipy.sparse.linalg costs every importer of
    # repro.pagerank ~0.1 s and ~10 MiB, and only this solver uses it.
    from scipy.sparse import linalg as sparse_linalg

    damping = settings.damping
    applications = 0

    def operator(vector: np.ndarray) -> np.ndarray:
        nonlocal applications
        applications += 1
        dangling_mass = float(dangling @ vector)
        return (
            vector
            - damping * (transition_t @ vector)
            - damping * dangling_mass * dangling_dist
        )

    linear_operator = sparse_linalg.LinearOperator(
        (size, size), matvec=operator, dtype=np.float64
    )
    rhs = (1.0 - damping) * teleport

    start = time.perf_counter()
    solution, info = sparse_linalg.bicgstab(
        linear_operator,
        rhs,
        x0=teleport.copy(),
        rtol=settings.tolerance,
        atol=0.0,
        maxiter=settings.max_iterations,
    )
    runtime = time.perf_counter() - start

    converged = info == 0
    residual = float(
        np.abs(operator(solution) - rhs).sum()
    )
    if not converged and settings.raise_on_divergence:
        raise ConvergenceError(
            f"BiCGSTAB did not converge (info={info}, residual "
            f"{residual:.3e})",
            iterations=applications,
            residual=residual,
        )
    total = solution.sum()
    if total > 0:
        solution = solution / total
    return PowerIterationOutcome(
        scores=solution,
        iterations=applications,
        residual=residual,
        converged=converged,
        runtime_seconds=runtime,
    )
