"""PageRank engine: transition matrices and the power-iteration solver.

This package implements standard PageRank exactly as reviewed in §II-A
of the paper — row-stochastic transition matrix from out-degrees,
damping factor ε (default 0.85), uniform personalisation, dangling-mass
redistribution, and L1-based convergence (default tolerance 1e-5) —
plus the generic solver the IdealRank/ApproxRank extended graphs reuse.

Performance layer
-----------------
There are two engines: :func:`power_iteration` for one walk and the
batched multi-vector solver of :mod:`repro.pagerank.batched` for
workloads that solve many walks over one matrix (per-keyword
ObjectRank, damping sweeps, multiple extended personalisations).
Both run on allocation-free kernels (preallocated iterate/scratch
buffers, in-place scipy ``_sparsetools`` mat-vecs) driven by
:class:`~repro.pagerank.backends.SolverBackend`, whose one switch is a
float32 score mode.  Transition matrices themselves are memoized per
graph by :mod:`repro.perf.cache`.
"""

from repro.pagerank.backends import (
    SolverBackend,
    backend_info,
    resolve_backend,
    set_default_backend,
)
from repro.pagerank.batched import (
    BatchedOutcome,
    batched_power_iteration,
    stack_teleports,
)
from repro.pagerank.globalrank import global_pagerank
from repro.pagerank.kernels import (
    PowerIterationWorkspace,
    csr_matmat_dense_into,
    csr_matvec_into,
)
from repro.pagerank.localrank import local_pagerank
from repro.pagerank.result import RankResult, SubgraphScores
from repro.pagerank.solver import PowerIterationSettings, power_iteration
from repro.pagerank.stability import (
    damping_sweep,
    edge_perturbation_study,
    perturbation_bound,
)
from repro.pagerank.transition import (
    csr_transpose,
    transition_matrix,
    transition_matrix_transpose,
)

__all__ = [
    "BatchedOutcome",
    "PowerIterationSettings",
    "PowerIterationWorkspace",
    "RankResult",
    "SolverBackend",
    "SubgraphScores",
    "backend_info",
    "batched_power_iteration",
    "csr_matmat_dense_into",
    "csr_matvec_into",
    "csr_transpose",
    "damping_sweep",
    "edge_perturbation_study",
    "global_pagerank",
    "local_pagerank",
    "perturbation_bound",
    "power_iteration",
    "resolve_backend",
    "set_default_backend",
    "stack_teleports",
    "transition_matrix",
    "transition_matrix_transpose",
]
