"""Process-parallel multi-subgraph ranking over shared-memory graphs.

The paper's cost model (§IV-B, Tables V/VI) makes ranking many
subgraphs of one global graph embarrassingly parallel: after a single
shared global pass, each ApproxRank solve touches only local state.
This package turns that observation into a multi-core batch engine:

* :class:`~repro.parallel.shm.SharedGraphStore` publishes a
  :class:`~repro.graph.digraph.CSRGraph`'s CSR arrays (plus optional
  per-node metadata) through ``multiprocessing.shared_memory`` so
  worker processes attach zero-copy instead of unpickling a full copy
  of the graph per task;
* :func:`~repro.parallel.executor.rank_many` fans K subgraph solves
  (ApproxRank or any of the paper's baselines) across a
  ``ProcessPoolExecutor`` with chunked scheduling, deterministic
  result ordering, per-worker reuse of the precomputed global pass,
  and a serial fallback that produces bit-identical scores.

The executor is fault tolerant: infrastructure failures (killed
workers, hung chunks, vanished segments) are retried under a
:class:`~repro.resilience.policy.RetryPolicy` and, when the retry
budget runs out, execution degrades gracefully to the bit-identical
serial path.  See :mod:`repro.resilience` for the policy, the fault
injector and the checkpoint journal.
"""

from repro.parallel.executor import (
    PARALLEL_ALGORITHMS,
    rank_many,
    rank_many_suite,
)
from repro.resilience.policy import RetryPolicy
from repro.parallel.shm import (
    SharedGraphHandle,
    SharedGraphStore,
    attach_shared_graph,
    shared_memory_available,
)

__all__ = [
    "PARALLEL_ALGORITHMS",
    "RetryPolicy",
    "SharedGraphHandle",
    "SharedGraphStore",
    "attach_shared_graph",
    "rank_many",
    "rank_many_suite",
    "shared_memory_available",
]
