"""Performance infrastructure: caches and the benchmark harness.

This package holds the machinery that keeps repeated ranking work from
redoing structural computation, and the one harness that measures it:

* :mod:`repro.perf.cache` — a graph-identity-keyed cache of transition
  matrices, their transposes and per-subgraph local-block bundles, so
  repeated solves on the same (sub)graph never rebuild CSR structures.
* :mod:`repro.perf.harness` — the benchmark runner behind
  ``python -m repro bench NAME``: one registry of declarative specs,
  shared timing primitives, gates with waivers and self-describing
  records.
* :mod:`repro.perf.bench`, :mod:`repro.perf.backend_bench` and
  :mod:`repro.perf.parallel_bench` — the ``kernels``, ``backends``
  and ``parallel`` specs; :mod:`repro.perf.diff` compares records.
"""

from repro.perf.cache import (
    GLOBAL_TRANSITION_CACHE,
    CacheStats,
    LocalBlockBundle,
    TransitionCache,
    cached_local_block,
    cached_transition_matrix,
    cached_transition_matrix_transpose,
)

__all__ = [
    "CacheStats",
    "GLOBAL_TRANSITION_CACHE",
    "LocalBlockBundle",
    "TransitionCache",
    "cached_local_block",
    "cached_transition_matrix",
    "cached_transition_matrix_transpose",
]
