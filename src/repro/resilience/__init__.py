"""Resilience layer: retry policies, fault injection, checkpoints.

The parallel ranking pipeline of :mod:`repro.parallel` fans work
across processes that can be killed, hang, or hit transient
infrastructure failures; the iterative solvers can be fed corrupted
inputs that diverge; long experiment runs can crash halfway.  This
package supplies the machinery that turns each of those events into a
recovery instead of a lost run:

* :mod:`repro.resilience.policy` — :class:`RetryPolicy` (attempt caps,
  deterministic exponential backoff, per-chunk timeouts, total
  deadlines) and the retryable-vs-fatal error classifier every
  recovery decision routes through.
* :mod:`repro.resilience.faults` — a deterministic, environment-driven
  chaos injector (``REPRO_FAULTS=kill_worker:p=0.2,seed=7``) that can
  SIGKILL workers, delay chunks past their timeout, fail shared-memory
  attach, and raise transient errors — the substrate of the chaos test
  suite that proves every recovery path converges to correct scores.
* :mod:`repro.resilience.checkpoint` — an append-only, hash-verified
  JSONL journal backing ``python -m repro all --resume``.

Everything here is dependency-light by design: the solvers and the
executor import policies and injection hooks, never the other way
around.
"""

from repro.resilience.checkpoint import CheckpointJournal
from repro.resilience.faults import (
    FaultInjector,
    FaultSpec,
    arm_serve_faults,
    disarm_serve_faults,
    get_injector,
    maybe_inject,
    parse_faults,
    serve_fault_fires,
    set_injector,
)
from repro.resilience.policy import (
    AttemptRecord,
    FailureDecision,
    RetryPolicy,
    classify_failure,
    classify_failure_name,
    classify_http_status,
)

__all__ = [
    "AttemptRecord",
    "CheckpointJournal",
    "FailureDecision",
    "FaultInjector",
    "FaultSpec",
    "RetryPolicy",
    "arm_serve_faults",
    "classify_failure",
    "classify_failure_name",
    "classify_http_status",
    "disarm_serve_faults",
    "get_injector",
    "maybe_inject",
    "parse_faults",
    "serve_fault_fires",
    "set_injector",
]
