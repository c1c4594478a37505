"""Retry/timeout policies and the retryable-vs-fatal error classifier.

Every recovery decision the hardened executor makes — retry a chunk,
rebuild the pool, degrade to serial, give up — is driven by two pieces
of machinery defined here:

* :class:`RetryPolicy` bounds the recovery effort: how many rounds to
  attempt, how long one chunk may run (``chunk_timeout``), how long the
  whole batch may take (``total_deadline``), and how long to back off
  between rounds (exponential, with *deterministic seeded jitter* so
  two runs with the same policy sleep the same schedule — reproducible
  chaos tests depend on this).
* :func:`classify_failure` splits failures into **retryable**
  (infrastructure: a broken/hung pool, a killed worker, a vanished
  shared-memory segment, injected transient faults) and **fatal**
  (deterministic: invalid subgraphs, validation errors, diverging
  solves — retrying re-executes the same bug).  Every decision is
  logged on the ``repro.resilience`` logger.

:class:`AttemptRecord` is the structured trail of what happened; the
executor threads a tuple of them into the final
:class:`~repro.exceptions.ParallelError` when all recovery fails.
"""

from __future__ import annotations

import logging
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass

import numpy as np

from repro.exceptions import (
    ChunkTimeoutError,
    ConvergenceError,
    DatasetError,
    GraphError,
    InjectedFaultError,
    MetricError,
    ParallelError,
    SchemaError,
    SubgraphError,
    TransientFaultError,
)
from repro.obs.metrics import REGISTRY

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds and pacing for the executor's recovery loop.

    Attributes
    ----------
    max_attempts:
        Parallel rounds to attempt before degrading to the serial
        fallback (each round retries only the still-unfinished chunks).
    backoff_base:
        Sleep before the second round, in seconds.
    backoff_factor:
        Multiplier applied per additional round.
    backoff_max:
        Ceiling on any single backoff sleep.
    jitter:
        Fractional jitter (``0.1`` = ±10%) applied to each backoff.
        Jitter is drawn from a generator seeded by ``seed`` and the
        attempt number, so the schedule is deterministic per policy.
    seed:
        Seed for the jitter stream.
    chunk_timeout:
        Per-chunk deadline in seconds for ``future.result(timeout=...)``;
        ``None`` disables chunk timeouts (a hung worker then hangs the
        batch, as before this layer existed).
    total_deadline:
        Wall-clock budget for the whole parallel phase; once exceeded,
        remaining chunks go straight to the serial fallback.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.1
    seed: int = 2009
    chunk_timeout: float | None = None
    total_deadline: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff times must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ValueError(
                f"chunk_timeout must be positive, got {self.chunk_timeout}"
            )
        if self.total_deadline is not None and self.total_deadline <= 0:
            raise ValueError(
                f"total_deadline must be positive, got {self.total_deadline}"
            )

    def backoff(self, attempt: int) -> float:
        """Seconds to sleep after failed round ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        raw = min(
            self.backoff_base * self.backoff_factor ** (attempt - 1),
            self.backoff_max,
        )
        if not self.jitter or not raw:
            return raw
        rng = np.random.default_rng((self.seed, attempt))
        return raw * (1.0 + self.jitter * float(rng.uniform(-1.0, 1.0)))

    def retry_pause(
        self, attempt: int, retry_after: str | None = None
    ) -> float:
        """Seconds to wait before retrying an HTTP request.

        The :meth:`backoff` for ``attempt``, raised to the server's
        ``Retry-After`` hint when one was sent — capped at
        ``backoff_max`` so a pathological header cannot park the
        caller.  An unparseable hint is ignored.
        """
        pause = self.backoff(attempt)
        if retry_after:
            try:
                pause = max(
                    pause, min(float(retry_after), self.backoff_max)
                )
            except ValueError:
                pass
        return pause

    def remaining_deadline(self, elapsed: float) -> float | None:
        """Seconds left of the total budget; ``None`` when unbounded."""
        if self.total_deadline is None:
            return None
        return max(self.total_deadline - elapsed, 0.0)

    def effective_timeout(self, elapsed: float) -> float | None:
        """The deadline to pass to ``future.result``: the tighter of the
        per-chunk timeout and the remaining total budget."""
        remaining = self.remaining_deadline(elapsed)
        if remaining is None:
            return self.chunk_timeout
        if self.chunk_timeout is None:
            return remaining
        return min(self.chunk_timeout, remaining)

    def deadline_exceeded(self, elapsed: float) -> bool:
        """Whether the total budget is spent."""
        remaining = self.remaining_deadline(elapsed)
        return remaining is not None and remaining <= 0.0


@dataclass(frozen=True)
class AttemptRecord:
    """One entry of the executor's recovery history (picklable).

    Attributes
    ----------
    attempt:
        1-based round number ("serial fallback" rounds continue the
        numbering).
    stage:
        ``"parallel"`` or ``"serial"``.
    error_type:
        Class name of the triggering exception.
    message:
        Its message (truncated to keep attempt histories readable).
    retryable:
        The classifier's verdict.
    action:
        What the executor did next: ``"retry"``, ``"rebuild-pool"``,
        ``"serial-fallback"`` or ``"raise"``.
    elapsed_seconds:
        Wall-clock since the batch started when the failure surfaced.
    """

    attempt: int
    stage: str
    error_type: str
    message: str
    retryable: bool
    action: str
    elapsed_seconds: float

    def describe(self) -> str:
        """One-line rendering for logs and error messages."""
        kind = "retryable" if self.retryable else "fatal"
        return (
            f"attempt {self.attempt} ({self.stage}, "
            f"{self.elapsed_seconds:.2f}s): {self.error_type} [{kind}] "
            f"-> {self.action}: {self.message}"
        )


@dataclass(frozen=True)
class FailureDecision:
    """The classifier's verdict on one failure."""

    retryable: bool
    reason: str


#: Worker-side exception class names that indicate infrastructure
#: trouble — retrying against a healthy pool can succeed.
RETRYABLE_ERROR_NAMES: frozenset[str] = frozenset(
    {
        "BrokenExecutor",
        "BrokenProcessPool",
        "BrokenPipeError",
        "ChunkTimeoutError",
        "ConnectionError",
        "ConnectionResetError",
        "EOFError",
        "FileNotFoundError",
        "InjectedFaultError",
        "InterruptedError",
        "OSError",
        "TimeoutError",
        "TransientFaultError",
    }
)

#: Exception class names that indicate a deterministic bug in the task
#: itself — retrying replays the same failure, so fail fast.
FATAL_ERROR_NAMES: frozenset[str] = frozenset(
    {
        "ConvergenceError",
        "DatasetError",
        "DivergenceError",
        "GraphBuildError",
        "GraphError",
        "IndexError",
        "KeyError",
        "MetricError",
        "SchemaError",
        "SubgraphError",
        "TypeError",
        "ValueError",
    }
)

#: Exception *types* classified fatal when seen directly (parent side).
_FATAL_TYPES = (
    ConvergenceError,
    DatasetError,
    GraphError,
    MetricError,
    SchemaError,
    SubgraphError,
    ValueError,
    TypeError,
    KeyError,
    IndexError,
)


def _count_classification(name: str, decision: FailureDecision) -> None:
    REGISTRY.counter(
        "repro_resilience_classifications_total",
        "Failure-classifier verdicts by error type",
        error=name,
        verdict="retryable" if decision.retryable else "fatal",
    ).inc()


def classify_failure_name(name: str) -> FailureDecision:
    """Classify a failure by the *class name* of the original error.

    Worker-side exceptions cross the process boundary flattened into a
    :class:`~repro.exceptions.ParallelError` carrying only the original
    class name; this is the name-based half of the classifier.
    """
    if name in RETRYABLE_ERROR_NAMES:
        decision = FailureDecision(True, f"{name} is infrastructure-level")
    elif name in FATAL_ERROR_NAMES:
        decision = FailureDecision(False, f"{name} is deterministic")
    else:
        decision = FailureDecision(
            False, f"unrecognised error type {name!r}; not retrying blindly"
        )
    log.info(
        "classified %s as %s (%s)",
        name,
        "retryable" if decision.retryable else "fatal",
        decision.reason,
    )
    _count_classification(name, decision)
    return decision


#: HTTP statuses the serving tier treats as transient: the replica (or
#: the path to it) is momentarily unavailable, and the identical
#: request can succeed against another replica or after a backoff.
RETRYABLE_HTTP_STATUSES: frozenset[int] = frozenset(
    {408, 429, 502, 503, 504}
)


def classify_http_status(status: int) -> FailureDecision:
    """Classify an HTTP response status, mirroring the exception split.

    Retryable: 503 (load shedding / overload), 429, 408, and gateway
    5xx — all "try another replica or try later" conditions.  Fatal:
    every other 4xx (the request itself is wrong — replaying it
    replays the bug) and 500 (a deterministic server-side failure;
    blind retries would re-execute it).  2xx/3xx are not failures and
    classifying one is a caller bug, reported fatal.
    """
    status = int(status)
    if status in RETRYABLE_HTTP_STATUSES:
        decision = FailureDecision(
            True, f"HTTP {status} is transient (overload/unavailable)"
        )
    else:
        decision = FailureDecision(
            False, f"HTTP {status} is deterministic for this request"
        )
    log.info(
        "classified HTTP %d as %s (%s)",
        status,
        "retryable" if decision.retryable else "fatal",
        decision.reason,
    )
    _count_classification(f"http_{status}", decision)
    return decision


def classify_failure(exc: BaseException) -> FailureDecision:
    """Split a failure into retryable vs fatal, logging the decision.

    Retryable: broken/hung pools, chunk timeouts, vanished shm
    segments (``FileNotFoundError``/``OSError``), injected transient
    faults, and worker-side errors whose recorded ``error_type`` is in
    :data:`RETRYABLE_ERROR_NAMES`.  Fatal: everything deterministic —
    :class:`~repro.exceptions.SubgraphError`, validation errors,
    solver divergence — plus anything unrecognised (an unknown bug is
    not an excuse to burn retries).
    """
    if isinstance(exc, ChunkTimeoutError):
        decision = FailureDecision(True, "chunk missed its deadline")
    elif isinstance(exc, ParallelError):
        if exc.error_type is not None:
            return classify_failure_name(exc.error_type)
        decision = FailureDecision(
            False, "ParallelError without worker error context"
        )
    elif isinstance(exc, (TransientFaultError, InjectedFaultError)):
        decision = FailureDecision(True, "injected fault is transient")
    elif isinstance(exc, (BrokenExecutor, FuturesTimeoutError)):
        decision = FailureDecision(True, "process pool broke or timed out")
    elif isinstance(exc, _FATAL_TYPES):
        decision = FailureDecision(
            False, f"{type(exc).__name__} is deterministic"
        )
    elif isinstance(exc, OSError):
        decision = FailureDecision(
            True, f"{type(exc).__name__} is infrastructure-level"
        )
    else:
        return classify_failure_name(type(exc).__name__)
    log.info(
        "classified %s as %s (%s)",
        type(exc).__name__,
        "retryable" if decision.retryable else "fatal",
        decision.reason,
    )
    _count_classification(type(exc).__name__, decision)
    return decision
