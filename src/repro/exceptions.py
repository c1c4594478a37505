"""Typed exception hierarchy for the :mod:`repro` library.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing unrelated bugs::

    try:
        result = approxrank(graph, local_nodes)
    except ReproError as exc:
        log.error("ranking failed: %s", exc)
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """A graph is malformed or an operation on it is invalid."""


class GraphBuildError(GraphError):
    """Raised while assembling a graph from edges or arrays."""


class SubgraphError(ReproError):
    """A subgraph specification is invalid for the given global graph.

    Typical causes: node ids out of range, duplicates in the local node
    set, an empty local set, or a local set equal to the whole graph
    (so there is no external world for the Lambda node to represent).
    """


class ConvergenceError(ReproError):
    """An iterative solver failed to converge within its iteration cap.

    Attributes
    ----------
    iterations:
        Number of iterations performed before giving up.
    residual:
        The final L1 residual when the solver stopped.
    """

    def __init__(self, message: str, *, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual

    def __reduce__(self):
        # Keyword-only constructor arguments do not survive the default
        # Exception pickling (args-only); rebuild through kwargs so the
        # error can cross a process boundary intact.
        return (
            _rebuild_convergence_error,
            (type(self), self.args[0] if self.args else "", self.__dict__.copy()),
        )


def _rebuild_convergence_error(cls, message, state):
    exc = cls.__new__(cls)
    Exception.__init__(exc, message)
    exc.__dict__.update(state)
    return exc


class DivergenceError(ConvergenceError):
    """An iterative solver is actively diverging (not merely slow).

    Raised by the solver guards when the residual becomes non-finite
    (NaN/Inf contamination) or stops improving for a sustained stretch
    of sweeps — conditions under which running to the iteration cap
    would only waste time or overflow.

    Attributes
    ----------
    residual_trace:
        The per-sweep L1 residuals observed up to the failure, newest
        last — the forensic record of *how* the iteration went wrong.
    """

    def __init__(
        self,
        message: str,
        *,
        iterations: int,
        residual: float,
        residual_trace: "tuple[float, ...] | list[float]" = (),
    ):
        super().__init__(message, iterations=iterations, residual=residual)
        self.residual_trace = tuple(float(r) for r in residual_trace)


class ParallelError(ReproError):
    """Multi-process ranking failed.

    Raised by :mod:`repro.parallel` when a worker task fails fatally or
    when every recovery path (chunk retries, pool rebuilds, the serial
    fallback) has been exhausted.  The message is the historical
    human-readable string; structured context rides along as
    attributes.

    Attributes
    ----------
    subgraph:
        Name of the failing subgraph, when one task is to blame.
    algorithm:
        Algorithm of the failing task, when known.
    attempts:
        Tuple of :class:`repro.resilience.policy.AttemptRecord` — the
        full recovery history (retries, pool rebuilds, the serial
        fallback) that preceded this error.
    worker_traceback:
        Formatted traceback captured inside the worker process, when
        the failure happened on the far side of the pool.
    error_type:
        Class name of the original worker-side exception; the parent's
        retry machinery classifies retryable-vs-fatal from it.
    """

    def __init__(
        self,
        message: str,
        *,
        subgraph: str | None = None,
        algorithm: str | None = None,
        attempts: tuple = (),
        worker_traceback: str | None = None,
        error_type: str | None = None,
    ):
        super().__init__(message)
        self.subgraph = subgraph
        self.algorithm = algorithm
        self.attempts = tuple(attempts)
        self.worker_traceback = worker_traceback
        self.error_type = error_type

    def __reduce__(self):
        # Preserve the structured fields across pickling (the pool
        # round-trips worker exceptions through pickle).
        return (
            _rebuild_parallel_error,
            (type(self), self.args[0] if self.args else "", self.__dict__.copy()),
        )


def _rebuild_parallel_error(cls, message, state):
    exc = cls.__new__(cls)
    Exception.__init__(exc, message)
    exc.__dict__.update(state)
    return exc


class ChunkTimeoutError(ParallelError):
    """A chunk of parallel ranking work missed its per-attempt deadline.

    Attributes
    ----------
    timeout_seconds:
        The deadline that was exceeded.
    """

    def __init__(self, message: str, *, timeout_seconds: float | None = None, **kwargs):
        super().__init__(message, **kwargs)
        self.timeout_seconds = timeout_seconds


class CheckpointError(ReproError):
    """A checkpoint journal is unusable or inconsistent with the run.

    Raised when a journal cannot be written, or when resuming against a
    journal whose recorded configuration fingerprint does not match the
    current run (resuming would silently mix results from two different
    experiments).
    """


class InjectedFaultError(ReproError):
    """Base class for failures raised by the chaos fault injector."""


class TransientFaultError(InjectedFaultError):
    """An injected *transient* failure — retryable by definition.

    The fault injector raises this inside worker chunks to exercise the
    retry path; the error classifier always treats it as retryable.
    """


class ServeError(ReproError):
    """Base class for failures of the online ranking service."""


class ServiceOverloadedError(ServeError):
    """The admission queue is full; the request was rejected on arrival.

    The micro-batcher bounds its pending-request depth so a burst that
    outpaces the solver fails fast (a 503 on the wire) instead of
    queueing unboundedly and timing every caller out.
    """


class DeadlineExceededError(ServeError):
    """A request's deadline expired before its result was ready.

    Raised both when a queued request's deadline passes before its
    batch is solved (it is dropped without wasting solver time) and
    when the caller's wait on an in-flight solve times out.
    """

    def __init__(self, message: str, *, deadline_seconds: float | None = None):
        super().__init__(message)
        self.deadline_seconds = deadline_seconds


class ServeRequestError(ServeError):
    """A ranking-service HTTP request returned a non-success status.

    Raised client-side by :class:`repro.serve.client.RankingClient`.

    Attributes
    ----------
    status:
        The HTTP status code of the response.
    payload:
        The decoded JSON error body, when the server sent one.
    """

    def __init__(self, message: str, *, status: int, payload: dict | None = None):
        super().__init__(message)
        self.status = status
        self.payload = payload or {}


class ServeRetriesExhaustedError(ServeRequestError):
    """Every client-side retry of a ranking request failed.

    Raised by :class:`repro.serve.client.RankingClient` only when the
    caller opted into retries (a ``retry_policy`` was supplied); the
    single-attempt default raises the plain per-attempt errors.

    Attributes
    ----------
    attempts:
        Tuple of :class:`repro.resilience.policy.AttemptRecord` — one
        per attempt, mirroring the executor's recovery-history
        semantics (error type, retryable verdict, action taken).
    """

    def __init__(
        self,
        message: str,
        *,
        status: int,
        payload: dict | None = None,
        attempts: tuple = (),
    ):
        super().__init__(message, status=status, payload=payload)
        self.attempts = tuple(attempts)


class EstimationError(ReproError):
    """An estimator spec is invalid or its accuracy cannot be certified.

    Raised by :mod:`repro.estimation` for unknown estimator specs,
    invalid parameters (an ``r_max`` outside ``(0, 2)``), or an
    ``r_max`` below the certified L1 bound of the exact solve.
    """


class MetricError(ReproError):
    """Inputs to a ranking metric are incompatible (e.g. length mismatch)."""


class DatasetError(ReproError):
    """A synthetic dataset request is inconsistent or unsatisfiable."""


class SchemaError(ReproError):
    """An ObjectRank authority-transfer schema is malformed."""
