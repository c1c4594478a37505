"""Blocking HTTP client for the ranking service (stdlib only).

A thin convenience wrapper over :mod:`http.client` matching the
server's endpoints.  JSON floats round-trip bit-exactly (see
:mod:`repro.serve.wire`), so ``rank_scores`` reconstructs the served
:class:`~repro.pagerank.result.SubgraphScores` with the exact solver
output — the bit-identity tests compare through this path.

Each call opens its own connection, which makes one client instance
safe to share across load-generator threads.

Retries are **opt-in**: pass a
:class:`~repro.resilience.policy.RetryPolicy` and the client retries
connection-level failures and retryable HTTP statuses (503 with
``Retry-After`` honoured, 429/408/502/504) with the policy's
deterministic backoff, recording every attempt as an
:class:`~repro.resilience.policy.AttemptRecord` — the same recovery
history the parallel executor keeps.  This is safe because ``/rank``
and ``/search`` are pure queries (idempotent POSTs).  Deterministic
failures (other 4xx, 500) raise immediately, retries exhausted raise
:class:`~repro.exceptions.ServeRetriesExhaustedError` carrying the
full history.
"""

from __future__ import annotations

import http.client
import json
import logging
import time
import urllib.parse
from typing import Any, Iterable

from repro.exceptions import (
    ServeRequestError,
    ServeRetriesExhaustedError,
)
from repro.pagerank.result import SubgraphScores
from repro.resilience.policy import (
    AttemptRecord,
    RetryPolicy,
    classify_failure,
    classify_http_status,
)
from repro.serve.wire import scores_from_payload

__all__ = ["RankingClient"]

log = logging.getLogger(__name__)


class RankingClient:
    """Client for one ranking server (or shard router).

    Parameters
    ----------
    host / port:
        Server address (e.g. from ``BackgroundServer.address``).
    timeout:
        Socket timeout per request, in seconds.
    retry_policy:
        When given, connection failures and retryable HTTP statuses
        are retried under this policy (see module docstring); the
        default ``None`` keeps the historical single-attempt
        behaviour.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        retry_policy: RetryPolicy | None = None,
    ):
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.retry_policy = retry_policy
        #: Attempt history of the most recent retried call (empty when
        #: retries are off or the first attempt succeeded).
        self.last_attempts: tuple[AttemptRecord, ...] = ()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
    ) -> tuple[int, bytes, str, dict[str, str]]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = (
                json.dumps(payload).encode("utf-8")
                if payload is not None
                else None
            )
            headers = (
                {"Content-Type": "application/json"}
                if body is not None
                else {}
            )
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            content_type = response.getheader("Content-Type", "")
            response_headers = {
                name.lower(): value
                for name, value in response.getheaders()
            }
            return response.status, raw, content_type, response_headers
        finally:
            connection.close()

    @staticmethod
    def _decode(raw: bytes) -> Any:
        try:
            return json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return {"error": raw.decode("utf-8", "replace")}

    @staticmethod
    def _error(
        method: str, path: str, status: int, decoded: Any
    ) -> ServeRequestError:
        message = (
            decoded.get("error", f"HTTP {status}")
            if isinstance(decoded, dict)
            else f"HTTP {status}"
        )
        return ServeRequestError(
            f"{method} {path} failed: {message}",
            status=status,
            payload=decoded if isinstance(decoded, dict) else None,
        )

    def _json(
        self, method: str, path: str, payload: dict | None = None
    ) -> dict:
        if self.retry_policy is None:
            status, raw, __, __ = self._request(method, path, payload)
            decoded = self._decode(raw)
            if status >= 400:
                raise self._error(method, path, status, decoded)
            return decoded
        return self._json_retrying(method, path, payload)

    def _json_retrying(
        self, method: str, path: str, payload: dict | None
    ) -> dict:
        policy = self.retry_policy
        start = time.monotonic()
        attempts: list[AttemptRecord] = []
        last_status = 503
        last_message = "no attempt completed"
        last_payload: dict | None = None
        for attempt in range(1, policy.max_attempts + 1):
            final = attempt == policy.max_attempts or (
                policy.deadline_exceeded(time.monotonic() - start)
            )
            try:
                status, raw, __, headers = self._request(
                    method, path, payload
                )
            except Exception as exc:  # noqa: BLE001 — classified below
                decision = classify_failure(exc)
                attempts.append(self._record(
                    attempt,
                    type(exc).__name__,
                    str(exc),
                    retryable=decision.retryable,
                    action=(
                        "retry"
                        if decision.retryable and not final
                        else "raise"
                    ),
                    start=start,
                ))
                if not decision.retryable:
                    self.last_attempts = tuple(attempts)
                    raise
                last_status = 503
                last_message = f"{type(exc).__name__}: {exc}"
                last_payload = None
                if final:
                    break
                time.sleep(policy.backoff(attempt))
                continue
            decoded = self._decode(raw)
            if status < 400:
                self.last_attempts = tuple(attempts)
                return decoded
            decision = classify_http_status(status)
            if not decision.retryable:
                # Deterministic failure: replaying it replays the bug.
                self.last_attempts = tuple(attempts)
                raise self._error(method, path, status, decoded)
            attempts.append(self._record(
                attempt,
                f"Http{status}",
                str(
                    decoded.get("error", "")
                    if isinstance(decoded, dict)
                    else ""
                ),
                retryable=True,
                action="raise" if final else "retry",
                start=start,
            ))
            last_status = status
            last_message = (
                decoded.get("error", f"HTTP {status}")
                if isinstance(decoded, dict)
                else f"HTTP {status}"
            )
            last_payload = decoded if isinstance(decoded, dict) else None
            if final:
                break
            time.sleep(
                policy.retry_pause(attempt, headers.get("retry-after"))
            )
        self.last_attempts = tuple(attempts)
        raise ServeRetriesExhaustedError(
            f"{method} {path} failed after {len(attempts)} "
            f"attempt(s): {last_message}",
            status=last_status,
            payload=last_payload,
            attempts=attempts,
        )

    def _record(
        self,
        attempt: int,
        error_type: str,
        message: str,
        retryable: bool,
        action: str,
        start: float,
    ) -> AttemptRecord:
        record = AttemptRecord(
            attempt=attempt,
            stage="client",
            error_type=error_type,
            message=message[:200],
            retryable=retryable,
            action=action,
            elapsed_seconds=time.monotonic() - start,
        )
        log.info("client: %s", record.describe())
        return record

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def rank(
        self,
        nodes: Iterable[int],
        damping: float | None = None,
        deadline_seconds: float | None = None,
        estimator: str | None = None,
    ) -> dict:
        """``POST /rank``; returns the decoded JSON payload.

        ``estimator`` opts into the sublinear engines — the spec is
        sent as the ``/rank?estimator=`` query parameter, URL-encoded
        (estimated responses come back flagged ``estimated`` with
        their certified ``error_bound``).
        """
        payload: dict = {"nodes": [int(n) for n in nodes]}
        if damping is not None:
            payload["damping"] = float(damping)
        if deadline_seconds is not None:
            payload["deadline_seconds"] = float(deadline_seconds)
        return self._json(
            "POST", self._with_estimator("/rank", estimator), payload
        )

    def rank_scores(
        self,
        nodes: Iterable[int],
        damping: float | None = None,
        deadline_seconds: float | None = None,
        estimator: str | None = None,
    ) -> SubgraphScores:
        """``POST /rank`` reconstructed as a :class:`SubgraphScores`."""
        return scores_from_payload(self.rank(
            nodes, damping, deadline_seconds, estimator=estimator
        ))

    def search(
        self,
        nodes: Iterable[int],
        terms: Iterable[int],
        k: int = 10,
        mode: str = "all",
        damping: float | None = None,
        estimator: str | None = None,
    ) -> dict:
        """``POST /search``; returns the decoded JSON payload.

        ``estimator`` selects the ranking engine behind the answer
        list, exactly as in :meth:`rank`.
        """
        payload: dict = {
            "nodes": [int(n) for n in nodes],
            "terms": [int(t) for t in terms],
            "k": int(k),
            "mode": mode,
        }
        if damping is not None:
            payload["damping"] = float(damping)
        return self._json(
            "POST", self._with_estimator("/search", estimator), payload
        )

    def semantic_search(
        self,
        terms: Iterable[int],
        k: int = 10,
        damping: float | None = None,
        estimator: str | None = None,
    ) -> dict:
        """``POST /semantic-search``; returns the decoded payload.

        The query is free terms only — the server selects the
        semantic neighborhood, ranks it (exact by default, or under
        ``estimator``), and returns the deduplicated Top-``k`` with
        the neighborhood and dedup accounting.
        """
        payload: dict = {
            "terms": [int(t) for t in terms],
            "k": int(k),
        }
        if damping is not None:
            payload["damping"] = float(damping)
        return self._json(
            "POST",
            self._with_estimator("/semantic-search", estimator),
            payload,
        )

    @staticmethod
    def _with_estimator(path: str, estimator: str | None) -> str:
        if estimator is None:
            return path
        return path + "?estimator=" + urllib.parse.quote(
            str(estimator), safe=""
        )

    def update(self, delta_payload: dict) -> dict:
        """``POST /update`` — apply a graph delta (server or cluster).

        ``delta_payload`` is :meth:`repro.updates.delta.GraphDelta.to_payload`
        output (or a dict with a ``"delta"`` key wrapping one).
        """
        body = (
            delta_payload
            if "delta" in delta_payload
            else {"delta": delta_payload}
        )
        return self._json("POST", "/update", body)

    def healthz(self) -> dict:
        """``GET /healthz``."""
        return self._json("GET", "/healthz")

    def metrics_text(self) -> str:
        """``GET /metrics`` — raw Prometheus text exposition."""
        status, raw, __, __ = self._request("GET", "/metrics")
        if status >= 400:
            raise ServeRequestError(
                f"GET /metrics failed with HTTP {status}",
                status=status,
            )
        return raw.decode("utf-8")
