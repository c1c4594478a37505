"""A minimal asyncio HTTP/1.1 client for router→shard hops.

The router lives on an event loop; the blocking
:class:`~repro.serve.client.RankingClient` would stall every in-flight
request for the duration of one slow replica.  This module is the
non-blocking counterpart, scoped to exactly what the cluster needs:
one request per connection (``Connection: close``), explicit
``Content-Length`` framing, and a hard per-request timeout.

Responses are framed by the server's own head reader
(:func:`repro.serve.wire.read_message`).  The failure surface is
deliberately narrow so the router's classifier
(:func:`repro.resilience.policy.classify_failure`) sees retryable
types: a connection severed mid-response
(``asyncio.IncompleteReadError``), a server that sent nothing, and a
head that cannot be framed are all re-raised as
:class:`ConnectionResetError`; timeouts surface as
:class:`TimeoutError` via :func:`asyncio.wait_for`.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any

from repro.serve.wire import read_message

__all__ = ["HttpResponse", "http_request"]


@dataclass(frozen=True)
class HttpResponse:
    """One parsed HTTP response.

    Header names are lower-cased; :meth:`json` decodes the body,
    returning ``{}`` for an empty or non-JSON payload (the router
    treats the status code as authoritative and the body as best
    effort).
    """

    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        try:
            return json.loads(self.body.decode("utf-8") or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError):
            return {}


async def _request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes,
    headers: dict[str, str],
) -> HttpResponse:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        lines = [f"{method} {path} HTTP/1.1"]
        send_headers = {
            "Host": f"{host}:{port}",
            "Connection": "close",
            "Content-Length": str(len(body)),
        }
        if body:
            send_headers["Content-Type"] = "application/json"
        send_headers.update(headers)
        lines += [f"{k}: {v}" for k, v in send_headers.items()]
        writer.write(
            ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
        )
        await writer.drain()

        try:
            message = await read_message(reader)
        except ValueError as exc:
            raise ConnectionResetError(
                f"{host}:{port} sent a malformed response head: {exc}"
            ) from exc
        except asyncio.IncompleteReadError as exc:
            raise ConnectionResetError(
                f"{host}:{port} dropped the connection mid-response"
            ) from exc
        if message is None or not message[0]:
            raise ConnectionResetError(
                f"{host}:{port} closed the connection without a response"
            )
        status_line, response_headers, payload = message
        try:
            status = int(status_line.split(" ", 2)[1])
        except (ValueError, IndexError):
            raise ConnectionResetError(
                f"{host}:{port} sent a malformed status line: "
                f"{status_line!r}"
            )
        return HttpResponse(
            status=status, headers=response_headers, body=payload
        )
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes = b"",
    headers: dict[str, str] | None = None,
    timeout: float | None = None,
) -> HttpResponse:
    """Perform one HTTP request; returns the parsed response.

    ``body`` is sent verbatim (the router's pass-through path).
    ``timeout`` bounds the whole exchange — connect, send, and read —
    raising :class:`TimeoutError` when exceeded.
    """
    coro = _request(host, port, method, path, body, headers or {})
    if timeout is None:
        return await coro
    return await asyncio.wait_for(coro, timeout=timeout)
