"""The load generator: closed loops over two keep-alive connections.

Each caller sends its next request only when the previous reply is
complete, as a search front end, a crawler or the shard router would.
Requests are pre-encoded bytes; a reply is kept only when the verifier
samples it (the first 32 replies and every 16th after that), so the
generator's own CPU stays small next to the server's.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable

from workloads import UPDATE_OFFSET_S, Inputs, Request

CONNECTIONS = 2
REQUEST_TIMEOUT_S = 30.0
SAMPLE_FIRST, SAMPLE_EVERY = 32, 16
_STALE = b'"stale": true'


@dataclass
class Outcome:
    request: Request
    start: float
    end: float
    #: HTTP status; 0 for a reset, a timeout or a torn reply.
    status: int
    stale: bool
    body: bytes | None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class Connection:
    """One keep-alive HTTP/1.1 connection, reopened after a failure."""

    def __init__(self, host: str, port: int):
        self._address = (host, port)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def send(self, raw: bytes) -> tuple[int, bytes]:
        try:
            return await asyncio.wait_for(self._send(raw), REQUEST_TIMEOUT_S)
        except (OSError, asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                asyncio.TimeoutError, ValueError):
            await self.close()
            return 0, b""

    async def _send(self, raw: bytes) -> tuple[int, bytes]:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                *self._address
            )
        self._writer.write(raw)
        head = (await self._reader.readuntil(b"\r\n\r\n")).lower()
        status = int(head[9:12])
        start = head.index(b"content-length:") + 15
        length = int(head[start:head.index(b"\r\n", start)])
        body = await self._reader.readexactly(length)
        if b"connection: close" in head:
            await self.close()
        return status, body

    async def close(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


class Load:
    """Drive one workload's streams for a warm-up and a window.

    ``on_window_start`` / ``on_window_end`` run on the event loop at the
    window's edges (trace signals, memory and CPU readings).
    """

    def __init__(
        self,
        inputs: Inputs,
        address: tuple[str, int],
        warmup_s: float,
        window_s: float,
        on_window_start: Callable[[], None] = lambda: None,
        on_window_end: Callable[[], None] = lambda: None,
    ):
        self._inputs = inputs
        self._address = address
        self._warmup = warmup_s
        self._window = window_s
        self._on_start = on_window_start
        self._on_end = on_window_end
        self.outcomes: list[Outcome] = []
        self._cursor = 0
        self.window_start = self.window_end = 0.0

    def run(self) -> list[Outcome]:
        asyncio.run(self._run())
        return self.outcomes

    async def _run(self) -> None:
        connections = [Connection(*self._address) for __ in range(CONNECTIONS)]
        self.window_start = time.perf_counter() + self._warmup
        self.window_end = self.window_start + self._window
        loop = self._inputs.workload.loop
        if loop == "shared":
            callers = [self._shared(c) for c in connections]
        elif loop == "lockstep":
            callers = [self._lockstep(connections)]
        else:
            callers = [self._shared(connections[0]),
                       self._update(connections[1])]
        try:
            await asyncio.gather(self._edges(), *callers)
        finally:
            for connection in connections:
                await connection.close()

    async def _edges(self) -> None:
        await asyncio.sleep(self.window_start - time.perf_counter())
        self._on_start()
        await asyncio.sleep(self.window_end - time.perf_counter())
        self._on_end()

    async def _send(self, connection: Connection, request: Request) -> None:
        start = time.perf_counter()
        status, body = await connection.send(request.raw)
        end = time.perf_counter()
        index = len(self.outcomes)
        # Every update is checked and every failure is kept for the
        # report.
        sampled = (
            index < SAMPLE_FIRST or index % SAMPLE_EVERY == 0
            or request.kind == "update" or not 200 <= status < 300
        )
        self.outcomes.append(Outcome(
            request, start, end, status, _STALE in body,
            body if sampled else None,
        ))

    def _advance(self, length: int) -> int:
        """The next stream position; both connections share the cursor,
        and a stream starts over at its end."""
        index = self._cursor % length
        self._cursor += 1
        return index

    async def _shared(self, connection: Connection) -> None:
        stream = self._inputs.streams[0]
        while time.perf_counter() < self.window_end:
            await self._send(connection, stream[self._advance(len(stream))])

    async def _lockstep(self, connections: list[Connection]) -> None:
        first, second = self._inputs.streams
        while time.perf_counter() < self.window_end:
            index = self._advance(len(first))
            await asyncio.gather(
                self._send(connections[0], first[index]),
                self._send(connections[1], second[index]),
            )

    async def _update(self, connection: Connection) -> None:
        due = self.window_start + UPDATE_OFFSET_S
        await asyncio.sleep(max(0.0, due - time.perf_counter()))
        await self._send(connection, self._inputs.update)


def phase(outcome: Outcome, load: Load) -> str:
    """``warmup``, ``window`` or ``drain``, by when the reply completed."""
    if outcome.end < load.window_start:
        return "warmup"
    return "window" if outcome.end <= load.window_end else "drain"
