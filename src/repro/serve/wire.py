"""The serving wire format: HTTP/1.1 framing and the ranked-answer codec.

The server (and the router and shards built on it) reads requests,
and the router's asyncio client (:mod:`repro.serve.cluster.http`)
reads responses, through :func:`read_message`, so a malformed head is
rejected the same way on either side of a hop.

Every ranked answer (``/rank``, ``/search``, ``/semantic-search``) is
its route's own fields plus the serving-contract fields, assembled
once by :func:`ranked_payload`; :func:`scores_from_payload` is the one
way back from a ``/rank`` payload to a
:class:`~repro.pagerank.result.SubgraphScores`.  Scores cross as JSON
floats: Python emits shortest-round-trip ``repr`` literals and parses
them back to the identical IEEE-754 double, so bit-identity survives
the wire.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING

import numpy as np

from repro.pagerank.result import SubgraphScores

if TYPE_CHECKING:
    from repro.serve.server import RankOutcome

__all__ = [
    "MAX_BODY_BYTES",
    "read_message",
    "scores_fields",
    "ranked_payload",
    "scores_from_payload",
]

#: Largest message body accepted (a node list for a million-page
#: subgraph fits comfortably; anything bigger is abuse).
MAX_BODY_BYTES = 64 * 1024 * 1024


async def read_message(
    reader: asyncio.StreamReader,
) -> tuple[str, dict[str, str], bytes] | None:
    """Read one HTTP/1.1 message: start line, headers and body.

    Returns ``None`` when the peer closed before sending anything.
    Header names are lower-cased and the body is framed by
    ``Content-Length`` (absent means empty).  A head the reader cannot
    frame — a ``Content-Length`` that is not an integer in
    ``[0, MAX_BODY_BYTES]``, or an over-long line — raises
    :class:`ValueError` before any body byte is read; a body cut short
    raises :class:`asyncio.IncompleteReadError`.
    """
    start = await reader.readline()
    if not start:
        return None
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    declared = headers.get("content-length") or "0"
    try:
        length = int(declared)
    except ValueError:
        length = -1
    if not 0 <= length <= MAX_BODY_BYTES:
        raise ValueError(
            f"malformed Content-Length {declared!r}: expected an "
            f"integer in [0, {MAX_BODY_BYTES}]"
        )
    body = await reader.readexactly(length) if length else b""
    return start.decode("latin-1").strip(), headers, body


def scores_fields(scores: SubgraphScores) -> dict:
    """The ``/rank`` answer fields of one solved subgraph."""
    fields = {
        "nodes": scores.local_nodes.tolist(),
        "scores": scores.scores.tolist(),
        "method": scores.method,
        "iterations": scores.iterations,
        "residual": scores.residual,
        "converged": scores.converged,
        "runtime_seconds": scores.runtime_seconds,
    }
    extras = scores.extras
    if "lambda_score" in extras:
        fields["lambda_score"] = extras["lambda_score"]
    if "warm_start" in extras:
        fields["warm_start"] = bool(extras["warm_start"])
        fields["iterations_saved"] = int(
            extras.get("iterations_saved", 0)
        )
    if "edges_touched" in extras:
        fields["edges_touched"] = int(extras["edges_touched"])
    return fields


def ranked_payload(
    fields: dict, outcome: "RankOutcome", fingerprint: str
) -> dict:
    """A ranked answer: route ``fields`` plus the contract fields.

    The serving contract: an answer is either bit-identical to the
    offline solve on the graph ``graph_fingerprint`` names, or
    flagged ``stale`` with its charge attached.  Sublinear results
    are flagged non-bit-identical and ship their certificate
    (``estimator``/``estimated``/``error_bound``) with the scores.
    """
    fields["cache_hit"] = outcome.cache_hit
    fields["stale"] = outcome.stale
    fields["staleness"] = outcome.staleness
    extras = outcome.scores.extras
    estimator = extras.get("estimator")
    if estimator is not None:
        fields["estimator"] = str(estimator)
        fields["estimated"] = estimator != "exact"
        fields["error_bound"] = float(extras.get("error_bound", 0.0))
    fields["graph_fingerprint"] = fingerprint
    return fields


def scores_from_payload(payload: dict) -> SubgraphScores:
    """Rebuild the served :class:`SubgraphScores` from a ``/rank`` answer.

    The contract fields ride along in ``extras`` (``cache_hit``, and
    ``stale``/``staleness``/``degraded``/the estimator certificate
    when present) so a caller can honour the fresh-or-flagged
    contract without re-requesting.  Raises :class:`KeyError`,
    :class:`TypeError` or :class:`ValueError` on a payload that is
    not a ``/rank`` answer.
    """
    extras: dict = {"cache_hit": payload["cache_hit"]}
    if "lambda_score" in payload:
        extras["lambda_score"] = payload["lambda_score"]
    if payload.get("stale"):
        extras["stale"] = True
        extras["staleness"] = float(payload.get("staleness", 0.0))
    if payload.get("degraded"):
        extras["degraded"] = True
    if "warm_start" in payload:
        extras["warm_start"] = bool(payload["warm_start"])
        extras["iterations_saved"] = int(
            payload.get("iterations_saved", 0)
        )
    if "estimator" in payload:
        extras["estimator"] = str(payload["estimator"])
        extras["estimated"] = bool(payload.get("estimated", False))
        extras["error_bound"] = float(payload.get("error_bound", 0.0))
        if "edges_touched" in payload:
            extras["edges_touched"] = int(payload["edges_touched"])
    return SubgraphScores(
        local_nodes=np.asarray(payload["nodes"], dtype=np.int64),
        scores=np.asarray(payload["scores"], dtype=np.float64),
        method=payload["method"],
        iterations=int(payload["iterations"]),
        residual=float(payload["residual"]),
        converged=bool(payload["converged"]),
        runtime_seconds=float(payload["runtime_seconds"]),
        extras=extras,
    )
