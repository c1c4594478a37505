"""The serving wire format: HTTP/1.1 framing and the ranked-answer codec.

The server (and the router and shards built on it) reads requests,
and the router's asyncio client (:mod:`repro.serve.cluster.http`)
reads responses, through :func:`read_message`, so a malformed head is
rejected the same way on either side of a hop.

Every ranked answer (``/rank``, ``/search``, ``/semantic-search``) is
its route's own fields plus the serving-contract fields, laid out by
:func:`ranked_payload`; :func:`scores_from_payload` is the one way back
from a ``/rank`` payload to a
:class:`~repro.pagerank.result.SubgraphScores`.  Scores cross as JSON
floats: Python emits shortest-round-trip ``repr`` literals and parses
them back to the identical IEEE-754 double, so bit-identity survives
the wire.

A ``/rank`` answer is written by :func:`rank_body`, the one owner of
its byte layout.  The bulky part, the nodes and scores through
``lambda_score``, does not change while an entry stays in the
:class:`~repro.serve.store.ScoreStore`, so it is encoded once per
entry, by the first answer that reads it, and kept on the entry; each
answer splices its own contract fields after it.  The body is
byte-identical to ``json.dumps(payload) + "\\n"`` of the whole payload.
``/search`` and ``/semantic-search`` answers never encode a fragment.
"""

from __future__ import annotations

import asyncio
import json
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
    "rank_body",
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
    return fields


def ranked_payload(
    fields: dict, outcome: "RankOutcome", fingerprint: str
) -> dict:
    """A ranked answer: route ``fields`` plus the contract fields.

    The serving contract: an answer is either bit-identical to the
    offline solve on the graph ``graph_fingerprint`` names, or
    flagged ``stale`` with its charge attached.  An answer to an
    accuracy request (``?estimator=push:r_max=x``) also ships its
    certificate: ``estimator``, ``estimated`` (always false — the
    scores are the exact solve's) and the L1 ``error_bound``.
    """
    fields["cache_hit"] = outcome.cache_hit
    fields["stale"] = outcome.stale
    fields["staleness"] = outcome.staleness
    if outcome.estimator != "exact":
        fields["estimator"] = outcome.estimator
        fields["estimated"] = False
        fields["error_bound"] = outcome.error_bound
    fields["graph_fingerprint"] = fingerprint
    return fields


def _scores_fragment(scores: SubgraphScores) -> bytes:
    """:func:`scores_fields` as JSON without the closing brace."""
    return json.dumps(scores_fields(scores))[:-1].encode("utf-8")


def rank_body(
    outcome: "RankOutcome", fingerprint: str, degraded: bool = False
) -> bytes:
    """The ``/rank`` response body of ``outcome``, newline-terminated.

    Byte-identical to ``json.dumps(payload) + "\\n"`` of
    ``ranked_payload(scores_fields(outcome.scores), outcome,
    fingerprint)`` (plus ``"degraded": true`` for the router's
    last-known answer).  The scores' fragment is read from the store
    entry the outcome was served from, and built there on first use;
    an outcome without an entry encodes its own.
    """
    entry = outcome.entry
    if entry is None:
        fragment = _scores_fragment(outcome.scores)
    else:
        if entry.fragment is None:
            entry.fragment = _scores_fragment(entry.scores)
        fragment = entry.fragment
    contract = ranked_payload({}, outcome, fingerprint)
    if degraded:
        contract["degraded"] = True
    # Both halves are JSON objects: drop the contract's opening brace
    # and join them with the separator json.dumps itself writes.
    return b"".join((
        fragment, b", ", json.dumps(contract)[1:].encode("utf-8"), b"\n"
    ))


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
    if "estimator" in payload:
        extras["estimator"] = str(payload["estimator"])
        extras["estimated"] = bool(payload.get("estimated", False))
        extras["error_bound"] = float(payload.get("error_bound", 0.0))
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
