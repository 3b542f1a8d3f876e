"""Framed wire protocol for the ``tia-serve`` fleet daemon.

The original socket mode delimited a request by the client half-closing
its write side and a reply by the server closing the connection — no
request metadata, no typed errors, no way to say *busy, come back in
40 ms* without inventing sentinel strings.  This module replaces that
with explicit **length-prefixed frames** carrying a structured JSON
header and an opaque payload::

    +--------+------------+-------------+---------------+----------+
    | magic  | header_len | payload_len | header (JSON) | payload  |
    | 4 B    | u32 BE     | u32 BE      | header_len B  | len B    |
    +--------+------------+-------------+---------------+----------+

Both directions use the same frame.  Request headers carry::

    {"op": "solve" | "health" | "stats",
     "id": "<client-chosen request id>",
     "deadline_ms": <total budget in ms, or null>,
     "features": {<ScheduleFeatures overrides, wire-safe subset>},
     "trace": {"id": "<32-hex trace id>", "parent": "<pid.span_id>"}}

with the TIA assembly text as the payload of a ``solve``.  The
``trace`` member is W3C-traceparent-shaped distributed-trace context
(:mod:`repro.obs.core`): the client generates the trace id, the daemon
adopts it for every span it records on the request's behalf, and every
reply — including ``busy`` and ``error`` — echoes ``id`` and
``trace_id`` so a shed or failed hop is attributable from the client
side alone.  Reply headers carry a ``status``::

    ok      the solve finished; payload = emitted assembly, header
            lists per-routine {routine, kind, quality, coalesced}
    busy    the daemon shed the request (queue full, or draining);
            ``retry_after_ms`` hints when to retry, ``reason`` says why
    error   the request was malformed or failed; ``error`` names it
    health  liveness probe reply (uptime, in-flight, queue depth)
    stats   serving counters + store stats as JSON in the header

Design rules:

* **Bounded everything.** Header and payload lengths are checked
  against hard caps *before* allocation, so a garbage or hostile peer
  cannot make the daemon buffer unbounded data; reads honor the socket
  timeout the daemon sets, so a stalled peer cannot wedge a worker.
* **Fail typed.** Anything malformed raises :class:`ProtocolError`
  (magic mismatch, truncated frame, oversize declaration, bad JSON);
  socket timeouts surface as the stdlib ``TimeoutError`` for the
  caller to map onto its own policy.
* **Versioned.** The magic (``TIAF``) plus :data:`PROTOCOL_VERSION` in
  every header lets either side refuse a frame from a future protocol
  instead of misparsing it.

The client side lives in :mod:`repro.serve.client`; the daemon side in
:mod:`repro.serve.daemon`.
"""

from __future__ import annotations

import json
import struct
from dataclasses import replace

MAGIC = b"TIAF"
PROTOCOL_VERSION = 1

# Hard caps, checked before any allocation. Headers are small JSON
# dicts; payloads are TIA assembly text (requests) or emitted assembly
# (replies) — 32 MiB is orders of magnitude above the largest generated
# corpus routine.
MAX_HEADER_BYTES = 64 * 1024
MAX_PAYLOAD_BYTES = 32 * 1024 * 1024

_PREFIX = struct.Struct(">4sII")  # magic, header_len, payload_len

# ScheduleFeatures fields a client may override per request. Everything
# else (formulation switches that change schedule semantics) stays the
# daemon's choice so one replica serves one coherent cache keyspace.
WIRE_FEATURES = (
    "time_limit",
    "speculation",
    "cyclic",
    "partial_ready",
    "max_hops",
)

REQUEST_OPS = ("solve", "health", "stats")
REPLY_STATUSES = ("ok", "busy", "error", "health", "stats")


class ProtocolError(Exception):
    """A malformed, truncated or oversize frame."""


# -- framing ------------------------------------------------------------------
def pack_frame(header, payload=b""):
    """Serialize ``(header dict, payload bytes)`` into one frame."""
    header = dict(header)
    header.setdefault("v", PROTOCOL_VERSION)
    raw_header = json.dumps(header, sort_keys=True).encode("utf-8")
    if len(raw_header) > MAX_HEADER_BYTES:
        raise ProtocolError(f"header too large ({len(raw_header)} bytes)")
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise ProtocolError(f"payload too large ({len(payload)} bytes)")
    return _PREFIX.pack(MAGIC, len(raw_header), len(payload)) + raw_header + payload


def send_frame(sock, header, payload=b""):
    """Pack and ``sendall`` one frame."""
    sock.sendall(pack_frame(header, payload))


def _recv_exact(sock, want):
    """Read exactly ``want`` bytes; honors the socket timeout.

    Raises :class:`ProtocolError` on a mid-frame EOF, ``TimeoutError``
    when the socket timeout expires (the daemon's stalled-client bound).
    Returns ``None`` on a clean EOF before the first byte.
    """
    chunks = []
    got = 0
    while got < want:
        chunk = sock.recv(min(65536, want - got))
        if not chunk:
            if got == 0:
                return None
            raise ProtocolError(f"truncated frame: EOF after {got}/{want} bytes")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock, max_payload=MAX_PAYLOAD_BYTES):
    """Read one frame; ``(header dict, payload bytes)``.

    Returns ``None`` on a clean EOF before any byte (peer closed
    between frames).  Raises :class:`ProtocolError` for anything that
    is not a well-formed frame and ``TimeoutError`` if the socket
    timeout trips mid-read.
    """
    prefix = _recv_exact(sock, _PREFIX.size)
    if prefix is None:
        return None
    magic, header_len, payload_len = _PREFIX.unpack(prefix)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r} (not a tia-serve peer?)")
    if header_len > MAX_HEADER_BYTES:
        raise ProtocolError(f"declared header length {header_len} over cap")
    if payload_len > max_payload:
        raise ProtocolError(f"declared payload length {payload_len} over cap")
    raw_header = _recv_exact(sock, header_len)
    if raw_header is None or len(raw_header) != header_len:
        raise ProtocolError("truncated header")
    try:
        header = json.loads(raw_header.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"unparsable header: {exc}") from None
    if not isinstance(header, dict):
        raise ProtocolError("header is not a JSON object")
    version = header.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"protocol version {version!r} != {PROTOCOL_VERSION}")
    payload = b""
    if payload_len:
        payload = _recv_exact(sock, payload_len)
        if payload is None or len(payload) != payload_len:
            raise ProtocolError("truncated payload")
    return header, payload


# -- request/reply constructors ----------------------------------------------
def trace_header(trace_id, parent_ref=None):
    """The ``trace`` request-header member, or ``None`` for no context."""
    if not trace_id:
        return None
    member = {"id": str(trace_id)}
    if parent_ref is not None:
        member["parent"] = str(parent_ref)
    return member


def trace_from_header(header):
    """``(trace_id, parent_ref)`` carried by a request header."""
    trace = header.get("trace")
    if not isinstance(trace, dict):
        return (None, None)
    trace_id = trace.get("id")
    parent = trace.get("parent")
    return (
        None if trace_id is None else str(trace_id),
        None if parent is None else str(parent),
    )


def solve_request(text, request_id=None, deadline_ms=None, features=None,
                  trace=None):
    """``(header, payload)`` for a solve of ``text`` (TIA assembly).

    ``trace`` is a :func:`trace_header` dict (or ``None``) propagating
    the client's distributed-trace context to the daemon.
    """
    header = {"op": "solve"}
    if request_id is not None:
        header["id"] = str(request_id)
    if deadline_ms is not None:
        header["deadline_ms"] = int(deadline_ms)
    if trace:
        header["trace"] = dict(trace)
    if features:
        unknown = set(features) - set(WIRE_FEATURES)
        if unknown:
            raise ProtocolError(
                f"non-wire feature override(s): {sorted(unknown)} "
                f"(allowed: {', '.join(WIRE_FEATURES)})"
            )
        header["features"] = dict(features)
    return header, text.encode("utf-8")


def probe_request(op, request_id=None, trace=None):
    """Header for a ``health``/``stats`` probe (no payload)."""
    if op not in ("health", "stats"):
        raise ProtocolError(f"not a probe op: {op!r}")
    header = {"op": op}
    if request_id is not None:
        header["id"] = str(request_id)
    if trace:
        header["trace"] = dict(trace)
    return header, b""


def _stamp_trace(header, trace_id):
    if trace_id is not None:
        header["trace_id"] = str(trace_id)
    return header


def ok_reply(request_id, results, payload, trace_id=None):
    """``status=ok``: payload is the emitted assembly, ``results`` the
    per-routine ``{routine, kind, quality, coalesced}`` summaries."""
    return _stamp_trace({
        "status": "ok",
        "id": request_id,
        "results": list(results),
    }, trace_id), payload


def busy_reply(request_id, retry_after_ms, reason, queue_depth=None,
               trace_id=None):
    header = _stamp_trace({
        "status": "busy",
        "id": request_id,
        "retry_after_ms": int(retry_after_ms),
        "reason": reason,
    }, trace_id)
    if queue_depth is not None:
        header["queue_depth"] = int(queue_depth)
    return header, b""


def error_reply(request_id, error, trace_id=None):
    return _stamp_trace(
        {"status": "error", "id": request_id, "error": str(error)}, trace_id
    ), b""


def features_from_wire(base, overrides, deadline_budget=None):
    """Apply a wire ``features`` dict (and a deadline) onto ``base``.

    Only :data:`WIRE_FEATURES` keys are honored; unknown keys raise
    :class:`ProtocolError` so a typo'd client knob fails loudly instead
    of silently serving defaults.  ``deadline_budget`` (seconds, the
    request's remaining deadline at dispatch) tightens ``time_limit``
    but never widens it — the daemon's own limit is a ceiling.
    """
    overrides = overrides or {}
    unknown = set(overrides) - set(WIRE_FEATURES)
    if unknown:
        raise ProtocolError(f"unknown feature override(s): {sorted(unknown)}")
    features = replace(base, **overrides) if overrides else base
    return apply_deadline(features, deadline_budget)


def apply_deadline(features, budget):
    """``features`` with ``time_limit`` tightened to ``budget`` seconds.

    A deadline tightens the limit but never widens it — the daemon's
    own limit is a ceiling.  Returns ``features`` itself when ``budget``
    is ``None`` or no tighter, so ``is`` tells whether it tightened.
    """
    if budget is None:
        return features
    budget = max(1e-6, float(budget))
    if features.time_limit is None or budget < features.time_limit:
        return replace(features, time_limit=budget)
    return features
