"""Framed wire protocol: bounded, typed, versioned.

A frame either parses completely or raises a typed
``ProtocolError`` — truncation, oversize declarations, bad magic and
version drift must never surface as garbage text or unbounded reads.
"""

import socket
import struct
import threading

import pytest

from repro.serve import protocol


def _pipe():
    return socket.socketpair()


def test_frame_roundtrip():
    a, b = _pipe()
    try:
        header, payload = protocol.solve_request(
            ".proc p\n.endp\n", request_id="r1",
            deadline_ms=500, features={"time_limit": 5.0},
        )
        protocol.send_frame(a, header, payload)
        got_header, got_payload = protocol.recv_frame(b)
        assert got_header["op"] == "solve"
        assert got_header["id"] == "r1"
        assert got_header["deadline_ms"] == 500
        assert got_header["features"] == {"time_limit": 5.0}
        assert got_header["v"] == protocol.PROTOCOL_VERSION
        assert got_payload == b".proc p\n.endp\n"
    finally:
        a.close()
        b.close()


def test_empty_payload_frame():
    a, b = _pipe()
    try:
        protocol.send_frame(a, *protocol.probe_request("health", "h1"))
        header, payload = protocol.recv_frame(b)
        assert header["op"] == "health"
        assert payload == b""
    finally:
        a.close()
        b.close()


def test_clean_eof_returns_none():
    a, b = _pipe()
    a.close()
    try:
        assert protocol.recv_frame(b) is None
    finally:
        b.close()


def test_truncated_frame_raises():
    a, b = _pipe()
    try:
        raw = protocol.pack_frame({"op": "solve"}, b"payload bytes")
        a.sendall(raw[: len(raw) - 4])
        a.close()
        with pytest.raises(protocol.ProtocolError, match="truncated"):
            protocol.recv_frame(b)
    finally:
        b.close()


def test_bad_magic_raises():
    a, b = _pipe()
    try:
        a.sendall(b"HTTP" + b"\x00" * 8)
        a.close()
        with pytest.raises(protocol.ProtocolError, match="magic"):
            protocol.recv_frame(b)
    finally:
        b.close()


def test_oversize_declaration_rejected_before_read():
    a, b = _pipe()
    try:
        # Declare a payload far over the cap; recv must refuse from the
        # prefix alone without trying to buffer it.
        prefix = struct.Struct(">4sII").pack(
            protocol.MAGIC, 2, protocol.MAX_PAYLOAD_BYTES + 1
        )
        a.sendall(prefix + b"{}")
        with pytest.raises(protocol.ProtocolError, match="over cap"):
            protocol.recv_frame(b)
    finally:
        a.close()
        b.close()


def test_version_drift_rejected():
    a, b = _pipe()
    try:
        raw = protocol.pack_frame({"op": "solve", "v": 99})
        a.sendall(raw)
        with pytest.raises(protocol.ProtocolError, match="version"):
            protocol.recv_frame(b)
    finally:
        a.close()
        b.close()


def test_recv_honors_socket_timeout():
    a, b = _pipe()
    try:
        b.settimeout(0.1)
        # Half a frame, then silence: the read must time out, not hang.
        a.sendall(protocol.pack_frame({"op": "solve"}, b"xy")[:9])
        with pytest.raises((TimeoutError, socket.timeout)):
            protocol.recv_frame(b)
    finally:
        a.close()
        b.close()


def test_non_wire_feature_override_rejected():
    with pytest.raises(protocol.ProtocolError, match="predication"):
        protocol.solve_request("text", features={"predication": False})


def test_features_from_wire_tightens_never_widens():
    from repro.sched.scheduler import ScheduleFeatures

    base = ScheduleFeatures(time_limit=10.0)
    tightened = protocol.features_from_wire(base, {}, deadline_budget=2.0)
    assert tightened.time_limit == 2.0
    kept = protocol.features_from_wire(base, {}, deadline_budget=60.0)
    assert kept.time_limit == 10.0  # the daemon's ceiling holds
    overridden = protocol.features_from_wire(
        base, {"speculation": False, "time_limit": 4.0}
    )
    assert not overridden.speculation
    assert overridden.time_limit == 4.0
    with pytest.raises(protocol.ProtocolError):
        protocol.features_from_wire(base, {"verify": False})


def test_large_frame_in_chunks():
    """A multi-64KiB payload reassembles across recv chunks."""
    a, b = _pipe()
    payload = b"x" * (300 * 1024)
    box = {}

    def sender():
        protocol.send_frame(a, {"op": "solve"}, payload)
        a.close()

    thread = threading.Thread(target=sender)
    thread.start()
    try:
        header, got = protocol.recv_frame(b)
        box["ok"] = got == payload
    finally:
        thread.join(5)
        b.close()
    assert box["ok"]


def test_features_from_wire_validates_backend():
    """HiGHS is the only solver: any ``backend`` override, even
    ``highs``, is an unknown override and a typed protocol error that
    names it (the daemon replies with it), never a server-side crash."""
    from repro.sched.scheduler import ScheduleFeatures

    base = ScheduleFeatures()
    for value in ("highs", "bb", "cplex", "portfolio"):
        with pytest.raises(protocol.ProtocolError, match="backend"):
            protocol.features_from_wire(base, {"backend": value})


def test_removed_portfolio_overrides_rejected():
    """Removed wire knobs (the race's and the solver switch with its
    tuning) are unknown overrides now, on both sides."""
    from repro.sched.scheduler import ScheduleFeatures

    for name, value in (
        ("portfolio_backends", ["highs", "bb"]),
        ("portfolio_seed", 3),
        ("portfolio_threads", 1),
        ("backend", "bb"),
        ("heuristic_effort", 0.5),
    ):
        with pytest.raises(protocol.ProtocolError, match=name):
            protocol.features_from_wire(ScheduleFeatures(), {name: value})
        with pytest.raises(protocol.ProtocolError, match=name):
            protocol.solve_request("x", features={name: value})
