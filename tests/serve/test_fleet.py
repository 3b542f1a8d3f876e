"""FleetDaemon robustness contract: shed, drain, timeouts, probes.

The daemon must survive everything a fleet throws at it — silent
clients, overload, injected accept/queue/drain faults, SIGTERM mid
load — while keeping three promises: completed requests are correct
(byte-identical on exact hits), rejected requests get *typed* replies
(busy/error, never silence or garbage), and shutdown is clean (rc 0,
store intact).
"""

import os
import socket
import threading
import time

import pytest

from repro.sched.scheduler import ScheduleFeatures
from repro.serve import protocol
from repro.serve import service as service_mod
from repro.serve.fleet import DaemonError, FleetDaemon
from repro.serve.service import ScheduleService
from repro.tools import faults

from tests.conftest import STRAIGHT_TEXT

FEATURES = ScheduleFeatures(time_limit=20)


def _daemon(tmp_path, **kwargs):
    service = ScheduleService(
        tmp_path / "cache", default_features=FEATURES
    )
    return FleetDaemon(service, str(tmp_path / "serve.sock"), **kwargs)


def _run(daemon):
    """Start serve_forever in a thread; returns (thread, box)."""
    box = {}

    def target():
        box["counters"] = daemon.serve_forever()

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    assert daemon.wait_ready(10), "daemon never bound its socket"
    return thread, box


def _connect(path, timeout=10.0):
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.settimeout(timeout)
    conn.connect(path)
    return conn


def _roundtrip(path, header, payload=b"", timeout=60.0):
    conn = _connect(path, timeout)
    try:
        try:
            protocol.send_frame(conn, header, payload)
        except (BrokenPipeError, ConnectionResetError):
            pass  # shed before reading: the busy reply is buffered
        return protocol.recv_frame(conn)
    finally:
        conn.close()


def _solve(path, text=STRAIGHT_TEXT, **kwargs):
    header, payload = protocol.solve_request(text, **kwargs)
    return _roundtrip(path, header, payload)


def test_solve_roundtrip_and_exact_hit(tmp_path):
    daemon = _daemon(tmp_path, workers=2, max_requests=2)
    thread, box = _run(daemon)
    h1, p1 = _solve(daemon.path, request_id="a")
    h2, p2 = _solve(daemon.path, request_id="b")
    thread.join(30)
    assert h1["status"] == "ok" and h2["status"] == "ok"
    assert h1["id"] == "a"
    assert h1["results"][0]["kind"] == "miss"
    assert h2["results"][0]["kind"] == "exact"
    assert p1 == p2  # exact hit replays byte-identically
    assert box["counters"]["completed"] == 2
    assert box["counters"]["rejected"] == 0


def test_health_and_stats_probes(tmp_path):
    daemon = _daemon(tmp_path, workers=1, max_requests=1)
    thread, box = _run(daemon)
    health, _ = _roundtrip(daemon.path, *protocol.probe_request("health"))
    stats, _ = _roundtrip(daemon.path, *protocol.probe_request("stats"))
    _solve(daemon.path)  # let max_requests end the loop
    thread.join(30)
    assert health["status"] == "health" and health["ok"]
    assert health["queue_capacity"] == daemon.queue_capacity
    assert health["workers"] == 1
    assert stats["status"] == "stats"
    assert "entries" in stats["store"]
    # Probes do not count toward max_requests.
    assert box["counters"]["completed"] == 1
    assert box["counters"]["probes"] == 2


def test_bad_payload_gets_typed_error_and_does_not_count(tmp_path):
    daemon = _daemon(tmp_path, workers=1, max_requests=1)
    thread, box = _run(daemon)
    bad, _ = _solve(daemon.path, text="this is not TIA {{{")
    good, _ = _solve(daemon.path)
    thread.join(30)
    assert bad["status"] == "error"
    assert good["status"] == "ok"
    # The errored request did NOT consume the max-requests budget.
    assert box["counters"]["completed"] == 1
    assert box["counters"]["rejected"] >= 1


def test_garbage_bytes_get_protocol_error(tmp_path):
    daemon = _daemon(tmp_path, workers=1, max_requests=1)
    thread, box = _run(daemon)
    conn = _connect(daemon.path)
    try:
        conn.sendall(b"GET / HTTP/1.1\r\n\r\n" + b"\x00" * 16)
        reply = protocol.recv_frame(conn)
    finally:
        conn.close()
    _solve(daemon.path)
    thread.join(30)
    assert reply[0]["status"] == "error"
    assert box["counters"]["completed"] == 1


def test_stalled_client_cannot_wedge_a_worker(tmp_path):
    """satellite: a silent connection is bounded by io_timeout."""
    daemon = _daemon(tmp_path, workers=1, io_timeout=0.5, max_requests=1)
    thread, box = _run(daemon)
    stalled = _connect(daemon.path)
    started = time.monotonic()
    try:
        # Send nothing. The worker must give up within ~io_timeout and
        # come back for real work.
        reply = protocol.recv_frame(stalled)  # daemon sends timeout error
        waited = time.monotonic() - started
        assert reply is None or reply[0]["status"] == "error"
        assert waited < 10.0
        good, _ = _solve(daemon.path)
        assert good["status"] == "ok"
    finally:
        stalled.close()
    thread.join(30)
    assert box["counters"]["completed"] == 1
    assert box["counters"]["rejected"] >= 1


def test_overload_sheds_with_busy_and_retry_hint(tmp_path):
    daemon = _daemon(
        tmp_path, workers=1, queue_capacity=1, shed_watermark=1,
        io_timeout=1.0, max_requests=1,
    )
    thread, box = _run(daemon)
    # Occupy the single worker with a stalled connection...
    stalled = _connect(daemon.path)
    time.sleep(0.2)  # let the worker pick it up
    # ...queue one more (depth 1)...
    queued = _connect(daemon.path)
    time.sleep(0.1)
    # ...and the next admission must shed: depth >= watermark.
    shed_reply, _ = _roundtrip(
        daemon.path, *protocol.solve_request(STRAIGHT_TEXT)
    )
    assert shed_reply["status"] == "busy"
    assert shed_reply["reason"] == "overload"
    assert shed_reply["retry_after_ms"] >= 25
    # The queued connection is eventually served normally.
    try:
        protocol.send_frame(
            queued, *protocol.solve_request(STRAIGHT_TEXT)
        )
        queued.settimeout(60.0)
        good = protocol.recv_frame(queued)
        assert good[0]["status"] == "ok"
    finally:
        queued.close()
        stalled.close()
    thread.join(30)
    assert box["counters"]["shed"] == 1
    assert box["counters"]["completed"] == 1


def test_injected_queue_fault_forces_shed(tmp_path):
    daemon = _daemon(tmp_path, workers=1, max_requests=1)
    with faults.inject("serve.queue=error:1"):
        thread, box = _run(daemon)
        shed, _ = _solve(daemon.path)
        good, _ = _solve(daemon.path)
        thread.join(30)
    assert shed["status"] == "busy"
    assert shed["reason"] == "injected"
    assert good["status"] == "ok"
    assert box["counters"]["shed"] == 1


def test_injected_accept_fault_does_not_kill_loop(tmp_path):
    daemon = _daemon(tmp_path, workers=1, max_requests=1)
    with faults.inject("serve.accept=error:1"):
        thread, box = _run(daemon)
        first, _ = _solve(daemon.path)
        second, _ = _solve(daemon.path)
        thread.join(30)
    assert first["status"] == "error"
    assert second["status"] == "ok"
    assert box["counters"]["accept_errors"] == 1
    assert box["counters"]["completed"] == 1


def test_graceful_drain_flushes_queued_with_busy(tmp_path):
    daemon = _daemon(
        tmp_path, workers=1, queue_capacity=2, io_timeout=1.0,
        drain_budget=0.5,
    )
    thread, box = _run(daemon)
    # Wedge the worker so queued work cannot start, then queue one.
    stalled = _connect(daemon.path)
    time.sleep(0.2)
    queued = _connect(daemon.path)
    protocol.send_frame(queued, *protocol.solve_request(STRAIGHT_TEXT))
    time.sleep(0.1)
    daemon.initiate_drain("test")
    thread.join(30)
    assert not thread.is_alive()
    # The queued connection got a typed draining reply, not silence.
    queued.settimeout(5.0)
    reply = protocol.recv_frame(queued)
    queued.close()
    stalled.close()
    assert reply is not None
    status = reply[0]["status"]
    assert status in ("busy", "error")
    if status == "busy":
        assert reply[0]["reason"] == "draining"
    assert box["counters"]["drained"] >= (1 if status == "busy" else 0)
    # The socket path is gone: new clients fail over immediately.
    assert not os.path.exists(daemon.path)


def test_drain_fault_still_exits_cleanly(tmp_path):
    daemon = _daemon(tmp_path, workers=1, drain_budget=1.0)
    with faults.inject("serve.drain=error:1"):
        thread, box = _run(daemon)
        reply, _ = _solve(daemon.path)
        daemon.initiate_drain("test")
        thread.join(30)
    assert not thread.is_alive()
    assert reply["status"] == "ok"
    assert box["counters"]["completed"] == 1


def test_deadline_threads_into_fallback_ladder(tmp_path):
    """An expired deadline degrades the solve; it never raises."""
    daemon = _daemon(tmp_path, workers=1, max_requests=1)
    thread, _box = _run(daemon)
    header, _ = _solve(daemon.path, deadline_ms=1)
    thread.join(30)
    assert header["status"] == "ok"
    # With a ~0 budget the optimizer lands on a degraded tier; any
    # tier is acceptable, raising is not.
    assert header["results"][0]["quality"] in (
        "optimal", "incumbent", "phase1", "fallback_input"
    )


def test_repeated_deadline_request_hits_exactly(tmp_path):
    """A deadline bounds the solve but is not part of the cache key."""
    daemon = _daemon(tmp_path, workers=1, max_requests=3)
    thread, _box = _run(daemon)
    # 10 s tightens the 20 s feature limit on every request.
    replies = [_solve(daemon.path, deadline_ms=10000) for _ in range(3)]
    thread.join(30)
    kinds = [header["results"][0]["kind"] for header, _ in replies]
    assert kinds == ["miss", "exact", "exact"]
    assert replies[0][0]["results"][0]["quality"] == "optimal"
    assert len({payload for _, payload in replies}) == 1


def test_repeated_request_served_without_parsing(tmp_path, monkeypatch):
    daemon = _daemon(tmp_path, workers=1, max_requests=4)
    thread, box = _run(daemon)
    miss_header, miss_payload = _solve(daemon.path)
    parses = []
    real_parse = service_mod.parse_functions
    monkeypatch.setattr(
        service_mod, "parse_functions",
        lambda text: parses.append(text) or real_parse(text),
    )
    hits = [_solve(daemon.path, request_id=str(n)) for n in range(3)]
    thread.join(30)
    assert miss_header["results"][0]["kind"] == "miss"
    assert [h["results"][0]["kind"] for h, _ in hits] == ["exact"] * 3
    assert all(payload == miss_payload for _, payload in hits)
    assert [h["id"] for h, _ in hits] == ["0", "1", "2"]
    assert parses == []
    assert box["counters"]["completed"] == 4


def test_stale_socket_taken_over(tmp_path):
    path = str(tmp_path / "serve.sock")
    # A dead listener's socket file (bound, closed, never unlinked).
    dead = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    dead.bind(path)
    dead.listen(1)
    dead.close()
    assert os.path.exists(path)
    daemon = _daemon(tmp_path, workers=1, max_requests=1)
    thread, box = _run(daemon)
    reply, _ = _solve(daemon.path)
    thread.join(30)
    assert reply["status"] == "ok"
    assert box["counters"]["completed"] == 1


def test_live_socket_refused(tmp_path):
    first = _daemon(tmp_path, workers=1)
    thread, _box = _run(first)
    second = _daemon(tmp_path, workers=1)
    with pytest.raises(DaemonError, match="live listener"):
        second.bind()
    first.initiate_drain("test")
    thread.join(30)
    assert not thread.is_alive()
