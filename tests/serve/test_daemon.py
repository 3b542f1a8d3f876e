"""tia-serve / tia-cache CLI behaviour over a real store directory."""

import json
import os
import socket
import threading

import pytest

from repro.ir.printer import format_function
from repro.serve import protocol
from repro.serve.client import FleetClient
from repro.serve.daemon import cache_main, serve_main
from repro.serve.store import ScheduleStore
from repro.workloads.generator import RoutineSpec, generate_routine

from tests.conftest import STRAIGHT_TEXT


@pytest.fixture
def tia_file(tmp_path):
    path = tmp_path / "routine.tia"
    path.write_text(STRAIGHT_TEXT)
    return str(path)


def _cache_dir(tmp_path):
    return str(tmp_path / "cache")


def test_serve_batch_rounds_hit_cache(tmp_path, tia_file, capsys):
    cache = _cache_dir(tmp_path)
    stats_path = str(tmp_path / "stats.json")
    out_path = str(tmp_path / "out.tia")
    rc = serve_main([
        tia_file, "--cache", cache, "--rounds", "2",
        "--time-limit", "20", "--stats-out", stats_path, "-o", out_path,
    ])
    assert rc == 0
    stats = json.loads(open(stats_path).read())
    assert stats["requests"] == 2
    assert stats["hits"]["miss"] == 1
    assert stats["hits"]["exact"] == 1
    assert stats["hit_rate"] == 0.5
    assert stats["store"]["entries"] == 1
    assert "straight" in open(out_path).read()


def test_serve_batch_counts_certified_family_hits(tmp_path):
    fn = generate_routine(
        RoutineSpec(name="svc0", seed=900, instructions=24, blocks=5)
    )
    base, variant = tmp_path / "svc0.tia", tmp_path / "svc0_v.tia"
    base.write_text(format_function(fn))
    fn.block("B1").freq = round(fn.block("B1").freq * 1.5, 3)
    variant.write_text(format_function(fn))
    stats_path = tmp_path / "stats.json"
    rc = serve_main([
        str(base), str(variant), "--cache", _cache_dir(tmp_path),
        "--workers", "1", "--time-limit", "20",
        "--stats-out", str(stats_path),
    ])
    assert rc == 0
    hits = json.loads(stats_path.read_text())["hits"]
    assert hits == {"exact": 0, "family": 1, "miss": 1, "certified": 1}


def test_serve_batch_requires_inputs(tmp_path):
    with pytest.raises(SystemExit):
        serve_main(["--cache", _cache_dir(tmp_path)])


def _wait_for_socket(sock_path, tries=50):
    while not os.path.exists(sock_path) and tries:
        threading.Event().wait(0.1)
        tries -= 1
    assert os.path.exists(sock_path), "socket never bound"


def test_serve_socket_roundtrip(tmp_path, capsys):
    """serve_main --listen speaks the framed protocol end to end."""
    cache = _cache_dir(tmp_path)
    sock_path = str(tmp_path / "serve.sock")
    box = {}

    def server():
        box["rc"] = serve_main([
            "--cache", cache, "--listen", sock_path, "--workers", "1",
            "--max-requests", "2", "--time-limit", "20",
        ])

    thread = threading.Thread(target=server)
    thread.start()
    try:
        _wait_for_socket(sock_path)
        client = FleetClient([sock_path])
        replies = [
            client.solve(STRAIGHT_TEXT, deadline_ms=120000)
            for _ in range(2)
        ]
    finally:
        thread.join(timeout=120)
    assert box["rc"] == 0
    assert all(".proc straight" in reply.text for reply in replies)
    assert replies[0].results[0]["kind"] == "miss"
    assert replies[1].results[0]["kind"] == "exact"
    # Second connection was served from cache: byte-identical reply.
    assert replies[0].text == replies[1].text


def test_serve_socket_bad_request_does_not_kill_loop(tmp_path):
    cache = _cache_dir(tmp_path)
    sock_path = str(tmp_path / "serve.sock")
    box = {}

    def server():
        box["rc"] = serve_main([
            "--cache", cache, "--listen", sock_path, "--workers", "1",
            "--max-requests", "1", "--time-limit", "20",
        ])

    thread = threading.Thread(target=server)
    thread.start()
    try:
        _wait_for_socket(sock_path)

        def roundtrip(text):
            conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            conn.settimeout(120)
            conn.connect(sock_path)
            try:
                protocol.send_frame(conn, *protocol.solve_request(text))
                header, payload = protocol.recv_frame(conn)
            finally:
                conn.close()
            return header, payload

        bad, _ = roundtrip("this is not TIA assembly {{{")
        good, good_payload = roundtrip(STRAIGHT_TEXT)
    finally:
        thread.join(timeout=120)
    assert box["rc"] == 0
    assert bad["status"] == "error"
    assert good["status"] == "ok"
    assert ".proc straight" in good_payload.decode()


def test_cache_warm_stats_verify_gc(tmp_path, tia_file, capsys):
    cache = _cache_dir(tmp_path)
    rc = cache_main(["warm", cache, tia_file, "--time-limit", "20"])
    assert rc == 0
    warm_report = json.loads(capsys.readouterr().out)
    assert warm_report["store"]["entries"] == 1

    rc = cache_main(["stats", cache, "--json"])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == 1
    assert stats["families"] == 1

    rc = cache_main(["ls", cache])
    assert rc == 0
    assert "straight" in capsys.readouterr().out

    rc = cache_main(["verify", cache])
    assert rc == 0
    assert "1 entries ok, 0 corrupt" in capsys.readouterr().out

    rc = cache_main(["gc", cache, "--budget", "0"])
    assert rc == 0
    assert "evicted 1 entry" in capsys.readouterr().out
    assert ScheduleStore(cache).stats()["entries"] == 0


def test_cache_verify_flags_corruption(tmp_path, tia_file, capsys):
    cache = _cache_dir(tmp_path)
    cache_main(["warm", cache, tia_file, "--time-limit", "20"])
    capsys.readouterr()
    store = ScheduleStore(cache)
    (key, path, _size, _mtime), = store.entries()
    raw = open(path, "rb").read()
    with open(path, "wb") as handle:
        handle.write(raw[:-1] + b"\x00")
    rc = cache_main(["verify", cache])
    assert rc == 1
    assert "1 corrupt dropped" in capsys.readouterr().out
    assert store.stats()["entries"] == 0
