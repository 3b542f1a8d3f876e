"""ScheduleStore durability and integrity contract.

Whatever happens to the files — truncation, bit rot, version drift,
injected I/O faults — a read returns either a checksum-verified entry
or ``None``; it never returns garbage and never leaves a bad entry in
place to fail again.
"""

import json
import os
import sys
import threading
import time

import pytest

from repro.serve.store import ENTRY_MAGIC, ScheduleStore
from repro.tools import faults

KEY_A = "a" * 64
KEY_B = "b" * 64
KEY_C = "c" * 64
FAMILY = "f" * 64


@pytest.fixture
def store(tmp_path):
    return ScheduleStore(tmp_path / "cache")


def test_put_get_roundtrip(store):
    payload = b"\x00\x01payload\xff"
    header = store.put(KEY_A, FAMILY, payload, {"routine": "r", "quality": "optimal"})
    assert header["magic"] == ENTRY_MAGIC
    assert header["payload_len"] == len(payload)
    got_header, got_payload = store.get(KEY_A)
    assert got_payload == payload
    assert got_header["routine"] == "r"
    # Roundtrip survives a fresh store object (no in-process state).
    fresh = ScheduleStore(store.root)
    _header, got2 = fresh.get(KEY_A)
    assert got2 == payload


def test_miss_returns_none(store):
    assert store.get(KEY_A) is None
    assert KEY_A not in store


def test_atomic_put_leaves_no_tmp_litter(store):
    store.put(KEY_A, FAMILY, b"x" * 100)
    assert os.listdir(os.path.join(store.root, "tmp")) == []


def test_corrupt_payload_quarantined(store):
    store.put(KEY_A, FAMILY, b"good payload bytes")
    store.drop_mem()
    path = store._entry_path(KEY_A)
    raw = open(path, "rb").read()
    with open(path, "wb") as handle:
        handle.write(raw[:-3] + b"ROT")
    assert store.get(KEY_A) is None
    assert not os.path.exists(path)  # quarantined, not left to re-fail


def test_truncated_entry_quarantined(store):
    store.put(KEY_A, FAMILY, b"a payload long enough to truncate")
    store.drop_mem()
    path = store._entry_path(KEY_A)
    raw = open(path, "rb").read()
    with open(path, "wb") as handle:
        handle.write(raw[: len(raw) // 2])
    assert store.get(KEY_A) is None
    assert not os.path.exists(path)


def test_version_mismatch_quarantined(store):
    store.put(KEY_A, FAMILY, b"payload")
    store.drop_mem()
    path = store._entry_path(KEY_A)
    raw = open(path, "rb").read()
    newline = raw.find(b"\n")
    header = json.loads(raw[:newline])
    header["version"] = 999
    with open(path, "wb") as handle:
        handle.write(json.dumps(header).encode() + b"\n" + raw[newline + 1:])
    assert store.get(KEY_A) is None
    assert not os.path.exists(path)


def test_injected_corruption_caught_by_checksum(store):
    store.put(KEY_A, FAMILY, b"checksummed payload")
    store.drop_mem()
    with faults.inject("serve.corrupt_entry=corrupt:1"):
        assert store.get(KEY_A) is None
    # The file was quarantined while the fault was armed; a re-put works.
    store.put(KEY_A, FAMILY, b"checksummed payload")
    assert store.get(KEY_A)[1] == b"checksummed payload"


def test_injected_store_io_raises_oserror(store):
    store.put(KEY_A, FAMILY, b"payload")
    store.drop_mem()
    with faults.inject("serve.store_io=error:1"):
        with pytest.raises(OSError):
            store.get(KEY_A)
    with faults.inject("serve.store_io=error:1"):
        with pytest.raises(OSError):
            store.put(KEY_B, FAMILY, b"other")


def test_mem_front_serves_without_disk(store):
    store.put(KEY_A, FAMILY, b"hot payload")
    os.unlink(store._entry_path(KEY_A))
    # Still served from the in-process LRU front.
    assert store.get(KEY_A)[1] == b"hot payload"
    store.drop_mem()
    assert store.get(KEY_A) is None


def test_mem_front_bounded(tmp_path):
    store = ScheduleStore(tmp_path / "c", mem_entries=2)
    for i, key in enumerate((KEY_A, KEY_B, KEY_C)):
        store.put(key, "", b"p%d" % i)
    assert len(store._mem) == 2
    assert KEY_A not in store._mem  # oldest dropped from the front...
    assert store.get(KEY_A)[1] == b"p0"  # ...but still on disk


def test_front_shared_by_threads_never_mixes_decoded_payloads(tmp_path):
    """Fleet workers share one front: under forced thread switches, a
    decoded payload always matches the bytes it was asked for, while
    puts replace entries and evictions churn the two-entry front."""
    store = ScheduleStore(tmp_path / "c", mem_entries=2)
    keys = ["%064x" % i for i in range(4)]
    for key in keys:
        store.put(key, "", key.encode())
    errors = []

    def worker(n):
        try:
            for i in range(100):
                key = keys[(n + i) % len(keys)]
                if i % 5 == 0:
                    store.put(key, "", b"%s:%d:%d" % (key.encode(), n, i))
                header_payload = store.get(key)
                if header_payload is None:
                    continue
                payload = header_payload[1]
                decoded = store.decoded(key, payload, bytes.decode)
                if decoded != payload.decode():
                    errors.append((key, decoded, payload))
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_family_index_roundtrip(store):
    store.put(KEY_A, FAMILY, b"one")
    store.put(KEY_B, FAMILY, b"two")
    assert sorted(store.family_members(FAMILY)) == sorted([KEY_A, KEY_B])
    # Members whose entries vanished are filtered out.
    os.unlink(store._entry_path(KEY_A))
    assert store.family_members(FAMILY) == [KEY_B]
    assert store.family_members("0" * 64) == []


def test_gc_evicts_lru_to_budget(store):
    store.put(KEY_A, FAMILY, b"x" * 1000)
    time.sleep(0.01)
    store.put(KEY_B, FAMILY, b"y" * 1000)
    time.sleep(0.01)
    store.get(KEY_A, touch=True)  # refresh A's mtime: B is now LRU
    store.drop_mem()
    total = store.stats()["bytes"]
    evicted = store.gc(total - 1)  # must drop exactly one entry
    assert evicted == [KEY_B]
    assert store.get(KEY_A) is not None
    assert store.get(KEY_B) is None


def test_gc_sweeps_stale_tmp_files(store):
    stale = os.path.join(store.root, "tmp", "stale.123.456")
    with open(stale, "wb") as handle:
        handle.write(b"crash litter")
    old = time.time() - 7200
    os.utime(stale, (old, old))
    store.gc(10**9)
    assert not os.path.exists(stale)


def test_size_budget_enforced_on_put(tmp_path):
    store = ScheduleStore(tmp_path / "c", size_budget=1500)
    store.put(KEY_A, "", b"x" * 1000)
    time.sleep(0.01)
    store.put(KEY_B, "", b"y" * 1000)
    stats = store.stats()
    assert stats["bytes"] <= 1500
    assert stats["entries"] == 1


def test_verify_all_drops_only_bad_entries(store):
    store.put(KEY_A, FAMILY, b"good")
    store.put(KEY_B, FAMILY, b"bad soon")
    store.drop_mem()
    path = store._entry_path(KEY_B)
    raw = open(path, "rb").read()
    with open(path, "wb") as handle:
        handle.write(raw[:-1] + b"\x00")
    ok, dropped = store.verify_all()
    assert ok == 1
    assert dropped == [KEY_B]
    assert store.get(KEY_A) is not None


def test_stats_counts(store):
    assert store.stats() == {"entries": 0, "bytes": 0, "families": 0}
    store.put(KEY_A, FAMILY, b"12345")
    stats = store.stats()
    assert stats["entries"] == 1
    assert stats["families"] == 1
    assert stats["bytes"] > 5  # header + payload


# -- multi-replica safety (advisory locking) ----------------------------------
def test_concurrent_writers_stay_consistent(tmp_path):
    """satellite: two replica stores race put+gc on one directory; the
    entries and family index must stay verifiably clean throughout."""
    root = tmp_path / "cache"
    stores = [ScheduleStore(root), ScheduleStore(root)]
    keys = ["%064x" % i for i in range(24)]
    errors = []

    def writer(store, mine):
        try:
            for i, key in enumerate(mine):
                store.put(key, FAMILY, b"payload %4d " % i * 40)
                if i % 4 == 3:
                    store.gc(64 * 1024)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=writer, args=(stores[0], keys[::2])),
        threading.Thread(target=writer, args=(stores[1], keys[1::2])),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert errors == []
    fresh = ScheduleStore(root)
    ok, dropped = fresh.verify_all()
    assert dropped == []
    assert ok == fresh.stats()["entries"]
    # Every surviving family member resolves to a readable entry.
    for key in fresh.family_members(FAMILY):
        assert fresh.get(key) is not None


def test_concurrent_gc_never_drops_newest(tmp_path):
    root = tmp_path / "cache"
    stores = [ScheduleStore(root), ScheduleStore(root)]
    for i in range(6):
        stores[0].put("%064x" % i, FAMILY, b"old entry " * 100)
        time.sleep(0.01)
    newest = "f" * 63 + "e"
    stores[1].put(newest, FAMILY, b"newest entry " * 10)
    # Two replicas race eviction down to a budget that keeps roughly
    # one entry; LRU order under the gc lock must keep the newest.
    budget = 2048
    threads = [
        threading.Thread(target=s.gc, args=(budget,)) for s in stores
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    fresh = ScheduleStore(root)
    assert fresh.get(newest) is not None
    assert fresh.stats()["bytes"] <= budget
    _ok, dropped = fresh.verify_all()
    assert dropped == []


def test_concurrent_double_solve_byte_identical(tmp_path):
    """Two replicas solving the same routine at once converge on one
    cache entry and byte-identical emitted text."""
    from repro.ir.parser import parse_functions
    from repro.sched.scheduler import ScheduleFeatures
    from repro.serve.service import ScheduleService
    from repro.tools.optimize import _emit_function

    from tests.conftest import STRAIGHT_TEXT

    features = ScheduleFeatures(time_limit=20)
    out = {}

    def solve(tag):
        service = ScheduleService(
            tmp_path / "cache", default_features=features
        )
        fn = parse_functions(STRAIGHT_TEXT)[0]
        outcome = service.request(fn, features)
        out[tag] = _emit_function(outcome.result)

    threads = [
        threading.Thread(target=solve, args=(tag,)) for tag in ("a", "b")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
    assert out["a"] == out["b"]
    fresh = ScheduleStore(tmp_path / "cache")
    _ok, dropped = fresh.verify_all()
    assert dropped == []
    assert fresh.stats()["entries"] == 1
