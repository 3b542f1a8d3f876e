"""Telemetry-journal durability: the store.py discipline, applied to JSONL.

The journal's promises, each tested here:

* appends round-trip (checksummed, schema-valid) and survive shard
  rotation; sealed shards are immutable;
* a torn tail line (crash mid-append) is skipped on read and tolerated
  by verify; mid-file corruption quarantines the whole shard;
* GC evicts oldest sealed shards to a byte budget and never the active
  shard;
* ``append`` **never raises** — the ``obs.journal`` fault site makes it
  fail on demand, and the failure must be counted, not thrown, with
  every already-written shard still fully readable.
"""

import json
import os
import threading

from repro.obs import journal as journal_mod
from repro.obs.journal import (
    TelemetryJournal,
    check_record,
    journal_shards,
    read_records,
    request_record,
    seal_record,
    validate_record,
)
from repro.tools import faults


def _note(index):
    return seal_record({"kind": "note", "ts": 1.0 + index, "n": index})


class TestRoundtrip:
    def test_append_then_read(self, tmp_path):
        journal = TelemetryJournal(tmp_path / "j")
        for i in range(5):
            assert journal.append(_note(i)) is True
        journal.close()
        records = list(read_records(tmp_path / "j"))
        assert [r["n"] for r in records] == list(range(5))
        assert all(check_record(r) for r in records)

    def test_request_record_schema(self):
        record = request_record(
            "ok",
            trace_id="ab" * 16,
            request_id="req-1",
            family="fam",
            routines=[{"routine": "r", "kind": "miss", "quality": "optimal"}],
            features={"time_limit": 30.0},
            timings={"queue_wait": 0.01, "solve": 0.5, "total": 0.6},
            cache_kinds={"miss": 1},
            replica="sock:1",
        )
        assert validate_record(record) == []

    def test_every_outcome_validates(self):
        for outcome in journal_mod.REQUEST_OUTCOMES:
            assert validate_record(request_record(outcome)) == []

    def test_bad_outcome_rejected(self):
        record = request_record("ok")
        record["outcome"] = "exploded"
        seal_record(record)
        assert any("outcome" in p for p in validate_record(record))

    def test_tampered_record_fails_checksum(self):
        record = _note(0)
        record["n"] = 999  # mutate after sealing
        assert not check_record(record)

    def test_non_numeric_timing_rejected(self):
        record = request_record("ok", timings={"total": 0.5})
        record["timings"]["total"] = "fast"
        seal_record(record)
        assert any("timing" in p for p in validate_record(record))


class TestRotationAndGc:
    def test_rotation_creates_new_shards(self, tmp_path):
        journal = TelemetryJournal(tmp_path / "j", shard_bytes=200)
        for i in range(20):
            journal.append(_note(i))
        journal.close()
        shards = journal_shards(tmp_path / "j")
        assert len(shards) > 1
        # Every record is still readable across the shard boundary.
        assert [r["n"] for r in read_records(tmp_path / "j")] == list(range(20))

    def test_gc_respects_budget_and_order(self, tmp_path):
        journal = TelemetryJournal(
            tmp_path / "j", shard_bytes=200, size_budget=None
        )
        for i in range(30):
            journal.append(_note(i))
        journal.close()
        before = journal_shards(tmp_path / "j")
        assert len(before) >= 3
        keep = sum(size for _p, size, _c in before[-2:])
        deleted = journal.gc(keep)
        # Oldest-first: what survives is a suffix of the record stream.
        survivors = [r["n"] for r in read_records(tmp_path / "j")]
        assert survivors == list(range(30))[-len(survivors):]
        assert deleted and journal.size_bytes() <= keep

    def test_gc_never_deletes_active_shard(self, tmp_path):
        journal = TelemetryJournal(tmp_path / "j", size_budget=None)
        journal.append(_note(0))
        journal.gc(0)  # budget zero: everything sealed would go
        assert journal.append(_note(1)) is True
        journal.close()
        assert [r["n"] for r in read_records(tmp_path / "j")] == [0, 1]


class TestCrashTolerance:
    def test_torn_tail_skipped_not_fatal(self, tmp_path):
        journal = TelemetryJournal(tmp_path / "j")
        for i in range(3):
            journal.append(_note(i))
        journal.close()
        path = journal_shards(tmp_path / "j")[0][0]
        with open(path, "ab") as handle:
            handle.write(b'{"kind": "note", "torn')  # crash mid-append
        assert [r["n"] for r in read_records(tmp_path / "j")] == [0, 1, 2]
        # verify tolerates a bad *tail* line: no quarantine.
        ok, bad, quarantined = TelemetryJournal(tmp_path / "j").verify()
        assert (ok, bad, quarantined) == (3, 1, [])

    def test_midfile_corruption_quarantines(self, tmp_path):
        journal = TelemetryJournal(tmp_path / "j")
        for i in range(4):
            journal.append(_note(i))
        journal.close()
        path = journal_shards(tmp_path / "j")[0][0]
        lines = open(path, "rb").read().splitlines(keepends=True)
        lines[1] = b"garbage not json\n"
        with open(path, "wb") as handle:
            handle.writelines(lines)
        ok, bad, quarantined = TelemetryJournal(tmp_path / "j").verify()
        assert quarantined == [path]
        assert not os.path.exists(path)
        dest = os.path.join(
            str(tmp_path / "j"), "quarantine", os.path.basename(path)
        )
        assert os.path.exists(dest)
        # Plain readers see nothing from the quarantined shard.
        assert list(read_records(tmp_path / "j")) == []


class TestFaultInjection:
    def test_append_never_raises_under_fault(self, tmp_path, clean_obs):
        journal = TelemetryJournal(tmp_path / "j")
        assert journal.append(_note(0)) is True
        with faults.inject("obs.journal=error:2"):
            assert journal.append(_note(1)) is False
            assert journal.append(_note(2)) is False
            assert journal.append(_note(3)) is True
        assert journal.write_errors == 2
        journal.close()
        # Failed appends lost their records but corrupted nothing.
        records = list(read_records(tmp_path / "j"))
        assert [r["n"] for r in records] == [0, 3]
        ok, bad, quarantined = TelemetryJournal(tmp_path / "j").verify()
        assert bad == 0 and quarantined == []

    def test_fault_counted_in_metrics(self, tmp_path, recording):
        from repro.obs import export

        journal = TelemetryJournal(tmp_path / "j")
        with faults.inject("obs.journal=error:1"):
            journal.append(_note(0))
        dump = export.metrics_dict()
        assert dump["counters"]["journal_write_errors_total"] == 1.0

    def test_shards_stay_valid_under_sustained_faults(self, tmp_path):
        journal = TelemetryJournal(tmp_path / "j", shard_bytes=150)
        with faults.inject("obs.journal=error"):  # every append fails
            for i in range(10):
                assert journal.append(_note(i)) is False
        for i in range(10, 20):
            assert journal.append(_note(i)) is True
        journal.close()
        assert [r["n"] for r in read_records(tmp_path / "j")] == list(
            range(10, 20)
        )
        ok, bad, quarantined = TelemetryJournal(tmp_path / "j").verify()
        assert (bad, quarantined) == (0, [])


class TestConcurrency:
    def test_parallel_appends_all_land(self, tmp_path):
        journal = TelemetryJournal(tmp_path / "j", shard_bytes=500)
        per_thread = 25

        def writer(base):
            for i in range(per_thread):
                journal.append(_note(base + i))

        threads = [
            threading.Thread(target=writer, args=(t * 1000,))
            for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        journal.close()
        seen = sorted(r["n"] for r in read_records(tmp_path / "j"))
        assert len(seen) == 4 * per_thread == len(set(seen))


def test_read_records_kind_filter(tmp_path):
    journal = TelemetryJournal(tmp_path / "j")
    journal.append(_note(0))
    journal.append(request_record("ok", request_id="r1"))
    journal.close()
    kinds = [r["kind"] for r in read_records(tmp_path / "j")]
    assert kinds == ["note", "request"]
    only = list(read_records(tmp_path / "j", kinds=("request",)))
    assert len(only) == 1 and only[0]["request_id"] == "r1"


def test_shard_lines_are_canonical_json(tmp_path):
    """Each line re-parses and re-checksums from the raw bytes alone."""
    journal = TelemetryJournal(tmp_path / "j")
    journal.append(request_record("busy", shed_reason="overload"))
    journal.close()
    path = journal_shards(tmp_path / "j")[0][0]
    for raw in open(path, "rb"):
        record = json.loads(raw)
        assert check_record(record)
        assert validate_record(record) == []


def test_append_seals_unsealed_and_stale_records(tmp_path):
    """append seals whatever it is handed: an unsealed request record
    (the fleet's ``seal=False``) and one mutated after sealing both
    land with a checksum matching what was written."""
    unsealed = request_record("ok", request_id="r1", seal=False)
    assert "crc" not in unsealed
    stale = request_record("ok", request_id="r2")
    stale["request_id"] = "r3"
    journal = TelemetryJournal(tmp_path / "j")
    assert journal.append(unsealed) and journal.append(stale)
    journal.close()
    records = list(read_records(tmp_path / "j"))
    assert [r["request_id"] for r in records] == ["r1", "r3"]
    assert all(validate_record(r) == [] for r in records)
    assert records[0] == unsealed  # the caller's dict carries the seal too
