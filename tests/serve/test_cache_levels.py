"""The store holds one entry kind: the routine entry.

A cold solve through :class:`ScheduleService` writes exactly one store
entry, whether the routine decomposes into partitions or has a loop the
modulo ladder pipelines.  Stores written by builds that also kept
``kind="partition"`` and ``kind="loop"`` entries stay usable: those
entries verify, list, count and evict like any other, and never disturb
a routine served beside them.
"""

import json
import os

from repro.sched.scheduler import ScheduleFeatures
from repro.serve.daemon import cache_main
from repro.serve.fingerprint import CODE_VERSION
from repro.serve.service import ScheduleService
from repro.serve.store import ScheduleStore
from repro.workloads.generator import (
    MultiRegionSpec,
    generate_multi_region,
    loop_dominated_family,
)

DECOMPOSING = MultiRegionSpec(
    name="mrcache", segments=4, segment_instructions=12, segment_blocks=4,
    seed=5,
)
DECOMPOSE_FEATURES = ScheduleFeatures(
    time_limit=90, max_hops=4, decompose_min_instructions=24
)
SWP_FEATURES = ScheduleFeatures(time_limit=60, swp=True)


def _counting_puts(monkeypatch, store):
    puts = []
    real = store.put

    def put(key, family, payload, meta=None):
        puts.append((meta or {}).get("kind", "routine"))
        return real(key, family, payload, meta)

    monkeypatch.setattr(store, "put", put)
    return puts


def _solve_twice(svc, fn, features):
    """Serve ``fn`` cold, drop its entry, and serve it cold again."""
    outcomes = []
    for _ in range(2):
        outcome = svc.request(fn, features)
        assert outcome.kind == "miss"
        assert outcome.stored
        assert svc.store.stats()["entries"] == 1
        outcomes.append(outcome)
        for key, path, _size, _mtime in svc.store.entries():
            svc.store._quarantine(key, path, "forced re-solve")
    return outcomes


def test_decomposed_cold_solve_writes_one_entry(tmp_path, monkeypatch):
    svc = ScheduleService(tmp_path / "cache")
    puts = _counting_puts(monkeypatch, svc.store)
    outcomes = _solve_twice(
        svc, generate_multi_region(DECOMPOSING), DECOMPOSE_FEATURES
    )
    for outcome in outcomes:
        assert any(
            "decomposed into 4 partitions" in message
            for message in outcome.result.messages
        )
    assert puts == ["routine", "routine"]
    assert svc.solves == 2


def test_pipelined_cold_solve_writes_one_entry(tmp_path, monkeypatch):
    _spec, fn = list(loop_dominated_family(count=3, seed=1))[2]
    svc = ScheduleService(tmp_path / "cache")
    puts = _counting_puts(monkeypatch, svc.store)
    outcomes = _solve_twice(svc, fn, SWP_FEATURES)
    for outcome in outcomes:
        assert any(o.pipelined for o in outcome.result.swp_outcomes)
    assert puts == ["routine", "routine"]
    assert svc.solves == 2


# -- stores written with partition and loop entries ---------------------------
def _put_legacy_entries(store):
    """Write one entry of each retired kind, as older builds did."""
    lengths = {"B0": 3, "B1": 2}
    store.put(
        "a" * 64, "",
        json.dumps({"block_lengths": lengths}).encode("utf-8"),
        meta={
            "code_version": CODE_VERSION, "kind": "partition",
            "routine": "legacy_part", "quality": "optimal",
            "block_lengths": lengths,
        },
    )
    starts = {"0": 0, "1": 2}
    store.put(
        "b" * 64, "",
        json.dumps({"ii": 2, "starts": starts}).encode("utf-8"),
        meta={
            "code_version": CODE_VERSION, "kind": "loop",
            "routine": "legacy_loop", "loop": "LOOP", "ii": 2, "stages": 2,
            "mii_resource": 1, "mii_recurrence": 2, "starts": starts,
        },
    )
    # Older than anything served below, so LRU eviction takes them first.
    for key, path, _size, _mtime in store.entries():
        os.utime(path, (1.0, 1.0))
    return {"a" * 64, "b" * 64}


def test_store_with_partition_and_loop_entries_keeps_working(
    tmp_path, straight_fn, capsys
):
    root = tmp_path / "cache"
    legacy = _put_legacy_entries(ScheduleStore(root))

    svc = ScheduleService(root, default_features=ScheduleFeatures(time_limit=20))
    cold = svc.request(straight_fn)
    assert cold.kind == "miss" and cold.stored
    assert svc.request(straight_fn).kind == "exact"

    assert svc.store.verify_all() == (3, [])
    capsys.readouterr()
    assert cache_main(["stats", str(root), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == 3
    assert cache_main(["ls", str(root)]) == 0
    listing = capsys.readouterr().out
    for routine in ("legacy_part", "legacy_loop", straight_fn.name):
        assert routine in listing

    routine_bytes = sum(
        size for key, _p, size, _m in svc.store.entries() if key == cold.key
    )
    assert cache_main(["gc", str(root), "--budget", str(routine_bytes)]) == 0
    assert "evicted 2 entries" in capsys.readouterr().out
    left = {key for key, _p, _s, _m in ScheduleStore(root).entries()}
    assert left == {cold.key}
    assert not left & legacy

    svc.store.drop_mem()
    again = svc.request(straight_fn)
    assert again.kind == "exact"
    assert again.result.quality == cold.result.quality
    assert svc.solves == 1
