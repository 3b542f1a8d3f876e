"""ScheduleService contract: hits are byte-identical, faults degrade.

The serving invariants under test:

* an exact hit returns the *same* schedule (byte-identical emitted
  text) without re-running the solver,
* concurrent duplicate requests coalesce onto one solve,
* a family near miss whose sibling's optimum is certified for it is
  served from that optimum and still verifies (the hint path and the
  certificate itself are covered in ``test_family_reuse.py``),
* every store failure mode — I/O errors, injected corruption — is
  absorbed as a cold solve; **a request never raises**,
* degraded (``fallback_input``) results are never cached,
* an exact hit decodes its entry at most once per process yet is
  re-verified every time, and anything that replaces or drops the
  entry's bytes forces a fresh decode,
* the stored entry is a slim copy that still reports and emits exactly
  like the miss,
* a repeated request payload is answered without parsing, keying or
  emitting — but still re-verified — and anything short of an exact
  hit for every routine takes the full path,
* a deadline bounds the cold solve without entering the keys.
"""

import pickle
import threading
import time
from dataclasses import replace

import pytest

from repro.ir.printer import format_function, format_schedule
from repro.sched.scheduler import ScheduleFeatures
from repro.serve import service as service_mod
from repro.serve.service import ScheduleService, cached_optimize
from repro.serve.store import ScheduleStore
from repro.tools import faults
from repro.tools.optimize import _emit_function
from repro.workloads.generator import RoutineSpec, generate_routine

from tests.conftest import DIAMOND_TEXT, STRAIGHT_TEXT

FEATURES = ScheduleFeatures(time_limit=20)


def _emitted(result):
    return format_function(result.fn) + "\n" + format_schedule(
        result.output_schedule, result.fn
    )


@pytest.fixture
def svc(tmp_path):
    return ScheduleService(tmp_path / "cache", default_features=FEATURES)


def test_exact_hit_byte_identical(svc, straight_fn):
    cold = svc.request(straight_fn)
    assert cold.kind == "miss"
    assert cold.stored
    hit = svc.request(straight_fn)
    assert hit.kind == "exact"
    assert svc.solves == 1  # the hit never touched the solver
    assert _emitted(hit.result) == _emitted(cold.result)
    assert hit.result.quality == cold.result.quality


def test_exact_hit_across_service_instances(tmp_path, straight_fn):
    a = ScheduleService(tmp_path / "cache", default_features=FEATURES)
    cold = a.request(straight_fn)
    b = ScheduleService(tmp_path / "cache", default_features=FEATURES)
    hit = b.request(straight_fn)
    assert hit.kind == "exact"
    assert b.solves == 0
    assert _emitted(hit.result) == _emitted(cold.result)


def test_different_features_different_entry(svc, straight_fn):
    svc.request(straight_fn)
    other = svc.request(
        straight_fn, ScheduleFeatures(time_limit=20, speculation=False)
    )
    assert other.kind == "miss"
    assert svc.solves == 2


def test_coalescing_single_flight(svc, straight_fn):
    release = threading.Event()
    real_scheduler = service_mod.IlpScheduler

    class SlowScheduler(real_scheduler):
        def optimize(self, fn, length_hint=None):
            release.wait(timeout=30)
            return super().optimize(fn, length_hint=length_hint)

    outcomes = []
    lock = threading.Lock()

    def worker():
        outcome = svc.request(straight_fn)
        with lock:
            outcomes.append(outcome)

    service_mod.IlpScheduler = SlowScheduler
    try:
        threads = [threading.Thread(target=worker) for _ in range(3)]
        threads[0].start()
        # Wait for the leader to open its flight, then pile followers on.
        deadline = time.time() + 10
        while not svc._flights and time.time() < deadline:
            time.sleep(0.005)
        assert svc._flights, "leader never opened a flight"
        for t in threads[1:]:
            t.start()
        flight = next(iter(svc._flights.values()))
        while time.time() < deadline:
            waiters = getattr(flight.done, "_cond", None)
            if waiters is not None and len(waiters._waiters) >= 2:
                break
            time.sleep(0.005)
        release.set()
        for t in threads:
            t.join(timeout=60)
    finally:
        service_mod.IlpScheduler = real_scheduler
        release.set()

    assert len(outcomes) == 3
    assert svc.solves == 1
    assert sum(o.coalesced for o in outcomes) == 2
    texts = {_emitted(o.result) for o in outcomes}
    assert len(texts) == 1  # everyone got the same answer


def test_family_warm_start(svc, straight_fn):
    cold = svc.request(straight_fn)
    assert cold.kind == "miss"
    # Same structure, different solver budget: same family, new exact key.
    # The profile is the same too, so the sibling's optimum is certified.
    warm = svc.request(straight_fn, ScheduleFeatures(time_limit=25))
    assert warm.kind == "family"
    assert warm.certified
    assert any("family" in note for note in warm.notes)
    assert warm.result.verification.ok
    assert warm.result.quality == "optimal"
    assert warm.result.weighted_length_out == cold.result.weighted_length_out
    assert warm.result.trace.counters.get("family_certified", 0) == 1


def test_store_io_fault_degrades_to_cold_solve(svc, straight_fn):
    svc.request(straight_fn)
    svc.store.drop_mem()
    svc.solves = 0
    with faults.inject("serve.store_io=error"):
        outcome = svc.request(straight_fn)
    assert outcome.kind == "miss"
    assert svc.solves == 1
    assert outcome.result.verification.ok
    assert any("store" in note for note in outcome.notes)


def test_corrupt_entry_fault_degrades_to_cold_solve(svc, straight_fn):
    svc.request(straight_fn)
    svc.store.drop_mem()
    svc.solves = 0
    with faults.inject("serve.corrupt_entry=corrupt:1"):
        outcome = svc.request(straight_fn)
    assert outcome.kind == "miss"
    assert svc.solves == 1
    # The quarantined entry was re-filled by the cold solve.
    assert outcome.stored


def test_fallback_results_never_cached(tmp_path, straight_fn):
    svc = ScheduleService(
        tmp_path / "cache",
        default_features=ScheduleFeatures(time_limit=1e-6),
    )
    outcome = svc.request(straight_fn)
    assert outcome.result.quality == "fallback_input"
    assert not outcome.stored
    assert svc.store.stats()["entries"] == 0
    # And the next request solves again instead of replaying the fallback.
    again = svc.request(straight_fn)
    assert again.kind == "miss"


def test_admission_timeout_degrades_not_fails(tmp_path, straight_fn):
    svc = ScheduleService(
        tmp_path / "cache",
        default_features=ScheduleFeatures(time_limit=0.2),
        max_concurrent=1,
    )
    svc._solve_slots.acquire()  # hog the only solve slot

    box = {}

    def worker():
        box["outcome"] = svc.request(straight_fn)

    thread = threading.Thread(target=worker)
    thread.start()
    time.sleep(0.5)  # let the request overrun its budget in the queue
    svc._solve_slots.release()
    thread.join(timeout=60)
    outcome = box["outcome"]
    assert outcome.result.quality == "fallback_input"
    assert not outcome.stored


def test_revalidation_quarantines_tampered_schedule(tmp_path, straight_fn):
    svc = ScheduleService(tmp_path / "cache", default_features=FEATURES)
    cold = svc.request(straight_fn)
    assert cold.stored
    # Warm the decoded tier first: the put below must drop it.
    assert svc.request(straight_fn).kind == "exact"
    # Tamper with the cached pickle *consistently* (valid checksum, bad
    # schedule): re-store a result whose schedule lost an instruction.
    key = cold.key
    header, payload = svc.store.get(key)
    result = pickle.loads(payload)
    sched = result.output_schedule
    victim = next(iter(sched.placements()))
    sched.place(
        victim.instr.copy(origin=victim.instr), victim.block, victim.cycle + 1
    )
    svc.store.put(key, cold.family, pickle.dumps(result), {
        "code_version": header["code_version"],
    })
    svc.solves = 0
    outcome = svc.request(straight_fn)
    assert outcome.kind == "miss"  # hit rejected by re-verification
    assert svc.solves == 1
    assert any("re-verification" in n or "failed" in n for n in outcome.notes)


def test_decomposed_hit_reverifies_with_stitched_edges(tmp_path, monkeypatch):
    from repro.ir.parser import parse_function
    from tests.sched.test_decompose import CHAIN_TEXT

    features = ScheduleFeatures(
        time_limit=60, max_hops=4, decompose_min_instructions=1
    )
    svc = ScheduleService(tmp_path / "cache", default_features=features)
    cold = svc.request(parse_function(CHAIN_TEXT))
    assert "decomposed into 3 partitions" in cold.result.messages
    assert cold.stored
    stitched = cold.result.verify_edges
    calls = []
    real = service_mod.verify_schedule

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(service_mod, "verify_schedule", spy)
    hit = svc.request(parse_function(CHAIN_TEXT))
    assert hit.kind == "exact"
    assert svc.solves == 1
    assert len(calls) == 1
    # The replayed edge set is the stored stitched one: every partition's
    # verifiable edges plus the cross-partition dependences.
    assert calls[0]["dep_edges"] is hit.result.verify_edges
    assert len(calls[0]["dep_edges"]) == len(stitched) > 0
    assert calls[0]["edge_scopes"] == (hit.result.verify_scopes or {})
    block_of = {
        p.instr: p.block for p in hit.result.output_schedule.placements()
    }
    assert any(
        block_of[e.src] != block_of[e.dst]
        for e in calls[0]["dep_edges"]
        if e.src in block_of and e.dst in block_of
    )
    assert not any("re-verification" in n for n in hit.notes)


def test_request_many_orders_and_coalesces(svc):
    fns = [
        generate_routine(
            RoutineSpec(name=f"m{i % 2}", seed=i % 2, instructions=12, blocks=3)
        )
        for i in range(4)
    ]
    outcomes = svc.request_many(fns, workers=4)
    assert [o.result.fn.name for o in outcomes] == [fn.name for fn in fns]
    # Only two distinct requests: at most two solves happened; each
    # duplicate was answered by a coalesced flight or an exact hit.
    assert svc.solves <= 2
    served_cheap = sum(
        1 for o in outcomes if o.kind == "exact" or o.coalesced
    )
    assert served_cheap >= 2


def test_cached_optimize_memoizes_service(tmp_path, straight_fn):
    cache = str(tmp_path / "cache")
    first = cached_optimize(straight_fn, FEATURES, cache_dir=cache)
    second = cached_optimize(straight_fn, FEATURES, cache_dir=cache)
    assert first.kind == "miss"
    assert second.kind == "exact"
    assert _emitted(first.result) == _emitted(second.result)


def test_version_drift_ignores_entry(svc, straight_fn, monkeypatch):
    cold = svc.request(straight_fn)
    assert cold.stored
    svc.store.drop_mem()
    monkeypatch.setattr(service_mod, "CODE_VERSION", "serve-999")
    svc.solves = 0
    outcome = svc.request(straight_fn)
    # Same key found on disk, but the entry is from another code version.
    assert outcome.kind == "miss"
    assert svc.solves == 1
    assert any("code version" in note for note in outcome.notes)


# -- exact-hit cost: decoded tier + slim entries -------------------------------
def _count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_exact_hits_decode_once_and_always_reverify(
    svc, straight_fn, monkeypatch
):
    svc.request(straight_fn)
    loads = _count_calls(monkeypatch, pickle, "loads")
    verifies = _count_calls(monkeypatch, service_mod, "verify_schedule")
    hits = [svc.request(straight_fn) for _ in range(10)]
    assert [h.kind for h in hits] == ["exact"] * 10
    assert len(loads) == 1
    assert len(verifies) == 10
    # Every hit shares the one decoded, read-only result.
    assert all(h.result is hits[0].result for h in hits)


@pytest.mark.parametrize(
    "invalidate", ["put", "quarantine", "drop_mem", "eviction"]
)
def test_dropping_entry_bytes_forces_fresh_decode(
    tmp_path, straight_fn, diamond_fn, monkeypatch, invalidate
):
    store = ScheduleStore(tmp_path / "cache", mem_entries=1)
    svc = ScheduleService(store, default_features=FEATURES)
    svc.request(straight_fn)
    loads = _count_calls(monkeypatch, pickle, "loads")
    first = svc.request(straight_fn)
    assert first.kind == "exact"
    assert len(loads) == 1
    key = first.key
    if invalidate == "put":
        header, payload = store.get(key)
        store.put(key, first.family, payload, {
            "code_version": header["code_version"],
        })
    elif invalidate == "quarantine":
        store._quarantine(key, store._entry_path(key), "test")
    elif invalidate == "drop_mem":
        store.drop_mem()
    else:  # the other routine's put evicts this one from the front
        assert svc.request(diamond_fn).stored
        assert key not in store._mem
    again = svc.request(straight_fn)
    if invalidate == "quarantine":
        assert again.kind == "miss"  # never served from the dropped object
        again = svc.request(straight_fn)
    assert again.kind == "exact"
    assert len(loads) == 2
    assert again.result is not first.result


def test_slim_entry_hit_matches_miss(svc, diamond_fn):
    cold = svc.request(diamond_fn)
    assert cold.result.spec_used >= 1
    hit = svc.request(diamond_fn)
    assert hit.kind == "exact"
    assert len(hit.result.solution.values) < len(cold.result.solution.values)
    assert hit.result.solution.status is cold.result.solution.status
    assert hit.result.solution.objective == cold.result.solution.objective
    assert hit.result.spec_used == cold.result.spec_used
    assert hit.result.report() == cold.result.report()
    assert _emit_function(hit.result) == _emit_function(cold.result)
    _header, payload = svc.store.get(cold.key)
    assert len(payload) < len(pickle.dumps(cold.result))


# -- request payload memo --------------------------------------------------------
PAYLOAD = (STRAIGHT_TEXT + DIAMOND_TEXT).encode("utf-8")


def _reply_bytes(served):
    return "\n".join(text for _outcome, text in served).encode("utf-8")


def _count_full_path(monkeypatch):
    return {
        name: _count_calls(monkeypatch, service_mod, name)
        for name in (
            "parse_functions", "request_keys", "_emit_function",
            "verify_schedule",
        )
    }


def test_repeated_payload_skips_parse_keys_and_emit(svc, monkeypatch):
    miss = svc.request_text(PAYLOAD)
    assert [o.kind for o, _ in miss] == ["miss", "miss"]
    calls = _count_full_path(monkeypatch)
    first_hit = svc.request_text(PAYLOAD)
    assert [o.kind for o, _ in first_hit] == ["exact", "exact"]
    assert len(calls["parse_functions"]) == 0
    assert len(calls["request_keys"]) == 0
    assert len(calls["_emit_function"]) == 2  # rendered once per entry
    assert len(calls["verify_schedule"]) == 2
    for _ in range(3):
        again = svc.request_text(PAYLOAD)
        assert _reply_bytes(again) == _reply_bytes(miss)
    assert len(calls["parse_functions"]) == 0
    assert len(calls["request_keys"]) == 0
    assert len(calls["_emit_function"]) == 2
    assert len(calls["verify_schedule"]) == 2 + 3 * 2  # every hit
    assert _reply_bytes(first_hit) == _reply_bytes(miss)
    assert svc.solves == 2


def test_memo_hit_quarantines_tampered_entry(svc, monkeypatch):
    cold = svc.request_text(PAYLOAD)
    svc.request_text(PAYLOAD)  # warm the decoded and rendered tiers
    outcome = cold[0][0]
    header, payload = svc.store.get(outcome.key)
    result = pickle.loads(payload)
    sched = result.output_schedule
    victim = next(iter(sched.placements()))
    sched.place(
        victim.instr.copy(origin=victim.instr), victim.block, victim.cycle + 1
    )
    svc.store.put(outcome.key, outcome.family, pickle.dumps(result), {
        "code_version": header["code_version"],
    })
    svc.solves = 0
    parses = _count_calls(monkeypatch, service_mod, "parse_functions")
    served = svc.request_text(PAYLOAD)
    assert [o.kind for o, _ in served] == ["miss", "exact"]
    assert svc.solves == 1
    assert len(parses) == 1
    assert _reply_bytes(served) == _reply_bytes(cold)
    assert outcome.key in svc.store  # re-solved and stored again


@pytest.mark.parametrize(
    "invalidate", ["put", "quarantine", "drop_mem", "eviction"]
)
def test_dropping_entry_drops_rendered_text(
    tmp_path, diamond_fn, monkeypatch, invalidate
):
    store = ScheduleStore(tmp_path / "cache", mem_entries=1)
    svc = ScheduleService(store, default_features=FEATURES)
    text = STRAIGHT_TEXT.encode("utf-8")
    svc.request_text(text)
    first = svc.request_text(text)[0][0]
    emits = _count_calls(monkeypatch, service_mod, "_emit_function")
    assert svc.request_text(text)[0][0].kind == "exact"
    assert len(emits) == 0
    key = first.key
    if invalidate == "put":
        header, payload = store.get(key)
        store.put(key, first.family, payload, {
            "code_version": header["code_version"],
        })
    elif invalidate == "quarantine":
        store._quarantine(key, store._entry_path(key), "test")
    elif invalidate == "drop_mem":
        store.drop_mem()
    else:  # the other routine's put evicts this one from the front
        assert svc.request(diamond_fn).stored
        assert key not in store._mem
    emits.clear()
    again = svc.request_text(text)[0][0]
    if invalidate == "quarantine":
        assert again.kind == "miss"  # never served from the dropped text
        again = svc.request_text(text)[0][0]
    assert again.kind == "exact"
    assert again.result is not first.result
    assert len(emits) == (2 if invalidate == "quarantine" else 1)


def test_payload_one_byte_different_takes_full_path(svc, monkeypatch):
    miss = svc.request_text(PAYLOAD)
    calls = _count_full_path(monkeypatch)
    served = svc.request_text(PAYLOAD + b"\n")
    assert [o.kind for o, _ in served] == ["exact", "exact"]
    assert len(calls["parse_functions"]) == 1
    assert len(calls["request_keys"]) == 2
    assert _reply_bytes(served) == _reply_bytes(miss)


def test_payload_with_one_missing_routine_takes_full_path(svc, monkeypatch):
    cold = svc.request_text(PAYLOAD)
    gone = cold[1][0].key
    svc.store._quarantine(gone, svc.store._entry_path(gone), "test")
    svc.solves = 0
    parses = _count_calls(monkeypatch, service_mod, "parse_functions")
    served = svc.request_text(PAYLOAD)
    assert [o.kind for o, _ in served] == ["exact", "miss"]
    assert len(parses) == 1
    assert svc.solves == 1
    assert served[0][1] == cold[0][1]


@pytest.mark.parametrize(
    "fault", ["serve.store_io=error", "serve.corrupt_entry=corrupt:1"]
)
def test_fault_on_memo_hit_degrades_to_cold_solve(svc, fault):
    text = STRAIGHT_TEXT.encode("utf-8")
    svc.request_text(text)
    svc.store.drop_mem()  # the fault sites sit on the disk read
    svc.solves = 0
    with faults.inject(fault):
        served = svc.request_text(text)
    outcome = served[0][0]
    assert outcome.kind == "miss"
    assert svc.solves == 1
    assert outcome.result.verification.ok


def test_empty_payload_serves_nothing(svc):
    assert svc.request_text(b"// nothing here\n") == []
    assert not svc._memo


def test_unhashable_features_skip_the_memo(svc):
    features = replace(FEATURES, max_hops=[4])  # as a wire list arrives
    served = svc.request_text(STRAIGHT_TEXT.encode("utf-8"), features)
    assert [o.kind for o, _ in served] == ["miss"]
    assert not svc._memo


def test_memo_bounded_by_front_size(tmp_path):
    store = ScheduleStore(tmp_path / "cache", mem_entries=2)
    svc = ScheduleService(store, default_features=FEATURES)
    for suffix in range(4):
        svc.request_text(STRAIGHT_TEXT.encode("utf-8") + b"\n" * suffix)
    assert len(svc._memo) == 2


# -- deadlines -----------------------------------------------------------------
def test_deadline_bounds_solve_not_key(svc, straight_fn):
    cold = svc.request(straight_fn, budget=5.0)
    assert cold.kind == "miss"
    assert cold.key == svc.request(straight_fn).key
    assert cold.result.quality == "optimal"
    assert cold.stored  # an optimal answer is the key's answer
    assert svc.request(straight_fn, budget=4.0).kind == "exact"


def test_deadline_degraded_result_not_stored(svc, straight_fn, monkeypatch):
    real_scheduler = service_mod.IlpScheduler
    limits = []

    class IncumbentScheduler(real_scheduler):
        def optimize(self, fn, length_hint=None):
            limits.append(self.features.time_limit)
            result = super().optimize(fn, length_hint=length_hint)
            return replace(result, quality="incumbent")

    monkeypatch.setattr(service_mod, "IlpScheduler", IncumbentScheduler)
    tightened = svc.request(straight_fn, budget=5.0)
    assert limits[0] <= 5.0
    assert not tightened.stored
    assert any("deadline" in note for note in tightened.notes)
    loose = svc.request(straight_fn, budget=60.0)  # above the limit
    assert limits[1] > 5.0
    assert loose.stored


class _GatedScheduler:
    """Patches the service's scheduler: a solve whose time limit passes
    ``hold`` blocks until ``release`` is set, and one whose limit is at
    most ``degrade_at`` comes back as ``incumbent`` (a deadline-cut
    answer)."""

    def __init__(self, monkeypatch, hold, degrade_at=0.0):
        self.release = threading.Event()
        self.limits = []
        real = service_mod.IlpScheduler
        gated = self

        class Scheduler(real):
            def optimize(self, fn, length_hint=None):
                limit = self.features.time_limit
                gated.limits.append(limit)
                if hold(limit):
                    gated.release.wait(timeout=30)
                result = super().optimize(fn, length_hint=length_hint)
                if limit <= degrade_at:
                    result = replace(result, quality="incumbent")
                return result

        monkeypatch.setattr(service_mod, "IlpScheduler", Scheduler)


def _start(svc, fn, budget, box, name):
    def worker():
        started = time.perf_counter()
        box[name] = svc.request(fn, budget=budget)
        box[name + "_wait"] = time.perf_counter() - started

    thread = threading.Thread(target=worker)
    thread.start()
    return thread


def _await_follower(svc, timeout=10):
    """Block until some request waits on an open flight."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        flight = next(iter(svc._flights.values()), None)
        waiters = flight and getattr(flight.done, "_cond", None)
        if waiters is not None and waiters._waiters:
            return
        time.sleep(0.005)
    raise AssertionError("no follower joined the flight")


def _await_flight(svc, timeout=10):
    deadline = time.time() + timeout
    while not svc._flights and time.time() < deadline:
        time.sleep(0.005)
    assert svc._flights, "leader never opened a flight"


def test_follower_without_deadline_rejects_a_tightened_leaders_answer(
    tmp_path, straight_fn, monkeypatch
):
    svc = ScheduleService(
        tmp_path / "cache", default_features=FEATURES, max_concurrent=2
    )
    gate = _GatedScheduler(
        monkeypatch, hold=lambda limit: limit <= 5.0, degrade_at=5.0
    )
    box = {}
    leader = _start(svc, straight_fn, 5.0, box, "leader")
    _await_flight(svc)
    follower = _start(svc, straight_fn, None, box, "follower")
    _await_follower(svc)
    gate.release.set()
    leader.join(timeout=60)
    follower.join(timeout=60)
    assert not leader.is_alive() and not follower.is_alive()

    assert box["leader"].result.quality == "incumbent"
    assert not box["leader"].stored
    # The no-deadline follower asked for the full limit: it solved
    # under it instead of taking the leader's deadline-cut answer.
    assert not box["follower"].coalesced
    assert box["follower"].result.quality == "optimal"
    assert box["follower"].stored
    assert gate.limits[-1] > 5.0
    assert svc.solves == 2
    assert svc.request(straight_fn).kind == "exact"


def test_tighter_follower_takes_a_tightened_leaders_answer(
    tmp_path, straight_fn, monkeypatch
):
    svc = ScheduleService(
        tmp_path / "cache", default_features=FEATURES, max_concurrent=2
    )
    gate = _GatedScheduler(
        monkeypatch, hold=lambda limit: True, degrade_at=10.0
    )
    box = {}
    leader = _start(svc, straight_fn, 10.0, box, "leader")
    _await_flight(svc)
    follower = _start(svc, straight_fn, 8.0, box, "follower")
    _await_follower(svc)
    gate.release.set()
    leader.join(timeout=60)
    follower.join(timeout=60)
    assert not leader.is_alive() and not follower.is_alive()

    assert box["follower"].coalesced
    assert box["follower"].result is box["leader"].result
    assert svc.solves == 1


def test_deadline_follower_waits_no_longer_than_its_budget(
    tmp_path, straight_fn, monkeypatch
):
    svc = ScheduleService(
        tmp_path / "cache", default_features=FEATURES, max_concurrent=2
    )
    gate = _GatedScheduler(monkeypatch, hold=lambda limit: limit > 1.0)
    box = {}
    leader = _start(svc, straight_fn, None, box, "leader")
    _await_flight(svc)
    follower = _start(svc, straight_fn, 0.3, box, "follower")
    try:
        follower.join(timeout=20)
        # The leader is still held; the follower answered by its own
        # deadline from the input schedule instead of waiting.
        assert not gate.release.is_set()
        assert not follower.is_alive()
        assert box["follower_wait"] < 5.0
        assert not box["follower"].coalesced
        assert box["follower"].result.quality == "fallback_input"
        assert not box["follower"].stored
    finally:
        gate.release.set()
        leader.join(timeout=60)
    assert not leader.is_alive()
    assert box["leader"].result.quality == "optimal"
    assert box["leader"].stored


def test_admission_wait_is_bounded_by_the_deadline(
    tmp_path, straight_fn, diamond_fn, monkeypatch
):
    svc = ScheduleService(
        tmp_path / "cache", default_features=FEATURES, max_concurrent=1
    )
    gate = _GatedScheduler(monkeypatch, hold=lambda limit: limit > 1.0)
    box = {}
    long_solve = _start(svc, straight_fn, None, box, "long")
    deadline = time.time() + 10
    while not gate.limits and time.time() < deadline:
        time.sleep(0.005)  # until the long solve holds the slot
    assert gate.limits, "the long solve never started"
    quick = _start(svc, diamond_fn, 0.1, box, "quick")
    try:
        quick.join(timeout=20)
        # The long solve still holds the only slot; the 100 ms request
        # got its input schedule without waiting for it.
        assert not gate.release.is_set()
        assert not quick.is_alive()
        assert box["quick_wait"] < 0.1 + 1.0
        assert box["quick"].result.quality == "fallback_input"
        assert not box["quick"].stored
    finally:
        gate.release.set()
        long_solve.join(timeout=60)
    assert not long_solve.is_alive()
    assert box["long"].result.quality == "optimal"
    assert svc.solves == 1
