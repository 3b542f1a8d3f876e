"""ScheduleService contract: hits are byte-identical, faults degrade.

The serving invariants under test:

* an exact hit returns the *same* schedule (byte-identical emitted
  text) without re-running the solver,
* concurrent duplicate requests coalesce onto one solve,
* a family near miss seeds the cycle ranges and still verifies,
* every store failure mode — I/O errors, injected corruption — is
  absorbed as a cold solve; **a request never raises**,
* degraded (``fallback_input``) results are never cached,
* an exact hit decodes its entry at most once per process yet is
  re-verified every time, and anything that replaces or drops the
  entry's bytes forces a fresh decode,
* the stored entry is a slim copy that still reports and emits exactly
  like the miss.
"""

import pickle
import threading
import time

import pytest

from repro.ir.printer import format_function, format_schedule
from repro.sched.scheduler import ScheduleFeatures
from repro.serve import service as service_mod
from repro.serve.service import ScheduleService, cached_optimize
from repro.serve.store import ScheduleStore
from repro.tools import faults
from repro.tools.optimize import _emit_function
from repro.workloads.generator import RoutineSpec, generate_routine

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
    warm = svc.request(straight_fn, ScheduleFeatures(time_limit=25))
    assert warm.kind == "family"
    assert any("family" in note for note in warm.notes)
    assert warm.result.verification.ok
    assert (
        warm.result.weighted_length_out <= cold.result.weighted_length_out + 1e-9
    )
    # The hint made it into the scheduler trace.
    assert warm.result.trace.counters.get("family_hint_applied", 0) >= 1


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
