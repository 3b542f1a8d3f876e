"""``ScheduleService``: the request-coalescing serving facade.

One request = (routine IR, :class:`ScheduleFeatures`, machine).  The
service resolves it through four layers, cheapest first:

1. **Exact hit** — the request fingerprint
   (:func:`repro.serve.fingerprint.fingerprint`) finds a stored entry;
   the cached :class:`OptimizeResult` is deserialized (at most once per
   process: the store's in-process front keeps the decoded object),
   re-verified against the path verifier on every hit, and returned
   byte-identically to the cold solve that produced it.  Hit results,
   like a coalesced follower's, are shared between requests and must
   be treated as read-only.
2. **Single-flight coalescing** — concurrent duplicate requests for one
   key share a single solve: the first caller becomes the *leader*, the
   rest block on its flight and receive the same result
   (``coalesced_requests_total`` counts the followers it answers).  A
   follower with a deadline waits no longer than its own budget, and
   one whose limit is looser than a deadline-tightened leader's does
   not take that leader's answer unless it is ``optimal``: it solves
   itself.
3. **Family reuse** — on a miss, the coarse family fingerprint finds
   near-miss siblings.  The scheduler first builds the request's
   unhinted phase-1 model; when its feasible set is byte-identical to
   an eligible sibling's and the sibling's optimum provably stays
   optimal under the request's block frequencies
   (:mod:`repro.sched.certify`), that optimum and its phase-2 optimum
   are served with no solve — an exact answer.  Eligible siblings were
   solved to optimality on their unhinted model with no bundling cut or
   range growth; their stored header carries the record.  Otherwise
   the freshest sibling's achieved block lengths seed the cycle ranges
   of the cold solve (``length_hint`` on :meth:`IlpScheduler.optimize`),
   shrinking the ILP without ever widening it; such a hint can cut off
   the cold optimum, so that answer is not guaranteed optimal.
4. **Cold solve** — admission-controlled by a semaphore sized against
   the machine (the same budget reasoning as the
   :mod:`repro.tools.parallel` process pool: more concurrent solves
   than cores just thrash).  Queue wait is charged against the
   request's wall-clock budget, so a request that queued too long
   degrades along the optimizer's fallback ladder instead of blowing
   its deadline inside the solver.

In front of these layers, :meth:`ScheduleService.request_text` serves
a whole TIA request payload (what the fleet daemon receives).  A memo,
bounded like the store's in-process front, maps (sha256 of the payload
bytes, features) to each routine's exact and family keys, so a repeated
payload skips parsing and both canonical traversals: it goes straight
to the store, re-verifies the decoded entry and replies with the text
rendered from it, which the store's front keeps beside the decoded
object.  Anything short of a re-verified exact hit for every routine
falls back to parsing the payload and the layers above.

Keys come from the request's features *before* a deadline is applied:
the remaining budget of a deadline only bounds the cold solve, so a
request repeated with a deadline still hits its entry.  A result solved
under a deadline that tightened the time limit is stored only if it is
``optimal``, since the key promises the untightened limit's answer.

Failure containment mirrors the scheduler's graceful-degradation
contract: **a request never fails because of the cache**.  Store I/O
errors and corrupt/version-mismatched entries (including the
``serve.store_io`` / ``serve.corrupt_entry`` fault-injection sites) are
counted, logged as events, and absorbed by falling through to a cold
solve.  Results below the ``phase1`` quality tier are never cached, so
a degraded answer cannot be replayed forever.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace

from repro.ilp.status import Solution
from repro.ir.parser import parse_functions
from repro.machine.itanium2 import ITANIUM2
from repro.obs import core as obs
from repro.sched.scheduler import IlpScheduler, ScheduleFeatures
from repro.sched.verifier import verify_schedule
from repro.serve.fingerprint import CODE_VERSION, request_keys
from repro.serve.protocol import apply_deadline
from repro.serve.store import ScheduleStore
from repro.tools.optimize import _emit_function

# Quality tiers worth replaying. "fallback_input" is the input schedule
# — caching it would freeze a transient failure into a permanent one.
CACHEABLE_QUALITIES = frozenset({"optimal", "incumbent", "phase1"})

HIT_KINDS = ("exact", "family", "miss")


@dataclass
class ServeOutcome:
    """Envelope around an :class:`OptimizeResult` served by the service."""

    result: object
    kind: str  # "exact" | "family" | "miss"
    key: str
    family: str
    elapsed: float
    coalesced: bool = False  # answered by another request's flight
    stored: bool = False  # this request filled the cache
    certified: bool = False  # served from a certified family sibling
    notes: list = field(default_factory=list)

    def summary(self):
        out = {
            "routine": self.result.fn.name,
            "kind": self.kind,
            "key": self.key,
            "elapsed": self.elapsed,
            "quality": self.result.quality,
            "coalesced": self.coalesced,
            "stored": self.stored,
        }
        if self.notes:
            out["notes"] = list(self.notes)
        return out


class _Flight:
    """State shared between a leader and its coalesced followers.

    ``limit`` is the time limit the leader solves under.  ``full`` is
    set once the outcome is the key's answer — not a result a deadline
    cut short — and so fit for any follower.
    """

    def __init__(self, limit):
        self.done = threading.Event()
        self.limit = limit
        self.outcome = None
        self.full = False
        self.error = None


class ScheduleService:
    """Thread-safe serving facade over a :class:`ScheduleStore`.

    ``max_concurrent`` bounds simultaneous cold solves (default: CPU
    count, min 1); ``revalidate`` re-runs the path verifier on every
    deserialized hit before serving it (belt and braces on top of the
    store checksum — a verifier rejection quarantines the entry).
    ``default_features`` seeds requests that do not carry their own.
    The payload memo of :meth:`request_text` holds at most as many
    payloads as the store's in-process front holds entries
    (``mem_entries``).
    """

    def __init__(
        self,
        store,
        machine=ITANIUM2,
        default_features=None,
        max_concurrent=None,
        revalidate=True,
    ):
        if isinstance(store, (str, os.PathLike)):
            store = ScheduleStore(store)
        self.store = store
        self.machine = machine
        self.default_features = default_features or ScheduleFeatures()
        self.revalidate = revalidate
        if max_concurrent is None:
            max_concurrent = max(1, os.cpu_count() or 1)
        self.max_concurrent = max_concurrent
        self._solve_slots = threading.Semaphore(max_concurrent)
        self._flights = {}  # key -> _Flight
        self._flights_lock = threading.Lock()
        self._queued = 0
        self.solves = 0  # cold solves actually executed (tests/metrics)
        # (payload sha256, features) -> ((exact key, family key), ...)
        self._memo = OrderedDict()
        self._memo_lock = threading.Lock()

    # -- public --------------------------------------------------------------
    def request_text(self, payload, features=None, budget=None):
        """Serve every routine of a TIA request payload (``bytes``).

        Returns ``[(ServeOutcome, reply text)]`` in payload order, empty
        when the payload holds no routine.  A payload seen before with
        the same ``features`` is answered from the store without being
        parsed, provided every routine is an exact hit that passes
        re-verification; otherwise the payload is parsed and each
        routine served by :meth:`request`.  ``budget`` is as there.
        Parse errors propagate; cache failures never do.
        """
        features = features or self.default_features
        memo_key = (hashlib.sha256(payload).digest(), features)
        try:
            with self._memo_lock:
                keys = self._memo.get(memo_key)
                if keys is not None:
                    self._memo.move_to_end(memo_key)
        except TypeError:
            # An unhashable feature value (a list sent over the wire):
            # serve it, just not through the memo.
            memo_key = keys = None
        if keys is not None:
            served = self._replay(keys)
            if served is not None:
                return served
        served = [
            self._reply(self.request(fn, features, budget))
            for fn in parse_functions(payload.decode("utf-8"))
        ]
        if served and memo_key is not None:
            with self._memo_lock:
                self._memo[memo_key] = tuple(
                    (outcome.key, outcome.family) for outcome, _ in served
                )
                while len(self._memo) > self.store.mem_entries:
                    self._memo.popitem(last=False)
        return served

    def request(self, fn, features=None, budget=None):
        """Serve one routine; returns a :class:`ServeOutcome`.

        ``budget`` is the seconds left of the request's deadline: it
        bounds a cold solve but is not part of the keys.  Never raises
        for cache or pipeline failures — the worst case is a cold solve
        that itself degrades along the optimizer's fallback ladder.
        """
        features = features or self.default_features
        started = time.perf_counter()
        with obs.span("serve.request", routine=fn.name) as span:
            key, family = request_keys(fn, features, self.machine)
            limited = apply_deadline(features, budget)
            while True:
                with self._flights_lock:
                    flight = self._flights.get(key)
                    leader = flight is None
                    if leader:
                        flight = self._flights[key] = _Flight(
                            limited.time_limit
                        )
                if leader:
                    break
                outcome = self._follow(
                    flight, fn, features, limited, key, family, started,
                    budget,
                )
                if outcome is not None:
                    span.set_attr("kind", outcome.kind)
                    span.set_attr("coalesced", outcome.coalesced)
                    return outcome
                # The leader crashed, or a deadline cut its answer
                # short of what this request asked for: solve it
                # ourselves (becoming a new leader).
                with self._flights_lock:
                    if self._flights.get(key) is flight:
                        del self._flights[key]

            try:
                outcome = self._resolve(
                    fn, features, limited, key, family, started
                )
                flight.outcome = outcome
                flight.full = (
                    outcome.kind == "exact"
                    or limited is features
                    or outcome.result.quality == "optimal"
                )
                span.set_attr("kind", outcome.kind)
                return outcome
            except BaseException as exc:
                flight.error = exc
                raise
            finally:
                with self._flights_lock:
                    if self._flights.get(key) is flight:
                        del self._flights[key]
                flight.done.set()

    def request_many(self, fns, features=None, workers=None):
        """Serve a batch concurrently; returns outcomes in input order.

        Threads (not processes): hits are I/O-bound and cold solves
        spend their time inside numpy/HiGHS calls that release the GIL
        — and a shared in-process flight table is what makes
        coalescing work at all.
        """
        fns = list(fns)
        if not fns:
            return []
        if workers is None:
            workers = min(len(fns), self.max_concurrent * 2)
        if workers <= 1 or len(fns) == 1:
            return [self.request(fn, features) for fn in fns]
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(
                pool.map(lambda fn: self.request(fn, features), fns)
            )

    # -- resolution ----------------------------------------------------------
    def _follow(self, flight, fn, features, limited, key, family, started,
                budget):
        """Wait on another request's flight for the same key.

        Returns this request's :class:`ServeOutcome`, or ``None`` when
        it must solve itself: the leader crashed, or a deadline cut the
        leader's answer short of this request's looser limit.  A
        follower with a deadline waits at most its remaining budget;
        past it, it is served under what is left (nothing, so a cold
        solve falls back to the input schedule) without the flight.
        """
        timeout = None
        if budget is not None:
            timeout = max(0.0, budget - (time.perf_counter() - started))
        if not flight.done.wait(timeout):
            return self._resolve(fn, features, limited, key, family, started)
        base = flight.outcome
        if base is None:
            return None
        looser = limited.time_limit is None or (
            flight.limit is not None and limited.time_limit > flight.limit
        )
        if not flight.full and looser:
            return None
        if obs.ENABLED:
            obs.counter("coalesced_requests_total")
        elapsed = time.perf_counter() - started
        self._observe(base.kind, elapsed)
        return ServeOutcome(
            result=base.result,
            kind=base.kind,
            key=key,
            family=family,
            elapsed=elapsed,
            coalesced=True,
            notes=["coalesced onto an in-flight request"],
        )

    def _replay(self, keys):
        """``[(outcome, text)]`` when every memoized key is an exact hit
        that passes re-verification, else ``None``."""
        with obs.span("serve.replay"):
            hits = []
            for key, family in keys:
                outcome = self._exact_hit(key, family, time.perf_counter())
                if outcome is None:
                    return None
                hits.append(outcome)
        for outcome in hits:
            self._observe("exact", outcome.elapsed)
        return [self._reply(outcome) for outcome in hits]

    def _exact_hit(self, key, family, started, notes=None):
        """The re-verified stored answer for ``key`` as an unobserved
        ``exact`` outcome, or ``None`` (absent, unreadable or rejected —
        a rejection quarantines the entry)."""
        notes = [] if notes is None else notes
        hit = self._lookup(key, notes)
        result = hit and self._deserialize(key, hit, notes)
        if result is None:
            return None
        return ServeOutcome(
            result=result,
            kind="exact",
            key=key,
            family=family,
            elapsed=time.perf_counter() - started,
            notes=notes,
        )

    def _reply(self, outcome):
        """``(outcome, reply text)``; a hit's text is rendered once per
        decoded entry."""
        return outcome, self.store.rendered(
            outcome.key, outcome.result, _emit_function
        )

    def _resolve(self, fn, features, limited, key, family, started):
        """Exact hit, else a cold solve under ``limited`` (``features``
        with the deadline applied) that fills the entry for ``key``."""
        notes = []
        outcome = self._exact_hit(key, family, started, notes)
        if outcome is not None:
            self._observe("exact", outcome.elapsed)
            return outcome

        hint, records = self._family_siblings(key, family)
        kind = "family" if hint or records else "miss"
        result, solved_features = self._cold_solve(
            fn, limited, hint, records, started
        )
        certified = result.trace.counters.get("family_certified", 0) > 0
        if certified:
            notes.append("served from a certified family sibling")
            if obs.ENABLED:
                obs.counter("cache_family_certified_total")
        elif hint:
            notes.append("cycle ranges seeded from a family near miss")
        stored = self._maybe_store(
            key, family, result, solved_features, notes,
            tightened=limited is not features,
        )
        elapsed = time.perf_counter() - started
        self._observe(kind, elapsed)
        return ServeOutcome(
            result=result,
            kind=kind,
            key=key,
            family=family,
            elapsed=elapsed,
            stored=stored,
            certified=certified,
            notes=notes,
        )

    def _lookup(self, key, notes):
        """(header, payload) on exact hit, else None; store failures are
        absorbed (counted + noted) as misses."""
        with obs.span("serve.lookup") as span:
            lookup_started = time.perf_counter()
            try:
                hit = self.store.get(key)
            except OSError as exc:
                if obs.ENABLED:
                    obs.counter("cache_store_errors_total", op="get")
                    obs.event("serve.store_io", op="get", error=str(exc))
                notes.append(f"store read failed: {exc}")
                hit = None
            if obs.ENABLED:
                obs.histogram(
                    "serve_lookup_seconds",
                    time.perf_counter() - lookup_started,
                )
            span.set_attr("hit", hit is not None)
        return hit

    def _deserialize(self, key, hit, notes):
        """Unpickle (once per resident entry) + optionally re-verify a
        hit; on any failure the entry is quarantined and ``None`` (cold
        solve) returned."""
        header, payload = hit
        if header.get("code_version") != CODE_VERSION:
            notes.append("entry from another code version; ignoring")
            return None
        try:
            result = self.store.decoded(key, payload, pickle.loads)
        except Exception as exc:
            notes.append(f"entry failed to deserialize: {exc}")
            self.store._quarantine(
                key, self.store._entry_path(key), f"unpicklable: {exc}"
            )
            return None
        verify_edges = getattr(result, "verify_edges", None)
        if (
            self.revalidate
            and result.reconstruction is not None
            and verify_edges is not None
        ):
            # Replay verification with the exact edge set/scopes the
            # scheduler proved the schedule against — a bare call over
            # the full DDG would falsely reject cyclic code motion.
            with obs.span("serve.revalidate"):
                try:
                    report = verify_schedule(
                        result.output_schedule,
                        result.region,
                        result.reconstruction,
                        machine=self.machine,
                        dep_edges=verify_edges,
                        edge_scopes=getattr(result, "verify_scopes", None) or {},
                    )
                except Exception as exc:
                    report = None
                    notes.append(f"revalidation errored: {exc}")
            if report is None or not report.ok:
                notes.append("cached schedule failed re-verification")
                self.store._quarantine(
                    key,
                    self.store._entry_path(key),
                    "failed re-verification on load",
                )
                return None
        return result

    def _family_siblings(self, key, family):
        """``(hint, records)`` from the family's stored siblings: the
        freshest sibling's achieved block lengths (or ``None``) and every
        sibling's :mod:`repro.sched.certify` record, freshest first."""
        try:
            members = self.store.family_members(family)
        except OSError:
            return None, []
        siblings = []
        for member in members:
            if member == key:
                continue
            header = self.store.load_header(member)
            if header and header.get("code_version") == CODE_VERSION:
                siblings.append(header)
        siblings.sort(key=lambda header: header.get("created", 0), reverse=True)
        hint = next(
            (
                header["block_lengths"] for header in siblings
                if isinstance(header.get("block_lengths"), dict)
                and header["block_lengths"]
            ),
            None,
        )
        records = [
            header["family_record"] for header in siblings
            if _well_formed(header.get("family_record"))
        ]
        return hint, records

    def _cold_solve(self, fn, features, hint, records, started):
        """Admission-controlled solve; queue wait burns request budget.

        ``records`` are the family siblings' certificate records (see
        :meth:`_family_siblings`)."""
        with obs.span("serve.solve", routine=fn.name):
            budget = features.time_limit
            self._queued += 1
            if obs.ENABLED:
                obs.gauge("serve_queue_depth", float(self._queued))
            try:
                if budget is None:
                    acquired = self._solve_slots.acquire()
                else:
                    remaining = budget - (time.perf_counter() - started)
                    acquired = self._solve_slots.acquire(
                        timeout=max(0.0, remaining)
                    )
            finally:
                self._queued -= 1
            if not acquired:
                # Over budget in the queue: serve the input schedule now,
                # without waiting for a slot. A token budget makes the
                # optimizer degrade to it at once, truthfully marked
                # fallback_input (which is never stored).
                if obs.ENABLED:
                    obs.counter("serve_admission_timeouts_total")
                features = replace(features, time_limit=1e-6)
                return self._optimize(fn, features, hint, None), features
            try:
                if budget is not None:
                    remaining = max(
                        1e-6, budget - (time.perf_counter() - started)
                    )
                    features = replace(features, time_limit=remaining)
                self.solves += 1
                return self._optimize(fn, features, hint, records), features
            finally:
                self._solve_slots.release()

    def _optimize(self, fn, features, hint, records):
        scheduler = IlpScheduler(
            machine=self.machine, features=features,
            partition_store=self.store, family=records,
        )
        return scheduler.optimize(fn, length_hint=hint)

    def _maybe_store(self, key, family, result, features, notes,
                     tightened=False):
        """Cache a cold result when it is worth replaying.

        ``tightened``: a deadline cut the time limit below the one in
        the key, so only an ``optimal`` answer is the key's answer.
        """
        if result.quality not in CACHEABLE_QUALITIES:
            notes.append(f"not cached (quality {result.quality})")
            return False
        if tightened and result.quality != "optimal":
            notes.append(
                f"not cached (quality {result.quality} under a deadline)"
            )
            return False
        if result.verification is not None and not result.verification.ok:
            notes.append("not cached (verification failed)")
            return False
        try:
            payload = pickle.dumps(_slim(result))
        except Exception as exc:
            notes.append(f"not cached (unpicklable result: {exc})")
            return False
        schedule = result.output_schedule
        meta = {
            "code_version": CODE_VERSION,
            "routine": result.fn.name,
            "quality": result.quality,
            "block_lengths": {
                name: schedule.block_length(name)
                for name in schedule.block_order
            },
            "solve_seconds": result.ilp_size.get("time"),
            "time_limit": features.time_limit,
        }
        if result.quality == "optimal" and result.family_record is not None:
            meta["family_record"] = result.family_record
        with obs.span("serve.store"):
            try:
                self.store.put(key, family, payload, meta)
            except OSError as exc:
                if obs.ENABLED:
                    obs.counter("cache_store_errors_total", op="put")
                    obs.event("serve.store_io", op="put", error=str(exc))
                notes.append(f"store write failed: {exc}")
                return False
        return True

    # -- metrics -------------------------------------------------------------
    @staticmethod
    def _observe(kind, elapsed):
        if obs.ENABLED:
            obs.counter("cache_hits_total", kind=kind)
            obs.histogram("serve_request_seconds", elapsed, kind=kind)


def _slim(result):
    """The copy of ``result`` the store keeps.

    Hits never read the per-variable ILP assignment — most of an
    entry's bytes — except the ``usespec`` switches behind
    :attr:`OptimizeResult.spec_used`.  The stored ``solution`` keeps
    status, objective, search stats and just those values.
    """
    solution = result.solution
    if solution is None:
        return replace(result, family_record=None)
    values = {
        g.usespec: solution.values[g.usespec]
        for g in result.spec_groups
        if g.usespec in solution.values
    }
    return replace(result, family_record=None, solution=Solution(
        solution.status, solution.objective, values, solution.stats
    ))


def _well_formed(record):
    """Is ``record`` shaped like a :func:`repro.sched.certify.family_record`
    (headers are read back from disk, so check before use)?"""
    if not isinstance(record, dict):
        return False

    def ints(values):
        return isinstance(values, list) and all(type(v) is int for v in values)

    freqs, lengths = record.get("freqs"), record.get("lengths")
    phase2, objective2 = record.get("phase2"), record.get("objective2")
    return (
        isinstance(record.get("digest"), str)
        and isinstance(freqs, dict)
        and all(isinstance(f, (int, float)) for f in freqs.values())
        and isinstance(lengths, dict)
        and ints(list(lengths.values()))
        and ints(record.get("phase1"))
        and (phase2 is None or ints(phase2))
        and (objective2 is None or isinstance(objective2, (int, float)))
    )


def cached_optimize(fn, features=None, cache_dir=None, machine=ITANIUM2):
    """Drop-in for :func:`optimize_function` with a shared disk cache.

    Builds (and memoizes per process) one :class:`ScheduleService` per
    cache directory — this is what :mod:`repro.tools.experiments` and
    the pool workers in :mod:`repro.tools.parallel` call when a sweep
    runs with ``cache_dir`` set.  Returns the :class:`ServeOutcome`.
    """
    service = _service_for(cache_dir, machine)
    return service.request(fn, features)


_services = {}
_services_lock = threading.Lock()


def _service_for(cache_dir, machine=ITANIUM2):
    key = (os.path.abspath(cache_dir), id(machine))
    with _services_lock:
        service = _services.get(key)
        if service is None:
            service = _services[key] = ScheduleService(
                ScheduleStore(cache_dir), machine=machine
            )
        return service
