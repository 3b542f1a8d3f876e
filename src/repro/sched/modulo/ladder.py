"""The deadline-aware II search ladder.

Modulo scheduling's outer loop: starting at ``MII = max(ResMII,
RecMII)``, try successive initiation intervals until a kernel exists,
then materialize it and *prove it by execution*.  Every ladder has a
floor — this module never raises for a loop it cannot pipeline; it
reports a structured :class:`LoopPipelineOutcome` instead, mirroring
the §8 contract of the surrounding scheduler (``optimize`` stays
no-raise with SWP enabled).

The ladder, in degradation order:

1. **Cache**: a kernel stored under the loop's ``kind="loop"``
   fingerprint (:func:`repro.serve.fingerprint.loop_fingerprint`) skips
   the ILP entirely — materialization and the oracle still run, so a
   stale or corrupt entry degrades to a live solve, never to bad code.
2. **Modulo ILP** (:func:`modulo_schedule`, one
   :class:`repro.sched.modulo.formulation.ModuloIlp` per II): for each
   candidate II from MII upward the remaining ladder budget is split
   evenly over the IIs left, so an early II that is *almost* feasible
   cannot starve the rest of the climb.  A candidate whose start windows
   come out empty is recorded ``INFEASIBLE`` (reason ``empty_window``)
   without a solve.  The first feasible II is the smallest one within
   the stage bound.
3. **Unpipelined**: the loop stays as the acyclic scheduler left it.

Materialization sits behind the ``swp.materialize`` fault site: any
injected kind fails code generation, which must demote the outcome to
unpipelined — chaos runs assert the degradation.  Every materialized
routine must pass the kernel-vs-unrolled oracle
(:mod:`repro.sched.modulo.oracle`) before it is reported; an oracle
failure discards the routine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import SchedulingError
from repro.ilp import solve_model
from repro.machine.itanium2 import ITANIUM2
from repro.obs import core as obs
from repro.sched.modulo.bounds import recurrence_mii, resource_mii
from repro.sched.modulo.formulation import ModuloIlp
from repro.sched.modulo.oracle import kernel_vs_unrolled
from repro.sched.swp import ModuloSchedule, build_modulo_edges, loop_body
from repro.sched.swp_materialize import (
    materialize_counted_loop,
    recognize_counted_loop,
)
from repro.tools import faults
from repro.tools.deadline import Deadline

#: Minimum per-II solver budget: below this a solve cannot even build
#: the matrix, so the split floors here instead of shaving to nothing.
_RUNG_FLOOR = 0.05


@dataclass
class LoopPipelineOutcome:
    """One loop's trip through the ladder (never an exception)."""

    loop_header: str
    status: str  # "pipelined" | "unpipelined"
    ii: int | None = None
    stages: int = 0
    mii_resource: int = 0
    mii_recurrence: int = 0
    oracle: object = None  # OracleReport when a kernel was executed
    cache: str = "off"  # "hit" | "miss" | "off"
    fallback_reason: str | None = None
    pipelined_fn: object = None  # materialized Function (None = unpipelined)
    solve_seconds: float = 0.0
    detail: dict = field(default_factory=dict)

    @property
    def mii(self):
        return max(self.mii_resource, self.mii_recurrence, 1)

    @property
    def pipelined(self):
        return self.pipelined_fn is not None

    def summary(self):
        """One report line, greppable by the smoke jobs."""
        if self.pipelined:
            oracle = "passed" if self.oracle and self.oracle.ok else "FAILED"
            return (
                f"swp {self.loop_header}: pipelined II={self.ii} "
                f"(ResMII {self.mii_resource}, RecMII {self.mii_recurrence}), "
                f"stages {self.stages}, oracle {oracle}"
            )
        return (
            f"swp {self.loop_header}: unpipelined "
            f"({self.fallback_reason or 'out of scope'})"
        )


def pipeline_loop(
    fn,
    cfg,
    ddg,
    loop,
    machine=ITANIUM2,
    deadline=None,
    max_ii=32,
    max_stages=4,
    time_limit=10.0,
    features=None,
    store=None,
    oracle_seeds=(0, 1, 2),
    trace=None,
):
    """Run the full ladder for one loop; returns a LoopPipelineOutcome.

    ``deadline`` is the routine's shared wall clock (the ladder only
    ever spends its *remaining* budget); ``time_limit`` additionally
    caps what this one loop may consume.  ``features`` + ``store``
    enable the ``kind="loop"`` cache; both optional.
    """
    deadline = deadline if deadline is not None else Deadline(None)
    outcome = LoopPipelineOutcome(loop_header=loop.header,
                                  status="unpipelined")
    started = deadline.elapsed()

    counted = recognize_counted_loop(fn, loop)
    if counted is None:
        return _finish(outcome, "not_counted", deadline, started)
    try:
        body = loop_body(fn, loop)
    except SchedulingError as exc:
        outcome.detail["scope"] = str(exc)
        return _finish(outcome, "scope", deadline, started)

    edges = build_modulo_edges(fn, loop, body, ddg)
    outcome.mii_resource = resource_mii(body, machine)
    outcome.mii_recurrence = recurrence_mii(body, edges)
    outcome.detail["body_instructions"] = len(body)
    outcome.detail["edges"] = len(edges)

    # -- the kind="loop" cache -----------------------------------------------
    cache_key = None
    cached = None
    if store is not None and features is not None:
        cache_key, cached = _cache_probe(
            store, fn, loop, features, machine, body, outcome
        )
    if cached is not None:
        produced = _materialize_and_check(
            fn, cfg, ddg, loop, cached, counted, oracle_seeds, outcome, trace
        )
        if produced is not None:
            outcome.status = "pipelined"
            return _finish(outcome, None, deadline, started, produced)
        # A cached kernel that fails to materialize or execute is stale:
        # drop to a live solve (and republish on success).
        outcome.detail["cache_discarded"] = True
        outcome.oracle = None
        outcome.ii = None

    # -- the modulo ILP --------------------------------------------------------
    clock = Deadline(time_limit)
    attempts = outcome.detail["rungs"] = []
    with _span(trace, "swp.ladder", loop=loop.header, mii=outcome.mii):
        msched = modulo_schedule(
            loop, body, edges, machine=machine, max_ii=max_ii,
            max_stages=max_stages, deadline=deadline, clock=clock,
            bounds=(outcome.mii_resource, outcome.mii_recurrence),
            attempts=attempts, trace=trace,
        )
    if msched is None:
        outcome.fallback_reason = (
            "deadline" if deadline.expired or clock.expired
            else "no_feasible_ii"
        )
        return _finish(outcome, None, deadline, started)
    produced = _materialize_and_check(
        fn, cfg, ddg, loop, msched, counted, oracle_seeds, outcome, trace
    )
    if produced is None:
        return _finish(outcome, None, deadline, started)
    outcome.status = "pipelined"
    if cache_key is not None:
        _cache_publish(store, cache_key, fn, loop, body, msched)
    return _finish(outcome, None, deadline, started, produced)


def modulo_schedule(loop, body, edges, machine=ITANIUM2, max_ii=32,
                    max_stages=4, deadline=None, clock=None, bounds=None,
                    attempts=None, trace=None):
    """Climb II from MII to ``max_ii``; the first kernel, or None.

    ``body`` and ``edges`` come from :func:`repro.sched.swp.loop_body`
    and :func:`repro.sched.swp.build_modulo_edges`.  Each II gets one
    :class:`ModuloIlp` with at most ``max_stages`` stages; its solve may
    spend an even share of what is left on the tighter of ``deadline``
    (the routine's shared clock) and ``clock`` (this loop's own budget),
    both optional :class:`repro.tools.deadline.Deadline` objects.  Returns
    None when no II up to ``max_ii`` has a kernel or a clock runs out
    first.  ``bounds`` is the loop's ``(ResMII, RecMII)`` when the caller
    has it already; ``attempts``, when given, receives one record per II
    tried.
    """
    deadline = deadline if deadline is not None else Deadline(None)
    clock = clock if clock is not None else Deadline(None)
    attempts = attempts if attempts is not None else []
    mii_resource, mii_recurrence = bounds or (
        resource_mii(body, machine), recurrence_mii(body, edges)
    )
    mii = max(mii_resource, mii_recurrence, 1)
    rungs = range(mii, max(max_ii, mii) + 1)
    for at, ii in enumerate(rungs):
        budget = _rung_budget(deadline, clock, len(rungs) - at)
        if budget is not None and budget <= 0:
            attempts.append({"ii": ii, "status": "skipped", "reason":
                             "deadline"})
            return None
        milp = ModuloIlp(body, edges, ii, machine=machine,
                         max_stages=max_stages)
        if milp.windows is None:
            # Some start window is empty: the dependence and lifetime
            # rows alone rule this II out, so no solver is asked.
            attempts.append({"ii": ii, "status": "INFEASIBLE", "reason":
                             "empty_window", "seconds": 0.0})
            continue
        with _span(trace, "swp.solve_ii", ii=ii) as span:
            solution = solve_model(
                milp.model, deadline=deadline, time_limit=budget
            )
            if span is not None:
                span.set_attr("status", solution.status.name)
        attempt = {
            "ii": ii,
            "status": solution.status.name,
            "seconds": round(solution.stats.time_seconds, 4),
            **milp.size,
        }
        attempts.append(attempt)
        if solution:
            starts = milp.start_times(solution)
            if starts is not None:
                return _as_schedule(loop, ii, starts, mii_resource,
                                    mii_recurrence)
            attempt["status"] = "CORRUPT"
    return None


def _as_schedule(loop, ii, starts, mii_resource, mii_recurrence):
    return ModuloSchedule(
        loop_header=loop.header,
        ii=ii,
        start_times=starts,
        stages=1 + max((t // ii for t in starts.values()), default=0),
        mii_resource=mii_resource,
        mii_recurrence=mii_recurrence,
    )


def _rung_budget(deadline, clock, rungs_left):
    """Even split of the tighter remaining budget over the IIs left."""
    remaining = [
        r for r in (deadline.remaining(), clock.remaining())
        if r is not None
    ]
    if not remaining:
        return None
    tightest = min(remaining)
    if tightest <= 0:
        return 0.0
    return max(tightest / max(rungs_left, 1), _RUNG_FLOOR)


def _materialize_and_check(fn, cfg, ddg, loop, msched, counted, oracle_seeds,
                           outcome, trace):
    """Materialize + oracle one kernel; None (and a reason) on failure."""
    outcome.ii = msched.ii
    outcome.stages = msched.stages
    injected = faults.fire("swp.materialize")
    if injected is not None:
        outcome.fallback_reason = "materialize"
        outcome.detail["materialize_fault"] = injected
        return None
    with _span(trace, "swp.materialize", loop=loop.header, ii=msched.ii):
        try:
            produced = materialize_counted_loop(
                fn, cfg, ddg, loop, msched, counted=counted
            )
        except Exception as exc:  # codegen must never escape the ladder
            outcome.fallback_reason = "materialize"
            outcome.detail["materialize_error"] = (
                f"{type(exc).__name__}: {exc}"
            )
            return None
    if produced is None:
        outcome.fallback_reason = (
            "no_overlap" if msched.stages < 2 else "materialize"
        )
        return None
    with _span(trace, "swp.oracle", loop=loop.header):
        report = kernel_vs_unrolled(fn, produced, seeds=oracle_seeds)
    outcome.oracle = report
    if obs.ENABLED:
        obs.counter("swp_oracle_total", 1,
                    result="pass" if report.ok else "fail")
    if not report.ok:
        outcome.fallback_reason = "oracle"
        outcome.detail["oracle_problems"] = report.problems[:4]
        return None
    return produced


# -- cache --------------------------------------------------------------------
def _cache_probe(store, fn, loop, features, machine, body, outcome):
    """Look up a cached kernel; returns (key, ModuloSchedule or None)."""
    from repro.serve.fingerprint import CODE_VERSION, loop_fingerprint

    try:
        key = loop_fingerprint(fn, loop.header, features, machine)
    except Exception:
        return None, None
    header = store.load_header(key)
    cached = None
    if (
        header
        and header.get("code_version") == CODE_VERSION
        and header.get("kind") == "loop"
    ):
        raw = header.get("starts")
        ii = header.get("ii")
        if (
            isinstance(raw, dict)
            and isinstance(ii, int)
            and ii >= 1
            and len(raw) == len(body)
        ):
            try:
                decoded = {
                    body[int(pos)]: int(start)
                    for pos, start in raw.items()
                }
            except (ValueError, IndexError, TypeError):
                decoded = None
            if decoded is not None and all(t >= 0 for t in decoded.values()):
                cached = _as_schedule(loop, ii, decoded, outcome.mii_resource,
                                      outcome.mii_recurrence)
    outcome.cache = "hit" if cached is not None else "miss"
    if obs.ENABLED:
        obs.counter(
            "swp_cache_hits_total" if cached is not None
            else "swp_cache_misses_total"
        )
    return key, cached


def _cache_publish(store, key, fn, loop, body, msched):
    """Publish a proven kernel under its kind="loop" fingerprint."""
    from repro.serve.fingerprint import CODE_VERSION

    position = {instr: at for at, instr in enumerate(body)}
    starts = {
        str(position[instr]): int(start)
        for instr, start in msched.start_times.items()
        if instr in position
    }
    meta = {
        "code_version": CODE_VERSION,
        "kind": "loop",
        "routine": fn.name,
        "loop": loop.header,
        "ii": msched.ii,
        "stages": msched.stages,
        "mii_resource": msched.mii_resource,
        "mii_recurrence": msched.mii_recurrence,
        "starts": starts,
    }
    payload = json.dumps({"ii": msched.ii, "starts": starts}).encode("utf-8")
    try:
        store.put(key, "", payload, meta=meta)
    except OSError:
        pass  # a failed cache fill is never a loop failure


# -- bookkeeping --------------------------------------------------------------
def _finish(outcome, reason, deadline, started, produced=None):
    if reason is not None and outcome.fallback_reason is None:
        outcome.fallback_reason = reason
    if produced is not None:
        outcome.pipelined_fn = produced
    outcome.solve_seconds = max(deadline.elapsed() - started, 0.0)
    if obs.ENABLED:
        obs.counter("swp_loops_total", 1, status=outcome.status)
        if not outcome.pipelined and outcome.fallback_reason:
            obs.counter("swp_fallbacks_total", 1,
                        reason=outcome.fallback_reason)
        if outcome.pipelined and outcome.ii:
            obs.histogram("swp_ii_over_mii", outcome.ii / outcome.mii)
            if outcome.ii == outcome.mii:
                obs.counter("swp_ii_at_mii_total")
    return outcome


class _NullSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


def _span(trace, name, **attrs):
    if trace is None:
        return _NullSpan()
    return trace.span(name, **attrs)
