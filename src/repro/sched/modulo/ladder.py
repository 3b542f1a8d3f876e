"""The deadline-aware II search ladder.

Modulo scheduling's outer loop: starting at ``MII = max(ResMII,
RecMII)``, try successive initiation intervals until a kernel exists,
then materialize it and *prove it by execution*.  Every ladder has a
floor — this module never raises for a loop it cannot pipeline; it
reports a structured :class:`LoopPipelineOutcome` instead, mirroring
the §8 contract of the surrounding scheduler (``optimize`` stays
no-raise with SWP enabled).

The rungs, in degradation order:

1. **Modulo ILP** (:mod:`repro.sched.modulo.formulation`): for each
   candidate II from MII upward the remaining ladder budget is split
   evenly over the remaining rungs, so an early II that is *almost*
   feasible cannot starve the rest of the climb.  A candidate whose
   start windows come out empty is recorded ``INFEASIBLE`` (reason
   ``empty_window``) without a solve.
2. **Time-indexed fallback** (:mod:`repro.sched.swp`): the previous
   formulation, kept as its own rung — a different relaxation
   occasionally finds a kernel the (row, stage)-bounded model rejects
   (e.g. when the stage budget binds).
3. **Unpipelined**: the loop stays as the acyclic scheduler left it.

Materialization sits behind the ``swp.materialize`` fault site: any
injected kind fails that rung's code generation, which must demote the
outcome down this ladder — chaos runs assert the degradation.  Every
materialized routine must pass the kernel-vs-unrolled oracle
(:mod:`repro.sched.modulo.oracle`) before it is reported; an oracle
failure discards the routine and falls to the next rung.

Kernel schedules are cached in the serve store under a ``kind="loop"``
fingerprint (:func:`repro.serve.fingerprint.loop_fingerprint`): a hit
skips the ILP entirely — materialization and the oracle still run, so
a stale or corrupt entry degrades to a live solve, never to bad code.
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
from repro.sched.swp import (
    ModuloSchedule,
    ModuloScheduler,
    build_modulo_edges,
)
from repro.sched.swp_materialize import (
    materialize_counted_loop,
    recognize_counted_loop,
)
from repro.tools import faults
from repro.tools.deadline import Deadline

#: Minimum per-rung solver budget: below this a solve cannot even build
#: the matrix, so the split floors here instead of shaving to nothing.
_RUNG_FLOOR = 0.05


@dataclass
class LoopPipelineOutcome:
    """One loop's trip through the ladder (never an exception)."""

    loop_header: str
    status: str  # "pipelined" | "fallback_swp" | "unpipelined"
    method: str = "none"  # "modulo_ilp" | "time_indexed" | "none"
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
            tag = "" if self.status == "pipelined" else f" [{self.status}]"
            return (
                f"swp {self.loop_header}: pipelined II={self.ii} "
                f"(ResMII {self.mii_resource}, RecMII {self.mii_recurrence}), "
                f"stages {self.stages}, oracle {oracle}{tag}"
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
        body = ModuloScheduler._body_instructions(fn, loop)
    except SchedulingError as exc:
        outcome.detail["scope"] = str(exc)
        return _finish(outcome, "scope", deadline, started)

    edges = build_modulo_edges(fn, loop, body, ddg)
    outcome.mii_resource = resource_mii(body, machine)
    outcome.mii_recurrence = recurrence_mii(body, edges)
    mii = outcome.mii
    outcome.detail["body_instructions"] = len(body)
    outcome.detail["edges"] = len(edges)

    # -- rung 0: the kind="loop" cache ---------------------------------------
    cache_key = None
    cached_starts = None
    if store is not None and features is not None:
        cache_key, cached_starts = _cache_probe(
            store, fn, loop, features, machine, body, outcome
        )

    if cached_starts is not None:
        msched = _as_schedule(loop, body, cached_starts, outcome)
        produced = _materialize_and_check(
            fn, cfg, ddg, loop, msched, counted, oracle_seeds, outcome, trace
        )
        if produced is not None:
            outcome.status = "pipelined"
            outcome.method = "modulo_ilp"
            return _finish(outcome, None, deadline, started, msched=msched,
                           produced=produced)
        # A cached kernel that fails to materialize or execute is stale:
        # drop to a live solve (and republish on success).
        outcome.detail["cache_discarded"] = True
        outcome.oracle = None
        outcome.ii = None

    # -- rung 1: the modulo ILP ladder ---------------------------------------
    ladder_clock = Deadline(time_limit)
    with _span(trace, "swp.ladder", loop=loop.header, mii=mii):
        starts, stats = _ii_ladder(
            body, edges, mii, max_ii, max_stages, machine,
            deadline, ladder_clock, outcome, trace,
        )
    if starts is not None:
        msched = _as_schedule(loop, body, starts, outcome, stats)
        produced = _materialize_and_check(
            fn, cfg, ddg, loop, msched, counted, oracle_seeds, outcome, trace
        )
        if produced is not None:
            outcome.status = "pipelined"
            outcome.method = "modulo_ilp"
            if cache_key is not None:
                _cache_publish(store, cache_key, fn, loop, body, msched)
            return _finish(outcome, None, deadline, started, msched=msched,
                           produced=produced)

    # -- rung 2: the time-indexed fallback -----------------------------------
    remaining = deadline.remaining()
    if remaining is None or remaining > _RUNG_FLOOR:
        budget = time_limit
        if remaining is not None:
            budget = min(budget or remaining, remaining)
        fallback = ModuloScheduler(
            machine=machine, time_limit=budget,
            max_ii=max_ii,
        )
        try:
            with _span(trace, "swp.fallback", loop=loop.header):
                msched = fallback.schedule_loop(fn, cfg, ddg, loop)
        except SchedulingError as exc:
            outcome.detail["fallback_error"] = str(exc)
        else:
            produced = _materialize_and_check(
                fn, cfg, ddg, loop, msched, counted, oracle_seeds, outcome,
                trace,
            )
            if produced is not None:
                outcome.status = "fallback_swp"
                outcome.method = "time_indexed"
                return _finish(outcome, None, deadline, started,
                               msched=msched, produced=produced)
    else:
        outcome.detail.setdefault("fallback_error", "no budget left")

    # -- the floor: unpipelined ----------------------------------------------
    reason = outcome.fallback_reason or "no_feasible_ii"
    return _finish(outcome, reason, deadline, started)


# -- ladder internals ---------------------------------------------------------
def _ii_ladder(body, edges, mii, max_ii, max_stages, machine,
               deadline, ladder_clock, outcome, trace):
    """Climb II from MII; returns (start_times, stats) or (None, None)."""
    rungs = [ii for ii in range(mii, max(max_ii, mii) + 1)]
    attempts = []
    outcome.detail["rungs"] = attempts
    for at, ii in enumerate(rungs):
        budget = _rung_budget(deadline, ladder_clock, len(rungs) - at)
        if budget is not None and budget <= 0:
            outcome.fallback_reason = "deadline"
            attempts.append({"ii": ii, "status": "skipped", "reason":
                             "deadline"})
            return None, None
        milp = ModuloIlp(body, edges, ii, machine=machine,
                         max_stages=max_stages)
        if milp.windows is None:
            # Some start window is empty: the dependence and lifetime
            # rows alone rule this II out, so no solver is asked.
            attempts.append({"ii": ii, "status": "INFEASIBLE", "reason":
                             "empty_window", "seconds": 0.0, **milp.size})
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
                outcome.ii = ii
                return starts, solution.stats
            attempt["status"] = "CORRUPT"
    outcome.fallback_reason = (
        "deadline" if deadline.expired or ladder_clock.expired
        else "no_feasible_ii"
    )
    return None, None


def _rung_budget(deadline, ladder_clock, rungs_left):
    """Even split of the tighter remaining budget over the rungs left."""
    remaining = [
        r for r in (deadline.remaining(), ladder_clock.remaining())
        if r is not None
    ]
    if not remaining:
        return None
    tightest = min(remaining)
    if tightest <= 0:
        return 0.0
    return max(tightest / max(rungs_left, 1), _RUNG_FLOOR)


def _as_schedule(loop, body, starts, outcome, stats=None):
    ii = outcome.ii
    stages = 1 + max((t // ii for t in starts.values()), default=0)
    outcome.stages = stages
    return ModuloSchedule(
        loop_header=loop.header,
        ii=ii,
        start_times=starts,
        stages=stages,
        mii_resource=outcome.mii_resource,
        mii_recurrence=outcome.mii_recurrence,
        solver_stats=stats,
    )


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
    """Look up a cached kernel; returns (key, starts or None)."""
    from repro.serve.fingerprint import CODE_VERSION, loop_fingerprint

    try:
        key = loop_fingerprint(fn, loop.header, features, machine)
    except Exception:
        return None, None
    header = store.load_header(key)
    starts = None
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
                starts = decoded
                outcome.ii = ii
    outcome.cache = "hit" if starts is not None else "miss"
    if obs.ENABLED:
        obs.counter(
            "swp_cache_hits_total" if starts is not None
            else "swp_cache_misses_total"
        )
    return key, starts


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
def _finish(outcome, reason, deadline, started, msched=None, produced=None):
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
