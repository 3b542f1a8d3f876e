"""Deterministic fault injection for the graceful-degradation pipeline.

The fallback ladder in :mod:`repro.sched.scheduler` promises that every
routine yields a valid schedule no matter which stage fails.  Testing
that promise requires *making* stages fail on demand, deterministically,
without monkeypatching internals — so the pipeline carries named
injection sites and this module decides, per site, whether a fault fires
there.

Sites (``SITES``):

``solve.phase1``
    The first ILP solve of a routine (and re-solves after a cycle-range
    growth).
``solve.cut_resolve``
    Re-solves inside the bundling-cut loop.
``solve.phase2``
    The phase-2 instruction-count cleanup solve.
``bundle``
    Template bundling of a reconstructed schedule.
``verify``
    The path-based schedule verifier.
``worker``
    A routine worker process in :mod:`repro.tools.parallel`.
``serve.store_io``
    Disk I/O in the schedule cache (:mod:`repro.serve.store`): a firing
    makes the next store read/write raise ``OSError``, which the
    serving layer must absorb as a cache miss / skipped fill.
``serve.corrupt_entry``
    Bit rot on a cache entry load: the payload is flipped before
    checksum verification, so the store must quarantine the entry and
    the service must fall through to a cold solve.
``decompose.stitch``
    The schedule stitcher of the decomposed pipeline
    (:mod:`repro.sched.decompose`): any firing aborts the stitch, and
    the scheduler must fall back to the whole-function ILP — the
    routine still yields a verified schedule.
``serve.accept``
    The fleet daemon's accept path (:mod:`repro.serve.daemon`): a
    firing makes the just-accepted connection fail before it is
    queued, as if the peer vanished or the accept raised — the
    connection is rejected (typed error reply when possible) and the
    accept loop must keep serving.
``serve.queue``
    Admission into the daemon's bounded request queue: a firing forces
    a shed (busy reply with a retry hint) even when the queue has
    room, so chaos runs prove clients ride through load shedding.
``serve.drain``
    The graceful-drain path: a firing raises inside the drain sweep
    (flushing queued connections after SIGTERM); the daemon must
    absorb it and still exit cleanly within the drain budget.
``obs.journal``
    A telemetry-journal append (:mod:`repro.obs.journal`): a firing
    makes the write raise ``OSError`` inside
    :meth:`~repro.obs.journal.TelemetryJournal.append`, which must
    swallow it — journal failures are counted, never surfaced into the
    serving request path, and never corrupt already-written shards.
``swp.materialize``
    Kernel materialization in the software-pipelining ladder
    (:mod:`repro.sched.modulo.ladder`): any firing discards the modulo
    schedule before prologue/kernel/epilogue construction, so the loop
    stays unpipelined (reason ``materialize``) and ``optimize`` never
    raises.

Kinds (``KINDS``):

``timeout``
    The solver behaves as if its time limit expired before finding
    anything new: the caller-provided incumbent (if feasible) is
    returned as ``FEASIBLE``, otherwise ``NO_SOLUTION``.
``infeasible``
    The solve reports ``INFEASIBLE``.
``incumbent``
    The solve runs normally but its proof is discarded: ``OPTIMAL`` is
    demoted to ``FEASIBLE`` (a timeout that happened to find the
    optimum without proving it).
``corrupt``
    The solve runs normally, then a few set binaries are cleared — a
    corrupted solution that reconstruction or verification must catch.
``error``
    Site-appropriate failure: ``bundle`` raises ``BundlingError``,
    ``verify`` reports a failed check, ``worker`` raises in the worker.
``crash``
    ``worker`` only: the worker process dies hard (``os._exit``),
    breaking the process pool.

Activation is either lexical (the :func:`inject` context manager) or
ambient via the ``REPRO_FAULTS`` environment variable, e.g.::

    REPRO_FAULTS="solve.phase1=timeout,bundle=error:2"

``:N`` bounds an injection to its first ``N`` firings (default:
unlimited). Firing counters live in the installed plan, so env-driven
plans count per process — every pool worker starts fresh.

A malformed spec — unknown site or kind, bad count — raises
:class:`FaultConfigError` (a ``ValueError``) the moment it is parsed,
and the error is **not** swallowed by the graceful-degradation ladder:
a misspelled ``REPRO_FAULTS`` used to surface as a generic pipeline
error that quietly degraded every routine to ``fallback_input``, which
kept the chaos job green while injecting nothing.  Drivers
(:func:`repro.tools.parallel.run_routines_parallel`, the chaos smoke)
validate the environment eagerly via :func:`validate_env` so a typo
fails the run immediately with the offending directive named.

Every fault that actually fires is counted in the observability layer
(``faults_fired_total{site,kind}`` — see :mod:`repro.obs`) so a chaos
run's metrics dump shows the realized fault mix, not just the request.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

from repro.obs import core as obs

SITES = (
    "solve.phase1",
    "solve.cut_resolve",
    "solve.phase2",
    "bundle",
    "verify",
    "worker",
    "serve.store_io",
    "serve.corrupt_entry",
    "decompose.stitch",
    "serve.accept",
    "serve.queue",
    "serve.drain",
    "obs.journal",
    "swp.materialize",
)

KINDS = ("timeout", "infeasible", "incumbent", "corrupt", "error", "crash")

ENV_VAR = "REPRO_FAULTS"

# Guards the firing budgets and the env-plan cache across threads.
_fire_lock = threading.Lock()


class FaultConfigError(ValueError):
    """A malformed fault spec (unknown site/kind, bad count).

    Deliberately *not* treated as a pipeline failure: the scheduler's
    catch-everything fallback re-raises it, because a configuration typo
    must fail the run loudly instead of degrading every routine and
    leaving the chaos job vacuously green.
    """


@dataclass
class _Injection:
    site: str
    kind: str
    remaining: int | None  # firings left; None = unlimited

    def fire(self):
        if self.remaining is None:
            return True
        # Threads share sites (partition solves, the ladder beside the
        # acyclic pipeline): test and decrement as one step, so a
        # ``:N`` injection fires exactly N times.
        with _fire_lock:
            if self.remaining <= 0:
                return False
            self.remaining -= 1
            return True


class FaultPlan:
    """A parsed set of injections, with per-site firing state."""

    def __init__(self, injections):
        self._by_site = {}
        for injection in injections:
            self._by_site.setdefault(injection.site, []).append(injection)

    @classmethod
    def parse(cls, spec, source=None):
        """Parse ``"site=kind[:times][,...]"``; empty spec -> ``None``.

        Raises :class:`FaultConfigError` on any malformed entry, naming
        the offending directive and the valid options. ``source`` (e.g.
        ``"REPRO_FAULTS"``) prefixes the message so an env-driven typo is
        attributable at a glance.
        """
        prefix = f"{source}: " if source else ""
        spec = (spec or "").strip()
        if not spec:
            return None
        injections = []
        for entry in spec.split(","):
            entry = entry.strip()
            if not entry:
                continue
            site, sep, rhs = entry.partition("=")
            site = site.strip()
            if not sep:
                raise FaultConfigError(
                    f"{prefix}malformed fault directive {entry!r} "
                    "(expected site=kind[:times])"
                )
            if site not in SITES:
                raise FaultConfigError(
                    f"{prefix}unknown fault site {site!r} in {entry!r} "
                    f"(expected one of {', '.join(SITES)})"
                )
            kind, _, times = rhs.partition(":")
            kind = kind.strip()
            if kind not in KINDS:
                raise FaultConfigError(
                    f"{prefix}unknown fault kind {kind!r} in {entry!r} "
                    f"(expected one of {', '.join(KINDS)})"
                )
            remaining = None
            if times.strip():
                try:
                    remaining = int(times)
                except ValueError:
                    raise FaultConfigError(
                        f"{prefix}fault count must be an integer: {entry!r}"
                    ) from None
                if remaining <= 0:
                    raise FaultConfigError(
                        f"{prefix}fault count must be positive: {entry!r}"
                    )
            injections.append(_Injection(site, kind, remaining))
        return cls(injections) if injections else None

    def fire(self, site):
        """Kind of the first live injection at ``site``, consuming one
        firing; ``None`` when nothing fires."""
        for injection in self._by_site.get(site, ()):
            if injection.fire():
                return injection.kind
        return None

    def __repr__(self):
        parts = [
            f"{i.site}={i.kind}"
            + ("" if i.remaining is None else f":{i.remaining}")
            for entries in self._by_site.values()
            for i in entries
        ]
        return f"FaultPlan({', '.join(parts)})"


# Installed plans (innermost last) take precedence over the environment.
_installed: list = []
# Env plans cache: one parse (and one firing-counter set) per spec string
# per process, so ``:N``-bounded env injections count across calls.
_env_plans: dict = {}


def install(plan):
    """Push ``plan`` as the active fault plan; pair with :func:`uninstall`."""
    _installed.append(plan)
    return plan


def uninstall(plan):
    if _installed and _installed[-1] is plan:
        _installed.pop()
    elif plan in _installed:  # tolerate out-of-order teardown
        _installed.remove(plan)


@contextmanager
def inject(spec):
    """Activate the fault spec for the dynamic extent of the block.

    ``spec`` is a string (``"bundle=error:1"``) or an already-built
    :class:`FaultPlan`. Yields the plan (``None`` for an empty spec).
    """
    plan = spec if isinstance(spec, FaultPlan) else FaultPlan.parse(spec)
    if plan is None:
        yield None
        return
    install(plan)
    try:
        yield plan
    finally:
        uninstall(plan)


def active_plan():
    """The innermost installed plan, else the ``REPRO_FAULTS`` plan.

    A malformed ``REPRO_FAULTS`` raises :class:`FaultConfigError` —
    every time, not just on the first parse, so the error cannot be
    missed by whichever call site happens to hit it first.
    """
    if _installed:
        return _installed[-1]
    spec = os.environ.get(ENV_VAR, "")
    if not spec.strip():
        return None
    with _fire_lock:  # one plan per spec, even when threads race here
        if spec not in _env_plans:
            _env_plans[spec] = FaultPlan.parse(spec, source=ENV_VAR)
        return _env_plans[spec]


def validate_env(environ=None):
    """Fail fast on a malformed ``REPRO_FAULTS``; returns the parsed plan.

    Drivers call this once up front (before spawning workers or entering
    the degradation ladder) so a typo'd directive aborts the run with a
    clear message instead of surfacing mid-pipeline. Returns ``None``
    when the variable is unset/empty. The returned plan is a *fresh*
    parse used only for validation — firing budgets of the cached
    ambient plan are untouched.
    """
    spec = (environ or os.environ).get(ENV_VAR, "")
    return FaultPlan.parse(spec, source=ENV_VAR)


def fire(site):
    """Kind of the fault firing at ``site`` right now, or ``None``.

    ``site=None`` (a solve with no site attached, e.g. unit tests
    calling the solver directly) never fires. Fired faults are counted as
    ``faults_fired_total{site,kind}`` when observability is enabled.
    """
    if site is None:
        return None
    plan = active_plan()
    if plan is None:
        return None
    kind = plan.fire(site)
    if kind is not None and obs.ENABLED:
        obs.counter("faults_fired_total", 1, site=site, kind=kind)
    return kind


def reset_env_cache():
    """Drop cached env plans (restores their firing budgets); test hook."""
    _env_plans.clear()


# -- solution mangling (used by the solver) ----------------------------------


def demote_to_feasible(solution):
    """An ``incumbent`` fault: keep the assignment, drop the proof."""
    from repro.ilp.status import Solution, SolveStatus

    if solution.status is SolveStatus.OPTIMAL:
        return Solution(
            SolveStatus.FEASIBLE,
            solution.objective,
            solution.values,
            solution.stats,
        )
    return solution


def corrupt_solution(solution, flips=3):
    """A ``corrupt`` fault: clear the first ``flips`` set integer vars.

    Deterministic (lowest variable index first) so a corrupted solve is
    reproducible. Clearing set binaries knocks placements/length
    indicators out of the solution, which reconstruction or the verifier
    must then reject.
    """
    if not solution.values:
        return solution
    flipped = 0
    for var in sorted(solution.values, key=lambda v: v.index):
        if getattr(var, "is_integer", False) and solution.values[var] >= 0.5:
            solution.values[var] = 0.0
            flipped += 1
            if flipped >= flips:
                break
    return solution
