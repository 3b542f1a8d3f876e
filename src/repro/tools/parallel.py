"""Parallel routine fan-out for the Table 1/2 and Figure 7 sweeps.

The nine SPEC routines are independent end-to-end pipeline runs, so the
sweeps fan them out across a :class:`~concurrent.futures.ProcessPoolExecutor`
— one routine per worker process, results shipped back as pickled
:class:`~repro.tools.experiments.RoutineExperiment` objects (~tens of KB
each). On a single-core host the runner degrades to an in-process loop
with identical outcomes and no pool overhead, so callers never need to
special-case the machine.

Each routine gets a wall-clock budget measured from batch start. The
budget is *enforced*, not just reported: the remaining batch time is
folded into ``ScheduleFeatures.time_limit``, so the optimizer's shared
:class:`~repro.tools.deadline.Deadline` bounds the solves and an
over-budget routine degrades to its input schedule instead of stalling
the sweep. Outcomes always carry a JSON-serializable
:meth:`~RoutineOutcome.summary`, so drivers that only need the Table 2
columns never have to unpickle full experiments.

Crashed workers do not poison the batch: a ``BrokenProcessPool`` rebuilds
the pool once for the unfinished routines, and routines that still cannot
complete in a pool are retried in-process (``retried=True`` on their
outcomes). The ``worker`` fault-injection site (:mod:`repro.tools.faults`)
fires only inside pool worker processes — ``crash`` kills the worker hard
to exercise exactly this recovery path; the in-process retry is exempt by
construction, so an injected crash always converges to a valid batch.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

from repro.obs import core as obs
from repro.tools import faults
from repro.tools.experiments import run_routine


@dataclass
class RoutineOutcome:
    """Result envelope for one routine of a fan-out batch."""

    name: str
    ok: bool
    elapsed: float
    experiment: object | None = None  # RoutineExperiment when ok
    error: str | None = None
    retried: bool = False  # recovered from a broken pool / crashed worker
    # Observability snapshot recorded inside the worker process
    # (``repro.obs.core.snapshot()`` plain data); ``None`` when recording
    # was off or the routine ran in-process (whose events land directly in
    # the parent recorder). Deliberately absent from summary() — traces are
    # exported through repro.obs.export, not the Table 2 digest.
    obs: object = None

    def summary(self):
        """JSON-serializable digest (the Table 1/2 columns plus status)."""
        base = {"routine": self.name, "ok": self.ok, "elapsed": self.elapsed}
        if self.retried:
            base["retried"] = True
        if not self.ok:
            base["error"] = self.error
            return base
        base["table1"] = self.experiment.table1_row()
        base["table2"] = self.experiment.table2_row()
        result = self.experiment.result
        base["quality"] = getattr(result, "quality", None)
        reason = getattr(result, "fallback_reason", None)
        if reason is not None:
            base["fallback_reason"] = str(reason)
        base["gap"] = getattr(result, "ilp_size", {}).get("gap")
        trace = getattr(result, "trace", None)
        paper = getattr(trace, "paper_metrics", None)
        if paper:
            base["paper_metrics"] = paper
        return base


def partition_workers(count):
    """Thread width for one routine's :func:`fan_out` of ``count`` tasks.

    Two fan-outs use it: the partition solves of
    :mod:`repro.sched.decompose`, and the software-pipelining ladder
    beside the acyclic pipeline (:mod:`repro.sched.scheduler`, ``count``
    2). Threads and routines (this module's process pool) share the
    machine, so inside a pool worker the answer is always 1 — each
    sibling routine already owns a core. ``REPRO_PARTITION_WORKERS``
    overrides the width explicitly (clamped to ``[1, count]``);
    otherwise the fan-out takes ``min(count, cpu_count)``.
    """
    if count <= 1:
        return 1
    override = os.environ.get("REPRO_PARTITION_WORKERS")
    if override:
        try:
            return max(1, min(int(override), count))
        except ValueError:
            pass
    if os.environ.get("REPRO_IN_POOL_WORKER"):
        return 1
    return max(1, min(count, os.cpu_count() or 1))


def fan_out(tasks, width):
    """Run zero-argument callables on up to ``width`` threads, the
    calling thread included; returns one slot per task, in task order.

    A slot holds what its task returned, or the exception it raised.
    :class:`~repro.tools.faults.FaultConfigError` is the exception to
    that: no further task starts, and it is re-raised once every running
    task has finished, so no thread outlives the call. The solver
    kernels release the GIL, so the threads overlap their solves.

    The caller claims the first task before any helper thread starts:
    task 0 always runs on the calling thread, keeping its thread-local
    context (the obs span stack and trace scope; helpers inherit the
    trace id). With ``width`` 1 no thread starts and the tasks run in
    order, exactly like a plain loop.
    """
    tasks = list(tasks)
    slots = [None] * len(tasks)
    config_errors = []
    lock = threading.Lock()
    cursor = iter(range(len(tasks)))

    def claim():
        with lock:
            return None if config_errors else next(cursor, None)

    def drain(index):
        while index is not None:
            try:
                slots[index] = tasks[index]()
            except faults.FaultConfigError as exc:
                config_errors.append(exc)
            except Exception as exc:
                slots[index] = exc
            index = claim()

    trace_id, _ = obs.current_trace()
    parent_ref = obs.current_span_ref()

    def helper():
        with obs.trace_scope(trace_id, parent_ref):
            drain(claim())

    first = claim()
    helpers = [
        threading.Thread(target=helper, name=f"fan-out {n}", daemon=True)
        for n in range(1, min(width, len(tasks)))
    ]
    for thread in helpers:
        thread.start()
    try:
        drain(first)
    finally:
        for thread in helpers:
            thread.join()
    if config_errors:
        raise config_errors[0]
    return slots


def merge_trace(trace, sub_trace):
    """Fold a fanned-out task's :class:`~repro.obs.core.Trace` into the
    routine trace (plain data).

    Record offsets move from the sub-trace's epoch to ``trace``'s, and
    the sub-trace's top-level spans become children of the span open on
    ``trace`` at merge time (``optimize`` for the SWP ladder,
    ``decompose`` for partitions).
    """
    shift = sub_trace._epoch - trace._epoch
    parent = trace._stack[-1].name if trace._stack else None
    for record in sub_trace.records:
        record = dict(record, ts=record["ts"] + shift)
        if record["parent"] is None:
            record["parent"] = parent
        trace.records.append(record)
    for name, value in sub_trace.counters.items():
        trace.count(name, value)
    trace.solves.extend(sub_trace.solves)
    trace.cuts.extend(sub_trace.cuts)


def _run_one(args):
    """Pool entry point; must stay module-level for pickling.

    The ``worker`` fault site fires here — i.e. only inside pool worker
    processes, never on the in-process retry/sequential paths — so an
    injected ``crash`` breaks the pool without ever killing the driver.
    """
    name, features, scale, sim_invocations, sim_seed, cache_dir = args
    # Partitions of one routine and routines of one sweep share the
    # machine: mark this process so repro.sched.decompose collapses its
    # per-partition thread fan-out to 1 instead of oversubscribing cores
    # already owned by sibling routine workers.
    os.environ["REPRO_IN_POOL_WORKER"] = "1"
    if obs.ENABLED:
        # A forked worker inherits the parent's recorder (events and all);
        # reset() swaps in an empty buffer stamped with this worker's pid
        # and epoch so the snapshot shipped back is exactly this routine.
        obs.reset()
    fault = faults.fire("worker")
    if fault == "crash":
        os._exit(17)  # hard worker death -> BrokenProcessPool in the parent
    if fault is not None:
        raise RuntimeError(f"injected worker fault ({fault})")
    start = time.perf_counter()
    experiment = run_routine(
        name,
        features=features,
        scale=scale,
        sim_invocations=sim_invocations,
        sim_seed=sim_seed,
        cache_dir=cache_dir,
    )
    elapsed = time.perf_counter() - start
    return experiment, elapsed, obs.snapshot() if obs.ENABLED else None


def run_routines_parallel(
    names,
    features=None,
    scale=None,
    sim_invocations=120,
    sim_seed=1,
    max_workers=None,
    timeout=None,
    cache_dir=None,
):
    """Run the named routines concurrently; returns ``[RoutineOutcome]``.

    ``max_workers`` defaults to ``min(len(names), cpu_count)``; with one
    worker the batch runs in-process. ``timeout`` (seconds) bounds every
    routine's wall clock measured from batch start — size it for the
    whole batch when workers are fewer than routines, since queued
    routines consume their budget while waiting. ``cache_dir`` routes
    every solve through the shared schedule cache (:mod:`repro.serve`):
    workers share the store directory (atomic writes make that safe)
    and repeat sweeps serve exact hits. Failures (including
    timeouts) become ``ok=False`` outcomes; a broken pool is rebuilt once
    and stragglers finish in-process with ``retried=True``. The batch
    always returns one outcome per requested routine, in input order.

    A malformed ``REPRO_FAULTS`` spec raises
    :class:`~repro.tools.faults.FaultConfigError` here, *before* any
    worker is spawned: parsed lazily it would first surface inside the
    pipeline, where the fallback ladder converts it into silent
    ``fallback_input`` degradations on every routine.
    """
    faults.validate_env()
    names = list(names)
    if not names:
        return []
    if max_workers is None:
        max_workers = min(len(names), os.cpu_count() or 1)
    max_workers = max(1, min(max_workers, len(names)))

    with obs.span("parallel.batch", routines=len(names), workers=max_workers):
        return _run_batch(
            names, features, scale, sim_invocations, sim_seed,
            max_workers, timeout, cache_dir,
        )


def _run_batch(
    names, features, scale, sim_invocations, sim_seed, max_workers, timeout,
    cache_dir=None,
):
    start = time.monotonic()

    def remaining_budget():
        if timeout is None:
            return None
        return max(0.0, start + timeout - time.monotonic())

    if max_workers == 1:
        return [
            _sequential_outcome(
                name, features, scale, sim_invocations, sim_seed,
                remaining_budget(), cache_dir=cache_dir,
            )
            for name in names
        ]

    outcomes = {}
    pending = names
    # The initial pool plus at most one rebuild after a BrokenProcessPool;
    # whatever still cannot finish in a pool is retried in-process below.
    for pool_round in range(2):
        if not pending:
            break
        retried = pool_round > 0
        executor = ProcessPoolExecutor(
            max_workers=min(max_workers, len(pending))
        )
        broken = False
        still_pending = []
        try:
            futures = {
                name: executor.submit(
                    _run_one,
                    (name, features, scale, sim_invocations, sim_seed,
                     cache_dir),
                )
                for name in pending
            }
            for name in pending:
                future = futures[name]
                try:
                    experiment, elapsed, snap = future.result(
                        timeout=remaining_budget()
                    )
                except FutureTimeout:
                    future.cancel()
                    outcomes[name] = RoutineOutcome(
                        name,
                        False,
                        time.monotonic() - start,
                        error=f"timed out after {timeout:g}s",
                        retried=retried,
                    )
                except BrokenProcessPool:
                    # One crash poisons every unfinished future; collect
                    # the stragglers and re-run them instead of failing.
                    broken = True
                    still_pending.append(name)
                except Exception as exc:  # worker raised; keep the batch going
                    outcomes[name] = RoutineOutcome(
                        name,
                        False,
                        time.monotonic() - start,
                        error=f"{type(exc).__name__}: {exc}",
                        retried=retried,
                    )
                else:
                    # Fold the worker's events/metrics into the parent
                    # recorder (its pid becomes a distinct trace lane) and
                    # keep the raw snapshot on the outcome for callers that
                    # aggregate batches themselves.
                    obs.merge_snapshot(snap, role="worker")
                    outcomes[name] = RoutineOutcome(
                        name, True, elapsed, experiment, retried=retried,
                        obs=snap,
                    )
        except BrokenProcessPool:
            # The pool died during submission; everything not yet
            # collected is still pending.
            broken = True
            still_pending = [n for n in pending if n not in outcomes]
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        if broken and obs.ENABLED:
            if pool_round == 0:  # a second break goes in-process, no rebuild
                obs.counter("pool_rebuilds_total")
            obs.event("pool.broken", round=pool_round, pending=len(still_pending))
        pending = still_pending if broken else []

    # Two broken pools in a row: finish the stragglers in-process, where
    # a crashing-worker fault (or a crash-prone environment) cannot reach.
    for name in pending:
        if obs.ENABLED:
            obs.counter("worker_retries_total", 1, routine=name)
        outcomes[name] = _sequential_outcome(
            name, features, scale, sim_invocations, sim_seed,
            remaining_budget(), retried=True, cache_dir=cache_dir,
        )
    return [outcomes[name] for name in names]


def _bound_features(features, timeout):
    """Fold the remaining batch budget into ``ScheduleFeatures.time_limit``.

    The optimizer turns ``time_limit`` into its shared solve
    :class:`~repro.tools.deadline.Deadline`, so this is what makes an
    in-process ``timeout`` actually *bound* a solve (degrading the
    routine to its input schedule) instead of only reporting the overrun
    after the fact.
    """
    if timeout is None:
        return features
    if features is None:
        from repro.tools.experiments import default_features

        features = default_features()
    limit = (
        timeout
        if features.time_limit is None
        else min(features.time_limit, timeout)
    )
    return replace(features, time_limit=limit)


def _sequential_outcome(
    name, features, scale, sim_invocations, sim_seed, timeout, retried=False,
    cache_dir=None,
):
    """In-process path: the single-worker batch and broken-pool retries.

    ``timeout`` (the routine's remaining batch budget) is enforced through
    ``ScheduleFeatures.time_limit`` — see :func:`_bound_features`; the
    post-hoc check only reports overruns from the non-solve stages
    (analysis, bundling, simulation) that the deadline cannot interrupt.
    """
    start = time.perf_counter()
    try:
        experiment = run_routine(
            name,
            features=_bound_features(features, timeout),
            scale=scale,
            sim_invocations=sim_invocations,
            sim_seed=sim_seed,
            cache_dir=cache_dir,
        )
    except Exception as exc:
        return RoutineOutcome(
            name,
            False,
            time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
            retried=retried,
        )
    elapsed = time.perf_counter() - start
    if timeout is not None and elapsed > timeout:
        return RoutineOutcome(
            name,
            False,
            elapsed,
            experiment=experiment,
            error=f"finished but exceeded {timeout:g}s budget",
            retried=retried,
        )
    return RoutineOutcome(name, True, elapsed, experiment, retried=retried)
