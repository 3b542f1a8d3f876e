"""Recorder, spans and the process-global observability switch.

Design constraints, in priority order:

1. **Free when off.**  Every hot call site guards on the module-level
   :data:`ENABLED` flag (an attribute load plus a bool test) before
   building any attribute dict; :func:`span` returns one shared no-op
   singleton when recording is off, so the disabled path allocates
   nothing.
2. **Zero dependencies.**  Stdlib only — the subsystem must be importable
   from solver internals, fault injection and pool workers without
   creating cycles, and must pickle/JSON cleanly across processes.
3. **Mergeable.**  A recorder's whole state round-trips through
   :func:`snapshot` / :func:`merge_snapshot` as plain data: pool workers
   record into their own (reset) recorder and ship the snapshot back
   with the routine outcome; the parent folds worker events into its
   trace on distinct pid lanes, with timestamps re-based onto the
   parent's clock via the wall-clock epochs.

Two span mechanisms share one implementation:

* :func:`span` — the process-global API. Nothing is recorded (and the
  no-op singleton is returned) unless :func:`enable` was called or
  ``REPRO_OBS`` is set.
* :class:`Trace` — a *local*, always-on span tree used by
  ``IlpScheduler.optimize`` so every ``OptimizeResult`` carries its
  per-phase timing breakdown even with global recording off.  A trace
  span costs two ``perf_counter`` calls and one small dict — a dozen
  per routine, against solves measured in seconds.  When the global
  recorder is live, trace spans mirror themselves into it, which is how
  the scheduler's phases end up in the Chrome trace.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from contextlib import contextmanager

from repro.obs.metrics import MetricsRegistry

ENV_VAR = "REPRO_OBS"

# The process-global switch. Read directly (``if obs.ENABLED:``) on hot
# paths; mutate only through enable()/disable().
ENABLED = False
_recorder = None
_state_lock = threading.Lock()


class Recorder:
    """Event buffer + metrics registry for one process.

    Events are finished spans and instants, stored as plain dicts with
    timestamps in seconds relative to the recorder's monotonic epoch
    (``epoch_perf``).  ``epoch_wall`` (``time.time()`` at construction)
    is what lets a parent re-base a worker's events onto its own
    timeline without trusting monotonic clocks to be comparable across
    processes.
    """

    def __init__(self):
        self.pid = os.getpid()
        self.epoch_wall = time.time()
        self.epoch_perf = time.perf_counter()
        self.events = []
        self.metrics = MetricsRegistry()
        self.process_labels = {self.pid: f"repro pid {self.pid}"}
        # (pid, tid) -> display name; foreign pids arrive via
        # merge_snapshot. Rendered as Chrome thread_name metadata so
        # e.g. fleet worker threads get their own named lanes.
        self.thread_labels = {}
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._next_span_id = 0
        self._tids = {}

    # -- clocks / ids -------------------------------------------------------
    def now(self):
        return time.perf_counter() - self.epoch_perf

    def _new_span_id(self):
        with self._lock:
            self._next_span_id += 1
            return self._next_span_id

    def _tid(self):
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            with self._lock:
                tid = self._tids.setdefault(ident, len(self._tids))
        return tid

    def _stack(self):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    # -- recording ----------------------------------------------------------
    def add_instant(self, name, attrs=None):
        event = {
            "type": "instant",
            "name": name,
            "ts": self.now(),
            "pid": self.pid,
            "tid": self._tid(),
        }
        stack = self._stack()
        if stack:
            event["parent"] = stack[-1].span_id
        if attrs:
            event["args"] = dict(attrs)
        trace_id, _parent = current_trace()
        if trace_id is not None:
            event["trace"] = trace_id
        with self._lock:
            self.events.append(event)
        return event

    def add_complete_span(self, name, start, duration, attrs=None):
        """Record an already-finished span (timestamps recorder-relative).

        For retroactively-timed intervals — e.g. the fleet daemon's
        queue wait, measured between accept and dispatch — where no
        context manager bracketed the work.  The span joins the active
        trace context (if any) but takes no part in the thread's local
        parent stack.
        """
        event = {
            "type": "span",
            "name": name,
            "ts": float(start),
            "dur": max(0.0, float(duration)),
            "pid": self.pid,
            "tid": self._tid(),
            "id": self._new_span_id(),
        }
        stack = self._stack()
        if stack:
            event["parent"] = stack[-1].span_id
        trace_id, remote_parent = current_trace()
        if trace_id is not None:
            event["trace"] = trace_id
            if "parent" not in event and remote_parent is not None:
                event["remote_parent"] = remote_parent
        if attrs:
            event["args"] = dict(attrs)
        with self._lock:
            self.events.append(event)
        return event


class Span:
    """A live span: context manager pushing onto the recorder's stack."""

    __slots__ = ("recorder", "name", "attrs", "span_id", "parent_id",
                 "start", "duration", "trace_id", "remote_parent")

    def __init__(self, recorder, name, attrs):
        self.recorder = recorder
        self.name = name
        self.attrs = attrs
        self.span_id = recorder._new_span_id()
        self.parent_id = None
        self.start = None
        self.duration = None
        self.trace_id = None
        self.remote_parent = None

    def set_attr(self, key, value):
        self.attrs[key] = value

    @property
    def ref(self):
        """Globally-unique span reference (``"pid.span_id"``) for the wire."""
        return f"{self.recorder.pid}.{self.span_id}"

    def __enter__(self):
        stack = self.recorder._stack()
        if stack:
            self.parent_id = stack[-1].span_id
        self.trace_id, self.remote_parent = current_trace()
        stack.append(self)
        self.start = self.recorder.now()
        return self

    def __exit__(self, exc_type, exc, tb):
        rec = self.recorder
        self.duration = rec.now() - self.start
        stack = rec._stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # tolerate out-of-order exits
            stack.remove(self)
        event = {
            "type": "span",
            "name": self.name,
            "ts": self.start,
            "dur": self.duration,
            "pid": rec.pid,
            "tid": rec._tid(),
            "id": self.span_id,
        }
        if self.parent_id is not None:
            event["parent"] = self.parent_id
        if self.trace_id is not None:
            event["trace"] = self.trace_id
            # A span with a local parent is reachable through it; only
            # the local root of a remote trace carries the cross-process
            # link that the Chrome exporter stitches into a flow arrow.
            if self.parent_id is None and self.remote_parent is not None:
                event["remote_parent"] = self.remote_parent
        if exc_type is not None:
            event["error"] = exc_type.__name__
        if self.attrs:
            event["args"] = dict(self.attrs)
        with rec._lock:
            rec.events.append(event)
        return False


class _NoopSpan:
    """Shared do-nothing span; the entire disabled-mode span cost."""

    __slots__ = ()
    duration = None
    span_id = None
    parent_id = None
    ref = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set_attr(self, key, value):
        pass


NOOP_SPAN = _NoopSpan()


# -- distributed trace context ------------------------------------------------
# W3C-traceparent-style propagation: a request-scoped ``trace_id`` (32
# hex chars) plus the parent span's globally-unique reference
# (``"pid.span_id"``).  The context is a *thread-local stack* independent
# of the recorder, so trace ids flow through the wire protocol and the
# telemetry journal even when span recording is off; spans opened while
# a scope is active stamp themselves with the trace id and — at the
# local root — the remote parent reference, which is what lets the
# Chrome exporter stitch one client request into a single connected
# flow across the client, daemon and worker processes.
_trace_tls = threading.local()


def new_trace_id():
    """A fresh 32-hex-char trace id (W3C ``trace-id`` shaped)."""
    return uuid.uuid4().hex


def current_trace():
    """``(trace_id, parent_ref)`` of the innermost active scope.

    ``(None, None)`` when no scope is active on this thread.
    """
    stack = getattr(_trace_tls, "stack", None)
    if not stack:
        return (None, None)
    return stack[-1]


def current_span_ref():
    """Reference of the innermost *open* span on this thread, or ``None``.

    This is what a caller puts on the wire as the remote parent of
    whatever work the peer does on its behalf.
    """
    rec = _recorder
    if rec is None:
        return None
    stack = rec._stack()
    if not stack:
        return None
    return stack[-1].ref


@contextmanager
def trace_scope(trace_id, parent_ref=None):
    """Activate a trace context for the calling thread.

    Spans opened inside the scope carry ``trace_id``; the first span
    with no local parent additionally records ``parent_ref`` as its
    remote parent.  A falsy ``trace_id`` makes the scope a no-op, so
    call sites can pass whatever the wire carried without guarding.
    """
    if not trace_id:
        yield
        return
    stack = getattr(_trace_tls, "stack", None)
    if stack is None:
        stack = _trace_tls.stack = []
    entry = (str(trace_id), parent_ref)
    stack.append(entry)
    try:
        yield
    finally:
        if stack and stack[-1] is entry:
            stack.pop()
        elif entry in stack:  # tolerate out-of-order exits
            stack.remove(entry)


def name_thread(name):
    """Label the calling thread's lane in the Chrome trace.

    No-op when recording is off.  The fleet daemon names its worker
    threads (``fleet worker N``) so queue wait and solve time land on
    visually separate lanes.
    """
    rec = _recorder
    if rec is not None:
        tid = rec._tid()  # may take the lock itself; resolve first
        with rec._lock:
            rec.thread_labels[(rec.pid, tid)] = str(name)


def complete_span(name, duration, **attrs):
    """Record a span that just finished (started ``duration`` seconds ago).

    For retroactively-timed intervals (queue wait); no-op when disabled.
    """
    rec = _recorder
    if rec is not None:
        end = rec.now()
        rec.add_complete_span(name, end - max(0.0, duration), duration, attrs)


# -- module-level API ---------------------------------------------------------
def enabled():
    return ENABLED


def enable():
    """Turn recording on (idempotent); returns the live recorder."""
    global ENABLED, _recorder
    with _state_lock:
        if _recorder is None:
            _recorder = Recorder()
        ENABLED = True
        return _recorder


def disable():
    """Turn recording off and drop the recorder."""
    global ENABLED, _recorder
    with _state_lock:
        ENABLED = False
        _recorder = None


def reset():
    """Replace the recorder with a fresh one, keeping recording on.

    Pool workers call this at task start: a forked child inherits the
    parent's recorder (including the parent's events), and ``reset``
    gives it an empty buffer stamped with the *worker's* pid and epoch,
    so the snapshot it ships back contains exactly its own activity.
    """
    global ENABLED, _recorder
    with _state_lock:
        ENABLED = True
        _recorder = Recorder()
        return _recorder


def recorder():
    """The live recorder, or ``None`` when recording is off."""
    return _recorder


def span(name, **attrs):
    """A recording span when enabled, else the shared no-op singleton.

    Hot call sites that would build an attribute dict should guard with
    ``if obs.ENABLED:`` *before* calling, so the disabled path does not
    even allocate the kwargs.
    """
    rec = _recorder
    if rec is None:
        return NOOP_SPAN
    return Span(rec, name, attrs)


def event(name, **attrs):
    """Record an instant event (no duration); no-op when disabled."""
    rec = _recorder
    if rec is not None:
        rec.add_instant(name, attrs)


def counter(name, value=1.0, **labels):
    rec = _recorder
    if rec is not None:
        rec.metrics.counter_add(name, value, **labels)


def gauge(name, value, **labels):
    rec = _recorder
    if rec is not None:
        rec.metrics.gauge_set(name, value, **labels)


def histogram(name, value, **labels):
    rec = _recorder
    if rec is not None:
        rec.metrics.observe(name, value, **labels)


# -- cross-process aggregation ------------------------------------------------
SNAPSHOT_VERSION = 1


def snapshot():
    """Plain-data dump of the live recorder (``None`` when disabled).

    This is what a pool worker ships back with its
    :class:`~repro.tools.parallel.RoutineOutcome`; it is pickle- and
    JSON-serializable by construction.
    """
    rec = _recorder
    if rec is None:
        return None
    with rec._lock:
        events = [dict(ev) for ev in rec.events]
        thread_labels = [
            [pid, tid, label]
            for (pid, tid), label in rec.thread_labels.items()
        ]
    return {
        "version": SNAPSHOT_VERSION,
        "pid": rec.pid,
        "epoch_wall": rec.epoch_wall,
        "process_labels": dict(rec.process_labels),
        "thread_labels": thread_labels,
        "events": events,
        "metrics": rec.metrics.to_state(),
    }


def merge_snapshot(snap, role=None):
    """Fold a worker snapshot into the live recorder.

    Events keep their originating ``pid`` — each worker gets its own
    process lane in the Chrome trace — while timestamps are re-based
    onto the parent's timeline using the wall-clock epochs (monotonic
    clocks are not comparable across processes; wall clocks are, to
    well under a scheduling quantum on one host). Metrics merge
    add-wise. A no-op when recording is off or ``snap`` is ``None``.
    """
    rec = _recorder
    if rec is None or snap is None:
        return
    offset = snap["epoch_wall"] - rec.epoch_wall
    merged = []
    for ev in snap["events"]:
        ev = dict(ev)
        ev["ts"] += offset
        merged.append(ev)
    with rec._lock:
        rec.events.extend(merged)
        for pid, label in snap.get("process_labels", {}).items():
            rec.process_labels.setdefault(
                int(pid), label if role is None else f"{role} pid {pid}"
            )
        if role is not None:
            rec.process_labels[int(snap["pid"])] = f"{role} pid {snap['pid']}"
        for entry in snap.get("thread_labels", []):
            try:
                pid, tid, label = entry
            except (TypeError, ValueError):
                continue
            rec.thread_labels.setdefault((int(pid), int(tid)), str(label))
    rec.metrics.merge_state(snap["metrics"])


# -- always-on local span trees ----------------------------------------------
class Trace:
    """A per-routine span tree, recorded unconditionally.

    The scheduler builds one per ``optimize`` call so the per-phase
    timing breakdown in ``OptimizeResult.report()`` works with global
    recording off.  Finished spans are stored as plain record dicts
    (name, start offset, duration, parent index, attrs) — picklable, so
    an ``OptimizeResult`` shipped back from a pool worker keeps its
    tree.  When the global recorder is live, each trace span mirrors
    itself into it (same name/attrs), putting the scheduler's phases on
    the process timeline.
    """

    __slots__ = (
        "records", "counters", "solves", "cuts", "paper_metrics",
        "_stack", "_epoch",
    )

    def __init__(self):
        self.records = []
        # Plain tallies that must survive even when a pipeline stage
        # aborts mid-flight (e.g. warm-start hits before a _Degrade):
        # the scheduler reads them on both the success and fallback
        # paths when publishing per-routine metrics.
        self.counters = {}
        # Search telemetry (repro.obs.insight): one plain dict per ILP
        # solve (status, nodes, gap timeline), one per attributed bundling
        # cut, and the routine's Table 1/2-shaped paper metrics. Plain
        # data so the trace pickles across the pool unchanged.
        self.solves = []
        self.cuts = []
        self.paper_metrics = None
        self._stack = []
        self._epoch = time.perf_counter()

    def span(self, name, **attrs):
        return _TraceSpan(self, name, attrs)

    def count(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    # -- queries ------------------------------------------------------------
    def durations(self):
        """Aggregate ``{name: {"seconds": total, "count": n}}``."""
        out = {}
        for record in self.records:
            slot = out.setdefault(record["name"], {"seconds": 0.0, "count": 0})
            slot["seconds"] += record["dur"]
            slot["count"] += 1
        return out

    def total_seconds(self, name):
        total = 0.0
        for record in self.records:
            if record["name"] == name:
                total += record["dur"]
        return total


class _TraceSpan:
    __slots__ = ("trace", "name", "attrs", "_start", "_mirror", "duration")

    def __init__(self, trace, name, attrs):
        self.trace = trace
        self.name = name
        self.attrs = attrs
        self._start = None
        self._mirror = None
        self.duration = None

    def set_attr(self, key, value):
        self.attrs[key] = value
        if self._mirror is not None:
            self._mirror.set_attr(key, value)

    def __enter__(self):
        if ENABLED:
            self._mirror = span(self.name, **self.attrs)
            self._mirror.__enter__()
        self.trace._stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.duration = time.perf_counter() - self._start
        trace = self.trace
        if trace._stack and trace._stack[-1] is self:
            trace._stack.pop()
        elif self in trace._stack:
            trace._stack.remove(self)
        parent = trace._stack[-1] if trace._stack else None
        record = {
            "name": self.name,
            "ts": self._start - trace._epoch,
            "dur": self.duration,
            "parent": parent.name if parent is not None else None,
        }
        if self.attrs:
            record["args"] = dict(self.attrs)
        trace.records.append(record)
        if self._mirror is not None:
            self._mirror.__exit__(exc_type, exc, tb)
            self._mirror = None  # recorders must never ride along a pickle
        return False


# Ambient activation: REPRO_OBS=1 (anything but ""/"0") turns recording
# on at import, in this process and — because the environment is
# inherited — in every pool worker it forks.
if os.environ.get(ENV_VAR, "").strip() not in ("", "0"):
    enable()
