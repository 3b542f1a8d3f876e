"""Span recorder for the traced run: wraps public calls of each layer.

The program is not changed. :class:`Tracer` replaces each target
callable with a timing wrapper in every loaded ``repro`` module that
binds it (``from x import f`` copies), patches class methods once on the
class, and restores everything on :meth:`Tracer.uninstall`. Spans stay in
memory and are written out once, as Chrome ``trace_event`` JSON that
Perfetto and ``chrome://tracing`` open.

A span records its name, start, end, parent span, thread and the item
(routine compile or served request) it belongs to. Spans are recorded
only while an item is open, so the benchmark's own checks and set-up are
never attributed to a layer. A span started on a thread with no open
span (decomposition partitions, daemon workers) takes as parent the open
decomposition span if there is one, else the item's root span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

# (span name, module, attribute). ``Class.method`` attributes are patched
# on the class; plain names are replaced wherever a repro module binds them.
TARGETS = (
    ("ir.parse", "repro.ir.parser", "parse_functions"),
    ("ir.analyze", "repro.ir.cfg", "CfgInfo.__init__"),
    ("ir.analyze", "repro.ir.liveness", "compute_liveness"),
    ("ir.analyze", "repro.ir.ddg", "build_dependence_graph"),
    ("ir.analyze", "repro.ir.rename", "rename_registers"),
    ("sched.input_schedule", "repro.sched.list_scheduler", "ListScheduler.schedule"),
    ("sched.ilp_build", "repro.sched.ilp_formulation", "SchedulingIlp.__init__"),
    ("sched.ilp_build", "repro.sched.ilp_formulation", "SchedulingIlp.generate"),
    ("ilp.to_arrays", "repro.ilp.model", "Model.to_arrays"),
    ("ilp.solve_model", "repro.ilp", "solve_model"),
    ("ilp.highs", "scipy.optimize", "milp"),
    ("sched.reconstruct", "repro.sched.reconstruct", "reconstruct_schedule"),
    ("bundle.bundle", "repro.bundle.bundler", "bundle_schedule"),
    ("sched.phase2", "repro.sched.phase2", "minimize_instruction_count"),
    ("sched.verify", "repro.sched.verifier", "verify_schedule"),
    ("sched.decompose", "repro.sched.decompose", "try_decomposed_pipeline"),
    ("sched.pipeline", "repro.sched.scheduler", "IlpScheduler._run_pipeline"),
    ("sched.modulo", "repro.sched.modulo.ladder", "pipeline_loop"),
    ("sched.modulo_oracle", "repro.sched.modulo.oracle", "kernel_vs_unrolled"),
    ("serve.request", "repro.serve.service", "ScheduleService.request"),
    ("serve.fingerprint", "repro.serve.fingerprint", "fingerprint"),
    ("serve.fingerprint", "repro.serve.fingerprint", "family_fingerprint"),
    ("serve.store_get", "repro.serve.store", "ScheduleStore.get"),
    ("serve.store_put", "repro.serve.store", "ScheduleStore.put"),
    ("serve.family_scan", "repro.serve.store", "ScheduleStore.family_members"),
    ("serve.family_scan", "repro.serve.store", "ScheduleStore.load_header"),
    ("serve.protocol", "repro.serve.protocol", "send_frame"),
    ("serve.protocol", "repro.serve.protocol", "recv_frame"),
    ("tools.emit", "repro.ir.printer", "format_function"),
    ("tools.emit", "repro.ir.printer", "format_schedule"),
)

LIMIT_STATUSES = ("FEASIBLE", "NO_SOLUTION")  # a solve that stopped on a limit


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self, client_thread=None):
        self.spans = []  # (sid, name, start, end, parent, tid, item, nested)
        self.counts = {}
        self.results = []  # OptimizeResults of routines the optimizer ran
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []  # (owner, attribute, original)
        self._item = None  # (item label, root span id)
        self._decompose = None  # open decomposition span id
        # recv_frame on the client thread blocks for the whole request;
        # only the daemon side's framing cost counts as protocol time.
        self._client_thread = client_thread
        self.epoch = time.perf_counter()

    # -- counting ------------------------------------------------------------
    def count(self, name, n=1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    # -- spans -----------------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, sid, name, start, end, parent, item, nested):
        self.spans.append(
            (sid, name, start, end, parent, threading.get_ident(), item, nested)
        )

    @contextlib.contextmanager
    def item(self, label):
        """One timed item (a compile or a request): the root of its spans."""
        sid = next(self._ids)
        self._item = (label, sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._record(sid, "item", start, time.perf_counter(), None, label, False)
            self._item = None

    def _wrap(self, name, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            item = tracer._item
            if item is None or (
                name == "serve.protocol"
                and fn.__name__ == "recv_frame"
                and threading.get_ident() == tracer._client_thread
            ):
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            if stack:
                parent = stack[-1][0]
            else:
                parent = tracer._decompose or item[1]
            nested = any(entry[1] == name for entry in stack)
            is_partition = name == "sched.pipeline" and tracer._decompose
            span_name = "sched.partition_solve" if is_partition else name
            stack.append((sid, name))
            if name == "sched.decompose" and not nested:
                tracer._decompose = sid
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if name == "sched.decompose" and not nested:
                    tracer._decompose = None
                    if result is None:  # below threshold or no legal cut
                        span_name = "sched.decompose_declined"
                tracer._record(
                    sid, span_name, start, end, parent, item[0], nested
                )
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------------
    def install(self):
        """Wrap every target (undone by :meth:`uninstall`)."""
        for name, module_name, attribute in TARGETS:
            module = importlib.import_module(module_name)
            hook = _RESULT_HOOKS.get(name)
            if "." in attribute:
                owner_name, method = attribute.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                setattr(owner, method, self._wrap(name, original, hook))
                self._patches.append((owner, method, original))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(name, original, hook)
            for loaded in list(sys.modules.values()):
                loaded_name = getattr(loaded, "__name__", "") or ""
                if not (loaded_name.startswith("repro") or loaded is module):
                    continue
                namespace = getattr(loaded, "__dict__", {})
                for key, value in list(namespace.items()):
                    if value is original:
                        setattr(loaded, key, wrapper)
                        self._patches.append((loaded, key, original))

    def uninstall(self):
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- reports ---------------------------------------------------------------------
    def layer_table(self):
        """``{span name: {calls, seconds, self_seconds}}``.

        ``seconds`` sums outermost spans only (a wrapped call inside a
        same-named span is not counted twice); self seconds are each
        span's duration minus the part its child spans cover.
        """
        children = {}
        for span in self.spans:
            children.setdefault(span[4], []).append((span[2], span[3]))
        table = {}
        for sid, name, start, end, _parent, _tid, _item, nested in self.spans:
            row = table.setdefault(
                name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
            )
            row["calls"] += 1
            if not nested:
                row["seconds"] += end - start
            row["self_seconds"] += (end - start) - _covered(
                start, end, children.get(sid, ())
            )
        return table

    def write_chrome_trace(self, path):
        """Write the spans as Chrome ``trace_event`` JSON."""
        pid = os.getpid()
        threads = {}
        events = []
        for sid, name, start, end, parent, tid, item, nested in self.spans:
            lane = threads.setdefault(tid, len(threads))
            events.append({
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": round((start - self.epoch) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": pid,
                "tid": lane,
                "args": {"id": sid, "parent": parent, "item": item},
            })
        for tid, lane in threads.items():
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": lane,
                "args": {"name": "main" if tid == self._client_thread
                         else f"thread {lane}"},
            })
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def _covered(start, end, intervals):
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


# -- counts read from returned objects ------------------------------------------
def _on_solution(tracer, solution):
    tracer.count("ilp.solves")
    tracer.count("ilp.bb_nodes", int(solution.stats.nodes or 0))
    if solution.status.name in LIMIT_STATUSES:
        tracer.count("ilp.deadline_hits")


def _on_serve_outcome(tracer, outcome):
    tracer.count("serve.requests")
    if outcome.kind == "exact":
        tracer.count("serve.exact")
    else:
        tracer.results.append(outcome.result)


_RESULT_HOOKS = {
    "ilp.solve_model": _on_solution,
    "serve.request": _on_serve_outcome,
}


# -- per-layer metrics ------------------------------------------------------------
SECONDS = {  # metric -> span name
    "ir.parse_s": "ir.parse",
    "ir.analyze_s": "ir.analyze",
    "sched.input_schedule_s": "sched.input_schedule",
    "sched.ilp_build_s": "sched.ilp_build",
    "ilp.to_arrays_s": "ilp.to_arrays",
    "ilp.highs_s": "ilp.highs",
    "sched.reconstruct_s": "sched.reconstruct",
    "bundle.bundle_s": "bundle.bundle",
    "sched.phase2_s": "sched.phase2",
    "sched.verify_s": "sched.verify",
    "sched.decompose_s": "sched.decompose",
    "sched.partition_solve_s": "sched.partition_solve",
    "sched.modulo_s": "sched.modulo",
    "sched.modulo_oracle_s": "sched.modulo_oracle",
    "serve.request_s": "serve.request",
    "serve.fingerprint_s": "serve.fingerprint",
    "serve.store_get_s": "serve.store_get",
    "serve.store_put_s": "serve.store_put",
    "serve.family_scan_s": "serve.family_scan",
    "serve.protocol_s": "serve.protocol",
    "tools.emit_s": "tools.emit",
}


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def ladder_exhausted(outcome):
    """True when an SWP loop's II ladder stopped on its time budget."""
    if outcome.fallback_reason == "deadline":
        return True
    return any(
        rung.get("status") in LIMIT_STATUSES + ("skipped",)
        for rung in outcome.detail.get("rungs", ())
    )


def layer_metrics(tracer, overhead):
    """Every per-layer metric of the traced run (idle layers read 0)."""
    table = tracer.layer_table()
    metrics = {
        metric: table.get(span, {}).get("seconds", 0.0)
        for metric, span in SECONDS.items()
    }
    results = tracer.results
    loops = [o for r in results for o in r.swp_outcomes]
    solves = tracer.counts.get("ilp.solves", 0)
    metrics.update({
        "sched.ilp_rows": sum(r.ilp_size.get("constraints", 0) for r in results),
        "sched.ilp_cols": sum(r.ilp_size.get("variables", 0) for r in results),
        "ilp.solves": solves,
        "ilp.bb_nodes": tracer.counts.get("ilp.bb_nodes", 0),
        "ilp.deadline_hits": tracer.counts.get("ilp.deadline_hits", 0),
        "sched.cut_resolves": sum(
            r.phase_timings().get("solve.cut_resolve", {}).get("count", 0)
            for r in results
        ),
        "sched.solves_per_routine": _ratio(solves, len(results)),
        "bundle.calls": table.get("bundle.bundle", {}).get("calls", 0),
        "sched.partitions": table.get("sched.partition_solve", {}).get("calls", 0),
        "sched.partition_parallelism": _ratio(
            metrics["sched.partition_solve_s"], metrics["sched.decompose_s"]
        ),
        "sched.modulo_loops": len(loops),
        "sched.modulo_rungs_per_loop": _ratio(
            sum(len(o.detail.get("rungs", ())) for o in loops), len(loops)
        ),
        "sched.modulo_budget_exhausted": sum(map(ladder_exhausted, loops)),
        "serve.hit_ratio": _ratio(
            tracer.counts.get("serve.exact", 0),
            tracer.counts.get("serve.requests", 0),
        ),
        "obs.tracing_overhead": overhead,
    })
    return metrics
