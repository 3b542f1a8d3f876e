"""Solver-search introspection and paper-metric analytics.

The paper's whole argument lives *inside* the solver: proven-optimal
schedules (incumbent/best-bound convergence), the bundling-cut loop of
Sec. 4.2, and the Table 1/2 static metrics.  This module is the plain-data
layer those diagnostics travel on:

* :class:`GapTimeline` — an incumbent/best-bound convergence record
  the solver attaches to every solve.  Samples are monotone in the
  reported gap (a branch-and-bound gap never widens; any apparent
  widening is clock skew between incumbent and bound reads, so it is
  clamped) and the timeline is *always closed* on every exit path —
  optimal, timeout, deadline and injected-fault exits alike — so a
  dashboard can trust ``closed`` as "the search really ended here".
* :func:`solve_telemetry` — one solve's worth of search diagnostics as a
  picklable dict, appended to ``Trace.solves`` by the scheduler so it
  survives the process-pool fan-out with the result.
* :func:`cut_effect` — per-bundling-cut effectiveness: the bound delta
  and re-solve cost attributable to one ``append_bundling_cut``.
* :func:`paper_metrics` / :func:`aggregate_paper_metrics` — the
  Table 1/2-shaped static metrics of one ``OptimizeResult`` and their
  cross-routine aggregation.

Everything here is stdlib-only plain data: no numpy arrays, no solver
objects, nothing that cannot ride a pickle or a JSON dump.
"""

from __future__ import annotations

import functools

GAP_EPS = 1e-12


def compute_gap(incumbent, bound):
    """Relative optimality gap, the branch-and-bound convention.

    ``|incumbent - bound| / max(1, |incumbent|)``.  ``None`` when either
    side is unknown.
    """
    if incumbent is None or bound is None:
        return None
    try:
        incumbent = float(incumbent)
        bound = float(bound)
    except (TypeError, ValueError):
        return None
    if incumbent != incumbent or bound != bound:  # NaN guard
        return None
    if incumbent in (float("inf"), float("-inf")):
        return None
    if bound in (float("inf"), float("-inf")):
        return None
    return abs(incumbent - bound) / max(1.0, abs(incumbent))


class GapTimeline:
    """Incumbent/best-bound convergence samples for one solve.

    Samples are plain dicts ``{"t", "incumbent", "bound", "gap",
    "nodes"}`` (plus an optional ``"label"``), ordered by elapsed time.
    The reported gap is clamped monotone non-increasing: once the search
    has proven a gap it never un-proves it, so a sample computing a
    *larger* gap (clock skew between the incumbent and bound reads, or a
    heap rebuild mid-sample) records the previous, tighter value.

    ``close`` appends the final sample and latches ``closed`` with the
    exit status; closing twice is a no-op so defensive callers on
    multi-return exit paths stay correct.
    """

    __slots__ = ("samples", "closed", "status", "_best_gap")

    def __init__(self):
        self.samples = []
        self.closed = False
        self.status = None
        self._best_gap = None

    def sample(self, elapsed, incumbent=None, bound=None, nodes=0, label=None):
        """Record one convergence sample; returns the (clamped) gap."""
        if self.closed:
            return self._best_gap
        gap = compute_gap(incumbent, bound)
        if gap is not None:
            if self._best_gap is not None and gap > self._best_gap:
                gap = self._best_gap  # monotone clamp
            self._best_gap = gap
        entry = {
            "t": float(elapsed),
            "incumbent": None if incumbent is None else float(incumbent),
            "bound": None if bound is None else float(bound),
            "gap": gap,
            "nodes": int(nodes),
        }
        if label is not None:
            entry["label"] = label
        self.samples.append(entry)
        return gap

    def close(self, elapsed, incumbent=None, bound=None, nodes=0, status=None):
        """Append the final sample and latch the exit status (idempotent)."""
        if self.closed:
            return self._best_gap
        gap = self.sample(
            elapsed, incumbent=incumbent, bound=bound, nodes=nodes,
            label="close",
        )
        self.closed = True
        self.status = status
        return gap

    @property
    def final_gap(self):
        return self._best_gap

    def __len__(self):
        return len(self.samples)

    def as_dict(self):
        """JSON/pickle-ready plain-data form (what rides span attrs)."""
        return {
            "samples": [dict(s) for s in self.samples],
            "closed": self.closed,
            "status": self.status,
            "final_gap": self._best_gap,
        }


def fault_timeline(status, incumbent=None, bound=None):
    """A minimal closed timeline for injected-fault / short-circuit exits.

    Fault exits skip the search loop entirely, but the "always closed on
    every exit path" contract still holds: they get an opening sample at
    t=0 and an immediate close stamped with the exit status.
    """
    timeline = GapTimeline()
    timeline.sample(0.0, incumbent=incumbent, bound=bound, label="start")
    timeline.close(0.0, incumbent=incumbent, bound=bound, status=status)
    return timeline


def solve_telemetry(site, solution):
    """One solve's search diagnostics as a picklable plain dict.

    ``site`` is the pipeline stage (``solve.phase1`` /
    ``solve.cut_resolve`` / ``solve.phase2``), ``solution`` the solver's
    :class:`~repro.ilp.status.Solution`.  The dict is what the scheduler
    appends to ``Trace.solves`` — keep it free of solver objects.
    """
    stats = solution.stats
    timeline = getattr(stats, "gap_timeline", None)
    return {
        "site": site,
        "backend": stats.backend,
        "status": solution.status.name,
        "objective": solution.objective,
        "nodes": stats.nodes,
        "time_seconds": stats.time_seconds,
        "best_bound": stats.best_bound,
        "gap": stats.gap,
        "gap_timeline": timeline.as_dict() if timeline is not None else None,
    }


def cut_effect(cut_index, members, prev_objective, solution, site):
    """Effectiveness attribution for one appended bundling cut.

    ``bound_delta`` is the objective movement the cut forced on the
    re-solve (positive: the cut made the schedule provably longer, the
    usual Sec. 4.2 outcome); ``resolve_seconds`` / ``resolve_nodes`` the
    cost of proving it.
    """
    delta = None
    if prev_objective is not None and solution.objective is not None:
        delta = float(solution.objective) - float(prev_objective)
    return {
        "cut_index": int(cut_index),
        "members": int(members),
        "site": site,
        "bound_delta": delta,
        "resolve_seconds": solution.stats.time_seconds,
        "resolve_nodes": solution.stats.nodes,
        "resolve_status": solution.status.name,
    }


# -- paper-metric analytics ---------------------------------------------------
def compensation_copies(schedule):
    """Number of duplicated placements (compensation copies) in a schedule.

    Global code motion duplicates an instruction into several blocks; each
    appearance beyond the first of one original instruction
    (``root_origin``) is a compensation copy — the quantity behind the
    paper's Δinstructions column.
    """
    appearances = {}
    for placement in schedule.placements():
        instr = placement.instr
        if instr.is_nop:
            continue
        key = instr.root_origin
        appearances[key] = appearances.get(key, 0) + 1
    return sum(count - 1 for count in appearances.values() if count > 1)


def paper_metrics(result):
    """Table 1/2-shaped static metrics for one ``OptimizeResult``.

    Wires :class:`repro.perf.static_eval.ScheduleComparison` into the
    result's trace: static reduction, weighted IPC in/out, Δinstructions,
    Δbundles, nop density, compensation copies and speculation counts —
    all plain floats/ints, safe on a pickle or span attribute.
    """
    from repro.perf.static_eval import compare_schedules

    comparison = compare_schedules(
        result.fn,
        result.input_schedule,
        result.output_schedule,
        result.bundles_in,
        result.bundles_out,
    )
    m_in, m_out = comparison.metrics_in, comparison.metrics_out
    return {
        "routine": result.fn.name,
        "quality": result.quality,
        "static_reduction": comparison.static_reduction,
        "weighted_ipc_in": m_in.weighted_ipc,
        "weighted_ipc_out": m_out.weighted_ipc,
        "instructions_in": m_in.instructions,
        "instructions_out": m_out.instructions,
        "delta_instructions": comparison.delta_instructions,
        "bundles_in": m_in.bundles,
        "bundles_out": m_out.bundles,
        "delta_bundles": comparison.delta_bundles,
        "nop_density_in": m_in.nop_density,
        "nop_density_out": m_out.nop_density,
        "compensation_copies": compensation_copies(result.output_schedule),
        "spec_possible": result.spec_possible,
        "spec_used": result.spec_used,
    }


# Columns averaged by aggregate_paper_metrics (the Table 1 "Average" row);
# the remaining numeric columns are summed.
_AVERAGED = (
    "static_reduction", "weighted_ipc_in", "weighted_ipc_out",
    "delta_instructions", "delta_bundles", "nop_density_in",
    "nop_density_out",
)
_SUMMED = (
    "instructions_in", "instructions_out", "bundles_in", "bundles_out",
    "compensation_copies", "spec_possible", "spec_used",
)


def _series_sum(section, prefix, field=None, start=0.0):
    """Sum every series of metric ``prefix`` in a dump ``section``.

    Matches the bare name and each labelled ``prefix{...}`` key;
    ``field`` picks one number out of a histogram dict.  Non-numeric
    values are skipped.  ``start`` is the empty sum, as in :func:`sum`.
    """
    total = start
    for key, value in section.items():
        if key != prefix and not key.startswith(prefix + "{"):
            continue
        if field is not None:
            value = (value or {}).get(field, 0)
        if isinstance(value, (int, float)):
            total += value
    return total


def serve_summary(metrics):
    """Schedule-cache health digest from a ``--metrics`` dump.

    ``metrics`` is :func:`repro.obs.export.metrics_dict` output —
    ``{"counters": {...}, "gauges": {...}, "histograms": {...}}`` with
    labelled series rendered as ``name{k="v"}`` keys.  Returns
    ``{"requests", "hits": {exact, family, miss}, "hit_rate",
    "coalesced", "solves", "store_errors", "corrupt_entries",
    "evictions", "admission_timeouts", "size_bytes", "shed",
    "drained", "accept_errors", "queue_depth", "inflight"}`` — the
    numbers behind the dashboard's cache panel and the CI serve-smoke
    artifact.  The last five come from the fleet daemon
    (:mod:`repro.serve.fleet`): load-shed and drain-flushed connection
    counts plus the latest queue-depth/in-flight gauges.  All fields
    are plain ints/floats and default to zero, so the digest is safe
    on an obs-disabled (empty) dump.
    """
    metrics = metrics or {}
    counters = metrics.get("counters", {}) or {}
    gauges = metrics.get("gauges", {}) or {}
    # An integer empty sum: this digest keeps ints on an int dump.
    tally = functools.partial(_series_sum, start=0)

    hits = {
        kind: tally(counters, f'cache_hits_total{{kind="{kind}"}}')
        for kind in ("exact", "family", "miss")
    }
    requests = sum(hits.values())
    served = hits["exact"] + hits["family"]
    return {
        "requests": requests,
        "hits": hits,
        "hit_rate": served / requests if requests else 0.0,
        "coalesced": tally(counters, "coalesced_requests_total"),
        "solves": hits["miss"],
        "store_errors": tally(counters, "cache_store_errors_total"),
        "corrupt_entries": tally(counters, "cache_corrupt_entries_total"),
        "evictions": tally(counters, "cache_evictions_total"),
        "admission_timeouts": tally(
            counters, "serve_admission_timeouts_total"
        ),
        "size_bytes": tally(gauges, "cache_size_bytes"),
        "shed": tally(counters, "serve_shed_total"),
        "drained": tally(counters, "serve_drained_total"),
        "accept_errors": tally(counters, "serve_accept_errors_total"),
        "queue_depth": tally(gauges, "serve_conn_queue_depth"),
        "inflight": tally(gauges, "serve_inflight"),
    }


def decompose_summary(metrics):
    """Region-decomposition digest from a ``--metrics`` dump.

    Same input shape as :func:`serve_summary`.  Returns
    ``{"partitions", "cache_hits", "cache_misses", "hit_rate",
    "solves", "solve_seconds", "mean_solve_seconds"}`` — the numbers
    behind the dashboard's partition rows and the CI decompose-smoke
    artifact.  ``partitions`` counts partitions solved across all
    decomposed routines (``decompose_partitions_total``).  The cache
    fields read ``partition_cache_{hits,misses}_total``, which only dumps
    from builds with a per-partition cache carry.  All fields default
    to zero, so the digest is safe on an obs-disabled (empty) dump.
    """
    metrics = metrics or {}
    counters = metrics.get("counters", {}) or {}
    histograms = metrics.get("histograms", {}) or {}

    hits = _series_sum(counters, "partition_cache_hits_total")
    misses = _series_sum(counters, "partition_cache_misses_total")
    probes = hits + misses
    solves = _series_sum(histograms, "partition_solve_seconds", field="count")
    seconds = _series_sum(histograms, "partition_solve_seconds", field="sum")
    return {
        "partitions": _series_sum(counters, "decompose_partitions_total"),
        "cache_hits": hits,
        "cache_misses": misses,
        "hit_rate": hits / probes if probes else 0.0,
        "solves": solves,
        "solve_seconds": seconds,
        "mean_solve_seconds": seconds / solves if solves else 0.0,
    }


def swp_summary(metrics):
    """Software-pipelining digest from a ``--metrics`` dump.

    Same input shape as :func:`serve_summary`.  Returns ``{"loops",
    "by_status": {status: n}, "pipelined", "pipelined_rate", "ii_at_mii",
    "ii_at_mii_rate", "mean_ii_over_mii", "oracle": {"pass": n, "fail":
    n}, "fallbacks": {reason: n}, "cache_hits", "cache_misses",
    "cache_hit_rate"}`` — the numbers behind the dashboard's SWP panel
    and the CI swp-smoke artifact.  ``ii_at_mii_rate`` is the fraction
    of *pipelined* loops whose achieved II equals max(ResMII, RecMII) —
    the paper-style optimality headline the sweep's 80% acceptance bar
    reads.  The cache fields read ``swp_cache_{hits,misses}_total``,
    which only dumps from builds with a per-loop cache carry.  All
    fields default to zero/empty, so the digest is safe on an
    obs-disabled (empty) dump.
    """
    metrics = metrics or {}
    counters = metrics.get("counters", {}) or {}
    histograms = metrics.get("histograms", {}) or {}

    def _by_label(prefix, label):
        out = {}
        marker = f'{prefix}{{{label}="'
        for key, value in counters.items():
            if not key.startswith(marker):
                continue
            if not isinstance(value, (int, float)):
                continue
            name = key[len(marker):].split('"', 1)[0]
            out[name] = out.get(name, 0) + value
        return out

    by_status = _by_label("swp_loops_total", "status")
    loops = sum(by_status.values())
    # Dumps from builds with a second SWP formulation also count the
    # loops it shipped, as status "fallback_swp".
    pipelined = by_status.get("pipelined", 0) + by_status.get(
        "fallback_swp", 0
    )
    at_mii = _series_sum(counters, "swp_ii_at_mii_total")
    ratio_count = _series_sum(histograms, "swp_ii_over_mii", field="count")
    ratio_sum = _series_sum(histograms, "swp_ii_over_mii", field="sum")
    hits = _series_sum(counters, "swp_cache_hits_total")
    misses = _series_sum(counters, "swp_cache_misses_total")
    probes = hits + misses
    return {
        "loops": loops,
        "by_status": by_status,
        "pipelined": pipelined,
        "pipelined_rate": pipelined / loops if loops else 0.0,
        "ii_at_mii": at_mii,
        "ii_at_mii_rate": at_mii / ratio_count if ratio_count else 0.0,
        "mean_ii_over_mii": ratio_sum / ratio_count if ratio_count else 0.0,
        "oracle": _by_label("swp_oracle_total", "result"),
        "fallbacks": _by_label("swp_fallbacks_total", "reason"),
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_hit_rate": hits / probes if probes else 0.0,
    }


def aggregate_paper_metrics(rows):
    """Cross-routine run summary in the shape of Table 1's bottom row.

    ``rows`` is a list of :func:`paper_metrics` dicts; returns
    ``{"routines": n, "by_quality": {...}, "average": {...},
    "total": {...}}``.  Rows of ``None`` (degraded pool outcomes) are
    skipped.
    """
    rows = [row for row in rows if row]
    summary = {
        "routines": len(rows),
        "by_quality": {},
        "average": {},
        "total": {},
    }
    if not rows:
        return summary
    for row in rows:
        tier = row.get("quality") or "unknown"
        summary["by_quality"][tier] = summary["by_quality"].get(tier, 0) + 1
    n = len(rows)
    for key in _AVERAGED:
        values = [row[key] for row in rows if row.get(key) is not None]
        if values:
            summary["average"][key] = sum(values) / len(values)
    for key in _SUMMED:
        values = [row[key] for row in rows if row.get(key) is not None]
        if values:
            summary["total"][key] = sum(values)
    return summary
