"""Metrics registry: counters, gauges and fixed-bucket histograms.

The registry is deliberately boring — plain dicts keyed by
``(name, sorted(label items))`` — because everything downstream depends
on it being trivially serializable: worker processes ship their registry
as part of an :func:`repro.obs.snapshot` and the parent merges it with
:meth:`MetricsRegistry.merge_state` (counters add, gauges last-write,
histograms add bucket-wise).

Histograms use *fixed* bucket boundaries declared per metric name in
:data:`BUCKET_BOUNDS` (upper bounds, ``le`` semantics, implicit +inf
overflow bucket).  Fixed boundaries are what make cross-process and
cross-run aggregation exact: two histograms with identical bounds merge
by adding counts, with no re-binning error.  Metrics without a declared
boundary set fall back to :data:`DEFAULT_BUCKETS`.
"""

from __future__ import annotations

import math

# Generic latency-ish default (seconds or small counts).
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0,
)

# Declared boundaries for the subsystem's known histograms.
BUCKET_BOUNDS = {
    # Wall-clock cost of a single solve.
    "solve_seconds": (
        0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
        120.0, 300.0,
    ),
    # Branch-and-bound nodes explored by a single solve (0 = solved at
    # the root, the paper's Table 2 convention).
    "solve_nodes": (
        0, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
    ),
    # Share of the routine's shared Deadline a pipeline site consumed.
    "deadline_fraction_consumed": (
        0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0,
    ),
    # Bundling cuts appended over one routine's cut loop.
    "bundling_cuts_per_routine": (0, 1, 2, 3, 4, 6, 8, 12, 16),
    # Final relative optimality gap of a solve (0 = proven optimal; the
    # paper accepts only gap 0, so everything above the first bucket is a
    # degraded solve worth seeing).
    "solve_gap": (
        0.0, 1e-6, 1e-4, 0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5,
        1.0,
    ),
    # End-to-end serving latency per request, labeled by hit kind: the
    # sub-millisecond buckets resolve exact hits (deserialization only),
    # the long tail covers cold solves.
    "serve_request_seconds": (
        0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
        1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
    ),
    # Cache lookup cost alone (mem LRU vs disk read + checksum).
    "serve_lookup_seconds": (
        0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
        0.025, 0.05, 0.1, 0.5, 1.0,
    ),
    # Wall-clock cost of one partition's sub-pipeline in a decomposed
    # routine (repro.sched.decompose) — sub-ILPs are much smaller than
    # whole-function models, so the buckets lean short.
    "partition_solve_seconds": (
        0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
    ),
}

# ``# HELP`` text for the exposition format, keyed by metric name.
# Unknown metrics get a generic line so every family still carries HELP.
METRIC_HELP = {
    "solves_total": "ILP solves started, by backend",
    "bb_nodes_total": "branch-and-bound nodes explored, by backend",
    "incumbent_seeded_solves_total": "solves seeded with a prior incumbent",
    "phase2_solves_total": "phase-2 solves",
    "routine_fallback_total": "final quality tier per routine",
    "routine_nodes_total": "branch-and-bound nodes per routine",
    "routine_warm_start_hits_total": "warm-start hits per routine",
    "routine_warm_start_misses_total": "warm-start misses per routine",
    "bundling_cuts_total": "bundling cuts appended per routine",
    "compensation_copies_total": "compensation copies emitted per routine",
    "routine_final_gap": "final optimality gap of the emitted schedule",
    "routine_static_reduction":
        "weighted static schedule-length reduction per routine (Table 1)",
    "routine_weighted_ipc_out":
        "frequency-weighted IPC of the emitted schedule (Table 1)",
    "routine_nop_density_out":
        "share of issue slots wasted on nops in the emitted schedule",
    "faults_fired_total": "injected faults that actually fired",
    "pool_rebuilds_total": "process pools rebuilt after a worker crash",
    "worker_retries_total": "routines retried in-process after pool failure",
    "solve_seconds": "wall-clock cost of a single solve",
    "solve_nodes": "branch-and-bound nodes explored by a single solve",
    "solve_gap": "final relative optimality gap of a solve",
    "deadline_fraction_consumed":
        "share of the routine deadline a pipeline site consumed",
    "bundling_cuts_per_routine":
        "bundling cuts appended over one routine's cut loop",
    "cache_hits_total": "schedule-cache requests by hit kind",
    "cache_family_certified_total":
        "family requests served from a certified sibling optimum, no solve",
    "coalesced_requests_total":
        "requests answered by another request's in-flight solve",
    "cache_store_writes_total": "cache entries published to the store",
    "cache_store_errors_total": "cache store I/O failures, by operation",
    "cache_corrupt_entries_total": "cache entries quarantined on load",
    "cache_evictions_total": "cache entries LRU-evicted by the size budget",
    "cache_size_bytes": "on-disk cache size after the last eviction pass",
    "serve_queue_depth": "requests queued for an admission slot",
    "serve_admission_timeouts_total":
        "requests whose budget expired while queued for admission",
    "serve_request_seconds": "end-to-end serving latency by hit kind",
    "serve_lookup_seconds": "schedule-cache lookup cost",
    "decompose_partitions_total": "partitions solved by decomposed routines",
    "partition_cache_hits_total":
        "partition schedule-cache probes answered from the store",
    "partition_cache_misses_total":
        "partition schedule-cache probes that found no usable entry",
    "partition_solve_seconds":
        "wall-clock cost of one partition's sub-pipeline",
}


def labels_key(labels):
    """Canonical hashable form of a label mapping."""
    return tuple(sorted(labels.items()))


def _series_name(name, key):
    if not key:
        return name
    rendered = ",".join(f'{k}="{v}"' for k, v in key)
    return f"{name}{{{rendered}}}"


def _escape_label_value(value):
    """Escape a label value per the Prometheus exposition format:
    backslash, double quote and newline must be backslash-escaped."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_series(name, key):
    """Exposition-format series name with *escaped* label values.

    Distinct from :func:`_series_name`, which renders raw values for the
    JSON dump keys (where escaping would change the key the tests and
    diff tooling grep for).
    """
    if not key:
        return name
    rendered = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in key)
    return f"{name}{{{rendered}}}"


class MetricsRegistry:
    """Counters, gauges and histograms for one process."""

    def __init__(self):
        self.counters = {}  # (name, labels_key) -> float
        self.gauges = {}  # (name, labels_key) -> float
        self.histograms = {}  # (name, labels_key) -> _Histogram state dict

    # -- recording ----------------------------------------------------------
    def counter_add(self, name, value=1.0, **labels):
        key = (name, labels_key(labels))
        self.counters[key] = self.counters.get(key, 0.0) + float(value)

    def gauge_set(self, name, value, **labels):
        self.gauges[(name, labels_key(labels))] = float(value)

    def observe(self, name, value, **labels):
        key = (name, labels_key(labels))
        hist = self.histograms.get(key)
        if hist is None:
            bounds = BUCKET_BOUNDS.get(name, DEFAULT_BUCKETS)
            hist = self.histograms[key] = {
                "bounds": tuple(float(b) for b in bounds),
                # one slot per bound plus the +inf overflow slot
                "counts": [0] * (len(bounds) + 1),
                "sum": 0.0,
                "count": 0,
            }
        value = float(value)
        hist["sum"] += value
        hist["count"] += 1
        hist["counts"][_bucket_index(hist["bounds"], value)] += 1

    # -- serialization / aggregation ----------------------------------------
    def to_state(self):
        """Plain-data form: JSON-free but pickle/JSON friendly after
        key stringification is applied by the exporters."""
        return {
            "counters": [
                [name, list(key), value]
                for (name, key), value in self.counters.items()
            ],
            "gauges": [
                [name, list(key), value]
                for (name, key), value in self.gauges.items()
            ],
            "histograms": [
                [
                    name,
                    list(key),
                    {
                        "bounds": list(hist["bounds"]),
                        "counts": list(hist["counts"]),
                        "sum": hist["sum"],
                        "count": hist["count"],
                    },
                ]
                for (name, key), hist in self.histograms.items()
            ],
        }

    def merge_state(self, state):
        """Fold a :meth:`to_state` snapshot (typically from a worker
        process) into this registry: counters add, gauges last-write,
        histograms add bucket-wise (bounds must match — they do, because
        bounds are fixed per metric name)."""
        for name, key, value in state.get("counters", ()):
            k = (name, tuple(tuple(item) for item in key))
            self.counters[k] = self.counters.get(k, 0.0) + value
        for name, key, value in state.get("gauges", ()):
            self.gauges[(name, tuple(tuple(item) for item in key))] = value
        for name, key, incoming in state.get("histograms", ()):
            k = (name, tuple(tuple(item) for item in key))
            hist = self.histograms.get(k)
            if hist is None:
                self.histograms[k] = {
                    "bounds": tuple(incoming["bounds"]),
                    "counts": list(incoming["counts"]),
                    "sum": incoming["sum"],
                    "count": incoming["count"],
                }
                continue
            if tuple(incoming["bounds"]) != hist["bounds"]:
                raise ValueError(
                    f"histogram {name!r}: bucket bounds mismatch on merge"
                )
            hist["counts"] = [
                a + b for a, b in zip(hist["counts"], incoming["counts"])
            ]
            hist["sum"] += incoming["sum"]
            hist["count"] += incoming["count"]

    # -- export -------------------------------------------------------------
    def as_dict(self):
        """Flat JSON-ready dump (the ``--metrics`` file format)."""
        out = {"counters": {}, "gauges": {}, "histograms": {}}
        for (name, key), value in sorted(self.counters.items()):
            out["counters"][_series_name(name, key)] = value
        for (name, key), value in sorted(self.gauges.items()):
            out["gauges"][_series_name(name, key)] = value
        for (name, key), hist in sorted(self.histograms.items()):
            buckets = {}
            cumulative = 0
            for bound, count in zip(hist["bounds"], hist["counts"]):
                cumulative += count
                buckets[f"{bound:g}"] = cumulative
            buckets["+Inf"] = hist["count"]
            out["histograms"][_series_name(name, key)] = {
                "buckets": buckets,
                "sum": hist["sum"],
                "count": hist["count"],
            }
        return out

    def prometheus_text(self):
        """Prometheus exposition-format dump (counters/gauges/histograms).

        Each metric family carries a ``# HELP`` line (from
        :data:`METRIC_HELP`, generic text for unregistered names) ahead
        of its ``# TYPE`` line, and label values are escaped per the
        exposition format (``\\`` ``"`` and newlines).
        """
        lines = []
        seen_types = set()

        def header(name, kind):
            if name not in seen_types:
                seen_types.add(name)
                help_text = METRIC_HELP.get(name, f"{name} (unregistered)")
                lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {kind}")

        for (name, key), value in sorted(self.counters.items()):
            header(name, "counter")
            lines.append(f"{_prom_series(name, key)} {value:g}")
        for (name, key), value in sorted(self.gauges.items()):
            header(name, "gauge")
            lines.append(f"{_prom_series(name, key)} {value:g}")
        for (name, key), hist in sorted(self.histograms.items()):
            header(name, "histogram")
            cumulative = 0
            for bound, count in zip(hist["bounds"], hist["counts"]):
                cumulative += count
                series = _prom_series(name + "_bucket", key + (("le", f"{bound:g}"),))
                lines.append(f"{series} {cumulative}")
            series = _prom_series(name + "_bucket", key + (("le", "+Inf"),))
            lines.append(f"{series} {hist['count']}")
            lines.append(f"{_prom_series(name + '_sum', key)} {hist['sum']:g}")
            lines.append(f"{_prom_series(name + '_count', key)} {hist['count']}")
        return "\n".join(lines) + "\n"


def _bucket_index(bounds, value):
    """First bucket whose upper bound admits ``value`` (``le``), else the
    +inf overflow slot."""
    if math.isnan(value):
        return len(bounds)
    for i, bound in enumerate(bounds):
        if value <= bound:
            return i
    return len(bounds)
