"""``tia-telemetry``: query + SLO layer over the telemetry journal.

The fleet daemon (``tia-serve --listen ... --journal DIR``) appends one
:mod:`repro.obs.journal` record per request exit path.  This module
turns those shards into answers::

    tia-telemetry tail DIR [-n N] [--kind KIND]     newest records, JSONL
    tia-telemetry report DIR [--json]               fleet rollup
    tia-telemetry families DIR [--json]             per-family rollup
    tia-telemetry slo DIR --rule EXPR... [--gate]   declarative SLO check
    tia-telemetry gc DIR --budget BYTES             evict oldest shards
    tia-telemetry verify DIR                        quarantine corruption

The **report** is built from the journal alone, yet reconstructs the
daemon's own ``stats`` counters exactly (one record per exit path is
the invariant that makes this possible): ``completed`` = ``ok``
records, ``shed`` = ``busy``, ``drained`` = ``drained``, ``probes`` =
``probe``, ``accept_errors`` = ``fault``, and ``rejected`` =
``busy + drained + error + fault``.  Drain-time records (kind
``portfolio_summary``, a historical name) carry each replica's own
counter snapshot, so the rollup can cross-check itself against what
the daemon believed at exit.

**SLO rules** are comparisons against rollup metrics, written
``metric<=value`` / ``metric>=value`` (inline ``--rule``, repeatable)
or as a JSON list of ``{"metric": ..., "min": ...}`` /
``{"max": ...}`` objects (``--rules FILE``).  Metrics:

==================  ========================================================
``ok_rate``         ``ok`` / non-probe exits (availability)
``shed_rate``       ``busy`` / non-probe exits
``error_rate``      ``error`` / non-probe exits
``drained_rate``    ``drained`` / non-probe exits
``cache_hit_rate``  (exact + family) / routines served
``p50_total``       median end-to-end seconds of ``ok`` requests
``p99_total``       p99 end-to-end seconds of ``ok`` requests
``p99_queue_wait``  p99 queue-wait seconds of ``ok`` requests
``requests``        non-probe exits (guard: enough traffic to judge)
``write_errors``    journal write errors the replicas reported at drain
==================  ========================================================

``slo --gate`` exits 0 when every rule holds and 1 otherwise — the same
shape as ``tia-bench-diff --gate`` so CI wires both identically.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from repro.obs import journal as journal_mod

# Metrics an SLO rule may reference -> how to read them off a rollup.
SLO_METRICS = (
    "ok_rate",
    "shed_rate",
    "error_rate",
    "drained_rate",
    "cache_hit_rate",
    "p50_total",
    "p99_total",
    "p99_queue_wait",
    "requests",
    "write_errors",
)

_RULE_RE = re.compile(r"^\s*([a-z0-9_]+)\s*(<=|>=)\s*([0-9.eE+-]+)\s*$")


class SloRuleError(ValueError):
    """A malformed SLO rule expression or rules file."""


# -- rollup -------------------------------------------------------------------
def percentiles(values):
    """Count, mean, p50, p99 and max of latency ``values`` (seconds);
    ``None`` for an empty sample.  Shared with ``tia-serve``'s stats."""
    if not values:
        return None
    ordered = sorted(values)
    return {
        "count": len(values),
        "mean_seconds": sum(values) / len(values),
        "p50_seconds": ordered[len(ordered) // 2],
        "p99_seconds": ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))],
        "max_seconds": ordered[-1],
    }


def reconstruct_counters(outcomes):
    """The daemon's ``stats`` counters, from an outcome histogram."""
    def n(key):
        return int(outcomes.get(key, 0))

    return {
        "completed": n("ok"),
        "shed": n("busy"),
        "drained": n("drained"),
        "probes": n("probe"),
        "accept_errors": n("fault"),
        "rejected": n("busy") + n("drained") + n("error") + n("fault"),
    }


def journal_rollup(root):
    """Aggregate every valid journal record under ``root`` into one dict.

    Pure read — never mutates shards.  The rollup carries the outcome
    histogram, the reconstructed daemon counters, latency percentiles
    of served requests, the cache-hit mix, per-family activity and the
    drain-time counter summaries, keyed exactly as the SLO metrics and
    the dashboard panel expect.  Members of older journals that nothing
    reads any more (request ``portfolio``, drain ``families``) are
    ignored.
    """
    outcomes = {}
    shed_reasons = {}
    errors = {}
    faults_seen = {}
    cache_kinds = {}
    totals, queue_waits, solves = [], [], []
    families = {}
    replicas = set()
    traces = set()
    summaries = []
    records = 0
    ts_min = ts_max = None

    for record in journal_mod.read_records(root):
        records += 1
        ts = record.get("ts")
        if isinstance(ts, (int, float)):
            ts_min = ts if ts_min is None else min(ts_min, ts)
            ts_max = ts if ts_max is None else max(ts_max, ts)
        if record.get("replica"):
            replicas.add(record["replica"])
        kind = record.get("kind")
        if kind == "portfolio_summary":
            summaries.append(
                {
                    "replica": record.get("replica"),
                    "counters": record.get("counters") or {},
                    "drain_reason": record.get("drain_reason"),
                    "write_errors": int(record.get("write_errors") or 0),
                }
            )
            continue
        if kind != "request":
            continue
        outcome = record.get("outcome")
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if record.get("trace_id"):
            traces.add(record["trace_id"])
        if record.get("shed_reason"):
            reason = record["shed_reason"]
            shed_reasons[reason] = shed_reasons.get(reason, 0) + 1
        if record.get("error"):
            error = record["error"]
            errors[error] = errors.get(error, 0) + 1
        if record.get("fault"):
            fault = record["fault"]
            faults_seen[fault] = faults_seen.get(fault, 0) + 1

        timings = record.get("timings") or {}
        if outcome == "ok":
            if isinstance(timings.get("total"), (int, float)):
                totals.append(float(timings["total"]))
            if isinstance(timings.get("queue_wait"), (int, float)):
                queue_waits.append(float(timings["queue_wait"]))
            if isinstance(timings.get("solve"), (int, float)):
                solves.append(float(timings["solve"]))
            for hit_kind, count in (record.get("cache_kinds") or {}).items():
                cache_kinds[hit_kind] = cache_kinds.get(hit_kind, 0) + int(count)

        family = record.get("family")
        if family is not None:
            entry = families.setdefault(
                family,
                {
                    "requests": 0,
                    "cache_kinds": {},
                    "quality_tiers": {},
                    "totals": [],
                },
            )
            entry["requests"] += 1
            for hit_kind, count in (record.get("cache_kinds") or {}).items():
                entry["cache_kinds"][hit_kind] = (
                    entry["cache_kinds"].get(hit_kind, 0) + int(count)
                )
            for routine in record.get("routines") or ():
                quality = routine.get("quality")
                if quality:
                    entry["quality_tiers"][quality] = (
                        entry["quality_tiers"].get(quality, 0) + 1
                    )
            if isinstance(timings.get("total"), (int, float)):
                entry["totals"].append(float(timings["total"]))

    for entry in families.values():
        entry["latency"] = percentiles(entry.pop("totals"))

    non_probe = sum(
        count for outcome, count in outcomes.items() if outcome != "probe"
    )
    routines_served = sum(cache_kinds.values())
    hits = cache_kinds.get("exact", 0) + cache_kinds.get("family", 0)
    # Drain summaries carry each replica's own view of its counters and
    # journal write errors — the cross-check against the reconstruction.
    reported = {}
    write_errors = 0
    for summary in summaries:
        for name, value in summary["counters"].items():
            reported[name] = reported.get(name, 0) + int(value)
        write_errors += summary["write_errors"]

    return {
        "records": records,
        "requests": non_probe,
        "outcomes": outcomes,
        "counters": reconstruct_counters(outcomes),
        "reported_counters": reported or None,
        "shed_reasons": shed_reasons,
        "errors": errors,
        "faults": faults_seen,
        "cache_kinds": cache_kinds,
        "cache_hit_rate": hits / routines_served if routines_served else None,
        "latency": {
            "total": percentiles(totals),
            "queue_wait": percentiles(queue_waits),
            "solve": percentiles(solves),
        },
        "families": families,
        "drain_summaries": summaries,
        "replicas": sorted(replicas),
        "distinct_traces": len(traces),
        "span_seconds": (
            ts_max - ts_min if ts_min is not None and ts_max is not None
            else None
        ),
        "write_errors": write_errors,
    }


# -- SLO rules ----------------------------------------------------------------
def slo_metric(rollup, metric):
    """Value of one SLO metric on a rollup; ``None`` = not measurable."""
    outcomes = rollup["outcomes"]
    non_probe = rollup["requests"]

    def rate(key):
        if not non_probe:
            return None
        return outcomes.get(key, 0) / non_probe

    if metric == "ok_rate":
        return rate("ok")
    if metric == "shed_rate":
        return rate("busy")
    if metric == "error_rate":
        return rate("error")
    if metric == "drained_rate":
        return rate("drained")
    if metric == "cache_hit_rate":
        return rollup["cache_hit_rate"]
    if metric == "requests":
        return float(non_probe)
    if metric == "write_errors":
        return float(rollup["write_errors"])
    if metric in ("p50_total", "p99_total"):
        lat = rollup["latency"]["total"]
        if lat is None:
            return None
        return lat["p50_seconds" if metric == "p50_total" else "p99_seconds"]
    if metric == "p99_queue_wait":
        lat = rollup["latency"]["queue_wait"]
        return None if lat is None else lat["p99_seconds"]
    raise SloRuleError(
        f"unknown SLO metric {metric!r} "
        f"(expected one of {', '.join(SLO_METRICS)})"
    )


def parse_rule(expr):
    """``"metric<=value"`` / ``"metric>=value"`` -> a rule dict."""
    match = _RULE_RE.match(expr)
    if not match:
        raise SloRuleError(
            f"malformed SLO rule {expr!r} (expected metric<=value or "
            "metric>=value)"
        )
    metric, op, raw = match.groups()
    if metric not in SLO_METRICS:
        raise SloRuleError(
            f"unknown SLO metric {metric!r} in {expr!r} "
            f"(expected one of {', '.join(SLO_METRICS)})"
        )
    try:
        value = float(raw)
    except ValueError:
        raise SloRuleError(f"bad threshold in {expr!r}") from None
    rule = {"metric": metric}
    rule["max" if op == "<=" else "min"] = value
    return rule


def load_rules(path):
    """Rules file: a JSON list of ``{"metric", "min"|"max"}`` objects."""
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, list):
        raise SloRuleError(f"{path}: rules file must be a JSON list")
    rules = []
    for item in raw:
        if not isinstance(item, dict) or "metric" not in item:
            raise SloRuleError(f"{path}: bad rule entry {item!r}")
        if item["metric"] not in SLO_METRICS:
            raise SloRuleError(
                f"{path}: unknown SLO metric {item['metric']!r}"
            )
        if "min" not in item and "max" not in item:
            raise SloRuleError(
                f"{path}: rule {item['metric']!r} needs 'min' and/or 'max'"
            )
        rules.append(item)
    return rules


def check_slos(rollup, rules):
    """Evaluate rules; ``[{metric, value, bound, ok, reason}, ...]``."""
    results = []
    for rule in rules:
        metric = rule["metric"]
        value = slo_metric(rollup, metric)
        for bound_kind in ("min", "max"):
            if bound_kind not in rule:
                continue
            bound = float(rule[bound_kind])
            if value is None:
                ok = False
                reason = "not measurable (no matching records)"
            elif bound_kind == "min":
                ok = value >= bound
                reason = None if ok else f"{value:.6g} < min {bound:.6g}"
            else:
                ok = value <= bound
                reason = None if ok else f"{value:.6g} > max {bound:.6g}"
            results.append(
                {
                    "metric": metric,
                    "bound": f"{bound_kind} {bound:g}",
                    "value": value,
                    "ok": ok,
                    "reason": reason,
                }
            )
    return results


# -- rendering ----------------------------------------------------------------
def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_report(rollup):
    lines = []
    counters = rollup["counters"]
    lines.append(
        f"{rollup['records']} journal record(s), "
        f"{rollup['requests']} request exit(s), "
        f"{rollup['distinct_traces']} distinct trace(s)"
    )
    if rollup["replicas"]:
        lines.append("replicas: " + ", ".join(rollup["replicas"]))
    lines.append(
        "outcomes: "
        + (
            ", ".join(
                f"{k}={v}" for k, v in sorted(rollup["outcomes"].items())
            )
            or "none"
        )
    )
    lines.append(
        "counters (reconstructed): "
        + ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
    )
    if rollup["reported_counters"]:
        mismatches = [
            name
            for name, value in rollup["reported_counters"].items()
            if name in counters and counters[name] != value
        ]
        lines.append(
            "counters (replica-reported): "
            + ", ".join(
                f"{k}={v}"
                for k, v in sorted(rollup["reported_counters"].items())
            )
            + (
                f"  [MISMATCH: {', '.join(mismatches)}]"
                if mismatches
                else "  [matches]"
            )
        )
    for name in ("total", "queue_wait", "solve"):
        lat = rollup["latency"][name]
        if lat:
            lines.append(
                f"{name:10s}: p50={lat['p50_seconds']:.4f}s "
                f"p99={lat['p99_seconds']:.4f}s max={lat['max_seconds']:.4f}s "
                f"(n={lat['count']})"
            )
    if rollup["cache_kinds"]:
        lines.append(
            "cache: "
            + ", ".join(
                f"{k}={v}" for k, v in sorted(rollup["cache_kinds"].items())
            )
            + f", hit_rate={_fmt(rollup['cache_hit_rate'])}"
        )
    if rollup["shed_reasons"]:
        lines.append(
            "shed reasons: "
            + ", ".join(
                f"{k}={v}" for k, v in sorted(rollup["shed_reasons"].items())
            )
        )
    if rollup["errors"]:
        top = sorted(
            rollup["errors"].items(), key=lambda kv: -kv[1]
        )[:5]
        lines.append(
            "errors: " + ", ".join(f"{k!r}={v}" for k, v in top)
        )
    if rollup["write_errors"]:
        lines.append(f"journal write errors: {rollup['write_errors']}")
    return "\n".join(lines)


def render_families(rollup):
    lines = [
        f"{'family':16s} {'reqs':>5s} {'exact':>6s} {'family':>6s} "
        f"{'miss':>5s} {'p99s':>8s}"
    ]
    for family, entry in sorted(
        rollup["families"].items(), key=lambda kv: -kv[1]["requests"]
    ):
        kinds = entry["cache_kinds"]
        lat = entry["latency"]
        lines.append(
            f"{family[:16]:16s} {entry['requests']:5d} "
            f"{kinds.get('exact', 0):6d} {kinds.get('family', 0):6d} "
            f"{kinds.get('miss', 0):5d} "
            f"{lat['p99_seconds'] if lat else float('nan'):8.4f}"
        )
    return "\n".join(lines)


# -- CLI ----------------------------------------------------------------------
def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tia-telemetry", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tail = sub.add_parser("tail", help="newest records as JSON lines")
    p_tail.add_argument("dir")
    p_tail.add_argument("-n", type=int, default=10, dest="count")
    p_tail.add_argument(
        "--kind", choices=journal_mod.RECORD_KINDS, default=None
    )

    p_report = sub.add_parser("report", help="fleet rollup from the journal")
    p_report.add_argument("dir")
    p_report.add_argument("--json", action="store_true")

    p_families = sub.add_parser("families", help="per-family rollup")
    p_families.add_argument("dir")
    p_families.add_argument("--json", action="store_true")

    p_slo = sub.add_parser("slo", help="declarative SLO check")
    p_slo.add_argument("dir")
    p_slo.add_argument(
        "--rule", action="append", default=[], metavar="EXPR",
        help="inline rule, e.g. ok_rate>=0.9 or p99_total<=2.0 (repeat)",
    )
    p_slo.add_argument(
        "--rules", metavar="FILE", default=None,
        help="JSON list of {metric, min|max} rule objects",
    )
    p_slo.add_argument(
        "--gate", action="store_true",
        help="exit 1 when any rule is violated (CI gate)",
    )
    p_slo.add_argument("--json", action="store_true")

    p_gc = sub.add_parser("gc", help="evict oldest shards to a byte budget")
    p_gc.add_argument("dir")
    p_gc.add_argument("--budget", type=int, required=True)

    p_verify = sub.add_parser(
        "verify", help="re-checksum shards; quarantine mid-file corruption"
    )
    p_verify.add_argument("dir")

    args = parser.parse_args(argv)

    if args.command == "tail":
        kinds = None if args.kind is None else (args.kind,)
        records = list(journal_mod.read_records(args.dir, kinds=kinds))
        for record in records[-max(0, args.count):]:
            print(json.dumps(record, sort_keys=True))
        return 0

    if args.command == "report":
        rollup = journal_rollup(args.dir)
        if args.json:
            print(json.dumps(rollup, indent=2, sort_keys=True))
        else:
            print(render_report(rollup))
        return 0

    if args.command == "families":
        rollup = journal_rollup(args.dir)
        if args.json:
            print(json.dumps(rollup["families"], indent=2, sort_keys=True))
        else:
            print(render_families(rollup))
        return 0

    if args.command == "slo":
        try:
            rules = [parse_rule(expr) for expr in args.rule]
            if args.rules:
                rules.extend(load_rules(args.rules))
        except SloRuleError as exc:
            print(f"tia-telemetry: {exc}", file=sys.stderr)
            return 2
        if not rules:
            print("tia-telemetry: no SLO rules given", file=sys.stderr)
            return 2
        rollup = journal_rollup(args.dir)
        results = check_slos(rollup, rules)
        violated = [r for r in results if not r["ok"]]
        if args.json:
            print(json.dumps(
                {"results": results, "violations": len(violated)},
                indent=2, sort_keys=True,
            ))
        else:
            for result in results:
                mark = "ok  " if result["ok"] else "FAIL"
                detail = (
                    "" if result["reason"] is None
                    else f"  ({result['reason']})"
                )
                print(
                    f"{mark} {result['metric']:16s} {result['bound']:12s} "
                    f"value={_fmt(result['value'])}{detail}"
                )
            print(
                f"{len(results) - len(violated)}/{len(results)} SLO(s) met"
            )
        if violated and args.gate:
            return 1
        return 0

    if args.command == "gc":
        journal = journal_mod.TelemetryJournal(
            args.dir, size_budget=args.budget
        )
        deleted = journal.gc(args.budget)
        print(
            f"evicted {len(deleted)} shard(s); "
            f"{journal.size_bytes()} bytes left"
        )
        return 0

    if args.command == "verify":
        journal = journal_mod.TelemetryJournal(args.dir)
        ok, bad, quarantined = journal.verify()
        print(
            f"{ok} record(s) ok, {bad} bad line(s), "
            f"{len(quarantined)} shard(s) quarantined"
        )
        return 0 if not quarantined else 1

    parser.error(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
