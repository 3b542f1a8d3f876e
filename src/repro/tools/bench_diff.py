"""``tia-bench-diff``: noise-aware diff of two benchmark/metric snapshots.

Usage::

    tia-bench-diff BASE.json NEW.json [NEW2.json ...] [--gate] [--json]
                   [--rel R] [--section NAME=R] [--abs-seconds S]

Compares the committed baseline (``BENCH_solver.json``,
``BENCH_chaos.json`` or a ``--metrics`` JSON dump from :mod:`repro.obs`)
against one or more fresh snapshots of the same shape.  With several NEW
files the *median* value per series is compared (median-of-k: re-running
the suite k times and diffing the medians suppresses scheduler noise
without hiding a real regression).

The verdict is **noise-aware** instead of the old hardcoded "2x on one
wall-time number" CI gate:

* only the *intersection* of numeric leaves is compared — adding or
  removing a section never fails the gate;
* a leaf regresses only when it worsens by more than its section's
  **relative** threshold *and* by more than the metric's **absolute**
  floor (a 3x jump from 2 ms to 6 ms is timer jitter, not a regression;
  a 5% jump from 40 s to 42 s is within run-to-run variance);
* direction comes from the key's suffix — ``*_seconds``/``*seconds``/
  ``time``/``elapsed`` lower-is-better, ``*_per_sec``/``*speedup``
  higher-is-better, ``*ratio`` lower-is-better, ``failures``/``retried``
  lower-is-better; booleans gate on true→false (``objectives_match``
  must not decay); configuration echoes (``scale``, ``workers``, ...)
  and untyped counts are reported as informational, never gated.

Exit status with ``--gate``: 0 when no leaf regressed, 1 otherwise.
Default output is a markdown table; ``--json`` emits the machine form.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

# Keys that echo configuration, identity or environment rather than
# measure performance; never gated, never listed as changes.
CONFIG_KEYS = {
    "scale", "time_limit", "workers", "repeats", "models", "routines",
    "rows", "cols", "model", "routine", "seed_commit", "status",
    "faults", "fault_mix", "rounds", "invocations", "input_set",
}

# Per-section default relative thresholds. ``sweep`` keeps the old CI
# gate's 2x headroom (the nine-routine wall time is dominated by solver
# search-order luck); micro-sections with sub-second timings get even
# more because their absolute floors do the real work.
SECTION_REL = {
    "sweep": 1.0,
    "obs_overhead": 0.10,
    # Serving benchmarks (BENCH_serve.json): the gated signals are the
    # speedup/ratio/boolean leaves and the hit latencies (whose 0.25 s
    # abs floor only trips when the cache stops serving); the raw
    # cold-solve wall times are sub-second context numbers dominated by
    # search-order luck and host contention, so they get wide headroom.
    "cold_vs_hit": 3.0,
    # Exact hits over the wire: the gated leaf is the wire hit's cost
    # over the in-process hit's, measured side by side in one process,
    # so host speed cancels; doubling it means a hit went back to
    # parsing, keying or emitting. The *_exact booleans carry the rest.
    "wire_hit": 1.0,
    "family_warm": 3.0,
    "hit_rate_sweep": 3.0,
    # Concurrent overload run: latency percentiles under deliberate
    # saturation are scheduler-timing noise; the hard signals are the
    # no_request_raised boolean and the shed accounting invariants.
    "overload": 3.0,
    # Region decomposition vs whole-function ILP: the whole-function
    # baseline is pinned at the time limit on the full-scale routines,
    # so wall times are stable there; the decomposed side is small-MIP
    # search-order luck, hence sweep-sized headroom. The hard quality
    # signals are the booleans (bundles_no_worse, verified).
    "decompose": 1.0,
    # Journaling overhead on the overload burst: the headline is the
    # journal_overhead_ratio (plain/journaled throughput, ~1.0 when
    # journaling is free) — held tight like obs_overhead so a >5%-ish
    # regression past the ratio's 0.03 absolute floor gates.  The raw
    # throughput leaves are named *_rps precisely so they stay info
    # context (overload-style noise); the ratio carries the gate.
    "journal_overhead": 0.05,
    # Software pipelining: per-loop ILP solves are sub-second and
    # search-order dependent, so wall-clock leaves get wide headroom.
    # The hard gates are the mii_achieved_80pct / oracle_all_passed /
    # chaos_degraded booleans and the mean_overlap_speedup leaf.
    "swp": 3.0,
}
DEFAULT_REL = 0.5

# Absolute worsening floors by metric kind: below these the relative
# test is meaningless noise.
ABS_FLOORS = {
    "seconds": 0.25,    # wall-clock seconds
    "per_sec": 50.0,    # throughput
    "speedup": 0.20,    # dimensionless speedup factors
    "ratio": 0.03,      # overhead ratios near 1.0
    "count": 0.5,       # integral counts (failures, retried)
}


def classify(path):
    """``(direction, kind)`` for one dotted leaf path.

    direction: ``"lower"`` / ``"higher"`` is better, ``"bool"`` gates on
    true→false, ``"info"`` is never gated.
    """
    leaf = path.split(".")[-1]
    if leaf in CONFIG_KEYS:
        return "skip", None
    if leaf.endswith("_per_sec"):
        return "higher", "per_sec"
    if leaf.endswith("speedup"):
        return "higher", "speedup"
    if leaf.endswith("ratio"):
        return "lower", "ratio"
    if "seconds" in leaf or leaf in ("time", "elapsed"):
        return "lower", "seconds"
    if leaf in ("failures", "retried"):
        return "lower", "count"
    return "info", None


def section_of(path):
    """The benchmark section a path belongs to (for its rel threshold)."""
    for part in path.split("."):
        if part in SECTION_REL:
            return part
    return None


def flatten(doc, prefix=""):
    """Numeric/bool leaves of a nested snapshot as ``{path: value}``.

    Lists of scalars collapse to their length (``failures`` and friends);
    lists of objects (per-round detail) are skipped — they are records,
    not series.
    """
    out = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten(value, path))
    elif isinstance(doc, list):
        if prefix and not any(isinstance(item, (dict, list)) for item in doc):
            out[prefix] = float(len(doc))
    elif isinstance(doc, bool):
        out[prefix] = doc
    elif isinstance(doc, (int, float)):
        out[prefix] = float(doc)
    return out


def median_snapshot(snapshots):
    """Per-path median across k flattened snapshots (median-of-k)."""
    if len(snapshots) == 1:
        return snapshots[0]
    merged = {}
    for path in set().union(*snapshots):
        values = [snap[path] for snap in snapshots if path in snap]
        if any(isinstance(v, bool) for v in values):
            # A bool series is healthy only if every run agrees on true.
            merged[path] = all(values)
        else:
            merged[path] = statistics.median(values)
    return merged


def diff_snapshots(base, new, rel_overrides=None, default_rel=None,
                   abs_floors=None):
    """Compare flattened snapshots; returns the machine-form verdict."""
    rel_overrides = rel_overrides or {}
    abs_floors = dict(ABS_FLOORS, **(abs_floors or {}))
    findings = []
    shared = sorted(set(base) & set(new))
    for path in shared:
        direction, kind = classify(path)
        if direction == "skip":
            continue
        b, n = base[path], new[path]
        if isinstance(b, bool) or isinstance(n, bool):
            if bool(b) and not bool(n):
                findings.append({
                    "path": path, "base": b, "new": n,
                    "verdict": "regression",
                    "why": "boolean invariant decayed (true -> false)",
                })
            elif bool(n) and not bool(b):
                findings.append({
                    "path": path, "base": b, "new": n,
                    "verdict": "improvement", "why": "false -> true",
                })
            continue
        delta = n - b
        if direction == "info":
            if b != n:
                findings.append({
                    "path": path, "base": b, "new": n, "delta": delta,
                    "verdict": "info", "why": "untyped metric changed",
                })
            continue
        worsening = delta if direction == "lower" else -delta
        if worsening <= 0:
            if worsening < 0:
                findings.append({
                    "path": path, "base": b, "new": n, "delta": delta,
                    "verdict": "improvement",
                    "why": f"{direction}-is-better moved the right way",
                })
            continue
        section = section_of(path)
        rel_limit = rel_overrides.get(
            section,
            SECTION_REL.get(section, default_rel or DEFAULT_REL)
            if default_rel is None
            else default_rel,
        )
        abs_floor = abs_floors.get(kind, 0.0)
        rel = worsening / abs(b) if b else float("inf")
        verdict = {
            "path": path, "base": b, "new": n, "delta": delta,
            "relative": rel, "rel_limit": rel_limit,
            "abs_floor": abs_floor, "section": section,
        }
        if rel > rel_limit and worsening > abs_floor:
            verdict["verdict"] = "regression"
            verdict["why"] = (
                f"worsened {rel:.0%} (> {rel_limit:.0%}) and "
                f"{worsening:.4g} (> floor {abs_floor:g})"
            )
            findings.append(verdict)
        elif rel > rel_limit or worsening > abs_floor:
            verdict["verdict"] = "noise"
            verdict["why"] = (
                "within noise: only one of the relative/absolute "
                "thresholds exceeded"
            )
            findings.append(verdict)
    regressions = [f for f in findings if f["verdict"] == "regression"]
    return {
        "compared": len(shared),
        "base_only": sorted(set(base) - set(new)),
        "new_only": sorted(set(new) - set(base)),
        "findings": findings,
        "regressions": len(regressions),
        "verdict": "fail" if regressions else "pass",
    }


def render_markdown(report, base_label, new_label):
    lines = [
        f"## bench diff: `{base_label}` vs `{new_label}`",
        "",
        f"- series compared: **{report['compared']}**",
        f"- regressions: **{report['regressions']}**",
        f"- verdict: **{report['verdict'].upper()}**",
        "",
    ]
    if report["findings"]:
        lines += [
            "| series | base | new | verdict | why |",
            "|---|---:|---:|---|---|",
        ]
        order = {"regression": 0, "noise": 1, "improvement": 2, "info": 3}
        for f in sorted(report["findings"],
                        key=lambda f: (order[f["verdict"]], f["path"])):
            lines.append(
                f"| `{f['path']}` | {_cell(f['base'])} | {_cell(f['new'])} "
                f"| {f['verdict']} | {f['why']} |"
            )
    else:
        lines.append("no measurable differences.")
    dropped = report["base_only"]
    added = report["new_only"]
    if dropped:
        lines += ["", f"- series only in base (ignored): {len(dropped)}"]
    if added:
        lines += [f"- series only in new (ignored): {len(added)}"]
    return "\n".join(lines)


def _cell(value):
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def load_flat(path):
    with open(path) as handle:
        return flatten(json.load(handle))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tia-bench-diff", description=__doc__.splitlines()[0]
    )
    parser.add_argument("base", help="committed baseline snapshot (JSON)")
    parser.add_argument(
        "new", nargs="+",
        help="fresh snapshot(s); several are reduced to the median",
    )
    parser.add_argument(
        "--gate", action="store_true",
        help="exit 1 when any series regressed",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the machine-form verdict"
    )
    parser.add_argument(
        "--rel", type=float, default=None,
        help="override the relative threshold for every section",
    )
    parser.add_argument(
        "--section", action="append", default=[], metavar="NAME=R",
        help="per-section relative threshold override (repeatable)",
    )
    parser.add_argument(
        "--abs-seconds", type=float, default=None,
        help="absolute worsening floor for wall-clock series (seconds)",
    )
    args = parser.parse_args(argv)

    overrides = {}
    for spec in args.section:
        name, _, value = spec.partition("=")
        try:
            overrides[name] = float(value)
        except ValueError:
            parser.error(f"bad --section spec {spec!r} (want NAME=R)")
    floors = {}
    if args.abs_seconds is not None:
        floors["seconds"] = args.abs_seconds

    base = load_flat(args.base)
    new = median_snapshot([load_flat(path) for path in args.new])
    report = diff_snapshots(
        base, new, rel_overrides=overrides, default_rel=args.rel,
        abs_floors=floors,
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        new_label = (
            args.new[0] if len(args.new) == 1
            else f"median of {len(args.new)} runs"
        )
        print(render_markdown(report, args.base, new_label))
    if args.gate and report["verdict"] == "fail":
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
