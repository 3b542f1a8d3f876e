"""Solve telemetry, cut attribution and paper-metric analytics."""

import pickle

import pytest

from repro.ilp import HighsSolver, Model
from repro.ir.parser import parse_function
from repro.obs import insight
from repro.sched.scheduler import ScheduleFeatures, optimize_function

SMALL = """
.proc tiny
.livein r32, r33
.liveout r8
.block A freq=10
  add r8 = r32, r33
  br.ret b0
.endp
"""

# Sec. 4.2 trigger (two F-unit ops + movl): fires one bundling cut.
CUT_TRIGGER = """
.proc fbound
.livein r32, f5, f6, f8, f9
.liveout r8, f4, f7
.block A freq=100
  fma f4 = f5, f6
  fma f7 = f8, f9
  movl r10 = 99999
  add r8 = r10, r32
  br.ret b0
.endp
"""


def _solve():
    model = Model("m")
    a, b = model.add_binary("a"), model.add_binary("b")
    model.add_constraint(a + b <= 1)
    model.set_objective(-(2 * a + b))
    return HighsSolver().solve(model)


def test_solve_telemetry_is_plain_picklable_data():
    solution = _solve()
    entry = insight.solve_telemetry("solve.phase1", solution)
    assert entry["site"] == "solve.phase1"
    assert entry["backend"] == "highs"
    assert entry["status"] == "OPTIMAL"
    assert entry["gap"] == pytest.approx(0.0)
    assert entry["gap_timeline"]["closed"]
    assert pickle.loads(pickle.dumps(entry)) == entry


def test_cut_effect_attribution_fields():
    solution = _solve()
    effect = insight.cut_effect(0, 3, -1.0, solution, "solve.cut_resolve")
    assert effect["cut_index"] == 0
    assert effect["members"] == 3
    # new objective - previous objective
    assert effect["bound_delta"] == pytest.approx(solution.objective + 1.0)
    assert effect["resolve_status"] == "OPTIMAL"
    assert effect["resolve_seconds"] >= 0


def test_scheduler_trace_carries_solves_cuts_and_paper_metrics():
    fn = parse_function(CUT_TRIGGER)
    result = optimize_function(fn, ScheduleFeatures(time_limit=30))
    trace = result.trace
    sites = [s["site"] for s in trace.solves]
    assert "solve.phase1" in sites and "solve.cut_resolve" in sites
    for entry in trace.solves:
        assert entry["gap_timeline"]["closed"]
        assert len(entry["gap_timeline"]["samples"]) >= 2
    assert len(trace.cuts) == 1
    cut = trace.cuts[0]
    assert cut["resolve_status"] == "OPTIMAL"
    assert cut["resolve_seconds"] > 0
    assert cut["resolve_nodes"] >= 1
    paper = trace.paper_metrics
    assert paper["routine"] == "fbound"
    assert paper["quality"] == result.quality
    assert paper["instructions_out"] >= 1
    # Gap surfaces through ilp_size and the report text.
    assert result.ilp_size["gap"] == pytest.approx(0.0)
    assert "final optimality gap" in result.report()


def test_paper_metrics_row_shape():
    fn = parse_function(SMALL)
    result = optimize_function(fn, ScheduleFeatures(time_limit=30))
    row = insight.paper_metrics(result)
    for key in (
        "static_reduction", "weighted_ipc_in", "weighted_ipc_out",
        "delta_instructions", "delta_bundles", "nop_density_in",
        "nop_density_out", "compensation_copies", "spec_possible",
        "spec_used",
    ):
        assert key in row, key
    assert 0.0 <= row["nop_density_out"] <= 1.0


def test_aggregate_paper_metrics_averages_and_sums():
    rows = [
        {"routine": "a", "quality": "optimal", "static_reduction": 0.2,
         "instructions_in": 10, "instructions_out": 12},
        {"routine": "b", "quality": "incumbent", "static_reduction": 0.4,
         "instructions_in": 20, "instructions_out": 18},
        None,  # degraded pool outcome: skipped
    ]
    summary = insight.aggregate_paper_metrics(rows)
    assert summary["routines"] == 2
    assert summary["by_quality"] == {"optimal": 1, "incumbent": 1}
    assert summary["average"]["static_reduction"] == pytest.approx(0.3)
    assert summary["total"]["instructions_in"] == 30
    assert insight.aggregate_paper_metrics([])["routines"] == 0


def test_serve_summary_from_metrics_dump():
    metrics = {
        "counters": {
            'cache_hits_total{kind="exact"}': 6.0,
            'cache_hits_total{kind="family"}': 2.0,
            'cache_hits_total{kind="miss"}': 2.0,
            "coalesced_requests_total": 3.0,
            'cache_store_errors_total{op="get"}': 1.0,
            'cache_store_errors_total{op="put"}': 1.0,
            "cache_corrupt_entries_total": 1.0,
            "cache_evictions_total": 4.0,
        },
        "gauges": {"cache_size_bytes": 12345.0},
    }
    digest = insight.serve_summary(metrics)
    assert digest["requests"] == 10.0
    assert digest["hits"] == {"exact": 6.0, "family": 2.0, "miss": 2.0}
    assert digest["hit_rate"] == pytest.approx(0.8)
    assert digest["coalesced"] == 3.0
    assert digest["solves"] == 2.0
    assert digest["store_errors"] == 2.0  # both ops summed
    assert digest["corrupt_entries"] == 1.0
    assert digest["evictions"] == 4.0
    assert digest["size_bytes"] == 12345.0


def test_serve_summary_empty_and_none():
    for metrics in (None, {}, {"counters": {}, "gauges": {}}):
        digest = insight.serve_summary(metrics)
        assert digest["requests"] == 0
        assert digest["hit_rate"] == 0.0


def test_decompose_summary_from_metrics_dump():
    metrics = {
        "counters": {
            "decompose_partitions_total": 8.0,
            "partition_cache_hits_total": 6.0,
            "partition_cache_misses_total": 2.0,
        },
        "histograms": {
            "partition_solve_seconds": {
                "buckets": {"+Inf": 8},
                "sum": 4.0,
                "count": 8,
            }
        },
    }
    digest = insight.decompose_summary(metrics)
    assert digest["partitions"] == 8.0
    assert digest["cache_hits"] == 6.0
    assert digest["cache_misses"] == 2.0
    assert digest["hit_rate"] == pytest.approx(0.75)
    assert digest["solves"] == 8.0
    assert digest["solve_seconds"] == pytest.approx(4.0)
    assert digest["mean_solve_seconds"] == pytest.approx(0.5)


def test_decompose_summary_empty_and_live(tmp_path):
    for metrics in (None, {}, {"counters": {}, "histograms": {}}):
        digest = insight.decompose_summary(metrics)
        assert digest["partitions"] == 0
        assert digest["hit_rate"] == 0.0
        assert digest["mean_solve_seconds"] == 0.0

    from repro.obs import core as obs
    from repro.obs import export
    from repro.sched.scheduler import ScheduleFeatures as SF
    from repro.sched.scheduler import optimize_function
    from repro.workloads.generator import MultiRegionSpec, generate_multi_region

    fn = generate_multi_region(
        MultiRegionSpec(
            name="mrobs", segments=4, segment_instructions=10,
            segment_blocks=4, seed=5,
        )
    )
    obs.disable()
    obs.enable()
    try:
        result = optimize_function(
            fn,
            SF(time_limit=90, max_hops=4, decompose_min_instructions=24),
        )
        digest = insight.decompose_summary(export.metrics_dict())
    finally:
        obs.disable()
    assert any("decomposed into" in m for m in result.messages)
    assert digest["partitions"] >= 2
    assert digest["solves"] == digest["partitions"]
    assert digest["solve_seconds"] > 0.0


def test_serve_summary_from_live_serve_run(tmp_path):
    from repro.obs import core as obs
    from repro.obs import export
    from repro.sched.scheduler import ScheduleFeatures as SF
    from repro.serve.service import ScheduleService

    fn = parse_function(SMALL)
    obs.disable()
    obs.enable()
    try:
        svc = ScheduleService(tmp_path / "cache", default_features=SF(time_limit=20))
        svc.request(fn)
        svc.request(fn)
        digest = insight.serve_summary(export.metrics_dict())
    finally:
        obs.disable()
    assert digest["requests"] == 2
    assert digest["hits"]["exact"] == 1
    assert digest["hits"]["miss"] == 1


def test_swp_summary_from_metrics_dump():
    metrics = {
        "counters": {
            'swp_loops_total{status="pipelined"}': 4.0,
            'swp_loops_total{status="fallback_swp"}': 1.0,
            'swp_loops_total{status="unpipelined"}': 1.0,
            "swp_ii_at_mii_total": 4.0,
            'swp_oracle_total{result="pass"}': 5.0,
            'swp_fallbacks_total{reason="not_counted"}': 1.0,
            "swp_cache_hits_total": 2.0,
            "swp_cache_misses_total": 2.0,
        },
        "histograms": {
            "swp_ii_over_mii": {
                "sum": 5.5, "count": 5, "buckets": {"+Inf": 5},
            },
        },
    }
    digest = insight.swp_summary(metrics)
    assert digest["loops"] == 6.0
    assert digest["by_status"]["pipelined"] == 4.0
    assert digest["pipelined"] == 5.0
    assert digest["pipelined_rate"] == pytest.approx(5 / 6)
    assert digest["ii_at_mii"] == 4.0
    assert digest["ii_at_mii_rate"] == pytest.approx(0.8)
    assert digest["mean_ii_over_mii"] == pytest.approx(1.1)
    assert digest["oracle"]["pass"] == 5.0
    assert digest["fallbacks"]["not_counted"] == 1.0
    assert digest["cache_hits"] == 2.0
    assert digest["cache_hit_rate"] == pytest.approx(0.5)


def test_swp_summary_empty_and_live():
    for metrics in (None, {}, {"counters": {}, "histograms": {}}):
        digest = insight.swp_summary(metrics)
        assert digest["loops"] == 0
        assert digest["pipelined_rate"] == 0.0
        assert digest["ii_at_mii_rate"] == 0.0
        assert digest["oracle"] == {}

    from repro.obs import core as obs
    from repro.obs import export

    counted = """
.proc swpobs
.livein r32, r33
.liveout r8
.block PRE freq=10
  add r15 = r32, 0
  mov r9 = 0
.block LOOP freq=130 succ=LOOP:0.92,POST:0.08
  ld8 r21 = [r15+0] cls=heap
  xor r23 = r21, r33
  st8 [r33+8] = r23 cls=glob
  adds r15 = 8, r15
  adds r9 = 1, r9
  cmp.lt p16, p17 = r9, 6
  (p16) br.cond LOOP
.block POST freq=10
  add r8 = r23, 0
  br.ret b0
.endp
"""
    fn = parse_function(counted)
    obs.disable()
    obs.enable()
    try:
        result = optimize_function(
            fn, ScheduleFeatures(time_limit=60, swp=True)
        )
        digest = insight.swp_summary(export.metrics_dict())
    finally:
        obs.disable()
    assert result.swp_outcomes, result.messages
    assert digest["loops"] >= 1
    assert digest["pipelined"] >= 1
    assert digest["oracle"].get("pass", 0) >= 1
