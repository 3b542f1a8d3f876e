"""Ablation benches for design choices called out in DESIGN.md.

Not a paper artifact, but the knobs the paper discusses qualitatively:

* cycle-range reserve k (Sec. 6.1: "plus a constant reserve, usually
  k = 1") — how much head-room costs in model size and buys in quality;
* the code-motion distance bound (our search-space compaction);
* phase 2 (Sec. 5.5) — instruction-count cleanup cost;
* the solver alone — HiGHS on a small routine without phase 2.

Run:  pytest benchmarks/bench_ablations.py --benchmark-only -q
"""

import pytest

from repro.sched.scheduler import ScheduleFeatures, optimize_function
from repro.tools.experiments import default_time_limit
from repro.workloads.spec_routines import build_spec_routine

SCALE = 0.5  # ablations compare configurations, not absolute sizes


def _features(**kw):
    base = dict(time_limit=default_time_limit(), max_hops=4)
    base.update(kw)
    return ScheduleFeatures(**base)


@pytest.mark.parametrize("reserve", [0, 1, 2], ids=["k0", "k1", "k2"])
def test_cycle_reserve(benchmark, reserve):
    fn = build_spec_routine("xfree", scale=SCALE)
    result = benchmark.pedantic(
        lambda: optimize_function(fn, _features(reserve=reserve)),
        rounds=1,
        iterations=1,
    )
    assert result.verification.ok
    # More head-room can only help the objective.
    assert result.static_reduction >= -1e-9


@pytest.mark.parametrize("hops", [2, 4, None], ids=["hops2", "hops4", "hopsAll"])
def test_motion_distance(benchmark, hops):
    fn = build_spec_routine("prune_match", scale=SCALE)
    result = benchmark.pedantic(
        lambda: optimize_function(fn, _features(max_hops=hops)),
        rounds=1,
        iterations=1,
    )
    assert result.verification.ok


@pytest.mark.parametrize("two_phase", [False, True], ids=["phase1", "phase1+2"])
def test_phase2_cost(benchmark, two_phase):
    fn = build_spec_routine("get_heap_head", scale=SCALE)
    result = benchmark.pedantic(
        lambda: optimize_function(fn, _features(two_phase=two_phase)),
        rounds=1,
        iterations=1,
    )
    assert result.verification.ok


def test_length_linking_mode(benchmark):
    """Phase 1 alone under the OASIC-grade per-variable length linking."""
    fn = build_spec_routine("xfree", scale=SCALE)
    result = benchmark.pedantic(
        lambda: optimize_function(fn, _features(two_phase=False)),
        rounds=1,
        iterations=1,
    )
    assert result.verification.ok


@pytest.mark.parametrize("baseline", ["local", "greedy"])
def test_baseline_strength(benchmark, baseline):
    """How much of the gap a greedy global heuristic already closes."""
    fn = build_spec_routine("prune_match", scale=SCALE)
    result = benchmark.pedantic(
        lambda: optimize_function(fn, _features(baseline=baseline)),
        rounds=1,
        iterations=1,
    )
    assert result.verification.ok
    assert result.static_reduction >= -1e-9


def test_solver_backend(benchmark):
    fn = build_spec_routine("firstone", scale=0.4)
    result = benchmark.pedantic(
        lambda: optimize_function(
            fn, _features(time_limit=60, two_phase=False)
        ),
        rounds=1,
        iterations=1,
    )
    assert result.verification.ok
