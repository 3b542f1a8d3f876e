"""Property tests for the decomposed pipeline on random routines.

* Whatever the partition plan, a stitched schedule must pass the
  whole-function path verifier and never lose to the heuristic input.
* When no legal partition plan exists the decomposed path must be a
  no-op: the emitted routine is identical (modulo instruction-uid
  labels) to a ``decompose=False`` run.
"""

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.ir.cfg import CfgInfo
from repro.ir.ddg import build_dependence_graph
from repro.ir.liveness import compute_liveness
from repro.sched.decompose import plan_partitions
from repro.sched.regions import build_region
from repro.sched.scheduler import ScheduleFeatures, optimize_function
from repro.workloads.generator import (
    MultiRegionSpec,
    RoutineSpec,
    generate_multi_region,
    generate_routine,
)

from tests.sched.test_decompose import _normalized_emit

FEATURES = ScheduleFeatures(
    time_limit=90, max_hops=4, decompose_min_instructions=24
)


@given(seed=st.integers(0, 10**6))
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_stitched_schedule_verifies(seed):
    spec = MultiRegionSpec(
        name="mrprop",
        segments=4,
        segment_instructions=10,
        segment_blocks=4,
        seed=seed,
    )
    fn = generate_multi_region(spec)
    result = optimize_function(fn, FEATURES)
    assert result.verification.ok, result.verification.problems[:3]
    assert result.weighted_length_out <= result.weighted_length_in + 1e-9
    assert result.bundles_out.total_bundles >= 1


@given(seed=st.integers(0, 10**5))
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_unpartitionable_routine_identical_to_decompose_off(seed):
    spec = RoutineSpec(
        name="single", seed=seed, instructions=18, blocks=5, loops=1
    )
    fn = generate_routine(spec)
    cfg = CfgInfo(fn)
    ddg = build_dependence_graph(fn, cfg, compute_liveness(fn))
    region = build_region(
        fn, cfg, ddg, max_hops=FEATURES.max_hops, freq_cap=5.0
    )
    features_on = ScheduleFeatures(
        time_limit=60, max_hops=4, decompose_min_instructions=1
    )
    assume(plan_partitions(region, features_on) is None)

    on = optimize_function(generate_routine(spec), features_on)
    off = optimize_function(
        generate_routine(spec),
        ScheduleFeatures(time_limit=60, max_hops=4, decompose=False),
    )
    assert not any("decomposed into" in m for m in on.messages)
    assert _normalized_emit(on) == _normalized_emit(off)
