"""The optimizer's result paths, pinned by outcome and span tree.

Each way a routine can leave :meth:`IlpScheduler.optimize` — a
whole-function solve, a stitched decomposition, a stitch fault that
falls back to the whole function, a verifier rejection that falls back
to the input schedule, and a software-pipelined routine — is pinned by
its quality tier, its fallback reason and the set of distinct
``(span name, parent name)`` pairs in its trace. A refactor of the
pipeline must leave all three unchanged.
"""

import pytest

from repro.ir.parser import parse_function
from repro.sched.scheduler import ScheduleFeatures, optimize_function
from repro.tools import faults
from repro.workloads.generator import MultiRegionSpec, generate_multi_region
from tests.conftest import DIAMOND_TEXT
from tests.sched.test_decompose import CHAIN_TEXT
from tests.sched.test_swp_integration import COUNTED

_MULTI_REGION = MultiRegionSpec(
    name="mrtest", segments=4, segment_instructions=12, segment_blocks=4,
    seed=5,
)

_COMMON = {
    ("analyze", "optimize"),
    ("input_schedule", "optimize"),
    ("optimize", None),
    ("verify", "optimize"),
}
_WHOLE = {
    ("ilp.build", "optimize"),
    ("solve.phase1", "optimize"),
    ("bundle", "optimize"),
    ("solve.phase2", "optimize"),
}
_PARTITIONS = {
    ("decompose", "optimize"),
    ("ilp.build", "decompose"),
    ("solve.phase1", "decompose"),
    ("bundle", "decompose"),
    ("solve.phase2", "decompose"),
}
_SWP = {
    ("swp.ladder", "optimize"),
    ("swp.solve_ii", "swp.ladder"),
    ("swp.materialize", "optimize"),
    ("swp.oracle", "optimize"),
}
_VERIFY_REJECTED = "verify:rejected (injected verification fault (error))"

# (routine, features, REPRO_FAULTS spec, quality, fallback reason, pairs)
PATHS = {
    "whole_optimal": (
        lambda: parse_function(DIAMOND_TEXT),
        ScheduleFeatures(time_limit=30),
        None, "optimal", None, _COMMON | _WHOLE,
    ),
    "decomposed": (
        lambda: generate_multi_region(_MULTI_REGION),
        ScheduleFeatures(
            time_limit=90, max_hops=4, decompose_min_instructions=24
        ),
        None, "optimal", None, _COMMON | _PARTITIONS,
    ),
    "stitch_fault": (
        lambda: parse_function(CHAIN_TEXT),
        ScheduleFeatures(
            time_limit=60, max_hops=4, decompose_min_instructions=1
        ),
        "decompose.stitch=error:1", "optimal", None,
        _COMMON | _PARTITIONS | _WHOLE,
    ),
    "verify_fault": (
        lambda: parse_function(CHAIN_TEXT),
        ScheduleFeatures(
            time_limit=60, max_hops=4, decompose_min_instructions=1
        ),
        "verify=error:1", "fallback_input", _VERIFY_REJECTED,
        _COMMON | _PARTITIONS,
    ),
    "swp": (
        lambda: parse_function(COUNTED),
        ScheduleFeatures(time_limit=60, swp=True),
        None, "optimal", None, _COMMON | _WHOLE | _SWP,
    ),
}


@pytest.mark.parametrize("path", sorted(PATHS))
def test_result_path_is_pinned(path):
    make_fn, features, spec, quality, reason, pairs = PATHS[path]
    with faults.inject(spec):
        result = optimize_function(make_fn(), features)
    assert result.quality == quality
    assert (
        None if result.fallback_reason is None else str(result.fallback_reason)
    ) == reason
    got = {(record["name"], record["parent"]) for record in result.trace.records}
    assert got == pairs
