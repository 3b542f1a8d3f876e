"""Region decomposition: cut legality, stitching, fallbacks.

The decomposed pipeline (:mod:`repro.sched.decompose`) must (a) only
cut where the restriction argument holds — never inside a loop, never
across a profitable-motion frequency gradient; (b) produce stitched
schedules the whole-function verifier accepts; (c) abandon itself and
fall back to the whole-function ILP on any failure, including an
injected ``decompose.stitch`` fault; and (d) leave routines that do not
decompose (below threshold, no legal cut) byte-identical to a
``decompose=False`` run.
"""

import pytest

from repro.ir.cfg import CfgInfo
from repro.ir.ddg import build_dependence_graph
from repro.ir.liveness import compute_liveness
from repro.ir.parser import parse_function
from repro.sched.decompose import find_cut_blocks, plan_partitions
from repro.sched.regions import build_region
from repro.sched.scheduler import ScheduleFeatures, optimize_function
from repro.tools import faults
from repro.tools.optimize import _emit_function
from repro.tools.parallel import partition_workers
from repro.workloads.generator import MultiRegionSpec, generate_multi_region

FEATURES = ScheduleFeatures(time_limit=60, max_hops=4)


def _region(fn, features=FEATURES):
    cfg = CfgInfo(fn)
    ddg = build_dependence_graph(fn, cfg, compute_liveness(fn))
    return build_region(
        fn,
        cfg,
        ddg,
        max_hops=features.max_hops,
        freq_cap=5.0,
        allow_predication=True,
    )


# Equal-frequency chain: every boundary is frequency-neutral, so every
# non-entry block is a legal cut.
CHAIN_TEXT = """
.proc chain
.livein r32, r33
.liveout r8
.block A freq=100
  add r10 = r32, r33
  add r11 = r10, r32
.block B freq=100
  add r12 = r11, r33
  shl r13 = r12, 2
.block C freq=100
  add r8 = r13, r10
  br.ret b0
.endp
"""

# Descending-frequency chain: control-equivalent blocks, so Θ of the
# movable instructions in A spans the colder B — the boundary loses
# profitable (downward) motion and must be vetoed.
COLD_CHAIN_TEXT = """
.proc coldchain
.livein r32, r33
.liveout r8
.block A freq=100
  add r10 = r32, r33
  add r11 = r10, r32
.block B freq=10
  add r8 = r11, r33
  br.ret b0
.endp
"""

# A two-block loop: the back edge spans the L1/L2 boundary, so no cut
# may fall between the loop's blocks.
LOOP_TEXT = """
.proc twoloop
.livein r32, r33
.liveout r8
.block PRE freq=10
  add r15 = r32, 0
.block L1 freq=1000 succ=L2:1.0
  ld8 r21 = [r15] cls=heap
  add r22 = r21, r33
.block L2 freq=1000 succ=L1:0.9,POST:0.1
  adds r15 = 8, r15
  cmp.ne p6, p7 = r22, r0
  (p6) br.cond L1
.block POST freq=10
  add r8 = r22, 0
  br.ret b0
.endp
"""


def test_equal_frequency_chain_cuts_everywhere():
    region = _region(parse_function(CHAIN_TEXT))
    assert find_cut_blocks(region, FEATURES) == ["B", "C"]


def test_frequency_gradient_vetoes_cut():
    region = _region(parse_function(COLD_CHAIN_TEXT))
    assert find_cut_blocks(region, FEATURES) == []
    assert plan_partitions(region, FEATURES) is None


def test_no_cut_inside_loop():
    region = _region(parse_function(LOOP_TEXT))
    assert "L2" not in find_cut_blocks(region, FEATURES)


def test_plan_respects_size_floor():
    region = _region(parse_function(CHAIN_TEXT))
    # floor = 8 // 4 = 2 instructions: both boundaries are takeable and
    # the 2-instruction tail merges backwards only when undersized.
    features = ScheduleFeatures(
        time_limit=60, max_hops=4, decompose_min_instructions=8
    )
    plan = plan_partitions(region, features)
    assert plan == [["A"], ["B"], ["C"]] or plan == [["A"], ["B", "C"]]
    # A floor above the whole routine forces a single partition -> None.
    features = ScheduleFeatures(
        time_limit=60, max_hops=4, decompose_min_instructions=400
    )
    assert plan_partitions(region, features) is None


# -- multi-region workload ----------------------------------------------------
_SMALL = MultiRegionSpec(
    name="mrtest", segments=4, segment_instructions=12, segment_blocks=4,
    seed=5,
)


def _small_features(**overrides):
    kwargs = dict(
        time_limit=90, max_hops=4, decompose_min_instructions=24
    )
    kwargs.update(overrides)
    return ScheduleFeatures(**kwargs)


def test_multi_region_routine_has_three_cut_points():
    fn = generate_multi_region(_SMALL)
    region = _region(fn)
    cuts = find_cut_blocks(region, FEATURES)
    # The satellite contract: >= 3 articulation points (one per
    # segment join, segments=4 gives three corridors).
    assert len(cuts) >= 3
    joins = {name for name in cuts if "J" in name}
    assert len(joins) >= 3


def test_decomposed_end_to_end_verifies():
    fn = generate_multi_region(_SMALL)
    result = optimize_function(fn, _small_features())
    assert any("decomposed into" in m for m in result.messages), (
        result.messages
    )
    assert result.verification.ok, result.verification.problems[:3]
    assert result.weighted_length_out <= result.weighted_length_in + 1e-9
    assert result.bundles_out.total_bundles >= 1


def test_stitch_fault_falls_back_to_whole_function():
    fn = generate_multi_region(_SMALL)
    with faults.inject("decompose.stitch=error:1"):
        result = optimize_function(fn, _small_features())
    assert any("decomposition abandoned" in m for m in result.messages), (
        result.messages
    )
    assert not any("decomposed into" in m for m in result.messages)
    assert result.verification.ok, result.verification.problems[:3]


def _normalized_emit(result):
    """Emitted text with instruction-uid-derived labels canonicalized.

    Recovery-stub labels embed the speculative load's global uid, which
    differs between two parses of the same text; everything else in the
    emission is uid-free.
    """
    import re

    return re.sub(r"recover_\d+", "recover_N", _emit_function(result))


def test_no_cut_routine_identical_to_decompose_off():
    fn_text = COLD_CHAIN_TEXT
    features_on = ScheduleFeatures(
        time_limit=60, max_hops=4, decompose_min_instructions=1
    )
    features_off = ScheduleFeatures(
        time_limit=60, max_hops=4, decompose=False
    )
    on = optimize_function(parse_function(fn_text), features_on)
    off = optimize_function(parse_function(fn_text), features_off)
    assert _normalized_emit(on) == _normalized_emit(off)
    assert on.quality == off.quality


def test_below_threshold_identical_to_decompose_off(diamond_fn):
    import copy

    features_off = ScheduleFeatures(time_limit=60, decompose=False)
    on = optimize_function(copy.deepcopy(diamond_fn), ScheduleFeatures(
        time_limit=60
    ))
    off = optimize_function(diamond_fn, features_off)
    assert _normalized_emit(on) == _normalized_emit(off)


# -- fan-out sizing -----------------------------------------------------------
def test_partition_workers_single():
    assert partition_workers(0) == 1
    assert partition_workers(1) == 1


def test_partition_workers_override(monkeypatch):
    monkeypatch.setenv("REPRO_PARTITION_WORKERS", "2")
    assert partition_workers(8) == 2
    monkeypatch.setenv("REPRO_PARTITION_WORKERS", "64")
    assert partition_workers(4) == 4  # clamped to the partition count
    monkeypatch.setenv("REPRO_PARTITION_WORKERS", "bogus")
    assert partition_workers(4) >= 1  # malformed override is ignored


def test_partition_workers_collapse_inside_pool(monkeypatch):
    monkeypatch.delenv("REPRO_PARTITION_WORKERS", raising=False)
    monkeypatch.setenv("REPRO_IN_POOL_WORKER", "1")
    assert partition_workers(8) == 1
