"""ILP-based modulo scheduling (software pipelining)."""

import pytest

from repro.errors import SchedulingError
from repro.ir.cfg import CfgInfo
from repro.ir.ddg import build_dependence_graph
from repro.ir.liveness import compute_liveness
from repro.ir.parser import parse_function
from repro.sched.modulo import modulo_schedule, recurrence_mii
from repro.sched.swp import build_modulo_edges, loop_body
from repro.workloads.samples import fig5_cyclic_sample


def _pipeline(text_or_fn):
    fn = (
        parse_function(text_or_fn)
        if isinstance(text_or_fn, str)
        else text_or_fn
    )
    cfg = CfgInfo(fn)
    ddg = build_dependence_graph(fn, cfg, compute_liveness(fn))
    return fn, cfg, ddg


def _schedule(fn, ddg, loop):
    body = loop_body(fn, loop)
    return modulo_schedule(loop, body, build_modulo_edges(fn, loop, body, ddg))


@pytest.fixture(scope="module")
def fig5_schedule():
    fn, cfg, ddg = _pipeline(fig5_cyclic_sample())
    loop = cfg.loops[0]
    return _schedule(fn, ddg, loop), fn, ddg, loop


def test_ii_equals_recurrence_bound(fig5_schedule):
    sched, _fn, _ddg, _loop = fig5_schedule
    # fig5's recurrence: add(1) -> ld(2) -> add(1) with distance 1 -> II 4.
    assert sched.mii_recurrence == 4
    assert sched.ii == 4
    assert sched.ii >= sched.mii_resource


def test_all_body_instructions_scheduled(fig5_schedule):
    sched, fn, _ddg, loop = fig5_schedule
    body = [
        i
        for i in fn.block(loop.header).instructions
        if not i.is_branch and not i.is_nop
    ]
    assert set(sched.start_times) == set(body)


def test_dependences_respected_modulo(fig5_schedule):
    sched, fn, ddg, loop = fig5_schedule
    body = list(sched.start_times)
    edges = build_modulo_edges(fn, loop, body, ddg)
    for edge in edges:
        if edge.src not in sched.start_times or edge.dst not in sched.start_times:
            continue
        gap = sched.start_times[edge.dst] - sched.start_times[edge.src]
        assert gap >= edge.latency - edge.distance * sched.ii


def test_kernel_rows_dispersal_feasible(fig5_schedule):
    from repro.machine.itanium2 import ITANIUM2

    sched, _fn, _ddg, _loop = fig5_schedule
    for row in sched.kernel():
        units = [i.unit for i, _stage in row]
        assert ITANIUM2.group_feasible(units)


def test_prologue_epilogue_shapes(fig5_schedule):
    sched, _fn, _ddg, _loop = fig5_schedule
    assert sched.stages == 2


def test_swp_beats_acyclic_loop_length(fig5_schedule):
    """Software pipelining reaches below what cyclic motion can (Sec. 8)."""
    from repro.sched.scheduler import ScheduleFeatures, optimize_function

    sched, _fn, _ddg, _loop = fig5_schedule
    fn = parse_function(fig5_cyclic_sample())
    acyclic = optimize_function(fn, ScheduleFeatures(time_limit=45))
    assert sched.ii < acyclic.output_schedule.block_length("LOOP")


def test_resource_bound_loop():
    # 9 independent loads: ResMII = ceil(9/4) = 3 with no recurrence.
    lines = [".proc resloop", ".livein r32", ".liveout r8",
             ".block PRE freq=1", "  add r15 = r32, 0",
             ".block LOOP freq=100 succ=LOOP:0.9,POST:0.1"]
    for i in range(9):
        lines.append(f"  ld8 r{40 + i} = [r32+{8 * i}] cls=heap")
    lines += ["  cmp.ne p6, p7 = r40, r0", "  (p6) br.cond LOOP",
              ".block POST freq=1", "  add r8 = r41, 0", "  br.ret b0",
              ".endp"]
    fn, cfg, ddg = _pipeline("\n".join(lines))
    loop = cfg.loops[0]
    sched = _schedule(fn, ddg, loop)
    assert sched.mii_resource == 3
    assert sched.ii == 3


def test_multi_block_loop_rejected(loop_fn):
    text = """
.proc twoblk
.block H freq=100
  cmp.eq p6, p7 = r32, r0
  (p6) br.cond E
.block B freq=90
  add r5 = r6, r7
  br H
.block E freq=10
  br.ret b0
.endp
"""
    fn, cfg, ddg = _pipeline(text)
    loop = cfg.loops[0]
    with pytest.raises(SchedulingError):
        loop_body(fn, loop)


def test_recurrence_mii_self_edge():
    text = """
.proc selfrec
.livein r32
.liveout r8
.block PRE freq=1
  add r15 = r32, 0
.block LOOP freq=100 succ=LOOP:0.9,POST:0.1
  ld8 r20 = [r15] cls=heap
  add r15 = r20, r32
  cmp.ne p6, p7 = r20, r0
  (p6) br.cond LOOP
.block POST freq=1
  add r8 = r15, 0
  br.ret b0
.endp
"""
    fn, cfg, ddg = _pipeline(text)
    loop = cfg.loops[0]
    body = [
        i
        for i in fn.block(loop.header).instructions
        if not i.is_branch and not i.is_nop
    ]
    edges = build_modulo_edges(fn, loop, body, ddg)
    # ld(2) -> add(1) -> ld distance 1: RecMII = 3.
    assert recurrence_mii(body, edges) == 3
