"""The modulo-scheduling subsystem: bounds, formulation, ladder, oracle.

Covers the three layers of :mod:`repro.sched.modulo` separately —
closed-form lower bounds, the (row, stage) ILP, and the II ladder with
its §8 degradation contract — plus the hypothesis property that a
materialized pipeline is execution-equivalent to its source loop for
arbitrary trip counts.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ilp import solve_model
from repro.ir.cfg import CfgInfo
from repro.ir.ddg import build_dependence_graph
from repro.ir.interp import Interpreter, initial_registers
from repro.ir.liveness import compute_liveness
from repro.ir.parser import parse_function
from repro.machine.itanium2 import ITANIUM2
from repro.sched.modulo.bounds import (
    critical_path,
    has_positive_cycle,
    recurrence_mii,
    resource_mii,
)
from repro.sched.modulo.formulation import ModuloIlp
from repro.sched.modulo.ladder import LoopPipelineOutcome, pipeline_loop
from repro.sched.swp import build_modulo_edges, loop_body
from repro.tools import faults
from repro.tools.deadline import Deadline
from repro.workloads.generator import loop_dominated_family
from tests.sched.modulo_reference import ReferenceModuloIlp

COUNTED_LOOP = """
.proc counted
.livein r32, r33
.liveout r8
.block PRE freq=10
  add r15 = r32, 0
  mov r9 = 0
.block LOOP freq=130 succ=LOOP:0.92,POST:0.08
  add r20 = r15, r33
  ld8 r21 = [r20] cls=heap
  add r15 = r21, r32
  xor r23 = r21, r33
  and r24 = r23, r21
  or r25 = r24, r23
  st8 [r33+8] = r25 cls=glob
  adds r9 = 1, r9
  cmp.lt p16, p17 = r9, 13
  (p16) br.cond LOOP
.block POST freq=10
  add r8 = r15, 0
  br.ret b0
.endp
"""


def _pipeline(text):
    fn = parse_function(text)
    return (fn, *_pipeline_parts(fn))


def _pipeline_parts(fn):
    cfg = CfgInfo(fn)
    return cfg, build_dependence_graph(fn, cfg, compute_liveness(fn))


def _loop_parts(text):
    fn, cfg, ddg = _pipeline(text)
    loop = cfg.loops[0]
    body = loop_body(fn, loop)
    edges = build_modulo_edges(fn, loop, body, ddg)
    return fn, cfg, ddg, loop, body, edges


# -- bounds --------------------------------------------------------------------
def test_resource_mii_counts_memory_ports():
    # Five memory operations against the Itanium 2's four M slots per
    # issue group force ResMII >= ceil(5/4) = 2.
    text = """
.proc mem
.livein r32
.liveout r8
.block PRE freq=10
  mov r9 = 0
.block LOOP freq=100 succ=LOOP:0.9,POST:0.1
  ld8 r10 = [r32+0] cls=heap
  ld8 r11 = [r32+8] cls=heap
  ld8 r12 = [r32+16] cls=heap
  ld8 r13 = [r32+24] cls=heap
  st8 [r32+32] = r10 cls=glob
  adds r9 = 1, r9
  cmp.lt p16, p17 = r9, 5
  (p16) br.cond LOOP
.block POST freq=10
  add r8 = r10, 0
  br.ret b0
.endp
"""
    _fn, _cfg, _ddg, _loop, body, _edges = _loop_parts(text)
    assert resource_mii(body, ITANIUM2) >= 2


def test_recurrence_mii_from_carried_cycle():
    # add -> xor (latency 1) and xor -> add carried with distance 1
    # (latency 1): cycle latency 2 over distance 1 -> RecMII 2.
    text = """
.proc rec
.livein r32, r33
.liveout r8
.block PRE freq=10
  mov r9 = 0
  add r4 = r32, 0
  add r5 = r33, 0
.block LOOP freq=100 succ=LOOP:0.9,POST:0.1
  add r4 = r5, r32
  xor r5 = r4, r33
  adds r9 = 1, r9
  cmp.lt p16, p17 = r9, 7
  (p16) br.cond LOOP
.block POST freq=10
  add r8 = r4, 0
  br.ret b0
.endp
"""
    _fn, _cfg, _ddg, _loop, body, edges = _loop_parts(text)
    mii = recurrence_mii(body, edges)
    assert mii >= 2
    assert has_positive_cycle(body, edges, mii - 1)
    assert not has_positive_cycle(body, edges, mii)


def test_critical_path_bounds_acyclic_span():
    _fn, _cfg, _ddg, _loop, body, edges = _loop_parts(COUNTED_LOOP)
    span = critical_path(body, edges)
    # add(1) -> ld(2) -> xor(1) -> and(1) -> or(1) -> st chain exists.
    assert span >= 5


# -- formulation ---------------------------------------------------------------
def test_modulo_ilp_respects_rows_and_dependences():
    _fn, _cfg, _ddg, _loop, body, edges = _loop_parts(COUNTED_LOOP)
    mii = max(resource_mii(body, ITANIUM2), recurrence_mii(body, edges), 1)
    ilp = ModuloIlp(body, edges, mii, machine=ITANIUM2, max_stages=4)
    solution = solve_model(ilp.model, time_limit=20.0)
    assert solution, solution.status
    starts = ilp.start_times(solution)
    assert set(starts) == set(body)
    # Modulo reservation: per row, per unit kind, within dispersal caps.
    rows = {}
    for instr, start in starts.items():
        rows.setdefault(start % mii, []).append(instr)
    for row_ops in rows.values():
        assert len(row_ops) <= 6
        mem = sum(1 for i in row_ops if i.op.is_load or i.op.is_store)
        assert mem <= 4
    # Dependences hold in the flat (cross-iteration) schedule.
    for edge in edges:
        if edge.src not in starts or edge.dst not in starts:
            continue
        assert (
            starts[edge.dst] + edge.distance * mii
            >= starts[edge.src] + edge.latency
        ), (edge.src.mnemonic, edge.dst.mnemonic)


def test_modulo_ilp_infeasible_below_recurrence_bound():
    text = """
.proc tight
.livein r32
.liveout r8
.block PRE freq=10
  mov r9 = 0
  add r4 = r32, 0
.block LOOP freq=100 succ=LOOP:0.9,POST:0.1
  add r4 = r4, r32
  xor r4 = r4, r32
  adds r9 = 1, r9
  cmp.lt p16, p17 = r9, 7
  (p16) br.cond LOOP
.block POST freq=10
  add r8 = r4, 0
  br.ret b0
.endp
"""
    _fn, _cfg, _ddg, _loop, body, edges = _loop_parts(text)
    rec = recurrence_mii(body, edges)
    assert rec >= 2
    ilp = ModuloIlp(body, edges, rec - 1, machine=ITANIUM2, max_stages=4)
    # The windows alone prove the II infeasible, so no model is built;
    # the full-grid reference model confirms it with a solve.
    assert ilp.windows is None and ilp.model is None
    ref = ReferenceModuloIlp(body, edges, rec - 1, max_stages=4)
    assert not solve_model(ref.model, time_limit=20.0)


# -- the ladder ----------------------------------------------------------------
@pytest.fixture(scope="module")
def counted_outcome():
    fn, cfg, ddg, loop, _body, _edges = _loop_parts(COUNTED_LOOP)
    return pipeline_loop(fn, cfg, ddg, loop), fn


def test_ladder_pipelines_at_mii(counted_outcome):
    outcome, _fn = counted_outcome
    assert outcome.status == "pipelined"
    assert outcome.ii == outcome.mii
    assert outcome.oracle and outcome.oracle.ok
    assert "pipelined II=" in outcome.summary()


def test_ladder_outcome_kernel_executes(counted_outcome):
    outcome, fn = counted_outcome
    interp = Interpreter()
    registers = initial_registers(fn, 3)
    want = interp.run_function(fn, registers, seed=3)
    got = interp.run_function(outcome.pipelined_fn, registers, seed=3)
    assert got.live_out_state(fn) == want.live_out_state(fn)
    assert got.memory == want.memory


def test_ladder_not_counted_is_unpipelined():
    # A loop whose counter is also live-out is out of recognizer scope.
    text = """
.proc notcounted
.livein r32
.liveout r8, r9
.block PRE freq=10
  mov r9 = 0
.block LOOP freq=100 succ=LOOP:0.9,POST:0.1
  add r10 = r32, r9
  adds r9 = 1, r9
  cmp.lt p16, p17 = r9, 5
  (p16) br.cond LOOP
.block POST freq=10
  add r8 = r10, 0
  br.ret b0
.endp
"""
    fn, cfg, ddg = _pipeline(text)
    outcome = pipeline_loop(fn, cfg, ddg, cfg.loops[0])
    assert outcome.status == "unpipelined"
    assert outcome.fallback_reason == "not_counted"
    assert not outcome.pipelined
    assert "unpipelined" in outcome.summary()


def test_ladder_chaos_degrades_never_raises():
    fn, cfg, ddg, loop, _body, _edges = _loop_parts(COUNTED_LOOP)
    # One materialization fault discards the modulo kernel; there is no
    # rung below the modulo ILP, so the loop is left alone.
    with faults.inject("swp.materialize=error:1"):
        outcome = pipeline_loop(fn, cfg, ddg, loop)
    assert outcome.status == "unpipelined"
    assert outcome.fallback_reason == "materialize"
    assert not outcome.pipelined
    # Persistent faults land on the same floor.
    with faults.inject("swp.materialize=error"):
        outcome = pipeline_loop(fn, cfg, ddg, loop)
    assert outcome.status == "unpipelined"
    assert not outcome.pipelined


def test_ladder_keeps_the_stage_bound():
    # One stage allows no overlap between iterations, so no loop may come
    # back pipelined and no kernel may use a second stage.
    for spec, fn in loop_dominated_family(count=11, seed=1):
        cfg, ddg = _pipeline_parts(fn)
        for loop in cfg.loops:
            outcome = pipeline_loop(fn, cfg, ddg, loop, max_stages=1)
            assert not outcome.pipelined, spec.name
            assert outcome.stages <= 1, spec.name


def test_zero_latency_carried_store_feeds_the_next_load():
    # At II 6 the carried store st8 [r33+8] (stage 1) shares kernel row 0
    # with the next iteration's ld8 [r15] (stage 0), and in iteration 1
    # r15 == r33+8: the store has to come first within the row.
    _spec, fn = list(loop_dominated_family(count=11, seed=6))[9]
    cfg, ddg = _pipeline_parts(fn)
    outcome = pipeline_loop(fn, cfg, ddg, cfg.loops[0])
    assert outcome.status == "pipelined", outcome.summary()
    assert outcome.oracle and outcome.oracle.ok


def test_ladder_respects_exhausted_deadline():
    fn, cfg, ddg, loop, _body, _edges = _loop_parts(COUNTED_LOOP)
    deadline = Deadline(0.0)
    outcome = pipeline_loop(fn, cfg, ddg, loop, deadline=deadline)
    assert outcome.status == "unpipelined"


# -- satellite: execution-equivalence property ---------------------------------
def _counted_template(trips, accumulators):
    accs = ""
    body = ""
    outs = []
    for k in range(accumulators):
        accs += f"  add r{40 + k} = r3{3 + k}, 0\n"
        body += f"  add r{40 + k} = r{40 + k}, r15\n"
        outs.append(f"r{40 + k}")
    return f"""
.proc prop
.livein r32, r33, r34, r35
.liveout r8, {", ".join(outs)}
.block PRE freq=10
  add r15 = r32, 0
  mov r9 = 0
{accs}.block LOOP freq=130 succ=LOOP:0.92,POST:0.08
  ld8 r21 = [r15+0] cls=heap
  xor r23 = r21, r33
{body}  st8 [r33+8] = r23 cls=glob
  adds r15 = 8, r15
  adds r9 = 1, r9
  cmp.lt p16, p17 = r9, {trips}
  (p16) br.cond LOOP
.block POST freq=10
  add r8 = r23, 0
  br.ret b0
.endp
"""


@given(
    trips=st.integers(min_value=0, max_value=9),
    accumulators=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_materialized_pipeline_equivalent_for_any_trip_count(
    trips, accumulators, seed
):
    """The pinned acceptance property (ISSUE 10, satellite 3).

    For arbitrary trip counts — including 0 and 1, both below the stage
    count — the materialized prologue/kernel/epilogue routine computes
    the same live-outs and memory image as the source loop, and any
    achieved II respects the ResMII/RecMII floor.
    """
    fn, cfg, ddg = _pipeline(_counted_template(trips, accumulators))
    loop = cfg.loops[0]
    outcome = pipeline_loop(fn, cfg, ddg, loop, time_limit=20.0)
    assert isinstance(outcome, LoopPipelineOutcome)
    if not outcome.pipelined:
        return  # degradation is legal; equivalence is vacuous
    assert outcome.ii >= max(outcome.mii_resource, outcome.mii_recurrence)
    interp = Interpreter()
    registers = initial_registers(fn, seed)
    want = interp.run_function(fn, registers, seed=seed)
    got = interp.run_function(outcome.pipelined_fn, registers, seed=seed)
    assert want.returned and got.returned
    assert got.live_out_state(fn) == want.live_out_state(fn)
    assert got.memory == want.memory
