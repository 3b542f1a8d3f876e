"""Differential semantic testing: the optimizer preserves behaviour.

The strongest correctness check in the suite: execute the prepared
routine and its ILP-optimized schedule over concrete values and compare

* the taken block trace (branch decisions are value-dependent),
* the routine's live-out register values, and
* the final memory contents.

Any dependence violation, lost instruction, wrong compensation copy,
mis-guarded predicated copy or broken speculation group changes one of
the three. Runs over the figure samples and randomized generated
routines with all extensions enabled.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.ir.interp import Interpreter, initial_registers
from repro.ir.parser import parse_function
from repro.sched.scheduler import ScheduleFeatures, optimize_function
from repro.workloads.generator import RoutineSpec, generate_routine
from repro.workloads.samples import (
    fig1_code_motion_sample,
    fig4_speculation_sample,
    fig5_cyclic_sample,
    fig6_partial_ready_sample,
)

FEATURES = ScheduleFeatures(time_limit=30, max_hops=3)


def _compare(fn, want, got, seed, compare_stores=False):
    assert got.block_trace == want.block_trace, (
        f"seed {seed}: trace diverged at block "
        f"{next(i for i, (a, b) in enumerate(zip(want.block_trace, got.block_trace)) if a != b)}"
    )
    if want.returned and got.returned:
        # Register and memory images are only comparable for completed
        # executions: legal code motion (a sunk loop-invariant store, a
        # hoisted post-loop definition) moves work across the truncation
        # boundary of an unfinished loop.
        assert got.live_out_state(fn) == want.live_out_state(fn)
        assert got.memory == want.memory
        if compare_stores:
            # Opt-in stronger check: the per-address *value history*,
            # not just the final image — an overwritten wrong store is
            # invisible to the memory comparison above but not to this.
            # Candidate for promotion into verify_schedule once the
            # known divergence (test_seed905_store_values_pinned) is
            # resolved.
            assert got.store_sequences() == want.store_sequences(), (
                f"seed {seed}: store value sequences diverged"
            )
    else:
        assert want.returned == got.returned


def _differential(fn, features=FEATURES, seeds=(0, 1, 2), compare_stores=False):
    result = optimize_function(fn, features)
    assert result.verification.ok, result.verification.problems[:3]
    interp = Interpreter(max_blocks=600, record_stores=compare_stores)
    for seed in seeds:
        registers = initial_registers(result.fn, seed)
        want = interp.run_function(result.fn, registers, seed=seed)
        got = interp.run_schedule(
            result.output_schedule, result.fn, registers, seed=seed
        )
        _compare(result.fn, want, got, seed, compare_stores=compare_stores)
    return result


@pytest.mark.parametrize(
    "sample",
    [
        fig1_code_motion_sample,
        fig4_speculation_sample,
        fig5_cyclic_sample,
        fig6_partial_ready_sample,
    ],
    ids=["fig1", "fig4", "fig5", "fig6"],
)
def test_figure_samples_semantics_preserved(sample):
    _differential(parse_function(sample()))


def test_collapse_semantics_preserved():
    text = """
.proc collapse
.livein r32, r33
.liveout r8
.block A freq=100
  cmp.eq p6, p7 = r32, r0
  (p6) br.cond C
.block B freq=60
  add r10 = r32, r33
  add r11 = r10, r32
  br D
.block C freq=40
  add r12 = r33, 4
.block D freq=100
  add r8 = r32, r33
  br.ret b0
.endp
"""
    _differential(parse_function(text))


@given(seed=st.integers(0, 10**6))
# Miscompiles these seeds once exposed: a loop store whose address is
# loaded every iteration sunk below its loop (5623); a consumer of a
# cyclically moved instruction hoisted above the loop with its pre-loop
# copy (20001); a use of two mov-carrying speculated loads rewritten for
# one of them only (265180); a speculated load whose address comes from
# another speculated load issued before that load (738967, 954647).
@example(seed=5623)
@example(seed=20001)
@example(seed=265180)
@example(seed=738967)
@example(seed=954647)
@settings(
    max_examples=16,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_routines_semantics_preserved(seed):
    spec = RoutineSpec(
        name="diff",
        seed=seed,
        instructions=22,
        blocks=6,
        loops=1,
        input_spec_loads=1,
    )
    fn = generate_routine(spec)
    _differential(fn, seeds=(0, 5))


def test_chained_speculated_loads_keep_their_order():
    """``ld8 r50 = [r49+24]`` reads the result of ``ld8 r49``, and both
    are speculation candidates. With both groups used, the second ld.s
    must still follow the value of the first group (here its ``mov``);
    without that edge it issued in the first ld.s's cycle and read a
    stale r49."""
    text = """
.proc chained
.livein r41, r42, r46, r121
.liveout r49, r50, r51
.block B1 freq=4000 succ=B3:0.25,B2:0.75
  cmp.ge p16, p17 = r121, 4
  (p16) br.cond B3
.block B2 freq=3000 succ=B1:1
  adds r121 = r121, 1
  br B1
.block B3 freq=1000 succ=B5:0.371,B4:0.629
  cmp.eq p18, p19 = r41, r0
  (p18) br.cond B5
.block B4 freq=629 succ=B5:1
  st8 [r46] = r42 cls=stack
.block B5 freq=1000
  ld8 r49 = [r42+24] cls=glob
  ld8 r50 = [r49+24] cls=heap
  sub r51 = r50, r41
  br.ret b0
.endp
"""
    _differential(parse_function(text), seeds=(0, 1, 2, 5))


def test_store_value_sequences_preserved():
    """Opt-in store-history mode passes on a well-behaved loop.

    Two same-class stores to one address alternate per iteration; the
    output dependence pins their order, so the per-address value
    sequence must survive scheduling exactly.
    """
    text = """
.proc storeseq
.livein r32, r38
.liveout r8
.block B0 freq=1000
  mov r9 = 0
.block B1 freq=6000
  st8 [r38+16] = r38 cls=heap
  cmp.ge p18, p19 = r9, 6
  (p18) br.cond B3
.block B2 freq=5000
  st8 [r38+16] = r32 cls=heap
  adds r9 = r9, 1
  br B1
.block B3 freq=1000
  add r8 = r38, 0
  br.ret b0
.endp
"""
    _differential(parse_function(text), compare_stores=True)


# Minimized from ``RoutineSpec(name="diff", seed=905, instructions=22,
# blocks=6, loops=1, input_spec_loads=1)``: the loop header's heap-class
# store is loop-invariant and under M-unit pressure, so the scheduler
# used to hoist it out of the loop — past the latch's *same-address*
# store, which carries a different alias class and therefore no output
# dependence. That collapsed thirteen alternating stores into seven,
# changing both the per-address value history and the final memory
# image. A store now stays in every loop holding another store that
# may alias it (alias classes do not prove disjointness there).
SEED905_MINIMIZED = """
.proc seed905min
.livein r32, r38
.liveout r8, r10, r11, r12, r13
.block B0 freq=1000
  mov r9 = 0
.block B1 freq=6000
  ld8 r10 = [r38+0] cls=stack
  ld8 r11 = [r38+8] cls=stack
  ld8 r12 = [r38+24] cls=stack
  ld8 r13 = [r38+32] cls=stack
  st8 [r38+16] = r38 cls=heap
  cmp.ge p18, p19 = r9, 6
  (p18) br.cond B3
.block B2 freq=5000
  st8 [r38+16] = r32 cls=glob
  adds r9 = r9, 1
  br B1
.block B3 freq=1000
  add r8 = r38, 0
  br.ret b0
.endp
"""


def test_seed905_store_values_pinned():
    _differential(parse_function(SEED905_MINIMIZED), compare_stores=True)


def test_greedy_baseline_semantics_preserved():
    fn = generate_routine(
        RoutineSpec(name="gdiff", seed=99, instructions=26, blocks=6, loops=1)
    )
    result = optimize_function(
        fn, ScheduleFeatures(time_limit=30, max_hops=3, baseline="greedy")
    )
    interp = Interpreter(max_blocks=600)
    registers = initial_registers(result.fn, 7)
    want = interp.run_function(result.fn, registers, seed=7)
    got_in = interp.run_schedule(
        result.input_schedule, result.fn, registers, seed=7
    )
    got_out = interp.run_schedule(
        result.output_schedule, result.fn, registers, seed=7
    )
    for got in (got_in, got_out):
        _compare(result.fn, want, got, 7)
