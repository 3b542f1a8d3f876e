"""Speculation groups with UD-chain movs (the Fig. 4 right-hand scheme)."""

import pytest

from repro.ir.interp import Interpreter, initial_registers
from repro.ir.parser import parse_function
from repro.sched.scheduler import ScheduleFeatures, optimize_function

# The load writes r8 which is routine-live-out AND has another definition
# (UD chain): its speculative version must go through a temporary plus a
# mov, exactly the Fig. 4 transformation with the temp register.
TEXT = """
.proc movgroup
.livein r32, r33, r40
.liveout r8
.block A freq=100
  add r14 = r32, r33
  cmp.eq p6, p7 = r14, r0
  mov r8 = r40
  (p6) br.cond C
.block B freq=90
  ld8 r8 = [r14] cls=heap
  add r15 = r8, r32
  add r16 = r15, r40
  st8 [r33+16] = r16 cls=stack
.block C freq=100
  st8 [r33+8] = r8 cls=stack
  br.ret b0
.endp
"""


@pytest.fixture(scope="module")
def result():
    return optimize_function(
        parse_function(TEXT), ScheduleFeatures(time_limit=45)
    )


def test_group_uses_temp_and_mov(result):
    groups = [g for g in result.spec_groups if g.mov is not None]
    assert groups, "the live-out UD-chain load needs the temp+mov scheme"
    group = groups[0]
    assert group.spec_load.dests[0] != group.original.dests[0]
    assert group.mov.dests == group.original.dests


def test_verifies(result):
    assert result.verification.ok, result.verification.problems[:4]


def test_semantics_preserved(result):
    interp = Interpreter(max_blocks=400)
    for seed in (0, 1, 2, 3, 4):
        registers = initial_registers(result.fn, seed)
        want = interp.run_function(result.fn, registers, seed=seed)
        got = interp.run_schedule(
            result.output_schedule, result.fn, registers, seed=seed
        )
        assert got.block_trace == want.block_trace
        assert got.live_out_state(result.fn) == want.live_out_state(result.fn)
        assert got.memory == want.memory


def test_mov_scheduled_when_group_selected(result):
    for group in result.spec_groups:
        if group.mov is None:
            continue
        selected = result.solution.value_of(group.usespec) >= 1
        placed_movs = [
            p
            for p in result.output_schedule.placements()
            if p.instr.root_origin is group.mov
        ]
        assert bool(placed_movs) == selected


def test_use_of_two_speculated_loads_reads_both_temps():
    """A use fed by two mov-carrying groups reads both temporaries."""
    from repro.ir.parser import parse_instruction
    from repro.ir.registers import reg
    from repro.sched.reconstruct import _rewrite_use_copy

    use = parse_instruction("and r49 = r47, r48")
    temps = {reg("r47"): reg("r2"), reg("r48"): reg("r3")}
    copy = _rewrite_use_copy(use, temps)
    assert [s.name for s in copy.srcs] == ["r2", "r3"]
    assert [s.name for s in use.srcs] == ["r47", "r48"]
