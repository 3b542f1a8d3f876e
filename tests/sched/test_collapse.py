"""Block-collapse modeling (paper Sec. 5.4)."""

import pytest

from repro.ir.parser import parse_function
from repro.sched.scheduler import ScheduleFeatures, optimize_function

# The side block B holds only movable code plus its unconditional branch:
# the optimum empties B entirely, and the branch disappears with it.
TEXT = """
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


@pytest.fixture(scope="module")
def collapsed():
    return optimize_function(
        parse_function(TEXT), ScheduleFeatures(time_limit=30)
    )


def test_side_block_collapses(collapsed):
    assert collapsed.verification.ok
    assert "B" in collapsed.output_schedule.collapsed_blocks()


def test_collapsed_branch_dropped(collapsed):
    placed = [
        p.instr.mnemonic for p in collapsed.output_schedule.placements()
    ]
    # The unconditional br of B is gone; the conditional of A and the
    # return of D remain.
    assert placed.count("br") == 0
    assert "br.cond" in placed and "br.ret" in placed


def test_backedge_branch_never_collapses(loop_fn):
    result = optimize_function(loop_fn, ScheduleFeatures(time_limit=30))
    assert result.verification.ok
    assert "LOOP" not in result.output_schedule.collapsed_blocks()
