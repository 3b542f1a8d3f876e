"""Register-pressure estimation."""

import pytest

from repro.ir.parser import parse_function
from repro.perf.pressure import measure_pressure
from repro.sched.scheduler import ScheduleFeatures, optimize_function

TEXT = """
.proc pressure
.livein r32, r33
.liveout r8
.block A freq=100
  ld8 r10 = [r32] cls=heap
  add r11 = r32, r33
  xor r12 = r11, r33
  and r13 = r12, r11
  add r14 = r10, r13
  add r8 = r14, r12
  br.ret b0
.endp
"""


@pytest.fixture(scope="module")
def optimized():
    fn = parse_function(TEXT)
    return optimize_function(fn, ScheduleFeatures(time_limit=30))


def test_pressure_bounds(optimized):
    report = measure_pressure(optimized.output_schedule, optimized.fn)
    assert 1 <= report.peak <= 128
    assert report.peak_block == "A"
    assert report.weighted_average <= report.peak


def test_empty_blocks_zero_pressure(optimized):
    from repro.sched.schedule import Schedule

    empty = Schedule(["A"])
    report = measure_pressure(empty, optimized.fn)
    assert report.peak == 0
