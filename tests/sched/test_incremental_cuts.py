"""Incremental cut-loop re-solves.

The driver caches the built model across bundling-cut re-solves and
appends cut rows instead of regenerating it; phase 2 reuses the same
model.
"""

from repro.ir.parser import parse_function
from repro.sched.scheduler import ScheduleFeatures, optimize_function

CUT_TRIGGER = """
.proc fbound
.livein r32, f5, f6, f8, f9
.liveout r8, f4, f7
.block A freq=100
  fma f4 = f5, f6
  fma f7 = f8, f9
  movl r10 = 99999
  add r8 = r10, r32
  br.ret b0
.endp
"""


def test_cut_trigger_fires_a_cut_and_verifies():
    result = optimize_function(
        parse_function(CUT_TRIGGER), ScheduleFeatures(time_limit=30)
    )
    # The Sec. 4.2 loop appended a cut and re-solved the same model...
    assert any("bundling constraint" in m for m in result.messages)
    assert result.trace.counters.get("bundling_cuts", 0) >= 1
    assert result.trace.durations().get("solve.cut_resolve")
    # ...and the schedule it shipped passed verification.
    assert result.quality == "optimal"
    assert result.verification.ok


def test_incremental_model_grows_in_place():
    """The incremental path appends cut rows to one generated model."""
    from repro.ir.cfg import CfgInfo
    from repro.ir.ddg import build_dependence_graph
    from repro.ir.liveness import compute_liveness
    from repro.machine.itanium2 import ITANIUM2
    from repro.sched.cycles import lengths_from_input
    from repro.sched.ilp_formulation import SchedulingIlp
    from repro.sched.list_scheduler import ListScheduler
    from repro.sched.regions import build_region

    fn = parse_function(CUT_TRIGGER)
    ddg = build_dependence_graph(fn, CfgInfo(fn), compute_liveness(fn))
    schedule = ListScheduler().schedule(fn, ddg)
    region = build_region(fn, CfgInfo(fn), ddg)
    lengths = lengths_from_input(schedule, fn)

    ilp = SchedulingIlp(region, dict(lengths), ITANIUM2)
    model = ilp.generate()
    before = model.num_constraints
    instrs = [i for i in fn.blocks[0].instructions if not i.is_branch]
    ilp.append_bundling_cut([(i, "A") for i in instrs[:3]])
    assert model.num_constraints > before

    # The appended rows land in the cached matrix form too.
    arrays = model.to_arrays()
    assert arrays["A"].shape[0] == model.num_constraints
