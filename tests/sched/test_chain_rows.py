"""Per-path dependence-chain rows of the phase-1 model.

The rows are implied constraints: every schedule the path verifier
accepts satisfies them, so they may tighten the LP relaxation but must
never move the phase-1 optimum. These tests solve phase-1 models with
and without the rows and compare, and pin the root LP bound the rows
give ``send_bits``.
"""

import numpy as np
import pytest
from scipy import optimize

from repro.ilp import SolveStatus, solve_model
from repro.ir.cfg import CfgInfo
from repro.ir.ddg import build_dependence_graph
from repro.ir.liveness import compute_liveness
from repro.ir.parser import parse_function
from repro.ir.rename import rename_registers
from repro.machine.itanium2 import ITANIUM2
from repro.sched.cycles import lengths_from_input
from repro.sched.ilp_formulation import SchedulingIlp
from repro.sched.list_scheduler import ListScheduler
from repro.sched.prep import clone_function, undo_speculation
from repro.sched.regions import build_region
from repro.sched.scheduler import IlpScheduler, ScheduleFeatures
from repro.workloads.generator import (
    MultiRegionSpec,
    RoutineSpec,
    generate_multi_region,
    generate_routine,
    loop_dominated_family,
)
from repro.workloads.spec_routines import build_spec_routine

FEATURES = ScheduleFeatures(max_hops=4)


def phase1(fn):
    """The phase-1 ``SchedulingIlp`` of ``fn``, generated, as the
    scheduler builds it before its first solve."""
    work = clone_function(fn)
    undo_speculation(work)
    rename_registers(work)
    cfg = CfgInfo(work)
    ddg = build_dependence_graph(work, cfg, compute_liveness(work))
    region = build_region(work, cfg, ddg, max_hops=FEATURES.max_hops)
    schedule = ListScheduler(ITANIUM2).schedule(work, ddg)
    lengths = lengths_from_input(schedule, work, reserve=FEATURES.reserve)
    ilp, _groups = IlpScheduler(features=FEATURES)._build_ilp(region, lengths, [])
    ilp.generate()
    return ilp


def root_lp_bound(model):
    arrays = model.to_arrays()
    result = optimize.milp(
        arrays["c"],
        constraints=optimize.LinearConstraint(
            arrays["A"], arrays["b_lo"], arrays["b_hi"]
        ),
        bounds=optimize.Bounds(arrays["lb"], arrays["ub"]),
        integrality=np.zeros(len(arrays["c"]), dtype=int),
    )
    assert result.status == 0
    return result.fun


def routines():
    for seed in (11, 23, 905):
        yield f"g{seed}", generate_routine(RoutineSpec(
            name=f"g{seed}", seed=seed, instructions=22, blocks=6, loops=1,
            input_spec_loads=1,
        ))
    for spec, fn in loop_dominated_family(count=2, seed=1):
        yield spec.name, fn
    yield "mr", generate_multi_region(MultiRegionSpec(
        name="mr", segments=2, segment_instructions=10, segment_blocks=4,
        seed=5,
    ))


def test_chain_rows_leave_the_phase1_optimum_unchanged(monkeypatch):
    with_rows = {}
    emitted = 0
    for name, fn in routines():
        ilp = phase1(fn)
        emitted += ilp.chain_rows
        solution = solve_model(ilp.model)
        assert solution.status is SolveStatus.OPTIMAL, name
        with_rows[name] = solution.objective
    assert emitted > 0  # the comparison below is not vacuous

    monkeypatch.setattr(SchedulingIlp, "_chain_rows", lambda self: None)
    for name, fn in routines():
        ilp = phase1(fn)
        assert ilp.chain_rows == 0
        solution = solve_model(ilp.model)
        assert solution.status is SolveStatus.OPTIMAL, name
        assert solution.objective == pytest.approx(with_rows[name]), name


def test_chain_rows_lift_the_send_bits_root_bound():
    """Without the rows the root LP bound of ``send_bits`` is about
    1,694 against an optimum of 8,000; the rows close the gap."""
    ilp = phase1(build_spec_routine("send_bits", scale=0.3))
    assert ilp.chain_rows >= 1
    assert root_lp_bound(ilp.model) >= 7999


def test_chain_row_is_the_weighted_chain_of_its_path():
    """One row per path, summing t·len[A,t] over the path's blocks. On
    A-B the chain add r20 -> add r21 -> add r22 -> add r8 has three
    latency >= 1 edges; on A-C the longest chain is cmp -> add r8 (the
    add depends on the branch's compare)."""
    fn = parse_function("""
.proc chain
.livein r32, r33
.liveout r8
.block A freq=100 succ=C:0.5,B:0.5
  add r20 = r32, r33
  cmp.eq p6, p7 = r33, r0
  (p6) br.cond C
.block B freq=50
  add r21 = r20, r33
  add r22 = r21, r33
  add r8 = r22, r20
  br.ret b0
.block C freq=50
  add r8 = r32, 1
  br.ret b0
.endp
""")
    ilp = phase1(fn)
    rows = {}
    for row in ilp.model.constraints:
        if row.name.startswith("chain_"):
            blocks = frozenset(v.name.split("_")[1] for v in row.expr.terms)
            assert all(
                coef == int(v.name.split("_")[2])
                for v, coef in row.expr.terms.items()
            )
            rows[blocks] = row.rhs
    assert ilp.chain_rows == len(rows)
    assert rows == {frozenset("AB"): 4.0, frozenset("AC"): 2.0}


def test_dag_paths_match_the_verifier_walk():
    fn = parse_function("""
.proc diamond
.livein r32
.liveout r8
.block A freq=100 succ=C:0.5,B:0.5
  cmp.eq p6, p7 = r32, r0
  (p6) br.cond C
.block B freq=50 succ=D:1
  add r8 = r32, 1
  br D
.block C freq=50
  add r8 = r32, 2
.block D freq=100
  br.ret b0
.endp
""")
    cfg = CfgInfo(fn)
    paths, exhaustive = cfg.dag_paths(10)
    assert sorted(paths) == [["A", "B", "D"], ["A", "C", "D"]]
    assert exhaustive
    assert cfg.dag_paths(1) == (paths[:1], False)
