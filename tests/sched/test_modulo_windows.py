"""Start windows in the modulo ILP against the full-grid reference model.

``repro.sched.modulo.formulation.ModuloIlp`` creates ``y[n,row,stage]``
only inside each instruction's start window and leaves out the rows the
windows imply; ``tests/sched/modulo_reference.py`` keeps the full-grid
model it replaced. On the ``loop_swp`` corpus (``loop_dominated_family``
seeds 1-2, positions 0-10) at II = MII and MII + 1, both must reach the
same status and the same optimum — for Σt, for −Σt, and with each
value-carrying edge stretched until its lifetime row binds — and the
reference optimum must lie inside the windows. An empty window rejects
an II with no solver call, in the II ladder and in the time-indexed
fallback rung alike.
"""

import pytest

from repro.ilp import lin_sum, solve_model
from repro.ir.cfg import CfgInfo
from repro.ir.ddg import build_dependence_graph
from repro.ir.liveness import compute_liveness
from repro.ir.parser import parse_function
from repro.machine.itanium2 import ITANIUM2
from repro.sched import swp
from repro.sched.modulo import ladder
from repro.sched.modulo.bounds import (
    has_positive_cycle,
    recurrence_mii,
    resource_mii,
)
from repro.sched.modulo.formulation import ModuloIlp
from repro.sched.swp import ModuloScheduler, build_modulo_edges
from repro.tools.deadline import Deadline
from repro.workloads.generator import loop_dominated_family
from tests.sched.modulo_reference import ReferenceModuloIlp

# A body whose RecMII used to be capped too low: the add/ld recurrence
# through r20/r21 has latency 3 over one iteration, while the old search
# stopped at max(self-loop latencies, critical path) = 2.
POINTER_CHASE = """
.proc chase
.livein r20, r33
.liveout r8
.block PRE freq=10
  mov r8 = 0
.block L freq=100 succ=L:0.9,POST:0.1
  add r21 = r20, 8
  ld8 r20 = [r21]
  add r8 = r8, 1
  cmp.ne p6, p7 = r8, r33
  (p6) br.cond L
.block POST freq=10
  br.ret b0
.endp
"""

# add -> xor through r4, carried: RecMII 2, and II 1 has a positive cycle.
TIGHT = """
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


def _parts(fn):
    cfg = CfgInfo(fn)
    ddg = build_dependence_graph(fn, cfg, compute_liveness(fn))
    loop = cfg.loops[0]
    body = ModuloScheduler._body_instructions(fn, loop)
    return fn, cfg, ddg, loop, body, build_modulo_edges(fn, loop, body, ddg)


def _corpus():
    for seed in (1, 2):
        for spec, fn in loop_dominated_family(count=11, seed=seed):
            yield f"{spec.name}.s{seed}", _parts(fn)


@pytest.fixture(scope="module")
def corpus():
    return list(_corpus())


# The production objective (Σt) presses every start against its
# earliest bound, its negation against the latest; the reference must
# reach the same optimum under both.
OBJECTIVES = {
    "earliest_first": lambda milp: lin_sum(milp.start.values()),
    "latest_first": lambda milp: -1.0 * lin_sum(milp.start.values()),
}


def _count_solves(monkeypatch, module):
    """Names of the models ``module`` hands to the solver from now on."""
    solved = []

    def counting(model, **kwargs):
        solved.append(model.name)
        return solve_model(model, **kwargs)

    monkeypatch.setattr(module, "solve_model", counting)
    return solved


def _solve(milp, objective=OBJECTIVES["earliest_first"]):
    milp.model.set_objective(objective(milp))
    return solve_model(milp.model, time_limit=60.0)


@pytest.mark.parametrize("objective", sorted(OBJECTIVES))
def test_windowed_and_reference_models_agree(corpus, objective):
    compared = 0
    for name, (_fn, _cfg, _ddg, _loop, body, edges) in corpus:
        mii = max(resource_mii(body, ITANIUM2), recurrence_mii(body, edges))
        for ii in (mii, mii + 1):
            milp = ModuloIlp(body, edges, ii)
            ref = ReferenceModuloIlp(body, edges, ii)
            got = _solve(milp, OBJECTIVES[objective])
            want = _solve(ref, OBJECTIVES[objective])
            assert got.status == want.status, (name, ii)
            assert milp.size["variables"] <= ref.size["variables"]
            if not want:
                continue
            assert got.objective == pytest.approx(want.objective), (name, ii)
            starts = ref.start_times(want)
            for instr, start in starts.items():
                earliest, latest = milp.windows[instr]
                assert earliest <= start <= latest, (name, ii, instr.uid)
            compared += 1
    assert compared >= 40


def test_stretched_lifetimes_agree_with_the_reference(corpus):
    # Pull each value-carrying edge's ends apart as far as the model
    # allows, so its lifetime row is the binding one. In a real edge
    # list the same-iteration anti edge back from each carried reader
    # already caps that gap at 0, so only the carried edges are kept.
    stretched = 0
    for name, (_fn, _cfg, _ddg, _loop, body, edges) in corpus[:6]:
        carried = [e for e in edges if e.distance]
        ii = max(resource_mii(body, ITANIUM2), recurrence_mii(body, edges))
        milp = ModuloIlp(body, carried, ii)
        ref = ReferenceModuloIlp(body, carried, ii)
        for edge in carried:
            if edge.latency <= 0 or edge.src is edge.dst:
                continue

            def apart(model, edge=edge):
                return model.start[edge.src] - model.start[edge.dst]

            got, want = _solve(milp, apart), _solve(ref, apart)
            assert got.status == want.status, (name, edge)
            assert got.objective == pytest.approx(want.objective), name
            stretched += 1
    assert stretched >= 20


def test_modulo_edges_are_merged(corpus):
    for name, (_fn, _cfg, _ddg, _loop, _body, edges) in corpus:
        keys = [(id(e.src), id(e.dst), e.distance) for e in edges]
        assert len(keys) == len(set(keys)), name


def test_recurrence_mii_is_the_first_ii_without_a_positive_cycle(corpus):
    for name, (_fn, _cfg, _ddg, _loop, body, edges) in corpus:
        first = next(
            ii for ii in range(1, 64)
            if not has_positive_cycle(body, edges, ii)
        )
        assert recurrence_mii(body, edges) == first, name


def test_recurrence_mii_search_is_not_capped_by_the_critical_path():
    _fn, _cfg, _ddg, _loop, body, edges = _parts(
        parse_function(POINTER_CHASE)
    )
    assert has_positive_cycle(body, edges, 2)
    assert recurrence_mii(body, edges) == 3


def test_ladder_rejects_ii_below_recurrence_without_a_solve(monkeypatch):
    _fn, _cfg, _ddg, loop, body, edges = _parts(parse_function(TIGHT))
    rec = recurrence_mii(body, edges)
    solved = _count_solves(monkeypatch, ladder)
    outcome = ladder.LoopPipelineOutcome(loop.header, "unpipelined")
    starts, _stats = ladder._ii_ladder(
        body, edges, rec - 1, rec, 4, ITANIUM2, Deadline(None),
        Deadline(30.0), outcome, None,
    )
    assert starts is not None and outcome.ii == rec
    first, second = outcome.detail["rungs"]
    assert first["ii"] == rec - 1
    assert first["status"] == "INFEASIBLE"
    assert first["reason"] == "empty_window"
    assert first["seconds"] == 0.0
    assert second["ii"] == rec and second["status"] == "OPTIMAL"
    assert solved == [f"modulo_ii{rec}"]


def test_stage_budget_rejects_rungs_without_a_solve(monkeypatch, corpus):
    # With one stage every start must fit in [0, II - 1], so an II below
    # the critical path empties a window: those rungs never reach HiGHS.
    name, (fn, cfg, ddg, loop, _body, _edges) = corpus[8]
    solved = _count_solves(monkeypatch, ladder)
    outcome = ladder.pipeline_loop(fn, cfg, ddg, loop, max_stages=1)
    rungs = outcome.detail["rungs"]
    skipped = [r for r in rungs if r.get("reason") == "empty_window"]
    assert skipped, name
    assert len(solved) == len(rungs) - len(skipped)
    assert all(f"modulo_ii{r['ii']}" not in solved for r in skipped)


def test_time_indexed_rung_rejects_ii_below_recurrence(monkeypatch):
    _fn, _cfg, _ddg, _loop, body, edges = _parts(parse_function(TIGHT))
    rec = recurrence_mii(body, edges)
    solved = _count_solves(monkeypatch, swp)
    scheduler = ModuloScheduler(time_limit=30.0)
    assert scheduler._try_ii(body, edges, rec - 1) is None
    assert solved == []
    times, _stats = scheduler._try_ii(body, edges, rec)
    assert solved == [f"swp_ii{rec}"]
    for edge in edges:
        gap = times[edge.dst] - times[edge.src]
        assert gap >= edge.latency - edge.distance * rec
