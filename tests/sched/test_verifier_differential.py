"""The indexed path verifier against the reference checker.

``repro.sched.verifier.verify_schedule`` builds id-keyed tables and walks
each path once; ``tests/sched/verifier_reference.py`` keeps the direct
form of the same checks. Both must return the same report (``ok``, the
problem strings in the same order, ``paths_checked`` and ``exhaustive``)
on real schedules as produced and after each mutation below, each of
which breaks, or may break, one of the five checks.
"""

import random

import pytest

from repro.ir.cfg import CfgInfo
from repro.ir.ddg import DepEdge, DepKind, build_dependence_graph
from repro.ir.liveness import compute_liveness
from repro.ir.parser import parse_instruction
from repro.sched.list_scheduler import ListScheduler
from repro.sched.regions import build_region
from repro.sched.schedule import Schedule
from repro.sched.scheduler import ScheduleFeatures, optimize_function
from repro.sched.verifier import verify_schedule
from repro.workloads.generator import (
    RoutineSpec,
    generate_routine,
    loop_dominated_family,
    multi_region_family,
)
from tests.sched.verifier_reference import reference_verify_schedule

FEATURES = ScheduleFeatures(time_limit=20, max_hops=3)
DRAWS = 4  # random draws per mutation and schedule; odd ones reversed


def _solved_cases(name, fn):
    """The ILP schedule (with its verify edges) and the input schedule."""
    result = optimize_function(fn, FEATURES)
    return [
        (f"{name}/ilp", result.output_schedule, dict(
            region=result.region,
            reconstruction=result.reconstruction,
            dep_edges=result.verify_edges,
            edge_scopes=result.verify_scopes,
        )),
        (f"{name}/input", result.input_schedule, dict(region=result.region)),
    ]


def _list_case(name, fn):
    cfg = CfgInfo(fn)
    ddg = build_dependence_graph(fn, cfg, compute_liveness(fn))
    region = build_region(fn, cfg, ddg, allow_predication=False)
    return [(f"{name}/input", ListScheduler().schedule(fn, ddg), dict(region=region))]


@pytest.fixture(scope="module")
def cases():
    found = []
    for seed in (1, 2, 3, 4):
        spec = RoutineSpec(name=f"g{seed}", seed=seed, instructions=30, blocks=6)
        found += _solved_cases(spec.name, generate_routine(spec))
    for spec, fn in loop_dominated_family(count=3, seed=1):
        found += _solved_cases(spec.name, fn)
    # Many paths, so only the list schedule (no ILP solve).
    for spec, fn in multi_region_family(count=1, scale=0.3, seed=3):
        found += _list_case(spec.name, fn)
    return found


# -- schedule surgery ------------------------------------------------------------


def _copy(schedule, reverse=False):
    """The same schedule; ``reverse`` inserts each block's cycles last first.

    Both are the same schedule, but a reversed copy's cycle dicts iterate
    in descending order, which the group checks report in.
    """
    clone = Schedule(schedule.block_order)
    for block in schedule.block_order:
        cycles = list(schedule.cycles_of(block).items())
        for cycle, group in reversed(cycles) if reverse else cycles:
            for instr in group:
                clone.place(instr, block, cycle)
        clone.set_block_length(block, schedule.block_length(block))
    return clone


def _placements(schedule, branches=False):
    return [
        (block, cycle, instr)
        for block in schedule.block_order
        for cycle, group in schedule.cycles_of(block).items()
        for instr in group
        if branches or not instr.is_branch
    ]


def _active(kwargs):
    reconstruction = kwargs.get("reconstruction")
    if reconstruction is not None:
        return list(reconstruction.active_instructions)
    return list(kwargs["region"].instructions)


def drop_placement(schedule, kwargs, rng):
    block, cycle, instr = rng.choice(_placements(schedule))
    schedule.group(block, cycle).remove(instr)
    return schedule


def move_earlier(schedule, kwargs, rng):
    movable = [p for p in _placements(schedule) if p[1] > 1]
    if not movable:
        return None
    block, cycle, instr = rng.choice(movable)
    schedule.group(block, cycle).remove(instr)
    # A cycle not yet present lands last in the block's dict order.
    schedule.place(instr, block, cycle - 1)
    return schedule


def swap_zero_latency_pair(schedule, kwargs, rng):
    edges = kwargs.get("dep_edges") or kwargs["region"].ddg.edges
    zero = [e for e in edges if e.latency == 0]
    pairs = []
    for block, cycle, _instr in _placements(schedule, branches=True):
        group = schedule.group(block, cycle)
        roots = [p.root_origin for p in group]
        for edge in zero:
            if edge.src in roots and edge.dst in roots:
                pairs.append((group, roots.index(edge.src), roots.index(edge.dst)))
    if not pairs:
        return None
    group, i, j = rng.choice(pairs)
    group[i], group[j] = group[j], group[i]
    return schedule


def duplicate_in_block(schedule, kwargs, rng):
    """Extra copies of two placements, each into the block it sits in."""
    for block, _cycle, instr in rng.sample(_placements(schedule), 2):
        for _ in range(rng.randint(1, 2)):
            length = schedule.block_length(block)
            schedule.place(instr.copy(), block, rng.randint(1, length))
    return schedule


def non_speculative_outside_theta(schedule, kwargs, rng):
    """A non-speculative copy in a foreign block, unguarded or guarded."""
    region = kwargs["region"]
    fixed = [
        i for i in _active(kwargs)
        if region.speculative.get(i) is False and not i.is_branch
    ]
    if not fixed:
        return None
    guarded = [
        (i, b) for (i, b), _guard in region.guard_for.items() if i in fixed
    ]
    if guarded and rng.random() < 0.5:
        # Into a guard block, with or without the qualifying predicate.
        instr, block = rng.choice(guarded)
        pred = region.guard_for[(instr, block)] if rng.random() < 0.5 else instr.pred
        schedule.place(instr.copy(pred=pred), block, 1)
        return schedule
    instr = rng.choice(fixed)
    home = region.source_block.get(instr)
    block = rng.choice([b for b in schedule.block_order if b != home])
    schedule.place(instr.copy(), block, 1)
    return schedule


def lengthen_past_branch(schedule, kwargs, rng):
    with_branch = sorted({b for b, _c, _i in _placements(schedule, branches=True)
                          if any(i.is_branch for i in schedule.instructions_in(b))})
    block = rng.choice(with_branch)
    schedule.set_block_length(block, schedule.block_length(block) + 1)
    return schedule


def cram_group(schedule, kwargs, rng):
    """Five extra loads into one group, or into each of two in one block."""
    block, cycle, _instr = rng.choice(_placements(schedule, branches=True))
    cycles = list(schedule.cycles_of(block))
    targets = rng.sample(cycles, 2) if len(cycles) > 1 else [cycle]
    for target in targets:
        for i in range(5):
            schedule.place(parse_instruction(f"ld8 r{60 + i} = [r32]"), block, target)
    return schedule


MUTATIONS = [
    drop_placement,
    move_earlier,
    swap_zero_latency_pair,
    duplicate_in_block,
    non_speculative_outside_theta,
    lengthen_past_branch,
    cram_group,
]


# -- the comparison ------------------------------------------------------------------


def _fields(report):
    return (report.ok, report.problems, report.paths_checked, report.exhaustive)


def _agree(schedule, kwargs):
    new = verify_schedule(schedule, **kwargs)
    old = reference_verify_schedule(schedule, **kwargs)
    assert _fields(new) == _fields(old)
    return new


def test_schedules_as_produced_agree_and_pass(cases):
    assert len(cases) == 15
    for name, schedule, kwargs in cases:
        report = _agree(schedule, kwargs)
        assert report.ok, (name, report.problems[:3])
        assert report.exhaustive
    # loop1's ILP schedule carries a real scoped (cyclic) edge.
    assert any(kwargs.get("edge_scopes") for _n, _s, kwargs in cases)


@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda m: m.__name__)
def test_mutated_schedules_agree(cases, mutate):
    rejected = applied = 0
    for index, (name, schedule, kwargs) in enumerate(cases):
        for draw in range(DRAWS):
            rng = random.Random(index * 100 + draw)
            mutated = mutate(_copy(schedule, reverse=draw % 2 == 1), kwargs, rng)
            if mutated is None:
                continue
            applied += 1
            rejected += not _agree(mutated, kwargs).ok
    assert applied
    assert rejected, f"{mutate.__name__} never produced a rejected schedule"


def test_fabricated_scoped_edges_agree(cases):
    rng = random.Random(7)
    flagged = 0
    for name, schedule, kwargs in cases:
        placed = {i.root_origin for _b, _c, i in _placements(schedule, True)}
        active = [i for i in _active(kwargs) if i in placed]
        edges = list(kwargs.get("dep_edges") or kwargs["region"].ddg.edges)
        scopes = dict(kwargs.get("edge_scopes") or {})
        for _ in range(4):
            src, dst = rng.sample(active, 2)
            bogus = DepEdge(src, dst, DepKind.TRUE, rng.randint(0, 2))
            edges.append(bogus)
            scopes[bogus] = frozenset(
                rng.sample(schedule.block_order, max(1, len(schedule.block_order) // 2))
            )
        report = _agree(
            schedule, dict(kwargs, dep_edges=edges, edge_scopes=scopes)
        )
        flagged += not report.ok
    assert flagged
