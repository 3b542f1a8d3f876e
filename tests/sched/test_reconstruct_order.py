"""Intra-group slot order chosen by reconstruction is reproducible."""

import random
from types import SimpleNamespace

from repro.ir.ddg import DepEdge, DepKind
from repro.ir.parser import parse_instruction
from repro.sched.reconstruct import _order_groups
from repro.sched.schedule import Schedule


def _ordered_group(reader, writers, edges):
    ilp = SimpleNamespace(
        relax_terms={},
        info=dict.fromkeys([reader, *writers]),
        dep_edges=lambda: iter(edges),
    )
    schedule = Schedule(["A"])
    for instr in [reader, *writers]:
        schedule.place(instr, "A", 1)
    _order_groups(ilp, schedule, solution=None)
    return schedule.group("A", 1)


def test_group_order_follows_dependence_edges_not_addresses():
    # Instructions hash by id(), so ordering a group through a set of
    # successors would follow memory addresses. Six writers anti-dependent
    # on one reader, drawn from a shuffled pool, must always come out in
    # the order of the dependence edges.
    rng = random.Random(3)
    pool = [parse_instruction(f"add r{10 + k} = r2, r3") for k in range(64)]
    reader = parse_instruction("add r1 = r10, r11")
    for _ in range(40):
        writers = rng.sample(pool, 6)
        edges = [DepEdge(reader, w, DepKind.ANTI, 0) for w in writers]
        rng.shuffle(edges)
        group = _ordered_group(reader, sorted(writers, key=lambda i: i.uid), edges)
        assert group == [reader] + [edge.dst for edge in edges]
