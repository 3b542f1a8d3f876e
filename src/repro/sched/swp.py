"""Software pipelining: the loop body, its dependences and its kernel.

The paper closes with "currently we are studying ... how [the model] can
be modified to support software pipelining" — this module holds the
loop-side pieces of that extension, shared by the modulo ILP
(:mod:`repro.sched.modulo.formulation`), its II ladder
(:mod:`repro.sched.modulo.ladder`) and the code generator
(:mod:`repro.sched.swp_materialize`):

* :func:`loop_body` — the instructions of a single-block innermost loop
  that get start times (branches and nops excluded: the kernel's backedge
  branch recurs implicitly every II cycles);
* :func:`build_modulo_edges` — dependences with an iteration *distance*:
  same-iteration edges from the in-block order, loop-carried edges
  (distance 1) from definitions reaching the next iteration and from
  carried anti/output pairs; a schedule is feasible when
  ``t_n - t_m >= lat - distance · II`` for every edge;
* :class:`ModuloSchedule` — one kernel: the II, every body instruction's
  absolute start cycle, and the stage count.

Restrictions: single-block loops (header == latch) without calls or
further control flow, mirroring where production compilers apply SWP and
exactly the loops the paper's routine selection avoided.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SchedulingError


@dataclass(frozen=True)
class ModuloEdge:
    """A dependence with iteration distance (omega)."""

    src: object
    dst: object
    latency: int
    distance: int


@dataclass
class ModuloSchedule:
    """Result of modulo scheduling one loop body."""

    loop_header: str
    ii: int
    start_times: dict  # instruction -> absolute start cycle
    stages: int
    mii_resource: int
    mii_recurrence: int

    def kernel(self):
        """Kernel rows: list (length II) of [(instr, stage), ...].

        Within a row the older iteration (higher stage) comes first, then
        program order: the order the materialized loop executes them in.
        """
        rows = [[] for _ in range(self.ii)]
        for instr, start in self.start_times.items():
            rows[start % self.ii].append((instr, start // self.ii))
        for row in rows:
            row.sort(key=lambda pair: (-pair[1], pair[0].uid))
        return rows


def loop_body(fn, loop):
    """The instructions of ``loop`` that get modulo start times.

    Raises :class:`SchedulingError` for loops out of scope: more than one
    block, a call in the body, or nothing to schedule.
    """
    if len(loop.blocks) != 1:
        raise SchedulingError(
            "modulo scheduling handles single-block loops only"
        )
    block = fn.block(loop.header)
    body = [
        i
        for i in block.instructions
        if not i.is_branch and not i.is_nop
    ]
    if any(i.is_call for i in block.instructions):
        raise SchedulingError("loops with calls are not pipelined")
    if not body:
        raise SchedulingError("empty loop body")
    return body


def build_modulo_edges(fn, loop, body, ddg):
    """Dependences with iteration distances for a single-block loop body.

    Distance-0 edges come straight from the DDG (in-block, forward);
    distance-1 edges are reconstructed from the loop-carried
    relationships the acyclic DDG intentionally drops: a register read
    whose in-block definition comes *later* is fed by the previous
    iteration; symmetrically, that read constrains the definition as a
    carried anti dependence; carried memory and output pairs get
    conservative distance-1 ordering.

    The result holds one edge per (src, dst, distance), in first-seen
    order, carrying the largest latency: a duplicate or lower-latency
    twin states a weaker dependence (and the same lifetime bound) and
    would only add rows to every model built from it.
    """
    members = set(body)
    edges = []
    for edge in ddg.edges:
        if edge.src in members and edge.dst in members:
            edges.append(
                ModuloEdge(edge.src, edge.dst, edge.latency, 0)
            )

    position = {instr: i for i, instr in enumerate(body)}
    for reader in body:
        for reg in reader.regs_read():
            writers = [
                w
                for w in body
                if reg in w.regs_written() and w is not reader
            ]
            for writer in writers:
                if position[writer] >= position[reader]:
                    # Value flows across the back edge.
                    edges.append(
                        ModuloEdge(writer, reader, writer.latency, 1)
                    )
            if reg in reader.regs_written():
                # Self-recurrence (post-increment style).
                edges.append(ModuloEdge(reader, reader, reader.latency, 1))

    # Carried anti: a later write must not overtake this iteration's read.
    for writer in body:
        for reg in writer.regs_written():
            for reader in body:
                if reader is writer:
                    continue
                if reg in reader.regs_read() and position[reader] > position[writer]:
                    edges.append(ModuloEdge(reader, writer, 0, 1))

    # Carried memory ordering (conservative: any store pairs).
    memory = [i for i in body if (i.is_load or i.is_store) and i.mem is not None]
    from repro.ir.alias import must_order

    for i, op_a in enumerate(memory):
        for op_b in memory:
            if op_a is op_b or not (op_a.is_store or op_b.is_store):
                continue
            if position[op_a] > position[op_b] and must_order(op_a.mem, op_b.mem):
                edges.append(ModuloEdge(op_a, op_b, 0, 1))

    merged = {}
    for edge in edges:
        kept = merged.setdefault((edge.src, edge.dst, edge.distance), edge)
        if edge.latency > kept.latency:
            merged[(edge.src, edge.dst, edge.distance)] = edge
    return list(merged.values())
