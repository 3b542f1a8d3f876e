"""ILP-based software pipelining (modulo scheduling).

The paper closes with "currently we are studying ... how [the model] can
be modified to support software pipelining" — this module is that
extension: optimal modulo scheduling of single-block innermost loops,
built on the same ILP substrate.

Formulation (classic time-indexed modulo scheduling):

* body instructions get binaries ``x[n,t]`` with ``Σ_t x[n,t] = 1``,
  ``t`` ranging over n's start window within ``0..T_max``; branch
  instructions are excluded (the kernel's backedge branch recurs
  implicitly every II cycles);
* dependences carry an iteration *distance*: same-iteration edges from
  the in-block order, loop-carried edges (distance 1) from definitions
  reaching the next iteration and from carried anti/output pairs;
  feasibility requires ``t_n - t_m >= lat - distance · II``, linear in
  the start-time expressions ``Σ t·x``;
* modulo resource constraints: for every kernel slot ``s < II`` the
  instructions with ``t ≡ s (mod II)`` must fit one dispersal window
  (issue width and per-unit port caps, as in eq. (6)).

Search: II rises from the resource-derived lower bound (ResMII) and the
recurrence bound (RecMII) until the ILP is feasible — the first feasible
II is optimal. The result carries kernel, prologue and epilogue
instruction sequences (stage-annotated copies).

Restrictions: single-block loops (header == latch) without calls or
further control flow, mirroring where production compilers apply SWP and
exactly the loops the paper's routine selection avoided.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SchedulingError
from repro.ilp import Model, lin_sum, solve_model
from repro.machine.itanium2 import ITANIUM2
from repro.sched.modulo.bounds import (
    critical_path as _critical_path,
    recurrence_mii,
    resource_mii as _resource_mii,
    start_windows,
)
from repro.sched.modulo.formulation import (
    add_dependence_rows,
    add_reservation_rows,
)


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
    solver_stats: object = None

    def kernel(self):
        """Kernel rows: list (length II) of [(instr, stage), ...]."""
        rows = [[] for _ in range(self.ii)]
        for instr, start in self.start_times.items():
            rows[start % self.ii].append((instr, start // self.ii))
        for row in rows:
            row.sort(key=lambda pair: (pair[1], pair[0].uid))
        return rows

    def prologue(self):
        """Fill instructions: iterations 0..stages-2, stages not yet live."""
        out = []
        for fill in range(self.stages - 1):
            for instr, start in sorted(
                self.start_times.items(), key=lambda kv: kv[1]
            ):
                if start // self.ii <= fill:
                    out.append((instr.copy(), fill))
        return out

    def epilogue(self):
        """Drain instructions: the last stages-1 iterations finishing up."""
        out = []
        for drain in range(1, self.stages):
            for instr, start in sorted(
                self.start_times.items(), key=lambda kv: kv[1]
            ):
                if start // self.ii >= drain:
                    out.append((instr.copy(), drain))
        return out


class ModuloScheduler:
    """Optimal modulo scheduling via the ILP substrate."""

    def __init__(self, machine=ITANIUM2, time_limit=30.0, max_ii=64):
        self.machine = machine
        self.time_limit = time_limit
        self.max_ii = max_ii

    # -- public ---------------------------------------------------------------
    def schedule_loop(self, fn, cfg, ddg, loop):
        """Modulo-schedule a single-block loop; returns ModuloSchedule."""
        body = self._body_instructions(fn, loop)
        edges = build_modulo_edges(fn, loop, body, ddg)
        res_mii = self.resource_mii(body)
        rec_mii = recurrence_mii(body, edges)
        ii = max(res_mii, rec_mii, 1)
        while ii <= self.max_ii:
            schedule = self._try_ii(body, edges, ii)
            if schedule is not None:
                start_times, stats = schedule
                stages = 1 + max(
                    (t // ii for t in start_times.values()), default=0
                )
                return ModuloSchedule(
                    loop_header=loop.header,
                    ii=ii,
                    start_times=start_times,
                    stages=stages,
                    mii_resource=res_mii,
                    mii_recurrence=rec_mii,
                    solver_stats=stats,
                )
            ii += 1
        raise SchedulingError(
            f"no feasible II up to {self.max_ii} for loop {loop.header}"
        )

    # -- pieces ---------------------------------------------------------------
    @staticmethod
    def _body_instructions(fn, loop):
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

    def resource_mii(self, body):
        """ResMII: ceil(usage / capacity) over all unit classes.

        The computation lives in :mod:`repro.sched.modulo.bounds` (the
        canonical MII code shared with the modulo ILP ladder); this
        method survives as the machine-bound convenience form.
        """
        return _resource_mii(body, self.machine)

    def _try_ii(self, body, edges, ii):
        """Build and solve the time-indexed model for one candidate II.

        Each ``x[n,t]`` exists only inside n's start window over the
        horizon ``ii + critical path``; an empty window proves the II
        infeasible without a solve.
        """
        horizon = ii + _critical_path(body, edges)
        windows = start_windows(body, edges, ii, horizon)
        if windows is None:
            return None
        model = Model(f"swp_ii{ii}")
        cells, start = {}, {}
        slots = [[] for _ in range(ii)]
        for instr in body:
            earliest, latest = windows[instr]
            cells[instr] = [
                (t, model.add_binary(f"x_{instr.uid}_{t}"))
                for t in range(earliest, latest + 1)
            ]
            model.add_constraint(
                lin_sum(var for _t, var in cells[instr]) == 1,
                name=f"assign_{instr.uid}",
            )
            start[instr] = lin_sum(t * var for t, var in cells[instr] if t)
            for t, var in cells[instr]:
                slots[t % ii].append((instr, var))
        add_dependence_rows(model, edges, ii, start, windows)
        add_reservation_rows(model, slots, self.machine.ports)

        # Prefer flat schedules (fewer stages -> less prologue/epilogue).
        model.set_objective(lin_sum(start.values()))
        solution = solve_model(model, time_limit=self.time_limit)
        if not solution:
            return None
        times = {
            instr: int(round(sum(
                t * solution.value_of(var) for t, var in cells[instr]
            )))
            for instr in body
        }
        return times, solution.stats


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


# recurrence_mii, critical_path and start_windows live in
# repro.sched.modulo.bounds (imported above), and the dependence and
# reservation rows in repro.sched.modulo.formulation: the MII theory and
# the row families are shared verbatim between this time-indexed
# formulation and the modulo ILP.
