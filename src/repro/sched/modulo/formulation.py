"""The modulo ILP: decision variables per (instruction, row, stage).

The one software-pipelining formulation, and a genuinely *modulo* one:
each body instruction n picks one kernel **row** ``r = t mod II`` and
one **stage** ``s = t div II``, via binaries
``y[n,r,s]`` with ``Σ y = 1``.  The model size is at most ``|body| · II
· max_stages`` regardless of how long the unrolled schedule runs, and
the modulo reservation table is stated directly: the instructions
sharing a row occupy the *same* issue group of the kernel no matter
their stage, so one dispersal-window constraint per row covers the
steady state exactly (eq. (6) of the paper, wrapped around the kernel).

Constraints:

* assignment — every instruction takes exactly one (row, stage);
* dependences — with ``t_n = Σ (s·II + r)·y[n,r,s]`` linear in the
  binaries, an edge (m → n, latency, distance) requires
  ``t_n − t_m ≥ latency − distance·II``;
* modulo reservation table — per row, summed over stages: the machine
  issue width (L-unit ops weighted 2) and each per-unit port cap;
* stage count / register pressure — the stage domain itself caps
  ``t < max_stages·II``, and every value-carrying edge additionally
  bounds its lifetime ``t_n + distance·II − t_m ≤ max_stages·II − 1``,
  so modulo variable expansion never needs more than ``max_stages``
  renamed copies per value (the materializer's unroll factor ``u`` is
  ``max(stages, lifetime div II + 1)`` — this row keeps it, and with it
  the kernel's register pressure, bounded).

Variables exist only inside each instruction's **start window**
(:func:`repro.sched.modulo.bounds.start_windows`): the earliest and
latest start the dependence and lifetime rows allow in ``0 ..
max_stages·II − 1``.  Every cell outside it is zero in every feasible
solution, so dropping it — and every dependence, lifetime or resource
row the windows already satisfy — leaves the integer-feasible set and
the optimum unchanged.  An empty window proves the II infeasible
(``windows is None``), and then no model is built (``model is None``).
The edge list from :func:`repro.sched.swp.build_modulo_edges` is
already merged to one edge per (src, dst, distance), so no row is
stated twice.

The objective minimizes ``Σ t_n``: flat schedules first, which keeps
the stage count — and therefore prologue/epilogue size — small.

The model is a standard :class:`repro.ilp.Model`, so it solves through
:func:`repro.ilp.solve_model` like every other model.
"""

from __future__ import annotations

from repro.ilp import Model, lin_sum
from repro.machine.itanium2 import ITANIUM2
from repro.machine.units import UnitKind
from repro.sched.modulo.bounds import start_windows


class ModuloIlp:
    """Builds and decodes the (instruction, row, stage) model for one II."""

    def __init__(self, body, edges, ii, machine=ITANIUM2, max_stages=4):
        self.body = list(body)
        self.edges = list(edges)
        self.ii = int(ii)
        self.machine = machine
        self.max_stages = max(1, int(max_stages))
        self.horizon = self.max_stages * self.ii - 1
        # instr -> (earliest, latest) start; None proves the II infeasible.
        self.windows = start_windows(
            self.body, self.edges, self.ii, self.horizon, lifetimes=True
        )
        self.cells = {}  # instr -> [(start, binary Var)] in (row, stage) order
        self.start = {}  # instr -> LinExpr start time
        self.model = None if self.windows is None else self._build()

    # -- model ----------------------------------------------------------------
    def _build(self):
        ii, stages = self.ii, self.max_stages
        model = Model(f"modulo_ii{ii}")
        rows = [[] for _ in range(ii)]
        for instr in self.body:
            earliest, latest = self.windows[instr]
            cells = self.cells[instr] = []
            for row in range(ii):
                for stage in range(stages):
                    start = stage * ii + row
                    if earliest <= start <= latest:
                        var = model.add_binary(f"y_{instr.uid}_{row}_{stage}")
                        cells.append((start, var))
                        rows[row].append((instr, var))
            model.add_constraint(
                lin_sum(var for _start, var in cells) == 1,
                name=f"assign_{instr.uid}",
            )
            self.start[instr] = lin_sum(start * var for start, var in cells
                                        if start)
        add_dependence_rows(model, self.edges, ii, self.start, self.windows,
                            self.horizon)
        add_reservation_rows(model, rows, self.machine.ports)
        # Flat schedules first: fewer stages, smaller prologue/epilogue.
        model.set_objective(lin_sum(self.start.values()))
        return model

    # -- decoding -------------------------------------------------------------
    def start_times(self, solution):
        """``{instr: absolute start cycle}`` from a feasible solution."""
        times = {}
        for instr in self.body:
            picked = next(
                (start for start, var in self.cells[instr]
                 if solution.value_of(var) >= 0.5),
                None,
            )
            if picked is None:
                return None  # corrupt assignment row (e.g. injected fault)
            times[instr] = picked
        return times

    @property
    def size(self):
        return {
            "constraints": self.model.num_constraints,
            "variables": self.model.num_variables,
        }


def add_dependence_rows(model, edges, ii, start, windows, lifetime):
    """``t_dst − t_src ≥ latency − distance·II`` per in-body edge.

    ``start`` maps an instruction to its start expression and ``windows``
    to its ``(earliest, latest)`` start; a row the two windows already
    satisfy is implied and left out.  ``lifetime`` (the stage horizon)
    adds the cap ``t_dst − t_src ≤ lifetime − distance·II`` on every
    value-carrying edge.
    """
    for index, edge in enumerate(edges):
        if edge.src not in start or edge.dst not in start:
            continue
        if edge.src is edge.dst:
            least = most = 0  # a self-edge's gap is 0 at every start
        else:
            least = windows[edge.dst][0] - windows[edge.src][1]
            most = windows[edge.dst][1] - windows[edge.src][0]
        gap = start[edge.dst] - start[edge.src]
        bound = edge.latency - edge.distance * ii
        if least < bound:
            model.add_constraint(gap >= bound, name=f"dep_{index}")
        if edge.latency <= 0:
            continue
        # Lifetime / register-pressure bound: the value written by src
        # and read by dst stays live distance·II + (t_dst − t_src)
        # cycles; cap it so MVE's unroll factor never exceeds the stage
        # budget.
        cap = lifetime - edge.distance * ii
        if most > cap:
            model.add_constraint(gap <= cap, name=f"life_{index}")


def add_reservation_rows(model, rows, ports):
    """The modulo reservation table: one dispersal window per kernel row.

    ``rows[r]`` lists the ``(instr, binary)`` cells that issue in kernel
    row r.  A cap is stated only where its cells could exceed it.
    """
    weight = {UnitKind.L: 2.0}
    for row, cells in enumerate(rows):
        if sum(weight.get(i.unit, 1.0) for i, _v in cells) > ports.issue_width:
            model.add_constraint(
                lin_sum(weight.get(i.unit, 1.0) * v for i, v in cells)
                <= ports.issue_width,
                name=f"width_{row}",
            )
        for kinds, cap, tag in (
            ((UnitKind.M,), ports.m_ports, "m"),
            ((UnitKind.I, UnitKind.L), ports.i_ports, "i"),
            ((UnitKind.F,), ports.f_ports, "f"),
            ((UnitKind.B,), ports.b_ports, "b"),
            ((UnitKind.A, UnitKind.M, UnitKind.I),
             ports.m_ports + ports.i_ports, "mi"),
        ):
            terms = [v for i, v in cells if i.unit in kinds]
            if len(terms) > cap:
                model.add_constraint(
                    lin_sum(terms) <= cap, name=f"cap{tag}_{row}"
                )
