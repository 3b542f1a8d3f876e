"""The modulo ILP: decision variables per (instruction, row, stage).

:mod:`repro.sched.swp` keeps a *time-indexed* formulation — binaries
``x[n,t]`` over an absolute-time horizon — whose size grows with the
critical path, not the kernel.  This module is the genuinely *modulo*
formulation: each body instruction n picks one kernel **row**
``r = t mod II`` and one **stage** ``s = t div II``, via binaries
``y[n,r,s]`` with ``Σ y = 1``.  The model size is ``|body| · II ·
max_stages`` regardless of how long the unrolled schedule runs, and the
modulo reservation table is stated directly: the instructions sharing a
row occupy the *same* issue group of the kernel no matter their stage,
so one dispersal-window constraint per row covers the steady state
exactly (eq. (6) of the paper, wrapped around the kernel).

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

The objective minimizes ``Σ t_n``: flat schedules first, which keeps
the stage count — and therefore prologue/epilogue size — small.

The model is a standard :class:`repro.ilp.Model`, so it solves through
every existing backend.
"""

from __future__ import annotations

from repro.ilp import Model, lin_sum
from repro.machine.itanium2 import ITANIUM2
from repro.machine.units import UnitKind


class ModuloIlp:
    """Builds and decodes the (instruction, row, stage) model for one II."""

    def __init__(self, body, edges, ii, machine=ITANIUM2, max_stages=4):
        self.body = list(body)
        self.edges = list(edges)
        self.ii = int(ii)
        self.machine = machine
        self.max_stages = max(1, int(max_stages))
        self.vars = {}  # (instr, row, stage) -> binary Var
        self.start = {}  # instr -> LinExpr start time
        self.model = self._build()

    # -- model ----------------------------------------------------------------
    def _build(self):
        ii, stages = self.ii, self.max_stages
        model = Model(f"modulo_ii{ii}")
        for instr in self.body:
            cells = []
            for row in range(ii):
                for stage in range(stages):
                    var = model.add_binary(f"y_{instr.uid}_{row}_{stage}")
                    self.vars[(instr, row, stage)] = var
                    cells.append(var)
            model.add_constraint(
                lin_sum(cells) == 1, name=f"assign_{instr.uid}"
            )
            self.start[instr] = lin_sum(
                (stage * ii + row) * self.vars[(instr, row, stage)]
                for row in range(ii)
                for stage in range(stages)
                if stage * ii + row
            )

        members = set(self.body)
        for index, edge in enumerate(self.edges):
            if edge.src not in members or edge.dst not in members:
                continue
            bound = edge.latency - edge.distance * ii
            model.add_constraint(
                self.start[edge.dst] - self.start[edge.src] >= bound,
                name=f"dep_{index}",
            )
            if edge.latency > 0:
                # Lifetime / register-pressure bound: the value written
                # by src and read by dst stays live distance·II +
                # (t_dst − t_src) cycles; cap it so MVE's unroll factor
                # never exceeds the stage budget.
                model.add_constraint(
                    self.start[edge.dst] - self.start[edge.src]
                    <= stages * ii - 1 - edge.distance * ii,
                    name=f"life_{index}",
                )

        ports = self.machine.ports
        for row in range(ii):
            cells = [
                (instr, self.vars[(instr, row, stage)])
                for instr in self.body
                for stage in range(stages)
            ]
            total = lin_sum(
                (2.0 if i.unit is UnitKind.L else 1.0) * v for i, v in cells
            )
            model.add_constraint(
                total <= ports.issue_width, name=f"width_{row}"
            )
            self._unit_cap(model, cells, (UnitKind.M,), ports.m_ports, row, "m")
            self._unit_cap(
                model, cells, (UnitKind.I, UnitKind.L), ports.i_ports, row, "i"
            )
            self._unit_cap(model, cells, (UnitKind.F,), ports.f_ports, row, "f")
            self._unit_cap(model, cells, (UnitKind.B,), ports.b_ports, row, "b")
            self._unit_cap(
                model,
                cells,
                (UnitKind.A, UnitKind.M, UnitKind.I),
                ports.m_ports + ports.i_ports,
                row,
                "mi",
            )

        # Flat schedules first: fewer stages, smaller prologue/epilogue.
        model.set_objective(lin_sum(self.start.values()))
        return model

    @staticmethod
    def _unit_cap(model, cells, kinds, cap, row, tag):
        terms = [v for i, v in cells if i.unit in kinds]
        if len(terms) > cap:
            model.add_constraint(
                lin_sum(terms) <= cap, name=f"cap{tag}_{row}"
            )

    # -- decoding -------------------------------------------------------------
    def start_times(self, solution):
        """``{instr: absolute start cycle}`` from a feasible solution."""
        times = {}
        for instr in self.body:
            picked = None
            for row in range(self.ii):
                for stage in range(self.max_stages):
                    if solution.value_of(self.vars[(instr, row, stage)]) >= 0.5:
                        picked = stage * self.ii + row
                        break
                if picked is not None:
                    break
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
