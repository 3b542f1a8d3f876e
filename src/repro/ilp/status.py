"""Result types of an ILP solve."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class SolveStatus(enum.Enum):
    """Outcome of a solve call."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # incumbent found, optimality not proven (limits hit)
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NO_SOLUTION = "no_solution"  # limits hit before any incumbent

    @property
    def has_solution(self):
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


@dataclass
class SolverStats:
    """Search statistics, the raw material of the paper's Table 2.

    ``nodes`` counts branch-and-bound nodes *explored* (the root relaxation
    counts as node 0, so a model solved at the root reports 0 — matching the
    convention CPLEX uses in the paper's table).
    """

    nodes: int = 0
    time_seconds: float = 0.0
    best_bound: float | None = None
    gap: float | None = None
    backend: str = ""
    # Incumbent/best-bound convergence record
    # (:class:`repro.obs.insight.GapTimeline`); the solver attaches one
    # and closes it on every exit path, fault and deadline exits included.
    gap_timeline: object = None


@dataclass
class Solution:
    """A (possibly optimal) assignment for a model.

    ``values`` maps :class:`~repro.ilp.expr.Var` to float; integer variables
    in an integral solution carry values within the integrality tolerance of
    an integer and should be read through :meth:`value_of` which rounds them.
    """

    status: SolveStatus
    objective: float | None = None
    values: dict = field(default_factory=dict)
    stats: SolverStats = field(default_factory=SolverStats)

    def value_of(self, var):
        """Value of ``var``, rounded to an exact integer for integer vars."""
        raw = self.values[var]
        if var.is_integer:
            return int(round(raw))
        return raw

    def __bool__(self):
        return self.status.has_solution


def record_solve_metrics(stats, seeded=False):
    """Publish one solve's :class:`SolverStats` to :mod:`repro.obs`.

    Called by the solver after a completed solve (it already collects
    these numbers for Table 2, so telemetry costs one guarded call per
    *solve*, nothing per node). ``seeded`` marks a solve that started
    from a caller-provided incumbent — the only warm start HiGHS gets
    through scipy, which offers no basis injection.
    """
    from repro.obs import core as obs

    if not obs.ENABLED:
        return
    backend = stats.backend or "unknown"
    obs.counter("solves_total", 1, backend=backend)
    obs.counter("bb_nodes_total", stats.nodes, backend=backend)
    obs.histogram("solve_nodes", stats.nodes, backend=backend)
    obs.histogram("solve_seconds", stats.time_seconds, backend=backend)
    if seeded:
        obs.counter("incumbent_seeded_solves_total", 1, backend=backend)
    if stats.gap is not None:
        obs.histogram("solve_gap", stats.gap, backend=backend)
