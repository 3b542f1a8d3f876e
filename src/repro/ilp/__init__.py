"""Integer linear programming substrate.

The paper solves its scheduling models with CPLEX 8.0, which is not
available here. As in the paper, one general MILP solver does the
search: HiGHS, bundled with scipy.

``repro.ilp.expr``
    Variables and linear-expression algebra (a small modeling language).
``repro.ilp.model``
    The :class:`Model` container: variables, linear constraints, objective,
    conversion to matrix form, LP-format export.
``repro.ilp.highs``
    The solver: hands the matrix form to ``scipy.optimize.milp`` (the
    HiGHS branch-and-cut solver bundled with scipy).

Solutions use the :class:`~repro.ilp.status.Solution` result type, which
carries the variable assignment, objective value, proof status and search
statistics (node counts and times reported in Table 2).
"""

from repro.ilp.expr import Var, LinExpr, lin_sum
from repro.ilp.model import Model, Constraint, Sense
from repro.ilp.status import SolveStatus, Solution, SolverStats
from repro.ilp.highs import HighsSolver

__all__ = [
    "Var",
    "LinExpr",
    "lin_sum",
    "Model",
    "Constraint",
    "Sense",
    "SolveStatus",
    "Solution",
    "SolverStats",
    "HighsSolver",
    "solve_model",
]


def solve_model(
    model,
    incumbent=None,
    deadline=None,
    fault_site=None,
    **kwargs,
):
    """Solve ``model`` with HiGHS; returns a :class:`Solution`.

    This is the convenience entry point used throughout the scheduler;
    pass ``time_limit`` / ``node_limit`` through ``kwargs`` to bound the
    search.

    ``incumbent`` (a ``{Var: value}`` mapping or index-aligned array) seeds
    the search with a known feasible point. It is a solve-time input, not
    solver configuration, so it is threaded into the ``solve`` call rather
    than the solver constructor; the cut loop uses it to hand each
    re-solve the previous attempt's optimum.

    ``deadline`` (a :class:`repro.tools.deadline.Deadline`) clips the
    effective ``time_limit`` to the budget's *remaining* seconds, so a
    chain of solves (phase 1, cut re-solves, phase 2) shares one clock
    instead of each starting a fresh limit. ``fault_site`` names this
    solve for :mod:`repro.tools.faults` injection; ``None`` (the default)
    is never faulted.
    """
    if deadline is not None:
        kwargs["time_limit"] = deadline.bound(kwargs.get("time_limit"))
    return HighsSolver(**kwargs).solve(
        model, incumbent=incumbent, fault_site=fault_site
    )
