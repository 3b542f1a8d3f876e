"""Integer linear programming substrate.

The paper solves its scheduling models with CPLEX 8.0, which is not
available here, so this package provides the whole ILP stack from scratch:

``repro.ilp.expr``
    Variables and linear-expression algebra (a small modeling language).
``repro.ilp.model``
    The :class:`Model` container: variables, linear constraints, objective,
    conversion to matrix form, LP-format export.
``repro.ilp.simplex``
    A dense two-phase primal simplex for linear programs (used for the
    relaxations of small models and as an independent cross-check of the
    scipy backend).
``repro.ilp.branch_bound``
    A pure-Python branch-and-bound MILP solver over LP relaxations.
``repro.ilp.highs``
    A backend that hands the matrix form to ``scipy.optimize.milp``
    (the HiGHS branch-and-cut solver bundled with scipy).
``repro.ilp.presolve``
    Bound tightening and fixed-variable elimination applied before search.

Solvers share the :class:`~repro.ilp.status.Solution` result type, which
carries the variable assignment, objective value, proof status and search
statistics (node counts and times reported in Table 2).
"""

from repro.ilp.expr import Var, LinExpr, lin_sum
from repro.ilp.model import Model, Constraint, Sense
from repro.ilp.status import SolveStatus, Solution, SolverStats
from repro.ilp.branch_bound import BranchBoundSolver
from repro.ilp.highs import HighsSolver
from repro.ilp.simplex import SimplexSolver, LpResult

#: Backends :func:`solve_model` dispatches on; eager feature validation
#: (``ScheduleFeatures.__post_init__``) and the CLIs list these instead of
#: hard-coding their own copies.
KNOWN_BACKENDS = ("highs", "bb")

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
    "BranchBoundSolver",
    "HighsSolver",
    "SimplexSolver",
    "LpResult",
    "KNOWN_BACKENDS",
    "solve_model",
]


def solve_model(
    model,
    backend="highs",
    incumbent=None,
    cutoff=None,
    deadline=None,
    fault_site=None,
    **kwargs,
):
    """Solve ``model`` with the named backend (``"highs"`` or ``"bb"``).

    Returns a :class:`Solution`. This is the convenience entry point used
    throughout the scheduler; pass ``time_limit`` / ``node_limit`` through
    ``kwargs`` to bound the search.

    ``incumbent`` (a ``{Var: value}`` mapping or index-aligned array) seeds
    the search with a known feasible point, and ``cutoff`` rejects any
    solution not strictly better than the given objective. Both are solve-
    time inputs, not solver configuration, so they are threaded into the
    ``solve`` call rather than the backend constructor; the cut loop uses
    them to hand each re-solve the previous attempt's optimum.

    ``deadline`` (a :class:`repro.tools.deadline.Deadline`) clips the
    effective ``time_limit`` to the budget's *remaining* seconds, so a
    chain of solves (phase 1, cut re-solves, phase 2) shares one clock
    instead of each starting a fresh limit. ``fault_site`` names this
    solve for :mod:`repro.tools.faults` injection; ``None`` (the default)
    is never faulted.
    """
    if deadline is not None:
        kwargs["time_limit"] = deadline.bound(kwargs.get("time_limit"))
    if backend == "highs":
        solver = HighsSolver(**kwargs)
    elif backend == "bb":
        solver = BranchBoundSolver(**kwargs)
    else:
        raise ValueError(
            f"unknown ILP backend: {backend!r} "
            f"(expected one of {', '.join(KNOWN_BACKENDS)})"
        )
    return solver.solve(
        model, incumbent=incumbent, cutoff=cutoff, fault_site=fault_site
    )
