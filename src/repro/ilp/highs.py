"""The MILP solver: ``scipy.optimize.milp`` (HiGHS branch-and-cut).

Every model the scheduler builds is solved here: the matrix form of a
:class:`~repro.ilp.model.Model` goes to HiGHS and the result comes back
as a :class:`~repro.ilp.status.Solution`, including the node count that
feeds the Table 2 reproduction.
"""

from __future__ import annotations

import time
import warnings

import numpy as np
from scipy import optimize

from repro.ilp.status import (
    Solution,
    SolveStatus,
    SolverStats,
    record_solve_metrics,
)
from repro.obs import core as obs
from repro.obs.insight import GapTimeline, fault_timeline as _fault_timeline
from repro.tools import faults

# scipy's milp flags ``mip_heuristic_effort`` as unrecognized but passes it
# to HiGHS verbatim; the warning is noise. The filter is installed once,
# here: ``warnings.catch_warnings()`` around each solve would swap the
# process-wide filter list, which races with solves on other threads (the
# SWP ladder, decompose's partitions).
warnings.filterwarnings(
    "ignore", message="Unrecognized options", category=RuntimeWarning
)


class HighsSolver:
    """Solve models with HiGHS via scipy.

    Parameters
    ----------
    time_limit:
        Wall-clock budget in seconds (``None`` = unlimited).
    node_limit:
        Branch-and-bound node cap.
    mip_rel_gap:
        Relative optimality tolerance. The paper grants CPLEX *no*
        tolerance ("only a 100% optimal result is accepted"), so the
        default is 0.
    """

    #: HiGHS ``mip_heuristic_effort`` for every solve (HiGHS' own default
    #: is 0.05). On HiGHS 1.12 (scipy 1.17) it does not pay: the smoke
    #: ``sweep`` of ``benchmarks/bench_solver.py`` (nine Table 2 routines,
    #: scale 0.25) summed 12.9 s of per-routine solve time at 0.05 and
    #: 13.2 s at 0.5, with identical optima. It stays at 0.5 so schedules
    #: and cache entries stay what they were; moving to the HiGHS default
    #: is a change to measure on its own.
    HEURISTIC_EFFORT = 0.5

    def __init__(self, time_limit=None, node_limit=None, mip_rel_gap=0.0):
        self.time_limit = time_limit
        self.node_limit = node_limit
        self.mip_rel_gap = mip_rel_gap

    def solve(self, model, incumbent=None, fault_site=None):
        """Solve ``model``; see :func:`repro.ilp.solve_model` for the API.

        scipy's ``milp`` wrapper offers no way to inject a starting
        solution into HiGHS, so ``incumbent`` is honoured post-hoc: a
        failed/timed-out solve falls back to the (validated) incumbent as
        a FEASIBLE answer instead of NO_SOLUTION.

        ``fault_site`` names this solve for deterministic fault injection
        (:mod:`repro.tools.faults`); an injected ``timeout`` reproduces
        exactly the limits-hit path (incumbent fallback included) and an
        injected ``infeasible`` the INFEASIBLE verdict, so the degradation
        ladder above sees the same statuses a real failure would produce.
        """
        fault = faults.fire(fault_site)
        if fault == "infeasible":
            stats = SolverStats(backend="highs")
            stats.gap_timeline = _fault_timeline("INFEASIBLE")
            return Solution(SolveStatus.INFEASIBLE, stats=stats)
        if fault == "timeout":
            stats = SolverStats(backend="highs")
            if incumbent is not None:
                fallback = self._incumbent_solution(
                    model, model.to_arrays(), incumbent, stats
                )
                if fallback is not None:
                    stats.gap_timeline = _fault_timeline(
                        "FEASIBLE", incumbent=fallback.objective
                    )
                    return fallback
            stats.gap_timeline = _fault_timeline("NO_SOLUTION")
            return Solution(SolveStatus.NO_SOLUTION, stats=stats)
        if not obs.ENABLED:
            solution = self._solve_impl(model, incumbent)
        else:
            with obs.span(
                "ilp.solve",
                backend="highs",
                variables=len(model.variables),
                constraints=model.num_constraints,
            ) as span:
                solution = self._solve_impl(model, incumbent)
                span.set_attr("status", solution.status.name)
                span.set_attr("nodes", solution.stats.nodes)
                if solution.stats.gap is not None:
                    span.set_attr("gap", solution.stats.gap)
            # scipy's milp offers no basis injection, so "warm start" here
            # means incumbent seeding (the cut loop's prev-optimum
            # hand-off); record it as such.
            record_solve_metrics(solution.stats, seeded=incumbent is not None)
        if fault == "incumbent":
            return faults.demote_to_feasible(solution)
        if fault == "corrupt" and solution.status.has_solution:
            faults.corrupt_solution(solution)
        return solution

    def _solve_impl(self, model, incumbent):
        start = time.perf_counter()
        # scipy's milp exposes no solve callback, so the timeline is the
        # coarsest honest record HiGHS allows: an opening sample before
        # the search and a closing one with the final incumbent/dual
        # bound. Still monotone, still closed on every exit path.
        timeline = GapTimeline()
        timeline.sample(0.0, label="start")
        arrays = model.to_arrays()
        constraints = optimize.LinearConstraint(
            arrays["A"], arrays["b_lo"], arrays["b_hi"]
        )
        bounds = optimize.Bounds(arrays["lb"], arrays["ub"])
        options = {"mip_rel_gap": self.mip_rel_gap}
        if self.time_limit is not None:
            options["time_limit"] = float(self.time_limit)
        if self.node_limit is not None:
            options["node_limit"] = int(self.node_limit)
        # Forwarded verbatim to HiGHS (see the module's warning filter).
        options["mip_heuristic_effort"] = self.HEURISTIC_EFFORT
        result = optimize.milp(
            arrays["c"],
            constraints=constraints,
            bounds=bounds,
            integrality=arrays["integrality"].astype(int),
            options=options,
        )
        elapsed = time.perf_counter() - start

        stats = SolverStats(
            nodes=int(getattr(result, "mip_node_count", 0) or 0),
            time_seconds=elapsed,
            best_bound=getattr(result, "mip_dual_bound", None),
            gap=getattr(result, "mip_gap", None),
            backend="highs",
        )
        stats.gap_timeline = timeline
        status = self._translate_status(result)
        if not status.has_solution:
            if status is SolveStatus.NO_SOLUTION and incumbent is not None:
                fallback = self._incumbent_solution(model, arrays, incumbent, stats)
                if fallback is not None:
                    timeline.close(
                        elapsed,
                        incumbent=fallback.objective,
                        bound=stats.best_bound,
                        nodes=stats.nodes,
                        status=SolveStatus.FEASIBLE.name,
                    )
                    return fallback
            timeline.close(
                elapsed,
                bound=stats.best_bound,
                nodes=stats.nodes,
                status=status.name,
            )
            return Solution(status, stats=stats)
        objective = float(result.fun)
        values = {}
        for var in model.variables:
            raw = float(result.x[var.index])
            values[var] = float(round(raw)) if var.is_integer else raw
        timeline.close(
            elapsed,
            incumbent=objective,
            bound=stats.best_bound,
            nodes=stats.nodes,
            status=status.name,
        )
        return Solution(status, objective, values, stats)

    @staticmethod
    def _incumbent_solution(model, arrays, incumbent, stats):
        """Validate a caller-provided point and wrap it as FEASIBLE."""
        point = np.zeros(len(arrays["c"]))
        if isinstance(incumbent, dict):
            for var, val in incumbent.items():
                point[var.index] = val
        else:
            point[:] = np.asarray(incumbent, dtype=float)
        integrality = arrays["integrality"].astype(bool)
        point[integrality] = np.round(point[integrality])
        if np.any(point < arrays["lb"] - 1e-7) or np.any(point > arrays["ub"] + 1e-7):
            return None
        activity = arrays["A"].dot(point)
        if np.any(activity < arrays["b_lo"] - 1e-6) or np.any(
            activity > arrays["b_hi"] + 1e-6
        ):
            return None
        values = {}
        for var in model.variables:
            raw = float(point[var.index])
            values[var] = float(round(raw)) if var.is_integer else raw
        objective = float(np.dot(arrays["c"], point))
        return Solution(SolveStatus.FEASIBLE, objective, values, stats)

    @staticmethod
    def _translate_status(result):
        # scipy milp status codes: 0 optimal, 1 iteration/time limit,
        # 2 infeasible, 3 unbounded, 4 numerical/other.
        if result.status == 0:
            return SolveStatus.OPTIMAL
        if result.status == 1:
            return (
                SolveStatus.FEASIBLE if result.x is not None else SolveStatus.NO_SOLUTION
            )
        if result.status == 2:
            return SolveStatus.INFEASIBLE
        if result.status == 3:
            return SolveStatus.UNBOUNDED
        return (
            SolveStatus.FEASIBLE if result.x is not None else SolveStatus.NO_SOLUTION
        )
