"""Pure-Python branch-and-bound MILP solver.

This is the stand-in for the paper's CPLEX: a branch-and-bound search over
LP relaxations. Relaxations are solved either with scipy's ``linprog``
(HiGHS, the default) or with the package's own dense simplex
(:mod:`repro.ilp.simplex`) so the whole stack can run without scipy's C
solvers if required.

Search architecture (the solver-throughput overhaul):

* a **two-policy frontier** — an initial LIFO *dive* finds an incumbent
  fast, then the open nodes move into a best-bound min-heap; both
  structures push and pop in O(log n), with no linear rescans or
  ``heap.remove`` calls on the hot path,
* **lazy node evaluation** — a node stores only the *bound deltas* along
  its path from the root (O(depth) memory, not O(vars) bound-array
  copies); its LP is solved once, when it is popped,
* **pseudocost branching** seeded from most-fractional until per-variable
  degradation history accumulates,
* **warm-started relaxations** — with the ``"simplex"`` engine each node
  reuses its parent's optimal basis and reoptimizes with dual simplex
  pivots (:meth:`repro.ilp.simplex.SimplexSolver.solve_arrays`); the
  scipy/HiGHS engine keeps cold solves but still benefits from the cheap
  node bookkeeping,
* **incumbent / cutoff seeding** — a caller holding a feasible assignment
  (e.g. the scheduler's bundling-cut loop) can pass it in to start the
  search with an upper bound,
* relaxations that hit an iteration or numerical limit are surfaced as
  ``"unknown"`` (counted in :attr:`SolverStats.unknown_lps`) and demote
  the final status from OPTIMAL to FEASIBLE instead of being silently
  pruned,
* node / time limits with graceful ``FEASIBLE``/``NO_SOLUTION`` statuses,
  search statistics (explored nodes, LP solves, wall time) feeding Table 2.
"""

from __future__ import annotations

import heapq
import math
import time

import numpy as np
from scipy import optimize, sparse

from repro.errors import IlpError
from repro.ilp.presolve import presolve_arrays
from repro.ilp.simplex import SimplexSolver
from repro.ilp.status import (
    Solution,
    SolveStatus,
    SolverStats,
    record_solve_metrics,
)
from repro.obs import core as obs
from repro.obs.insight import GapTimeline, fault_timeline as _fault_timeline
from repro.tools import faults

_INT_TOL = 1e-6
# Gap-timeline sampling cadence: one sample per this many explored nodes
# (plus one per new incumbent). One min() over the open frontier every 32
# LP solves is noise next to the solves themselves.
_GAP_SAMPLE_NODES = 32


class _Relaxation:
    """LP relaxation oracle with per-node variable bounds.

    ``solve`` returns ``(status, objective, x, basis)`` where status is one
    of ``"optimal"``, ``"infeasible"``, ``"unbounded"`` or ``"unknown"``
    (the relaxation hit an iteration/numerical limit and produced no
    verdict — callers must NOT treat that as infeasible). ``basis`` is a
    warm-start token for a later call (simplex engine only).
    """

    def __init__(self, arrays, engine="scipy"):
        self.c = arrays["c"]
        self.engine = engine
        a_mat = arrays["A"]
        b_lo, b_hi = arrays["b_lo"], arrays["b_hi"]
        eq_rows = np.isfinite(b_lo) & np.isfinite(b_hi) & (b_lo == b_hi)
        ub_rows = np.isfinite(b_hi) & ~eq_rows
        lo_rows = np.isfinite(b_lo) & ~eq_rows
        blocks, rhs = [], []
        if ub_rows.any():
            blocks.append(a_mat[ub_rows])
            rhs.append(b_hi[ub_rows])
        if lo_rows.any():
            blocks.append(-a_mat[lo_rows])
            rhs.append(-b_lo[lo_rows])
        self.a_ub = sparse.vstack(blocks).tocsr() if blocks else None
        self.b_ub = np.concatenate(rhs) if rhs else None
        self.a_eq = a_mat[eq_rows].tocsr() if eq_rows.any() else None
        self.b_eq = b_hi[eq_rows] if eq_rows.any() else None
        self.arrays = arrays
        self.iterations = 0  # simplex pivots across the whole tree
        if engine == "simplex":
            # The dense conversion is done once for the whole tree instead
            # of once per node.
            self._dense_a = np.asarray(a_mat.todense(), dtype=float)
            self._simplex = SimplexSolver()

    def solve(self, lb, ub, warm_basis=None):
        """Solve min c'x with the given bound vectors."""
        if np.any(lb > ub + 1e-12):
            return "infeasible", None, None, None
        if self.engine == "simplex":
            local = dict(self.arrays)
            local["A"] = self._dense_a
            local["lb"], local["ub"] = lb, ub
            try:
                result = self._simplex.solve_arrays(local, warm_basis=warm_basis)
            except IlpError:
                return "unknown", None, None, None
            self.iterations += result.iterations
            return result.status, result.objective, result.x, result.basis
        bounds = np.column_stack([lb, ub])
        result = optimize.linprog(
            self.c,
            A_ub=self.a_ub,
            b_ub=self.b_ub,
            A_eq=self.a_eq,
            b_eq=self.b_eq,
            bounds=bounds,
            method="highs",
        )
        self.iterations += int(getattr(result, "nit", 0) or 0)
        if result.status == 2:
            return "infeasible", None, None, None
        if result.status == 3:
            return "unbounded", None, None, None
        if not result.success:
            # Iteration limit (1) or numerical trouble (4): no verdict.
            return "unknown", None, None, None
        return "optimal", float(result.fun), result.x, None

    def check_point(self, x, tol=1e-6):
        """Feasibility of ``x`` against rows and bounds, via the cached CSR."""
        arrays = self.arrays
        if np.any(x < arrays["lb"] - tol) or np.any(x > arrays["ub"] + tol):
            return False
        if self.a_ub is not None and np.any(self.a_ub @ x > self.b_ub + tol):
            return False
        if self.a_eq is not None and np.any(
            np.abs(self.a_eq @ x - self.b_eq) > tol
        ):
            return False
        return True


class _Pseudocosts:
    """Per-variable branching degradation history (objective per unit)."""

    def __init__(self, n):
        self.sums = {"down": np.zeros(n), "up": np.zeros(n)}
        self.counts = {"down": np.zeros(n), "up": np.zeros(n)}

    def record(self, var, direction, frac, gain):
        distance = frac if direction == "down" else 1.0 - frac
        unit = max(gain, 0.0) / max(distance, 1e-4)
        self.sums[direction][var] += unit
        self.counts[direction][var] += 1.0

    def select(self, x, int_idx):
        """Pick the branch variable; returns (index, value) or None.

        Product rule over down/up pseudocosts; variables without history
        fall back to the average initialized pseudocost, and when *nothing*
        is initialized yet the choice is seeded from most-fractional.
        """
        values = x[int_idx]
        dist = np.abs(values - np.round(values))
        mask = dist > _INT_TOL
        if not mask.any():
            return None
        cand = int_idx[mask]
        cand_vals = values[mask]
        frac = cand_vals - np.floor(cand_vals)
        cnt_d, cnt_u = self.counts["down"][cand], self.counts["up"][cand]
        if not ((cnt_d > 0) | (cnt_u > 0)).any():
            pick = int(np.argmax(dist[mask]))
            return int(cand[pick]), float(cand_vals[pick])
        avg_d = self._average("down")
        avg_u = self._average("up")
        pc_d = np.where(
            cnt_d > 0, self.sums["down"][cand] / np.maximum(cnt_d, 1.0), avg_d
        )
        pc_u = np.where(
            cnt_u > 0, self.sums["up"][cand] / np.maximum(cnt_u, 1.0), avg_u
        )
        score = np.maximum(pc_d * frac, 1e-6) * np.maximum(
            pc_u * (1.0 - frac), 1e-6
        )
        best = np.max(score)
        # Break near-ties toward the most fractional candidate.
        tied = score >= best * (1.0 - 1e-9)
        pick = int(np.flatnonzero(tied)[np.argmax(dist[mask][tied])])
        return int(cand[pick]), float(cand_vals[pick])

    def _average(self, direction):
        counts = self.counts[direction]
        initialized = counts > 0
        if not initialized.any():
            return 1.0
        return float(
            np.sum(self.sums[direction][initialized] / counts[initialized])
            / np.count_nonzero(initialized)
        )

    def snapshot(self, top=8):
        """Plain-data dump of the most-branched variables (telemetry).

        Returns up to ``top`` rows ordered by total branch count, each
        ``{"var", "down_avg", "up_avg", "down_count", "up_count"}`` — the
        pseudocost table a dashboard can render without numpy.
        """
        total = self.counts["down"] + self.counts["up"]
        active = np.flatnonzero(total)
        if active.size == 0:
            return []
        order = active[np.argsort(-total[active], kind="stable")][:top]
        rows = []
        for var in order:
            var = int(var)
            row = {"var": var}
            for direction, key in (("down", "down"), ("up", "up")):
                count = self.counts[direction][var]
                avg = (
                    self.sums[direction][var] / count if count > 0 else 0.0
                )
                row[f"{key}_avg"] = float(avg)
                row[f"{key}_count"] = int(count)
            rows.append(row)
        return rows


class _Node:
    """An open branch-and-bound node: bound deltas, not bound arrays.

    ``deltas`` is the tuple of ``(var, is_upper, value)`` bound changes
    along the path from the root — O(depth) per node. The parent's LP
    solution is *not* stored; the node's relaxation is solved lazily when
    it is popped. ``basis`` is the parent's warm-start token (shared, not
    copied).
    """

    __slots__ = ("bound", "deltas", "basis", "bvar", "bdir", "bfrac")

    def __init__(self, bound, deltas, basis, bvar, bdir, bfrac):
        self.bound = bound
        self.deltas = deltas
        self.basis = basis
        self.bvar = bvar
        self.bdir = bdir
        self.bfrac = bfrac


class BranchBoundSolver:
    """Branch-and-bound over LP relaxations.

    Parameters
    ----------
    time_limit:
        Wall-clock budget in seconds (``None`` = unlimited). When exceeded
        the best incumbent (if any) is returned with status ``FEASIBLE``.
    node_limit:
        Maximum number of explored nodes.
    relaxation:
        ``"scipy"`` (HiGHS linprog) or ``"simplex"`` (own dense simplex,
        with parent-basis warm starts).
    rounding_heuristic:
        Try rounding the root relaxation to snatch an early incumbent.
    dive_first:
        Explore depth-first from the root until the first incumbent, then
        switch to best-bound order.
    """

    def __init__(
        self,
        time_limit=None,
        node_limit=200000,
        relaxation="scipy",
        rounding_heuristic=True,
        dive_first=True,
    ):
        self.time_limit = time_limit
        self.node_limit = node_limit
        self.relaxation = relaxation
        self.rounding_heuristic = rounding_heuristic
        self.dive_first = dive_first

    # -- public -------------------------------------------------------------
    def solve(self, model, incumbent=None, cutoff=None, fault_site=None):
        """Solve ``model``; returns a :class:`Solution`.

        ``incumbent`` seeds the search with a known assignment (a mapping
        ``Var -> value`` or an index-aligned array); it is validated
        against the model and silently discarded if infeasible — e.g. the
        previous schedule after a bundling cut outlawed it. ``cutoff``
        prunes all nodes with bound >= cutoff: only strictly better
        solutions are searched for, and exhausting the tree without one
        yields ``NO_SOLUTION`` (*not* INFEASIBLE — the caller's cutoff
        solution still stands).

        ``fault_site`` enables deterministic fault injection
        (:mod:`repro.tools.faults`) with the same status semantics as the
        HiGHS backend: ``timeout`` returns the validated incumbent as
        FEASIBLE (else NO_SOLUTION), ``infeasible`` the INFEASIBLE
        verdict; ``incumbent``/``corrupt`` mangle a completed solve.
        """
        fault = faults.fire(fault_site)
        stats_name = f"bb/{self.relaxation}"
        if fault == "infeasible":
            stats = SolverStats(backend=stats_name)
            stats.gap_timeline = _fault_timeline("INFEASIBLE")
            return Solution(SolveStatus.INFEASIBLE, stats=stats)
        if fault == "timeout":
            stats = SolverStats(backend=stats_name)
            if incumbent is not None:
                oracle = _Relaxation(model.to_arrays())
                int_idx = np.where(oracle.arrays["integrality"])[0]
                seeded = self._validate_incumbent(
                    model, incumbent, oracle, int_idx
                )
                if seeded is not None:
                    x, obj = seeded
                    values = {}
                    for var in model.variables:
                        raw = float(x[var.index])
                        values[var] = (
                            float(round(raw)) if var.is_integer else raw
                        )
                    stats.gap_timeline = _fault_timeline(
                        "FEASIBLE", incumbent=obj
                    )
                    return Solution(SolveStatus.FEASIBLE, obj, values, stats)
            stats.gap_timeline = _fault_timeline("NO_SOLUTION")
            return Solution(SolveStatus.NO_SOLUTION, stats=stats)
        # Telemetry rides on the stats the search already collects, so
        # the node loop itself carries no instrumentation overhead.
        if not obs.ENABLED:
            solution = self._solve_impl(model, incumbent, cutoff)
        else:
            with obs.span(
                "ilp.solve",
                backend=stats_name,
                variables=len(model.variables),
                constraints=model.num_constraints,
            ) as span:
                solution = self._solve_impl(model, incumbent, cutoff)
                span.set_attr("status", solution.status.name)
                span.set_attr("nodes", solution.stats.nodes)
                if solution.stats.gap is not None:
                    span.set_attr("gap", solution.stats.gap)
            record_solve_metrics(solution.stats, seeded=incumbent is not None)
        if fault == "incumbent":
            return faults.demote_to_feasible(solution)
        if fault == "corrupt" and solution.status.has_solution:
            faults.corrupt_solution(solution)
        return solution

    def _solve_impl(self, model, incumbent, cutoff):
        start = time.perf_counter()
        stats = SolverStats(backend=f"bb/{self.relaxation}")
        arrays = model.to_arrays()
        arrays, fixed_empty = presolve_arrays(arrays)
        if fixed_empty:
            stats.time_seconds = time.perf_counter() - start
            stats.gap_timeline = _fault_timeline("INFEASIBLE")
            return Solution(SolveStatus.INFEASIBLE, stats=stats)

        integrality = arrays["integrality"]
        int_idx = np.where(integrality)[0]
        oracle = _Relaxation(arrays, engine=self.relaxation)
        obj_integral = self._objective_is_integral(arrays)
        root_lb, root_ub = arrays["lb"], arrays["ub"]

        # The convergence record. Sampled after the root relaxation, on
        # every new incumbent and per node batch; closed (exactly once)
        # on *every* exit path below, so ``closed`` is a trustworthy
        # "the search really ended" marker for dashboards.
        timeline = stats.gap_timeline = GapTimeline()
        status, obj, x, basis = oracle.solve(root_lb, root_ub)
        stats.lp_solves += 1
        stats.simplex_iterations = oracle.iterations
        if status == "infeasible":
            stats.time_seconds = time.perf_counter() - start
            timeline.close(stats.time_seconds, status="INFEASIBLE")
            return Solution(SolveStatus.INFEASIBLE, stats=stats)
        if status == "unbounded":
            stats.time_seconds = time.perf_counter() - start
            timeline.close(stats.time_seconds, status="UNBOUNDED")
            return Solution(SolveStatus.UNBOUNDED, stats=stats)
        if status == "unknown":
            stats.unknown_lps += 1
            stats.time_seconds = time.perf_counter() - start
            timeline.close(stats.time_seconds, status="NO_SOLUTION")
            return Solution(SolveStatus.NO_SOLUTION, stats=stats)

        incumbent_x = None
        incumbent_obj = math.inf
        had_cutoff = cutoff is not None
        if cutoff is not None:
            incumbent_obj = float(cutoff)
        seeded = self._validate_incumbent(model, incumbent, oracle, int_idx)
        if seeded is not None and seeded[1] < incumbent_obj - 1e-9:
            incumbent_x, incumbent_obj = seeded

        timeline.sample(
            time.perf_counter() - start,
            incumbent=incumbent_obj if incumbent_x is not None else None,
            bound=obj,
            label="root",
        )
        frac = _Pseudocosts(len(root_lb)).select(x, int_idx)  # integrality probe
        if frac is None:
            if obj < incumbent_obj - 1e-9:
                return self._finish(model, x, obj, stats, start, optimal=True)
            if incumbent_x is not None:
                return self._finish(
                    model, incumbent_x, incumbent_obj, stats, start, optimal=True
                )
            # Integral root at or above the cutoff: nothing strictly better.
            stats.time_seconds = time.perf_counter() - start
            timeline.close(
                stats.time_seconds, bound=obj, status="NO_SOLUTION"
            )
            return Solution(SolveStatus.NO_SOLUTION, stats=stats)

        if self.rounding_heuristic:
            rounded = self._try_rounding(oracle, x, int_idx)
            if rounded is not None and rounded[1] < incumbent_obj - 1e-9:
                incumbent_x, incumbent_obj = rounded
                timeline.sample(
                    time.perf_counter() - start,
                    incumbent=incumbent_obj,
                    bound=obj,
                    label="incumbent",
                )

        pseudo = _Pseudocosts(len(root_lb))
        dive = []  # LIFO stack: depth-first until the first incumbent
        heap = []  # best-bound min-heap of (bound, tie, _Node)
        tie = 0
        proven = True  # no unknown relaxations dropped
        timed_out = False
        diving = self.dive_first and incumbent_x is None

        def push(node):
            nonlocal tie
            if diving:
                dive.append(node)
            else:
                tie += 1
                heapq.heappush(heap, (node.bound, tie, node))

        self._branch(push, x, obj, (), basis, pseudo, int_idx)

        def open_bound(extra=None):
            """Best bound over the open frontier (None when exhausted)."""
            bounds = [] if extra is None else [extra]
            if heap:
                bounds.append(heap[0][0])
            if dive:
                bounds.append(min(n.bound for n in dive))
            return min(bounds, default=None)

        def take_sample(label=None, extra_bound=None):
            timeline.sample(
                time.perf_counter() - start,
                incumbent=incumbent_obj if incumbent_x is not None else None,
                bound=open_bound(extra_bound),
                nodes=stats.nodes,
                label=label,
            )

        while dive or heap:
            if self.time_limit is not None and (
                time.perf_counter() - start > self.time_limit
            ):
                timed_out = True
                break
            if stats.nodes >= self.node_limit:
                timed_out = True
                break
            node = dive.pop() if dive else heapq.heappop(heap)[2]
            if self._prune(node.bound, incumbent_obj, obj_integral):
                continue
            lb, ub = self._materialize(root_lb, root_ub, node.deltas)
            status, node_obj, node_x, node_basis = oracle.solve(
                lb, ub, warm_basis=node.basis
            )
            stats.nodes += 1
            stats.lp_solves += 1
            if stats.nodes % _GAP_SAMPLE_NODES == 0:
                take_sample(extra_bound=node.bound)
            if node.basis is not None:
                stats.warm_starts += 1
            if status == "unknown":
                stats.unknown_lps += 1
                proven = False
                continue
            if status != "optimal":
                continue
            pseudo.record(
                node.bvar, node.bdir, node.bfrac, node_obj - node.bound
            )
            if self._prune(node_obj, incumbent_obj, obj_integral):
                continue
            frac = pseudo.select(node_x, int_idx)
            if frac is None:
                incumbent_obj, incumbent_x = node_obj, node_x
                if diving:
                    diving = False
                    self._flush_dive(dive, push)
                take_sample(label="incumbent")
                continue
            self._branch(
                push, node_x, node_obj, node.deltas, node_basis, pseudo, int_idx,
                choice=frac,
            )

        stats.simplex_iterations = oracle.iterations
        stats.pseudocosts = pseudo.snapshot()
        if timed_out:
            open_bounds = [n.bound for n in dive]
            open_bounds.extend(entry[0] for entry in heap)
            stats.best_bound = min(open_bounds, default=incumbent_obj)
        else:
            stats.best_bound = incumbent_obj if incumbent_x is not None else None
        if incumbent_x is None:
            stats.time_seconds = time.perf_counter() - start
            if timed_out or had_cutoff or not proven:
                timeline.close(
                    stats.time_seconds,
                    bound=stats.best_bound,
                    nodes=stats.nodes,
                    status="NO_SOLUTION",
                )
                return Solution(SolveStatus.NO_SOLUTION, stats=stats)
            timeline.close(
                stats.time_seconds, nodes=stats.nodes, status="INFEASIBLE"
            )
            return Solution(SolveStatus.INFEASIBLE, stats=stats)
        return self._finish(
            model,
            incumbent_x,
            incumbent_obj,
            stats,
            start,
            optimal=not timed_out and proven,
        )

    # -- search helpers ------------------------------------------------------
    def _branch(self, push, x, obj, deltas, basis, pseudo, int_idx, choice=None):
        """Create the down/up children of a solved node.

        During the dive phase the preferred child (the rounding direction
        of the fractional value) is pushed last so the LIFO pops it first.
        """
        if choice is None:
            choice = pseudo.select(x, int_idx)
        var, value = choice
        down = _Node(
            obj, deltas + ((var, True, math.floor(value)),), basis,
            var, "down", value - math.floor(value),
        )
        up = _Node(
            obj, deltas + ((var, False, math.ceil(value)),), basis,
            var, "up", value - math.floor(value),
        )
        if value - math.floor(value) >= 0.5:
            push(down)
            push(up)
        else:
            push(up)
            push(down)

    @staticmethod
    def _materialize(root_lb, root_ub, deltas):
        """Apply a node's bound deltas to fresh copies of the root bounds."""
        lb, ub = root_lb.copy(), root_ub.copy()
        for var, is_upper, value in deltas:
            if is_upper:
                ub[var] = value
            else:
                lb[var] = value
        return lb, ub

    @staticmethod
    def _flush_dive(dive, push):
        """Move the dive stack into the best-bound heap (incumbent found).

        Re-pushes through the caller's ``push`` so every heap entry gets
        a unique tie id — two entries with equal ``(bound, tie)`` would
        fall through to comparing :class:`_Node` objects, which do not
        order.
        """
        pending = list(dive)
        dive.clear()
        for node in pending:
            push(node)

    def _validate_incumbent(self, model, incumbent, oracle, int_idx):
        """Turn a caller-provided assignment into (x, obj) if feasible."""
        if incumbent is None:
            return None
        if isinstance(incumbent, dict):
            x = np.zeros(len(model.variables))
            try:
                for var in model.variables:
                    x[var.index] = float(incumbent[var])
            except KeyError:
                return None
        else:
            x = np.asarray(incumbent, dtype=float)
            if x.shape != (len(model.variables),):
                return None
        if int_idx.size:
            if np.any(np.abs(x[int_idx] - np.round(x[int_idx])) > 1e-4):
                return None
            x = x.copy()
            x[int_idx] = np.round(x[int_idx])
        if not oracle.check_point(x):
            return None
        return x, float(np.dot(oracle.arrays["c"], x))

    # -- helpers ------------------------------------------------------------
    @staticmethod
    def _objective_is_integral(arrays):
        coeffs = arrays["c"][np.abs(arrays["c"]) > 0]
        if coeffs.size == 0:
            return True
        on_integers = arrays["integrality"][np.abs(arrays["c"]) > 0]
        return bool(
            np.all(on_integers) and np.allclose(coeffs, np.round(coeffs), atol=1e-9)
        )

    @staticmethod
    def _prune(bound, incumbent_obj, obj_integral):
        if not math.isfinite(incumbent_obj):
            return False
        if obj_integral:
            return math.ceil(bound - 1e-6) >= incumbent_obj - 1e-9
        return bound >= incumbent_obj - 1e-9

    def _try_rounding(self, oracle, x, int_idx):
        """Round the relaxation; accept only a verified-feasible incumbent.

        Clip-and-round in one pass, then check feasibility through the
        oracle's prebuilt CSR blocks instead of re-multiplying the full
        row matrix.
        """
        arrays = oracle.arrays
        candidate = x.copy()
        candidate[int_idx] = np.round(candidate[int_idx])
        np.clip(candidate, arrays["lb"], arrays["ub"], out=candidate)
        if int_idx.size:
            # Clipping a rounded integer against a fractional bound could
            # de-integralize it; re-round and reject if out of bounds.
            candidate[int_idx] = np.round(candidate[int_idx])
        if not oracle.check_point(candidate):
            return None
        return candidate, float(np.dot(arrays["c"], candidate))

    def _finish(self, model, x, obj, stats, start, optimal):
        stats.time_seconds = time.perf_counter() - start
        if optimal and stats.best_bound is None and obj is not None:
            # A proven-optimal search closed the tree: the bound met the
            # incumbent, so the reported gap is exactly 0.
            stats.best_bound = float(obj)
        if stats.best_bound is not None and obj is not None and obj != 0:
            stats.gap = abs(obj - stats.best_bound) / max(1.0, abs(obj))
        status = SolveStatus.OPTIMAL if optimal else SolveStatus.FEASIBLE
        if stats.gap_timeline is not None:
            stats.gap_timeline.close(
                stats.time_seconds,
                incumbent=obj,
                bound=stats.best_bound,
                nodes=stats.nodes,
                status=status.name,
            )
        values = {}
        for var in model.variables:
            raw = float(x[var.index])
            values[var] = float(round(raw)) if var.is_integer else raw
        return Solution(status, float(obj), values, stats)
