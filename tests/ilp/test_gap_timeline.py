"""Gap-timeline integrity: monotone, closed on every exit path, picklable."""

import pickle

import pytest

from repro.ilp import HighsSolver, Model, SolveStatus
from repro.obs.insight import GapTimeline, compute_gap, fault_timeline
from repro.tools import faults


def _knapsack():
    model = Model("knap")
    a, b, c = (model.add_binary(n) for n in "abc")
    model.add_constraint(2 * a + 3 * b + 1 * c <= 5)
    model.add_constraint(3 * a + 4 * b + 2 * c <= 8)
    model.set_objective(-(5 * a + 4 * b + 3 * c))
    return model


def _branchy():
    """A model whose root LP relaxation is fractional.

    Max-weight stable set on three odd 5-cycles: the root LP relaxation
    is all 0.5, so the solver has to cut or branch.
    """
    model = Model("branchy")
    weights = [3, 4, 5, 4, 3]
    objective = 0
    for cycle in range(3):
        xs = [model.add_binary(f"c{cycle}_x{i}") for i in range(5)]
        for i in range(5):
            model.add_constraint(xs[i] + xs[(i + 1) % 5] <= 1)
        objective = objective - sum(
            (w + cycle) * x for w, x in zip(weights, xs)
        )
    model.set_objective(objective)
    return model


def _assert_monotone(timeline):
    gaps = [s["gap"] for s in timeline["samples"] if s["gap"] is not None]
    assert all(a >= b for a, b in zip(gaps, gaps[1:])), gaps


# -- unit behaviour -----------------------------------------------------------
def test_compute_gap_convention():
    assert compute_gap(10.0, 10.0) == 0.0
    assert compute_gap(10.0, 5.0) == pytest.approx(0.5)
    assert compute_gap(0.5, 0.0) == pytest.approx(0.5)  # max(1, |inc|) floor
    assert compute_gap(None, 5.0) is None
    assert compute_gap(10.0, float("inf")) is None
    assert compute_gap(float("nan"), 1.0) is None


def test_sample_clamps_monotone():
    timeline = GapTimeline()
    timeline.sample(0.0, incumbent=10.0, bound=5.0)   # gap 0.5
    timeline.sample(1.0, incumbent=10.0, bound=8.0)   # gap 0.2
    # An apparently wider gap (clock skew) records the tighter value.
    assert timeline.sample(2.0, incumbent=10.0, bound=4.0) == pytest.approx(0.2)
    _assert_monotone(timeline.as_dict())
    assert timeline.final_gap == pytest.approx(0.2)


def test_close_is_idempotent_and_latches():
    timeline = GapTimeline()
    timeline.sample(0.0, incumbent=3.0, bound=3.0)
    timeline.close(1.0, incumbent=3.0, bound=3.0, status="OPTIMAL")
    assert timeline.closed and timeline.status == "OPTIMAL"
    n = len(timeline)
    timeline.close(2.0, status="FEASIBLE")  # no-op
    timeline.sample(3.0, incumbent=1.0, bound=0.0)  # no-op after close
    assert len(timeline) == n
    assert timeline.status == "OPTIMAL"


def test_fault_timeline_is_closed_with_two_samples():
    timeline = fault_timeline("NO_SOLUTION")
    d = timeline.as_dict()
    assert d["closed"] and d["status"] == "NO_SOLUTION"
    assert len(d["samples"]) == 2


# -- solver exit paths --------------------------------------------------------
@pytest.mark.parametrize("solver_cls", [HighsSolver])
def test_optimal_exit_closes_timeline(solver_cls):
    solution = solver_cls().solve(_knapsack())
    assert solution.status is SolveStatus.OPTIMAL
    timeline = solution.stats.gap_timeline
    assert timeline is not None and timeline.closed
    assert len(timeline) >= 2
    assert timeline.status == "OPTIMAL"
    assert timeline.final_gap == pytest.approx(0.0)
    _assert_monotone(timeline.as_dict())


@pytest.mark.parametrize("solver_cls", [HighsSolver])
def test_infeasible_exit_closes_timeline(solver_cls):
    model = Model()
    z = model.add_binary("z")
    model.add_constraint(2 * z == 1)
    solution = solver_cls().solve(model)
    assert solution.status is SolveStatus.INFEASIBLE
    timeline = solution.stats.gap_timeline
    assert timeline is not None and timeline.closed
    assert timeline.status == "INFEASIBLE"


def test_timeout_exit_closes_timeline():
    # A zero time limit stops HiGHS before it finds any point.
    solution = HighsSolver(time_limit=0.0).solve(_branchy())
    assert solution.status is SolveStatus.NO_SOLUTION
    timeline = solution.stats.gap_timeline
    assert timeline is not None and timeline.closed
    assert timeline.status == solution.status.name


@pytest.mark.parametrize("solver_cls", [HighsSolver])
def test_injected_timeout_fault_closes_timeline(solver_cls):
    with faults.inject("solve.phase1=timeout:1"):
        solution = solver_cls().solve(
            _knapsack(), fault_site="solve.phase1"
        )
    assert solution.status is SolveStatus.NO_SOLUTION
    timeline = solution.stats.gap_timeline
    assert timeline is not None and timeline.closed
    assert len(timeline) >= 2


@pytest.mark.parametrize("solver_cls", [HighsSolver])
def test_injected_infeasible_fault_closes_timeline(solver_cls):
    with faults.inject("solve.phase1=infeasible:1"):
        solution = solver_cls().solve(
            _knapsack(), fault_site="solve.phase1"
        )
    assert solution.status is SolveStatus.INFEASIBLE
    assert solution.stats.gap_timeline.closed


def test_timeline_pickles_with_stats():
    solution = HighsSolver().solve(_branchy())
    blob = pickle.dumps(solution.stats)
    stats = pickle.loads(blob)
    assert stats.gap_timeline.closed
    assert stats.gap_timeline.as_dict() == solution.stats.gap_timeline.as_dict()
