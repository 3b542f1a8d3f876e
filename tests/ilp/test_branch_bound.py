"""Pure-Python branch-and-bound solver."""

import pytest

from repro.ilp import BranchBoundSolver, Model, SolveStatus, solve_model


def _knapsack():
    model = Model("knap")
    a, b, c = (model.add_binary(n) for n in "abc")
    model.add_constraint(2 * a + 3 * b + 1 * c <= 5)
    model.add_constraint(3 * a + 4 * b + 2 * c <= 8)
    model.set_objective(-(5 * a + 4 * b + 3 * c))
    return model, (a, b, c)


def test_knapsack_optimum():
    model, (a, b, c) = _knapsack()
    solution = BranchBoundSolver().solve(model)
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.objective == pytest.approx(-9.0)
    assert [solution.value_of(v) for v in (a, b, c)] == [1, 1, 0]


def test_simplex_relaxation_backend_agrees():
    model, _ = _knapsack()
    solution = BranchBoundSolver(relaxation="simplex").solve(model)
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.objective == pytest.approx(-9.0)


def test_infeasible_integer_model():
    model = Model()
    z = model.add_binary("z")
    model.add_constraint(2 * z == 1)  # no binary satisfies this
    solution = BranchBoundSolver().solve(model)
    assert solution.status is SolveStatus.INFEASIBLE


def test_node_limit_degrades_gracefully():
    model = Model()
    xs = [model.add_binary(f"x{i}") for i in range(12)]
    model.add_constraint(sum(xs[:6]) - sum(xs[6:]) == 0)
    model.set_objective(sum((i % 3 - 1) * x for i, x in enumerate(xs)))
    solution = BranchBoundSolver(node_limit=1).solve(model)
    assert solution.status in (
        SolveStatus.OPTIMAL,  # may solve at the root
        SolveStatus.FEASIBLE,
        SolveStatus.NO_SOLUTION,
    )


def test_integer_variables_rounded_in_solution():
    model = Model()
    x = model.add_var("x", lb=0, ub=10, is_integer=True)
    y = model.add_var("y", lb=0, ub=10)
    model.add_constraint(2 * x + y >= 7.5)
    model.set_objective(x + y)
    solution = BranchBoundSolver().solve(model)
    value = solution.value_of(x)
    assert isinstance(value, int)
    assert solution.status is SolveStatus.OPTIMAL


def test_pure_lp_passthrough():
    model = Model()
    x = model.add_var("x", lb=0, ub=4)
    model.set_objective(-x)
    solution = BranchBoundSolver().solve(model)
    assert solution.objective == pytest.approx(-4.0)


def test_solve_model_rejects_unknown_backend():
    model, _ = _knapsack()
    with pytest.raises(ValueError):
        solve_model(model, backend="cplex")


def test_bb_and_highs_reach_equal_optimum():
    """Both backends prove the same optimum on the same model."""
    solo = {b: solve_model(_knapsack()[0], backend=b) for b in ("highs", "bb")}
    assert all(s.status is SolveStatus.OPTIMAL for s in solo.values())
    assert solo["bb"].objective == pytest.approx(solo["highs"].objective)
    assert solo["bb"].objective == pytest.approx(-9.0)


def test_stats_populated():
    model, _ = _knapsack()
    solution = BranchBoundSolver().solve(model)
    assert solution.stats.lp_solves >= 1
    assert solution.stats.time_seconds >= 0.0
    assert solution.stats.backend.startswith("bb/")
