"""Incumbent and cutoff seeding of a solve.

scipy's ``milp`` cannot hand HiGHS a start point or an objective cutoff,
so ``HighsSolver`` honours both after the solve. Three contracts must
hold on every model:

* seeding with the known optimum never changes the reported optimum;
* a cutoff at the optimum means nothing strictly better exists, which
  is reported as NO_SOLUTION;
* a solve that stops on a limit without a point falls back to a
  caller's incumbent as FEASIBLE, but only when that incumbent is
  feasible.
"""

import numpy as np
import pytest

from repro.ilp import HighsSolver, Model, SolveStatus, solve_model


def _knapsack(seed):
    rng = np.random.default_rng(seed)
    n = 10
    weights = rng.integers(1, 12, n)
    values = rng.integers(1, 20, n)
    model = Model()
    xs = [model.add_var(f"x{i}", lb=0, ub=1, is_integer=True) for i in range(n)]
    model.add_constraint(
        sum(int(w) * x for w, x in zip(weights, xs)) <= int(weights.sum() // 2)
    )
    model.set_objective(sum(-int(v) * x for v, x in zip(values, xs)))
    return model, xs


@pytest.mark.parametrize("seed", range(6))
def test_highs_seeding_and_cutoff_agree(seed):
    model, _ = _knapsack(seed)
    reference = solve_model(model)
    assert reference.status is SolveStatus.OPTIMAL

    # Seeding with the known optimum keeps the optimum.
    seeded = solve_model(model, incumbent=reference.values)
    assert seeded.status is SolveStatus.OPTIMAL
    assert seeded.objective == pytest.approx(reference.objective)

    # A cutoff at the optimum means nothing strictly better exists.
    cut = solve_model(model, cutoff=reference.objective)
    assert cut.status is SolveStatus.NO_SOLUTION

    # A cutoff above the optimum keeps it.
    loose = solve_model(model, cutoff=reference.objective + 1)
    assert loose.status is SolveStatus.OPTIMAL
    assert loose.objective == pytest.approx(reference.objective)


def test_limit_without_a_point_falls_back_to_the_incumbent():
    model, xs = _knapsack(0)
    # A zero time limit stops HiGHS before it finds any point.
    assert HighsSolver(time_limit=0.0).solve(model).status is (
        SolveStatus.NO_SOLUTION
    )
    point = {x: 0.0 for x in xs}
    point[xs[0]] = 1.0
    fallback = HighsSolver(time_limit=0.0).solve(model, incumbent=point)
    assert fallback.status is SolveStatus.FEASIBLE
    assert fallback.objective == pytest.approx(model.objective.value(point))
    assert [fallback.value_of(x) for x in xs] == [int(point[x]) for x in xs]
    timeline = fallback.stats.gap_timeline
    assert timeline.closed and timeline.status == "FEASIBLE"


def test_infeasible_incumbent_is_not_returned():
    model, xs = _knapsack(0)
    everything = {x: 1.0 for x in xs}  # breaks the capacity row
    solution = HighsSolver(time_limit=0.0).solve(model, incumbent=everything)
    assert solution.status is SolveStatus.NO_SOLUTION
    assert solution.values == {}
