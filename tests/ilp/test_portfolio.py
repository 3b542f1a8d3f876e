"""HiGHS is the only solver: ``solve_model`` takes no solver name.

The removed portfolio racer and the removed pure-Python branch-and-bound
stay gone: naming any backend is an error, never a silent fallback.
"""

import pytest

from repro.ilp import Model, solve_model


def _knapsack():
    """A small integral MILP HiGHS solves to proven optimality."""
    model = Model()
    items = [(10, 5), (8, 4), (6, 3), (4, 2), (11, 6)]
    take = [
        model.add_var(f"take{i}", lb=0, ub=1, is_integer=True)
        for i in range(len(items))
    ]
    model.add_constraint(
        sum(w * v for (_, w), v in zip(items, take)) <= 10
    )
    # Minimization form: most value packed == most negative objective.
    model.set_objective(sum(-p * v for (p, _), v in zip(items, take)))
    return model


def test_solve_model_rejects_unknown_backend():
    for backend in ("highs", "bb", "gurobi", "portfolio"):
        with pytest.raises(TypeError, match="backend"):
            solve_model(_knapsack(), backend=backend)
