"""The solver menu is ``highs | bb``: the removed portfolio racer stays gone.

``solve_model`` must reject ``backend="portfolio"`` and any unknown name
with the menu in the message, never by falling back to another backend.
"""

import pytest

from repro.ilp import Model, solve_model


def _knapsack():
    """A small integral MILP both backends solve to proven optimality."""
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
    for backend in ("gurobi", "portfolio"):
        with pytest.raises(ValueError, match=r"expected one of highs, bb\)"):
            solve_model(_knapsack(), backend=backend)
