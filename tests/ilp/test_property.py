"""Property-based optimality check of the solver against brute force.

The random models have at most five binaries, so every one of the 2^n
points can be enumerated in the test: the enumeration decides
feasibility and the optimum on its own, independently of HiGHS.
"""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.ilp import HighsSolver, Model, SolveStatus


@st.composite
def small_milp(draw):
    """A random small MILP over binaries; negative right-hand sides make
    some draws infeasible."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, 4))
    coeffs = draw(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    rhs = draw(st.lists(st.integers(-6, 8), min_size=m, max_size=m))
    obj = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    return n, coeffs, rhs, obj


def _build(n, coeffs, rhs, obj):
    model = Model()
    xs = [model.add_binary(f"x{i}") for i in range(n)]
    for row, b in zip(coeffs, rhs):
        model.add_constraint(sum(c * x for c, x in zip(row, xs)) <= b)
    model.set_objective(sum(c * x for c, x in zip(obj, xs)))
    return model, xs


def _brute_force(n, coeffs, rhs, obj):
    """Optimal objective over all 2^n points, or ``None`` if none is
    feasible."""
    best = None
    for point in itertools.product((0, 1), repeat=n):
        feasible = all(
            sum(c * x for c, x in zip(row, point)) <= b
            for row, b in zip(coeffs, rhs)
        )
        if feasible:
            value = sum(c * x for c, x in zip(obj, point))
            best = value if best is None else min(best, value)
    return best


@given(small_milp())
@example((2, [[1, 1]], [-1], [1, 1]))  # no binary point: INFEASIBLE
@settings(max_examples=80, deadline=None)
def test_highs_matches_brute_force(problem):
    model, _ = _build(*problem)
    solution = HighsSolver().solve(model)
    best = _brute_force(*problem)
    if best is None:
        assert solution.status is SolveStatus.INFEASIBLE
    else:
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(best, abs=1e-6)


@given(small_milp())
@settings(max_examples=40, deadline=None)
def test_incumbent_satisfies_all_constraints(problem):
    model, xs = _build(*problem)
    solution = HighsSolver().solve(model)
    if not solution:
        assert _brute_force(*problem) is None
        return
    assignment = {x: solution.value_of(x) for x in xs}
    assert model.check_solution(assignment) == []
    assert all(solution.value_of(x) in (0, 1) for x in xs)
