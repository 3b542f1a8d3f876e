"""HiGHS solver behaviour."""

import os
import subprocess
import sys

import pytest

from repro.ilp import HighsSolver, Model, SolveStatus


def test_optimal_knapsack():
    model = Model()
    a, b = model.add_binary("a"), model.add_binary("b")
    model.add_constraint(a + b <= 1)
    model.set_objective(-(3 * a + 2 * b))
    solution = HighsSolver().solve(model)
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.objective == pytest.approx(-3.0)
    assert solution.value_of(a) == 1 and solution.value_of(b) == 0


def test_infeasible():
    model = Model()
    z = model.add_binary("z")
    model.add_constraint(z >= 1)
    model.add_constraint(z <= 0)
    assert HighsSolver().solve(model).status is SolveStatus.INFEASIBLE


def test_unbounded():
    model = Model()
    x = model.add_var("x", lb=0, ub=None)
    model.set_objective(-x)
    status = HighsSolver().solve(model).status
    assert status in (SolveStatus.UNBOUNDED, SolveStatus.NO_SOLUTION)


def test_equality_constraints():
    model = Model()
    x = model.add_var("x", lb=0, ub=9, is_integer=True)
    y = model.add_var("y", lb=0, ub=9, is_integer=True)
    model.add_constraint(x + y == 7)
    model.add_constraint(x - y == 1)
    solution = HighsSolver().solve(model)
    assert solution.value_of(x) == 4 and solution.value_of(y) == 3


def test_stats_carry_backend_name():
    model = Model()
    x = model.add_binary("x")
    model.set_objective(x)
    solution = HighsSolver().solve(model)
    assert solution.stats.backend == "highs"
    assert solution.stats.time_seconds >= 0.0


THREADED_SOLVES = """
import sys
import threading

from repro.ilp import HighsSolver, Model

sys.setswitchinterval(1e-6)
model = Model()
a, b = model.add_binary("a"), model.add_binary("b")
model.add_constraint(a + b <= 1)
model.set_objective(-(3 * a + 2 * b))
errors = []


def solve_many():
    try:
        for _ in range(400):
            HighsSolver().solve(model)
    except Exception as exc:
        errors.append(exc)


threads = [threading.Thread(target=solve_many) for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
print(errors[:1])
sys.exit(1 if errors else 0)
"""


def test_unrecognized_option_warning_stays_silent_across_threads():
    # A per-solve warnings.catch_warnings() swaps the process-wide filter
    # list: one thread's exit drops the filter another thread relies on,
    # and under -W error the warning then fails that thread's solve.
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", THREADED_SOLVES],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
