"""Fault-injection harness: spec parsing, activation, and mangling."""

import sys
import threading
import time

import pytest

from repro.ilp.expr import Var
from repro.ilp.status import Solution, SolveStatus
from repro.tools import faults


# -- parsing ------------------------------------------------------------------


def test_parse_empty_spec_is_none():
    assert faults.FaultPlan.parse("") is None
    assert faults.FaultPlan.parse("   ") is None
    assert faults.FaultPlan.parse(None) is None
    assert faults.FaultPlan.parse(" , ,") is None


def test_parse_multiple_entries_with_counts():
    plan = faults.FaultPlan.parse("solve.phase1=timeout, bundle=error:2")
    assert plan.fire("solve.phase1") == "timeout"
    assert plan.fire("bundle") == "error"
    assert plan.fire("bundle") == "error"
    assert plan.fire("bundle") is None  # the :2 budget is spent
    assert plan.fire("solve.phase1") == "timeout"  # unlimited keeps firing
    assert plan.fire("verify") is None  # unlisted site never fires


@pytest.mark.parametrize(
    "spec",
    [
        "nosuchsite=timeout",
        "solve.phase1=nosuchkind",
        "solve.phase1=timeout:0",
        "solve.phase1=timeout:-1",
    ],
)
def test_parse_rejects_bad_specs(spec):
    with pytest.raises(ValueError):
        faults.FaultPlan.parse(spec)


# -- activation ---------------------------------------------------------------


def test_no_active_plan_means_no_fault():
    assert faults.active_plan() is None
    assert faults.fire("solve.phase1") is None


def test_fire_with_no_site_never_fires():
    with faults.inject("solve.phase1=timeout"):
        assert faults.fire(None) is None
        assert faults.fire("solve.phase1") == "timeout"


def test_inject_context_manager_installs_and_uninstalls():
    with faults.inject("verify=error:1") as plan:
        assert faults.active_plan() is plan
        assert faults.fire("verify") == "error"
        assert faults.fire("verify") is None
    assert faults.active_plan() is None


def test_inject_empty_spec_yields_none():
    with faults.inject("") as plan:
        assert plan is None
        assert faults.fire("verify") is None


def test_nested_injection_innermost_wins():
    with faults.inject("solve.phase1=timeout"):
        with faults.inject("solve.phase1=infeasible") as inner:
            assert faults.active_plan() is inner
            assert faults.fire("solve.phase1") == "infeasible"
        assert faults.fire("solve.phase1") == "timeout"


def test_env_plan_counts_across_calls(monkeypatch):
    monkeypatch.setenv(faults.ENV_VAR, "bundle=error:1")
    faults.reset_env_cache()
    try:
        assert faults.fire("bundle") == "error"
        # Same cached plan: the single firing is spent for this process.
        assert faults.fire("bundle") is None
        faults.reset_env_cache()
        # A fresh parse restores the budget.
        assert faults.fire("bundle") == "error"
    finally:
        faults.reset_env_cache()


class _YieldingCount(int):
    """A firing budget whose comparison yields the GIL, so thread
    switches land between an injection's budget test and its decrement."""

    def __le__(self, other):
        time.sleep(0)
        return int(self) <= other

    def __sub__(self, other):
        return _YieldingCount(int(self) - other)


def test_bounded_injection_fires_exactly_n_times_across_threads():
    # Threads share sites (partition solves, the ladder beside the acyclic
    # pipeline). A tiny switch interval and a yielding budget force thread
    # switches between the budget test and its decrement, where an
    # unguarded counter overfires.
    with faults.inject("solve.phase1=error:5") as plan:
        (injection,) = plan._by_site["solve.phase1"]
        injection.remaining = _YieldingCount(injection.remaining)
        fired = []
        start = threading.Barrier(8, timeout=60)

        def hammer():
            start.wait()
            for _ in range(2000):
                if faults.fire("solve.phase1") is not None:
                    fired.append(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(fired) == 5


def test_installed_plan_shadows_env(monkeypatch):
    monkeypatch.setenv(faults.ENV_VAR, "bundle=error")
    faults.reset_env_cache()
    try:
        with faults.inject("verify=error"):
            assert faults.fire("bundle") is None
            assert faults.fire("verify") == "error"
        assert faults.fire("bundle") == "error"
    finally:
        faults.reset_env_cache()


# -- solution mangling --------------------------------------------------------


def _solution(status, values=None):
    return Solution(status, objective=1.0, values=values or {})


def test_demote_to_feasible_drops_only_the_proof():
    v = Var(0, "x", ub=1, is_integer=True)
    optimal = _solution(SolveStatus.OPTIMAL, {v: 1.0})
    demoted = faults.demote_to_feasible(optimal)
    assert demoted.status is SolveStatus.FEASIBLE
    assert demoted.objective == optimal.objective
    assert demoted.values is optimal.values
    # Anything below OPTIMAL passes through untouched.
    feasible = _solution(SolveStatus.FEASIBLE)
    assert faults.demote_to_feasible(feasible) is feasible


def test_corrupt_solution_clears_lowest_set_integers():
    ints = [Var(i, f"x{i}", ub=1, is_integer=True) for i in range(5)]
    cont = Var(5, "y", is_integer=False)
    values = {var: 1.0 for var in ints}
    values[cont] = 3.5
    solution = _solution(SolveStatus.OPTIMAL, values)
    corrupted = faults.corrupt_solution(solution, flips=3)
    assert [corrupted.values[v] for v in ints] == [0.0, 0.0, 0.0, 1.0, 1.0]
    assert corrupted.values[cont] == 3.5  # continuous vars untouched


def test_corrupt_solution_tolerates_empty_values():
    empty = _solution(SolveStatus.NO_SOLUTION, {})
    assert faults.corrupt_solution(empty) is empty


# -- fail-fast configuration errors -------------------------------------------


def test_bad_specs_raise_the_dedicated_config_error():
    with pytest.raises(faults.FaultConfigError) as excinfo:
        faults.FaultPlan.parse("nosuchsite=timeout")
    # The message names the offender and lists every valid site.
    message = str(excinfo.value)
    assert "nosuchsite" in message
    for site in faults.SITES:
        assert site in message


def test_bad_kind_message_lists_valid_kinds():
    with pytest.raises(faults.FaultConfigError) as excinfo:
        faults.FaultPlan.parse("bundle=explode")
    message = str(excinfo.value)
    assert "explode" in message
    for kind in faults.KINDS:
        assert kind in message


def test_config_error_is_a_value_error():
    # Callers that predate FaultConfigError catch ValueError; keep them.
    assert issubclass(faults.FaultConfigError, ValueError)


def test_parse_source_prefixes_the_error():
    with pytest.raises(faults.FaultConfigError, match="REPRO_FAULTS"):
        faults.FaultPlan.parse("bundle", source="REPRO_FAULTS")


def test_validate_env_raises_eagerly(monkeypatch):
    monkeypatch.setenv(faults.ENV_VAR, "solve.phase1=timeout:x")
    with pytest.raises(faults.FaultConfigError, match=faults.ENV_VAR):
        faults.validate_env()


def test_removed_portfolio_site_fails_fast(monkeypatch):
    """The solver race and its ``portfolio.cancel`` site are gone; an old
    chaos spec naming it is a configuration error, not a silent no-op."""
    assert "portfolio.cancel" not in faults.SITES
    monkeypatch.setenv(faults.ENV_VAR, "portfolio.cancel=error")
    with pytest.raises(faults.FaultConfigError, match="portfolio.cancel"):
        faults.validate_env()


def test_validate_env_accepts_good_and_empty_specs(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    assert faults.validate_env() is None
    monkeypatch.setenv(faults.ENV_VAR, "solve.phase1=timeout:2")
    plan = faults.validate_env()
    assert plan.fire("solve.phase1") == "timeout"


def test_validate_env_does_not_consume_active_budgets(monkeypatch):
    monkeypatch.setenv(faults.ENV_VAR, "bundle=error:1")
    faults.reset_env_cache()
    try:
        faults.validate_env()  # parses a *fresh* plan
        assert faults.fire("bundle") == "error"  # budget still intact
        assert faults.fire("bundle") is None
    finally:
        monkeypatch.delenv(faults.ENV_VAR)
        faults.reset_env_cache()
