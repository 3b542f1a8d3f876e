"""The portfolio racer: bus semantics, determinism, fault degradation.

Three contracts under test:

* the :class:`IncumbentBus` is tighten-only in both directions — a worse
  incumbent or weaker bound never replaces a better one, and a poisoned
  runner's state is discarded wholesale;
* the race emits exactly what the winning backend would have produced
  solo, with a deterministic seeded tie-break for photo finishes;
* every ``portfolio.cancel`` fault kind degrades the race to the
  surviving lanes — the portfolio itself never raises.
"""

import numpy as np
import pytest

from repro.ilp import (
    BranchBoundSolver,
    IncumbentBus,
    Model,
    PortfolioSolver,
    RunnerControl,
    SolveStatus,
    solve_model,
)
from repro.ilp.portfolio import KNOWN_RUNNERS
from repro.tools import faults


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


# -- IncumbentBus -------------------------------------------------------------
def test_bus_incumbent_tighten_only():
    bus = IncumbentBus()
    assert bus.publish_incumbent("a", [1.0, 0.0], 5.0)
    # Equal and worse offers are rejected and counted.
    assert not bus.publish_incumbent("b", [0.0, 1.0], 5.0)
    assert not bus.publish_incumbent("b", [0.0, 1.0], 7.0)
    assert bus.rejected == 2
    assert bus.publish_incumbent("b", [0.0, 1.0], 3.0)
    values, objective, version = bus.best_incumbent()
    assert objective == 3.0
    assert list(values) == [0.0, 1.0]
    assert bus.incumbent_holder() == "b"
    # The returned vector is a copy: mutating it cannot corrupt the bus.
    values[0] = 99.0
    assert list(bus.best_incumbent()[0]) == [0.0, 1.0]


def test_bus_incumbent_version_skips_seen():
    bus = IncumbentBus()
    bus.publish_incumbent("a", [1.0], 5.0)
    _, _, version = bus.best_incumbent()
    assert bus.best_incumbent(newer_than=version) is None
    bus.publish_incumbent("a", [0.0], 4.0)
    assert bus.best_incumbent(newer_than=version) is not None


def test_bus_bounds_tighten_only_per_runner():
    bus = IncumbentBus()
    assert bus.publish_bound("a", 1.0)
    assert not bus.publish_bound("a", 0.5)  # weaker: dropped
    assert bus.publish_bound("a", 2.0)
    assert bus.publish_bound("b", 1.5)
    assert bus.best_bound() == 2.0
    # Non-finite and absent bounds never land.
    assert not bus.publish_bound("c", float("nan"))
    assert not bus.publish_bound("c", float("-inf"))
    assert not bus.publish_bound("c", None)


def test_bus_poison_discards_state():
    bus = IncumbentBus()
    bus.publish_bound("a", 5.0)
    bus.publish_bound("b", 1.0)
    bus.publish_incumbent("a", [1.0], 2.0)
    bus.poison("a")
    # Its bound is gone, its incumbent is gone, future publishes bounce.
    assert bus.best_bound() == 1.0
    assert bus.best_incumbent() is None
    assert not bus.publish_bound("a", 9.0)
    assert not bus.publish_incumbent("a", [1.0], 0.0)
    assert bus.is_poisoned("a")
    # A healthy runner can still take over the incumbent slot.
    assert bus.publish_incumbent("b", [0.0], 3.0)


def test_control_poll_skips_own_publishes():
    bus = IncumbentBus()
    mine = RunnerControl("me", bus=bus)
    other = RunnerControl("other", bus=bus)
    mine.publish_incumbent([1.0], 5.0)
    assert mine.published == 1
    assert mine.poll_incumbent() is None  # own publish: not an exchange
    polled = other.poll_incumbent()
    assert polled is not None and polled[1] == 5.0
    other.publish_incumbent([0.0], 3.0)
    polled = mine.poll_incumbent()
    assert polled is not None and polled[1] == 3.0
    # Nothing new since: the poll stays quiet.
    assert mine.poll_incumbent() is None


def test_detached_control_never_touches_bus():
    control = RunnerControl("ordered#0", bus=None)
    control.publish_incumbent([1.0], 5.0)
    control.publish_bound(1.0)
    assert control.poll_incumbent() is None
    assert control.published == 0


# -- roster validation --------------------------------------------------------
def test_unknown_runner_rejected_eagerly():
    with pytest.raises(ValueError, match="ordered:highs"):
        PortfolioSolver(backends=("highs", "simplex"))
    with pytest.raises(ValueError, match="empty"):
        PortfolioSolver(backends=())


def test_solve_model_rejects_unknown_backend():
    with pytest.raises(ValueError, match="portfolio"):
        solve_model(_knapsack(), backend="gurobi")


# -- racing -------------------------------------------------------------------
def test_race_matches_single_backends():
    model = _knapsack()
    solo = {b: solve_model(_knapsack(), backend=b) for b in ("highs", "bb")}
    assert all(s.status is SolveStatus.OPTIMAL for s in solo.values())
    raced = PortfolioSolver(backends=("highs", "bb"), time_limit=30.0).solve(
        model
    )
    assert raced.status is SolveStatus.OPTIMAL
    assert raced.objective == pytest.approx(solo["highs"].objective)
    assert raced.stats.backend == "portfolio"
    detail = raced.stats.portfolio
    assert detail["winner"] in ("highs", "bb")
    assert detail["proof"] in ("solo", "combined")
    assert set(detail["lanes"]) == {"highs#0", "bb#1"}


def test_race_emits_winner_solution_verbatim():
    """The raced values are the winner's own solo solution, bit for bit."""
    raced = PortfolioSolver(
        backends=("highs", "bb"), time_limit=30.0, seed=1
    ).solve(_knapsack())
    winner = raced.stats.portfolio["winner"]
    solo = solve_model(_knapsack(), backend=winner)
    raced_vec = [raced.values[v] for v in sorted(raced.values, key=lambda v: v.index)]
    solo_vec = [solo.values[v] for v in sorted(solo.values, key=lambda v: v.index)]
    assert raced_vec == solo_vec


def test_same_seed_same_winner():
    def run(seed):
        # Each lane proves this model in tens of milliseconds; a tick
        # well above that keeps a loaded machine from splitting the two
        # finishes across ticks.
        solution = PortfolioSolver(
            backends=("highs", "bb"), time_limit=30.0, seed=seed,
            poll_interval=0.25,
        ).solve(_knapsack())
        return solution.stats.portfolio["winner"], solution.objective

    first = run(7)
    assert run(7) == first  # deterministic rerun
    # Both backends prove within one poll tick, so the seeded
    # permutation alone picks the winner — and some seed must pick each
    # of the two lanes.
    winners = {run(seed)[0] for seed in range(8)}
    assert winners == {"highs", "bb"}


def test_thread_cap_still_runs_all_lanes():
    raced = PortfolioSolver(
        backends=("highs", "bb"), time_limit=30.0, threads=1
    ).solve(_knapsack())
    assert raced.status is SolveStatus.OPTIMAL
    lanes = raced.stats.portfolio["lanes"]
    # With one slot the race decides after the first lane proves; the
    # second never needs to start.
    assert lanes["highs#0"]["started"] or lanes["bb#1"]["started"]


def test_caller_incumbent_seeds_the_bus():
    model = _knapsack()
    reference = solve_model(_knapsack(), backend="highs")
    by_index = {v.index: val for v, val in reference.values.items()}
    incumbent = {v: by_index[v.index] for v in model.variables}
    raced = PortfolioSolver(backends=("highs", "bb"), time_limit=30.0).solve(
        model, incumbent=incumbent
    )
    assert raced.status is SolveStatus.OPTIMAL
    assert raced.objective == pytest.approx(reference.objective)


# -- fault degradation --------------------------------------------------------
@pytest.mark.parametrize(
    "kind", ["crash", "error", "timeout", "corrupt", "infeasible", "incumbent"]
)
def test_lane_fault_degrades_to_survivor(kind):
    """One faulted lane never takes the race down with it."""
    with faults.inject(f"portfolio.cancel={kind}:1"):
        raced = PortfolioSolver(
            backends=("highs", "bb"), time_limit=30.0
        ).solve(_knapsack())
    assert raced.status is SolveStatus.OPTIMAL
    reference = solve_model(_knapsack(), backend="highs")
    assert raced.objective == pytest.approx(reference.objective)
    detail = raced.stats.portfolio
    faulted = [l for l in detail["lanes"].values() if l["fault"]]
    assert len(faulted) == 1 and faulted[0]["fault"] == kind


def test_all_lanes_faulted_still_never_raises():
    with faults.inject("portfolio.cancel=crash"):
        raced = PortfolioSolver(
            backends=("highs", "bb"), time_limit=10.0
        ).solve(_knapsack())
    # Nothing survived and nothing was seeded: an honest no-answer.
    assert raced.status in (SolveStatus.NO_SOLUTION, SolveStatus.FEASIBLE)


def test_all_lanes_faulted_falls_back_to_caller_incumbent():
    model = _knapsack()
    reference = solve_model(_knapsack(), backend="highs")
    by_index = {v.index: val for v, val in reference.values.items()}
    incumbent = {v: by_index[v.index] for v in model.variables}
    with faults.inject("portfolio.cancel=crash"):
        raced = PortfolioSolver(
            backends=("highs", "bb"), time_limit=10.0
        ).solve(model, incumbent=incumbent)
    assert raced.status is SolveStatus.FEASIBLE
    assert raced.objective == pytest.approx(reference.objective)


def test_poisoned_lane_bounds_never_combine():
    """A corrupt lane's (possibly bogus) dual bound cannot close a
    combined proof: poison drops it from ``best_bound``."""
    bus = IncumbentBus()
    bus.publish_bound("bad", 1000.0)
    bus.publish_incumbent("good", [1.0], 999.0)
    bus.poison("bad")
    assert bus.best_bound() is None  # nothing left to prove with


# -- backend cancel hooks -----------------------------------------------------
def test_bb_cancel_stops_promptly_without_proof():
    control = RunnerControl("bb#0")
    control.cancel()
    solution = BranchBoundSolver(control=control).solve(_knapsack())
    assert solution.status is not SolveStatus.OPTIMAL


def test_bb_adopts_bus_incumbent_and_publishes():
    """A bb lane wired to a bus publishes its incumbents/bounds there."""
    bus = IncumbentBus()
    control = RunnerControl("bb#0", bus=bus)
    model = _knapsack()
    solution = BranchBoundSolver(control=control).solve(model)
    assert solution.status is SolveStatus.OPTIMAL
    entry = bus.best_incumbent()
    assert entry is not None
    assert entry[1] == pytest.approx(solution.objective)
    assert bus.best_bound() == pytest.approx(solution.objective, abs=1e-6)


def test_known_runner_roster_is_stable():
    # The wire protocol and CLI complete against this tuple; growing it
    # is fine, renaming entries is a breaking change.
    assert set(KNOWN_RUNNERS) >= {"highs", "bb", "ordered:highs", "ordered:bb"}


# -- budget-aware lane ordering ------------------------------------------------
class _FakeRunner:
    def __init__(self, index, spec):
        self.index = index
        self.spec = spec


def test_order_lanes_by_win_rate_then_speed():
    solver = PortfolioSolver(
        backends=("highs", "bb", "ordered:highs"),
        threads=1,
        lane_stats={
            "highs": {"win_rate": 0.2, "mean_seconds": 0.5},
            "bb": {"win_rate": 0.8, "mean_seconds": 2.0},
            # ordered:highs absent: untried runners sort last.
        },
    )
    pending = [
        _FakeRunner(0, "highs"),
        _FakeRunner(1, "bb"),
        _FakeRunner(2, "ordered:highs"),
    ]
    ordered = [r.spec for r in solver._order_lanes(pending)]
    assert ordered == ["bb", "highs", "ordered:highs"]


def test_order_lanes_speed_breaks_win_rate_ties():
    solver = PortfolioSolver(
        backends=("highs", "bb"),
        threads=1,
        lane_stats={
            "highs": {"win_rate": 0.5, "mean_seconds": 3.0},
            "bb": {"win_rate": 0.5, "mean_seconds": 0.1},
        },
    )
    pending = [_FakeRunner(0, "highs"), _FakeRunner(1, "bb")]
    assert [r.spec for r in solver._order_lanes(pending)] == ["bb", "highs"]


def test_serialized_race_with_lane_stats_still_proves():
    solution = PortfolioSolver(
        backends=("highs", "bb"),
        threads=1,
        time_limit=30.0,
        lane_stats={"bb": {"win_rate": 1.0, "mean_seconds": 0.1}},
    ).solve(_knapsack())
    assert solution.status is SolveStatus.OPTIMAL


def test_lane_stats_from_metrics_roundtrip():
    from repro.ilp.portfolio import lane_stats_from_metrics

    metrics = {
        "counters": {
            'portfolio_wins_total{runner="bb"}': 3.0,
            'portfolio_losses_total{runner="bb"}': 1.0,
            'portfolio_losses_total{runner="highs"}': 4.0,
        },
        "histograms": {
            'portfolio_lane_seconds{runner="bb"}': {
                "sum": 2.0, "count": 4, "buckets": {"+Inf": 4},
            },
            'portfolio_lane_seconds{runner="highs"}': {
                "sum": 12.0, "count": 4, "buckets": {"+Inf": 4},
            },
        },
    }
    stats = lane_stats_from_metrics(metrics)
    assert stats["bb"]["win_rate"] == pytest.approx(0.75)
    assert stats["bb"]["mean_seconds"] == pytest.approx(0.5)
    assert stats["highs"]["win_rate"] == 0.0
    assert stats["highs"]["mean_seconds"] == pytest.approx(3.0)
    assert lane_stats_from_metrics({}) == {}
    assert lane_stats_from_metrics(None) == {}
