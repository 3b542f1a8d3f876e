"""End-to-end optimizer runs on small routines."""

import pytest

from repro.ir.parser import parse_function
from repro.sched.scheduler import IlpScheduler, ScheduleFeatures, optimize_function
from repro.workloads.generator import RoutineSpec, generate_routine


@pytest.fixture(scope="module")
def diamond_result():
    from tests.conftest import DIAMOND_TEXT

    return optimize_function(
        parse_function(DIAMOND_TEXT), ScheduleFeatures(time_limit=30)
    )


def test_never_worse_than_input(diamond_result):
    assert (
        diamond_result.weighted_length_out <= diamond_result.weighted_length_in
    )
    assert diamond_result.static_reduction >= 0


def test_verification_passes(diamond_result):
    assert diamond_result.verification.ok
    assert diamond_result.verification.exhaustive


def test_ilp_size_reported(diamond_result):
    size = diamond_result.ilp_size
    assert size["variables"] > 0 and size["constraints"] > 0
    assert size["time"] >= 0


def test_report_is_readable(diamond_result):
    text = diamond_result.report()
    assert "weighted schedule length" in text
    assert "verification passed" in text


def test_input_function_not_mutated():
    from tests.conftest import DIAMOND_TEXT
    from repro.ir.printer import format_function

    fn = parse_function(DIAMOND_TEXT)
    before = format_function(fn)
    optimize_function(fn, ScheduleFeatures(time_limit=30))
    assert format_function(fn) == before


@pytest.mark.parametrize("seed", [7, 23])
def test_generated_routines_verify(seed):
    spec = RoutineSpec(
        name="e2e", seed=seed, instructions=30, blocks=6, loops=1
    )
    fn = generate_routine(spec)
    result = optimize_function(fn, ScheduleFeatures(time_limit=45))
    assert result.verification.ok
    assert result.weighted_length_out <= result.weighted_length_in


def test_removed_feature_fields_are_gone():
    """The race's knobs and compact linking are not silently accepted."""
    for name, value in (
        ("portfolio_backends", ("highs",)),
        ("portfolio_seed", 0),
        ("portfolio_threads", 1),
        ("tight_lengths", False),
    ):
        with pytest.raises(TypeError):
            ScheduleFeatures(**{name: value})


@pytest.mark.parametrize(
    "name,value",
    [
        ("incremental_cuts", False),
        ("phase2_objective", "stalls"),
        ("speculation_cost", 1.0),
        ("collapse_branches", False),
        ("rollback_on_verify_failure", False),
        ("max_resize_attempts", 3),
        ("max_bundle_retries", 4),
        ("backend", "highs"),
        ("heuristic_effort", 0.5),
        ("predication", True),
        ("freq_cap", 5.0),
        ("baseline", "local"),
    ],
)
def test_unset_knobs_are_removed(name, value):
    """Removed knobs are gone, not silently accepted."""
    with pytest.raises(TypeError):
        ScheduleFeatures(**{name: value})


def test_scheduler_object_reusable(diamond_result):
    from tests.conftest import STRAIGHT_TEXT

    scheduler = IlpScheduler(features=ScheduleFeatures(time_limit=30))
    first = scheduler.optimize(parse_function(STRAIGHT_TEXT))
    second = scheduler.optimize(parse_function(STRAIGHT_TEXT))
    assert first.weighted_length_out == second.weighted_length_out
