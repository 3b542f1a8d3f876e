"""End-to-end instrumentation through the scheduler pipeline."""

import pickle

import pytest

from repro.obs import core as obs
from repro.obs import export
from repro.sched.scheduler import IlpScheduler, ScheduleFeatures
from repro.tools import faults

FEATURES = ScheduleFeatures(time_limit=30)


def test_trace_rides_result_with_recording_off(clean_obs, diamond_fn):
    result = IlpScheduler(features=FEATURES).optimize(diamond_fn)
    assert result.quality == "optimal"
    assert obs.recorder() is None  # recording stayed off
    durations = result.phase_timings()
    for phase in ("optimize", "analyze", "solve.phase1", "verify"):
        assert phase in durations
    assert "phases:" in result.report()
    assert "phase 1" in result.phase_breakdown()


def test_phase_durations_nest_inside_optimize(clean_obs, diamond_fn):
    result = IlpScheduler(features=FEATURES).optimize(diamond_fn)
    durations = result.phase_timings()
    total = durations["optimize"]["seconds"]
    children = sum(
        agg["seconds"]
        for name, agg in durations.items()
        if name in ("analyze", "input_schedule", "ilp.build",
                    "solve.phase1", "bundle", "solve.phase2", "verify")
    )
    assert children <= total + 1e-6


def test_recording_captures_solver_spans_and_metrics(recording, diamond_fn):
    result = IlpScheduler(features=FEATURES).optimize(diamond_fn)
    assert result.quality == "optimal"
    names = {e["name"] for e in obs.recorder().events}
    assert {"optimize", "solve.phase1", "ilp.solve"} <= names
    dump = export.metrics_dict()
    routine = result.fn.name
    assert (
        dump["counters"][
            f'routine_fallback_total{{routine="{routine}",tier="optimal"}}'
        ]
        == 1.0
    )
    assert any(k.startswith("solves_total") for k in dump["counters"])
    assert any(k.startswith("solve_seconds") for k in dump["histograms"])
    assert any(
        k.startswith("deadline_fraction_consumed") for k in dump["histograms"]
    )
    assert export.validate_chrome_trace(export.chrome_trace()) == []


def test_degraded_routine_still_reports_tier_and_trace(recording, diamond_fn):
    # An injected phase-1 timeout with no incumbent degrades the routine
    # to its input schedule (solve sites ignore the "error" kind).
    with faults.inject("solve.phase1=timeout:99"):
        result = IlpScheduler(features=FEATURES).optimize(diamond_fn)
    assert result.quality == "fallback_input"
    assert result.trace is not None
    assert "optimize" in result.phase_timings()
    routine = result.fn.name
    dump = export.metrics_dict()
    assert (
        dump["counters"][
            f'routine_fallback_total{{routine="{routine}",tier="fallback_input"}}'
        ]
        == 1.0
    )
    assert any(
        k.startswith("faults_fired_total") for k in dump["counters"]
    )


def test_result_with_trace_pickles(recording, diamond_fn):
    result = IlpScheduler(features=FEATURES).optimize(diamond_fn)
    clone = pickle.loads(pickle.dumps(result))
    assert clone.phase_timings().keys() == result.phase_timings().keys()


def test_optimize_propagates_fault_config_errors(clean_obs, diamond_fn, monkeypatch):
    """A malformed REPRO_FAULTS spec must surface, not degrade silently."""
    monkeypatch.setenv(faults.ENV_VAR, "solve.phaseX=timeout")
    faults.reset_env_cache()
    try:
        with pytest.raises(faults.FaultConfigError, match="solve.phaseX"):
            IlpScheduler(features=FEATURES).optimize(diamond_fn)
    finally:
        monkeypatch.delenv(faults.ENV_VAR)
        faults.reset_env_cache()
