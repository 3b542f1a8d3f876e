"""The graceful-degradation contract, end to end.

``optimize_function`` must never raise: every injected fault walks the
result down the fallback ladder to a documented quality tier, the emitted
schedule always verifies, and the reported ``quality``/``fallback_reason``
tell the truth about what happened.
"""

import pytest

from repro.ir.parser import parse_function
from repro.ir.printer import format_schedule
from repro.sched.scheduler import (
    QUALITY_TIERS,
    ScheduleFeatures,
    optimize_function,
)
from repro.sched.verifier import verify_schedule
from repro.tools import faults
from tests.conftest import DIAMOND_TEXT

FEATURES = ScheduleFeatures(time_limit=30)


def run(spec, **overrides):
    fn = parse_function(DIAMOND_TEXT)
    features = (
        ScheduleFeatures(**{"time_limit": 30, **overrides})
        if overrides
        else FEATURES
    )
    with faults.inject(spec):
        return optimize_function(fn, features)


# Documented fault -> tier mapping.  Notes:
#  * phase-1 timeout has no incumbent to fall back on -> input schedule;
#  * phase-1 infeasible exhausts the cycle-range growths -> input schedule;
#  * a phase-2 timeout still returns the seeded phase-1 point as an
#    unproven incumbent, so the tier is "incumbent", not "phase1" — the
#    "phase1" tier needs phase 2 to produce *nothing* (infeasible);
#  * a corrupted phase-1 solution is repaired by the phase-2 re-solve
#    (the pinned-length model is rebuilt from intact length indicators),
#    so with two_phase the run still ends "optimal" — see
#    test_rollback_* for the unrepaired case.
TIER_CASES = [
    ("solve.phase1=timeout", "fallback_input", "no_incumbent"),
    ("solve.phase1=infeasible", "fallback_input", "infeasible"),
    ("solve.phase1=incumbent", "incumbent", "unproven"),
    ("solve.phase1=corrupt", "optimal", None),
    ("solve.phase2=infeasible", "phase1", "no_solution"),
    ("solve.phase2=timeout", "incumbent", "unproven"),
    ("bundle=error", "fallback_input", "retries_exhausted"),
    ("bundle=error:1,solve.cut_resolve=timeout", "incumbent", "unproven"),
    ("verify=error", "fallback_input", "rejected"),
]


@pytest.mark.parametrize("spec,tier,kind", TIER_CASES)
def test_fault_yields_documented_tier(spec, tier, kind):
    result = run(spec)
    assert result.quality == tier
    if kind is None:
        assert result.fallback_reason is None
    else:
        assert result.fallback_reason.kind == kind
    # Whatever the tier, the emitted schedule passed verification.
    assert result.verification is not None and result.verification.ok
    # Degraded results carry no ILP artifacts to mis-read.
    if tier == "fallback_input":
        assert result.solution is None
        assert result.reconstruction is None
        assert result.spec_used == 0


def test_no_fault_is_optimal():
    result = run(None)
    assert result.quality == "optimal"
    assert result.fallback_reason is None
    assert result.verification.ok


@pytest.mark.parametrize(
    "spec",
    [
        "solve.phase1=timeout,solve.cut_resolve=timeout,solve.phase2=timeout,"
        "bundle=error,verify=error",
        "solve.phase1=infeasible,bundle=error,verify=error",
        "solve.phase1=corrupt,solve.phase2=infeasible,verify=error",
        "solve.phase1=incumbent,solve.phase2=incumbent",
    ],
)
def test_fault_combinations_never_raise(spec):
    """All faults at once must still produce a verified schedule."""
    result = run(spec)
    assert result.quality in QUALITY_TIERS
    assert result.verification is not None and result.verification.ok
    # Independently re-verify fallbacks with a fresh verifier.  (ILP
    # schedules need the reconstruction + the ILP's edge exemptions to
    # verify, so for them the pipeline's own report is the oracle.)
    if result.reconstruction is None:
        report = verify_schedule(result.output_schedule, result.region)
        assert report.ok, report.problems


# -- verified rollback --------------------------------------------------------


def test_rollback_is_byte_identical_to_input_schedule():
    baseline = run(None)
    rolled = run("verify=error")
    assert rolled.quality == "fallback_input"
    assert rolled.fallback_reason.site == "verify"
    assert rolled.fallback_reason.kind == "rejected"
    # The fallback *is* the input schedule object, not a lookalike...
    assert rolled.output_schedule is rolled.input_schedule
    # ...and renders byte-identically to an untouched run's input schedule.
    assert format_schedule(rolled.output_schedule, rolled.fn) == format_schedule(
        baseline.input_schedule, baseline.fn
    )
    assert "rolled back" in " ".join(rolled.messages)


def test_corrupt_solution_without_phase2_rolls_back():
    """With phase 2 off nothing repairs a corrupted solve, so the verifier
    must catch it and the rollback must kick in."""
    result = run("solve.phase1=corrupt", two_phase=False)
    assert result.quality == "fallback_input"
    assert result.fallback_reason.site == "verify"
    assert result.fallback_reason.kind == "rejected"
    assert result.output_schedule is result.input_schedule
    assert result.verification.ok  # the fallback was re-verified clean


def test_verifier_error_degrades_to_input_schedule(monkeypatch):
    """A verifier that raises is a pipeline failure like any other: the
    routine lands on the input schedule instead of raising."""
    from repro.sched import scheduler

    real = scheduler.verify_schedule
    calls = []

    def crash_once(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise RuntimeError("verifier crashed")
        return real(*args, **kwargs)

    monkeypatch.setattr(scheduler, "verify_schedule", crash_once)
    result = run(None)
    assert result.quality == "fallback_input"
    assert str(result.fallback_reason).startswith("pipeline:error")
    assert result.output_schedule is result.input_schedule
    assert result.verification.ok  # the fallback was re-verified clean


def test_always_raising_verifier_still_returns_the_input_schedule(monkeypatch):
    """The floor re-verifies the input schedule; when that verifier call
    raises too, the error lands in the result, not in the caller."""
    from repro.sched import scheduler

    def crash(*args, **kwargs):
        raise RuntimeError("verifier crashed")

    monkeypatch.setattr(scheduler, "verify_schedule", crash)
    result = run(None)
    assert result.quality == "fallback_input"
    assert result.output_schedule is result.input_schedule
    assert not result.verification.ok
    assert "RuntimeError: verifier crashed" in result.verification.problems[0]
    assert any("not verified" in m for m in result.messages)


def test_fault_config_error_from_the_verifier_propagates(monkeypatch):
    from repro.sched import scheduler

    def misconfigured(*args, **kwargs):
        raise faults.FaultConfigError("malformed fault spec")

    monkeypatch.setattr(scheduler, "verify_schedule", misconfigured)
    with pytest.raises(faults.FaultConfigError):
        run(None)


# -- deadline budget ----------------------------------------------------------


def test_zero_budget_degrades_to_input_schedule():
    result = run(None, time_limit=0.0)
    assert result.quality == "fallback_input"
    assert result.fallback_reason.kind == "deadline"
    assert result.verification.ok


def test_report_mentions_quality_and_reason():
    result = run("verify=error")
    report = result.report()
    assert "quality: fallback_input" in report
    assert "verify:rejected" in report
