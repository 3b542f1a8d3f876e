"""Software pipelining through the full scheduler (`ScheduleFeatures.swp`).

The ladder itself is covered in test_modulo.py; these tests pin the
integration contract: opt-in via features, per-loop outcomes on the
result, report/trace surfacing, the §8 no-raise guarantee under
``swp.materialize`` chaos, and the ladder's thread beside the acyclic
pipeline.
"""

import threading
import time

import pytest

from repro.ir.parser import parse_function
from repro.ir.printer import format_function
from repro.sched.modulo import ladder
from repro.sched.scheduler import (
    IlpScheduler,
    ScheduleFeatures,
    optimize_function,
)
from repro.tools import faults
from repro.tools.optimize import _emit_function
from repro.workloads.generator import loop_dominated_family

COUNTED = """
.proc swpint
.livein r32, r33
.liveout r8
.block PRE freq=10
  add r15 = r32, 0
  mov r9 = 0
.block LOOP freq=130 succ=LOOP:0.92,POST:0.08
  ld8 r21 = [r15+0] cls=heap
  xor r23 = r21, r33
  st8 [r33+8] = r23 cls=glob
  adds r15 = 8, r15
  adds r9 = 1, r9
  cmp.lt p16, p17 = r9, 6
  (p16) br.cond LOOP
.block POST freq=10
  add r8 = r23, 0
  br.ret b0
.endp
"""


def test_swp_off_by_default():
    result = optimize_function(
        parse_function(COUNTED), ScheduleFeatures(time_limit=30)
    )
    assert result.swp_outcomes == []
    assert "swp LOOP" not in result.report()


def test_swp_outcomes_and_report():
    result = optimize_function(
        parse_function(COUNTED), ScheduleFeatures(time_limit=60, swp=True)
    )
    assert len(result.swp_outcomes) == 1
    outcome = result.swp_outcomes[0]
    assert outcome.loop_header == "LOOP"
    assert outcome.pipelined
    assert outcome.ii >= outcome.mii
    assert outcome.oracle and outcome.oracle.ok
    assert "swp LOOP: pipelined II=" in result.report()
    # The acyclic schedule itself is untouched by the SWP post-step.
    assert result.verification.ok


def test_swp_chaos_never_raises():
    with faults.inject("swp.materialize=error"):
        result = optimize_function(
            parse_function(COUNTED), ScheduleFeatures(time_limit=60, swp=True)
        )
    assert len(result.swp_outcomes) == 1
    assert result.swp_outcomes[0].status == "unpipelined"


def test_swp_feature_validation():
    with pytest.raises(ValueError):
        ScheduleFeatures(swp_max_ii=0)
    with pytest.raises(ValueError):
        ScheduleFeatures(swp_max_stages=0)


# -- the ladder beside the acyclic pipeline ------------------------------------
#
# ``optimize`` runs the ladder on a second thread (width from
# ``repro.tools.parallel.partition_workers``) while the acyclic pipeline
# runs on the caller. Width 1 keeps the old order on one thread; both
# widths must give the same routine.

OVERLAP_FEATURES = ScheduleFeatures(
    time_limit=120.0, max_hops=4, swp=True, swp_time_limit=60.0
)


def _optimize_at_width(monkeypatch, width, fn, features=OVERLAP_FEATURES):
    monkeypatch.delenv("REPRO_IN_POOL_WORKER", raising=False)
    monkeypatch.setenv("REPRO_PARTITION_WORKERS", str(width))
    return optimize_function(fn, features)


def _fingerprint(result):
    outcomes = [
        (
            o.loop_header, o.status, o.ii, o.stages,
            None if o.oracle is None else o.oracle.ok,
            None if o.pipelined_fn is None else format_function(o.pipelined_fn),
        )
        for o in result.swp_outcomes
    ]
    return {
        "swp": outcomes,
        "quality": result.quality,
        "bundles": result.bundles_out.total_bundles,
        "weighted_length": result.weighted_length_out,
        "emitted": _emit_function(result),
    }


@pytest.mark.parametrize("seed", [1, 2])
def test_overlap_matches_the_sequential_order(monkeypatch, seed):
    for spec, fn in loop_dominated_family(count=5, seed=seed):
        text = format_function(fn)
        one = _optimize_at_width(monkeypatch, 1, parse_function(text))
        two = _optimize_at_width(monkeypatch, 2, parse_function(text))
        assert one.swp_outcomes, spec.name
        assert _fingerprint(one) == _fingerprint(two), spec.name


def _record_ladder_threads(monkeypatch):
    threads = []
    real = ladder.pipeline_loop

    def spy(*args, **kwargs):
        threads.append(threading.current_thread())
        return real(*args, **kwargs)

    monkeypatch.setattr(ladder, "pipeline_loop", spy)
    return threads


def test_ladder_runs_on_a_second_thread_and_reports(monkeypatch):
    threads = _record_ladder_threads(monkeypatch)
    result = _optimize_at_width(monkeypatch, 2, parse_function(COUNTED))
    assert threads and threads[0] is not threading.main_thread()
    assert result.swp_outcomes[0].pipelined
    assert "swp ladder" in result.phase_breakdown()
    assert "swp.ladder" in result.phase_timings()


def test_pool_worker_starts_no_thread(monkeypatch):
    threads = _record_ladder_threads(monkeypatch)
    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountingThread)
    monkeypatch.delenv("REPRO_PARTITION_WORKERS", raising=False)
    monkeypatch.setenv("REPRO_IN_POOL_WORKER", "1")
    result = optimize_function(parse_function(COUNTED), OVERLAP_FEATURES)
    assert started == []
    assert threads == [threading.main_thread()]
    assert result.swp_outcomes[0].pipelined
    assert "swp ladder" in result.phase_breakdown()


def test_config_error_in_the_ladder_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise faults.FaultConfigError("bad spec")

    monkeypatch.setattr(ladder, "pipeline_loop", broken)
    with pytest.raises(faults.FaultConfigError, match="bad spec"):
        _optimize_at_width(monkeypatch, 2, parse_function(COUNTED))


def test_ladder_error_becomes_a_message(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("ladder blew up")

    monkeypatch.setattr(ladder, "pipeline_loop", broken)
    result = _optimize_at_width(monkeypatch, 2, parse_function(COUNTED))
    assert result.swp_outcomes == []
    assert result.quality == "optimal"
    assert (
        "software pipelining failed: RuntimeError: ladder blew up"
        in result.messages
    )


def test_ladder_joined_when_the_acyclic_pipeline_raises(monkeypatch):
    finished = []

    def slow_ladder(*args, **kwargs):
        time.sleep(0.2)
        finished.append(threading.current_thread())
        raise RuntimeError("ladder done")

    def acyclic(*args, **kwargs):
        raise RuntimeError("acyclic pipeline crashed")

    monkeypatch.setattr(ladder, "pipeline_loop", slow_ladder)
    monkeypatch.setattr(IlpScheduler, "_schedule", acyclic)
    with pytest.raises(RuntimeError, match="acyclic pipeline crashed"):
        _optimize_at_width(monkeypatch, 2, parse_function(COUNTED))
    assert len(finished) == 1
    assert not finished[0].is_alive()


def test_ladder_outcome_survives_a_degraded_acyclic_pipeline(monkeypatch):
    with faults.inject("solve.phase1=timeout"):
        result = _optimize_at_width(monkeypatch, 2, parse_function(COUNTED))
    assert result.quality == "fallback_input"
    assert len(result.swp_outcomes) == 1
    assert result.swp_outcomes[0].pipelined


@pytest.mark.parametrize("width", [1, 2])
def test_ladder_spans_nest_under_optimize_after_analysis(monkeypatch, width):
    """The merged ladder trace shares the routine trace's clock and tree."""
    _spec, fn = list(loop_dominated_family(count=3, seed=1))[2]
    result = _optimize_at_width(monkeypatch, width, fn)
    records = result.trace.records
    analyze = next(r for r in records if r["name"] == "analyze")
    ladders = [r for r in records if r["name"] == "swp.ladder"]
    assert ladders
    for record in ladders:
        assert record["parent"] == "optimize"
        assert record["ts"] >= analyze["ts"] + analyze["dur"]
