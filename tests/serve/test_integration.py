"""Cache integration across the CLI, sweep driver and scheduler hint."""

import pytest

from repro.sched.scheduler import (
    IlpScheduler,
    ScheduleFeatures,
    apply_length_hint,
    optimize_function,
)
from repro.tools.optimize import main as opt_main
from repro.tools.parallel import run_routines_parallel

from tests.conftest import STRAIGHT_TEXT

FEATURES = ScheduleFeatures(time_limit=20)


# -- apply_length_hint --------------------------------------------------------
def test_length_hint_tightens_never_widens():
    lengths = {"A": 8, "B": 5}
    assert apply_length_hint(lengths, {"A": 6, "B": 9}) == {"A": 6, "B": 5}


def test_length_hint_rejects_mismatched_blocks():
    assert apply_length_hint({"A": 8}, {"A": 6, "B": 2}) is None
    assert apply_length_hint({"A": 8, "B": 5}, {"A": 6}) is None


def test_length_hint_rejects_garbage():
    assert apply_length_hint({"A": 8}, {"A": "junk"}) is None
    assert apply_length_hint({"A": 8}, "not a dict") is None
    assert apply_length_hint({"A": 8}, None) is None


def test_length_hint_floors_at_one():
    assert apply_length_hint({"A": 8}, {"A": 0}) == {"A": 1}
    assert apply_length_hint({"A": 8}, {"A": -3}) == {"A": 1}


def test_optimize_with_hint_still_verifies(straight_fn):
    baseline = optimize_function(straight_fn, FEATURES)
    achieved = {
        name: baseline.output_schedule.block_length(name)
        for name in baseline.output_schedule.block_order
    }
    hinted = IlpScheduler(features=FEATURES).optimize(
        straight_fn, length_hint=achieved
    )
    assert hinted.verification.ok
    assert hinted.weighted_length_out <= baseline.weighted_length_out + 1e-9
    assert hinted.trace.counters.get("family_hint_applied", 0) >= 1


def test_optimize_with_infeasibly_tight_hint_recovers(straight_fn):
    # A hint of all-ones is (generally) infeasible; the resize ladder
    # must recover and still produce a verified schedule.
    hint = {b.name: 1 for b in straight_fn.blocks}
    result = IlpScheduler(features=FEATURES).optimize(
        straight_fn, length_hint=hint
    )
    assert result.verification.ok


# -- tia-opt --cache ----------------------------------------------------------
def test_tia_opt_cache_flag(tmp_path, capsys):
    asm = tmp_path / "routine.tia"
    asm.write_text(STRAIGHT_TEXT)
    cache = str(tmp_path / "cache")
    rc = opt_main([str(asm), "--cache", cache, "--time-limit", "20"])
    assert rc == 0
    first = capsys.readouterr()
    assert "cache: miss" in first.err
    rc = opt_main([str(asm), "--cache", cache, "--time-limit", "20"])
    assert rc == 0
    second = capsys.readouterr()
    assert "cache: exact" in second.err
    assert first.out == second.out  # byte-identical emitted assembly


# -- parallel sweep with a shared cache ---------------------------------------
@pytest.mark.parametrize("repeat", [2])
def test_parallel_sweep_shares_cache(tmp_path, repeat):
    cache = str(tmp_path / "cache")
    features = ScheduleFeatures(time_limit=20)
    runs = [
        run_routines_parallel(
            ["xfree"],
            features=features,
            scale=0.2,
            sim_invocations=10,
            cache_dir=cache,
        )
        for _ in range(repeat)
    ]
    for outcomes in runs:
        assert all(o.ok for o in outcomes)
    # The second sweep served from cache: identical output schedules.
    tables = [
        outcomes[0].experiment.table1_row() for outcomes in runs
    ]
    assert tables[0] == tables[1]
