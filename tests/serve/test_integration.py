"""Cache integration across the CLI and the sweep driver."""

import pytest

from repro.sched.scheduler import ScheduleFeatures
from repro.tools.optimize import main as opt_main
from repro.tools.parallel import run_routines_parallel

from tests.conftest import STRAIGHT_TEXT


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
