"""The per-routine thread fan-out (`repro.tools.parallel.fan_out`)."""

import threading
import time

import pytest

from repro.tools import faults
from repro.tools.parallel import fan_out


def _recorder(log):
    def task(value):
        def run():
            log.append((value, threading.current_thread()))
            if isinstance(value, Exception):
                raise value
            return value

        return run

    return task


@pytest.mark.parametrize("width", [1, 2, 3])
def test_slots_follow_task_order(width):
    log = []
    task = _recorder(log)
    error = ValueError("boom")
    slots = fan_out([task(1), task(error), task(3), task(4)], width)
    assert slots == [1, error, 3, 4]
    # Task 0 always runs on the caller.
    assert (1, threading.current_thread()) in log


def test_width_one_runs_in_order_on_the_caller():
    log = []
    task = _recorder(log)
    fan_out([task(n) for n in range(4)], 1)
    assert log == [(n, threading.current_thread()) for n in range(4)]


def test_width_two_overlaps_the_tasks():
    both = threading.Barrier(2, timeout=5)
    slots = fan_out([both.wait, both.wait], 2)
    assert sorted(slots) == [0, 1]


def test_config_error_waits_for_running_tasks_then_raises():
    finished = []

    def slow():
        time.sleep(0.2)
        finished.append(threading.current_thread())

    def bad():
        raise faults.FaultConfigError("bad spec")

    with pytest.raises(faults.FaultConfigError, match="bad spec"):
        fan_out([bad, slow], 2)
    assert len(finished) == 1 and not finished[0].is_alive()


def test_config_error_stops_a_sequential_run():
    ran = []

    def bad():
        raise faults.FaultConfigError("bad spec")

    with pytest.raises(faults.FaultConfigError):
        fan_out([bad, lambda: ran.append(1)], 1)
    assert ran == []
