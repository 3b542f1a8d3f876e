"""Self-checks of the benchmark (not part of the unit suite).

Run from the root of the repository::

    python3 -m pytest perfbench/test_perfbench.py

Each workload runs twice back to back under the pinned hash seed. The
quality metrics must be identical, no solve or SWP ladder rung may stop
on a time limit (such a run measures the clock, not the program), and
every exact hit must return its miss's reply byte for byte.
"""

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import tracer  # noqa: E402

QUALITY = ("weighted_length_ratio", "bundles", "sim_speedup",
           "optimal_share", "equivalent_share")
SWP_QUALITY = ("swp_pipelined_share", "ii_over_mii")


def _once(workload, trace=0):
    args = ["--workload", workload, "--seed", "1", "--seconds", "0.001",
            "--trace", str(trace)]
    return run.run_child(args, time.monotonic() + run.TIME_BUDGET)


@pytest.fixture(scope="module")
def twice():
    cache = {}

    def get(workload):
        if workload not in cache:
            cache[workload] = (_once(workload), _once(workload))
        return cache[workload]

    return get


def test_per_layer_names_match_the_spec():
    spec = run.load_spec()
    with open(os.path.join(HERE, "layers.json")) as handle:
        mapping = json.load(handle)["layers"]
    names = [m["name"] for m in spec["per_layer"]]
    measured = tracer.layer_metrics(tracer.Tracer(), 1.0)
    assert set(names) == set(mapping) == set(measured)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_quality_is_deterministic_and_clock_free(twice, workload):
    first, second = twice(workload)
    for name in QUALITY:
        assert first["metrics"][name] == second["metrics"][name], name
    for name in SWP_QUALITY:
        assert first.get("extra", {}).get(name) == second.get("extra", {}).get(name)
    for report in (first, second):
        assert report["correct"], report["notes"]
        assert not any(report["guard"].values()), report["guard"]
        assert report["failed"] == first["failed"]


@pytest.mark.xfail(
    reason="Instruction.__hash__ is id(); sets of instructions iterate in "
    "address order, so the order of instructions inside a cycle can change "
    "from one process to the next",
    strict=False,
)
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_emitted_text_is_deterministic(twice, workload):
    first, second = twice(workload)
    assert first["digest"] == second["digest"]


def test_traced_run_reports_idle_layers_as_zero():
    layers = _once("paper_sweep", trace=1)["layers"]
    metrics = layers["metrics"]
    assert metrics["ilp.solves"] > 0 and metrics["ilp.highs_s"] > 0
    idle = [name for name in metrics
            if name.startswith(("sched.decompose", "sched.partition",
                                "sched.modulo", "serve."))]
    assert idle and all(metrics[name] == 0 for name in idle)
    with open(os.path.join(run.ROOT, layers["trace_file"])) as handle:
        events = json.load(handle)["traceEvents"]
    assert any(e["name"] == "ilp.highs" and e["ph"] == "X" for e in events)
