"""Experiment driver: regenerate the paper's Tables 1–2 and Figure 7.

The driver glues the whole stack together per routine:

1. generate the calibrated synthetic routine (Sec. 6 workload),
2. run the ILP postpass (:class:`~repro.sched.scheduler.IlpScheduler`),
3. simulate input and output schedules over one shared profile trace
   (:mod:`repro.perf.pipeline` standing in for the 1.4 GHz Itanium 2),
4. derive every column the paper reports.

Scaling: ``scale`` < 1 shrinks the routines proportionally for quick
runs; the published configuration is ``scale=1``. Environment overrides
``REPRO_SCALE`` / ``REPRO_TIME_LIMIT`` let CI keep the benchmarks fast
without touching code.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.perf.pipeline import PipelineSimulator
from repro.perf.speedup import program_speedup
from repro.perf.static_eval import compare_schedules
from repro.perf.trace import generate_trace
from repro.sched.scheduler import ScheduleFeatures, optimize_function
from repro.sched.speculation import count_input_speculation
from repro.workloads.spec_routines import SPEC_BY_NAME, SPEC_ROUTINES


def default_scale():
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def default_time_limit():
    return float(os.environ.get("REPRO_TIME_LIMIT", "90"))


def default_features(**overrides):
    base = dict(
        time_limit=default_time_limit(),
        max_hops=4,
        baseline=os.environ.get("REPRO_BASELINE", "local"),
    )
    base.update(overrides)
    return ScheduleFeatures(**base)


@dataclass
class RoutineExperiment:
    """All measured values for one routine."""

    spec: object
    result: object  # OptimizeResult
    comparison: object  # ScheduleComparison
    sim_in: object
    sim_out: object
    spec_in: int

    # -- derived columns ---------------------------------------------------------
    @property
    def routine_speedup(self):
        if self.sim_out.cycles == 0:
            return 1.0
        return self.sim_in.cycles / self.sim_out.cycles

    @property
    def program_speedup(self):
        return program_speedup(self.spec.weight, self.routine_speedup)

    def table1_row(self):
        res = self.result
        return {
            "routine": self.spec.name,
            "program": self.spec.program,
            "input_set": self.spec.input_set,
            "weight": self.spec.weight,
            "speedup_program": self.program_speedup - 1.0,
            "speedup_routine": self.routine_speedup - 1.0,
            "static_red": self.comparison.static_reduction,
            "ins_in": self.comparison.metrics_in.instructions,
            "ins_out": self.comparison.metrics_out.instructions,
            "delta_ins": self.comparison.delta_instructions,
            "delta_bundles": self.comparison.delta_bundles,
            "ipc_in": self.comparison.metrics_in.weighted_ipc,
            "ipc_out": self.comparison.metrics_out.weighted_ipc,
        }

    def table2_row(self):
        res = self.result
        return {
            "routine": self.spec.name,
            "blocks": len(res.fn.blocks),
            "loops": len(res.region.cfg.loops),
            "spec_in": self.spec_in,
            "spec_poss": res.spec_possible,
            "spec_out": res.spec_used,
            "constraints": res.ilp_size["constraints"],
            "variables": res.ilp_size["variables"],
            "nodes": res.ilp_size["nodes"],
            "time": res.ilp_size["time"],
            "gap": res.ilp_size.get("gap"),
        }


def run_routine(
    name,
    features=None,
    scale=None,
    sim_invocations=120,
    sim_seed=1,
    cache_dir=None,
):
    """Run the full pipeline for one named routine.

    With ``cache_dir`` the solve goes through the schedule cache
    (:func:`repro.serve.service.cached_optimize`): an exact hit skips
    the ILP entirely and a family near miss seeds the cycle ranges.
    The store directory may be shared across pool workers — writes are
    atomic renames.
    """
    from repro.workloads.spec_routines import build_spec_routine

    scale = default_scale() if scale is None else scale
    spec = SPEC_BY_NAME[name]
    fn = build_spec_routine(name, scale=scale)
    spec_in = count_input_speculation(fn)
    features = features or default_features()
    if cache_dir is not None:
        from repro.serve.service import cached_optimize

        result = cached_optimize(fn, features, cache_dir=cache_dir).result
    else:
        result = optimize_function(fn, features)

    comparison = compare_schedules(
        result.fn,
        result.input_schedule,
        result.output_schedule,
        result.bundles_in,
        result.bundles_out,
    )
    trace = generate_trace(result.fn, invocations=sim_invocations, seed=sim_seed)
    simulator = PipelineSimulator(miss_rate=spec.miss_rate)
    sim_in = simulator.run(result.input_schedule, result.fn, trace)
    sim_out = simulator.run(result.output_schedule, result.fn, trace)
    return RoutineExperiment(
        spec=spec,
        result=result,
        comparison=comparison,
        sim_in=sim_in,
        sim_out=sim_out,
        spec_in=spec_in,
    )


def run_table(names=None, features=None, scale=None, sim_invocations=120):
    """Run all (or the named) routines; returns RoutineExperiments."""
    names = names or [s.name for s in SPEC_ROUTINES]
    return [
        run_routine(
            name, features=features, scale=scale, sim_invocations=sim_invocations
        )
        for name in names
    ]


FIG7_LEVELS = (
    ("base", dict(speculation=False, data_speculation=False, cyclic=False, partial_ready=False)),
    ("+speculation", dict(cyclic=False, partial_ready=False)),
    ("+cyclic", dict(partial_ready=False)),
    ("+partial-ready", dict()),
)


def run_fig7(names=None, scale=None, time_limit=None):
    """Incremental-extension sweep (Figure 7).

    Returns ``{level: {"avg_reduction": float, "avg_time": float,
    "per_routine": {...}}}``, levels in the paper's order.
    """
    names = names or [s.name for s in SPEC_ROUTINES]
    time_limit = time_limit or default_time_limit()
    results = {}
    for label, overrides in FIG7_LEVELS:
        rows = {}
        total_red, total_time = 0.0, 0.0
        for name in names:
            features = default_features(time_limit=time_limit, **overrides)
            experiment = run_routine(name, features=features, scale=scale)
            rows[name] = {
                "reduction": experiment.comparison.static_reduction,
                "time": experiment.result.ilp_size["time"],
            }
            total_red += rows[name]["reduction"]
            total_time += rows[name]["time"]
        results[label] = {
            "avg_reduction": total_red / len(names),
            "avg_time": total_time / len(names),
            "per_routine": rows,
        }
    return results
