"""Full software pipelining: the modulo-scheduling subsystem.

The paper closes by naming software pipelining as the open extension of
its ILP model; this package is the production version of that extension
(DESIGN.md §15, ``docs/pipelining.md``):

``repro.sched.modulo.bounds``
    Principled lower bounds on the initiation interval — ResMII from
    per-unit-kind resource counts against the Itanium 2 dispersal
    windows, RecMII as the max cycle ratio over distance-annotated DDG
    cycles (binary search + Bellman–Ford) — and, from the same
    relaxation, each instruction's earliest/latest start window at a
    given II.
``repro.sched.modulo.formulation``
    The genuinely *modulo* ILP: decision variables per (instruction,
    row = cycle mod II, stage), modulo reservation-table constraints,
    and a stage-count/register-pressure bound, with variables only
    inside the start windows — emitted as a standard
    :class:`repro.ilp.Model`, solved by ``repro.ilp.solve_model``.
``repro.sched.modulo.ladder``
    The deadline-aware II search: the modulo ILP from MII upward with
    per-II budget splits, and §8-style degradation to the unpipelined
    loop; the ``swp.materialize`` chaos site.
``repro.sched.modulo.oracle``
    The kernel-vs-unrolled execution oracle: the materialized
    prologue/kernel/epilogue must reproduce the source loop's memory
    image and live-outs on the concrete interpreter before the ladder
    reports it pipelined.
"""

from repro.sched.modulo.bounds import (
    critical_path,
    recurrence_mii,
    resource_mii,
    start_windows,
)
from repro.sched.modulo.formulation import ModuloIlp
from repro.sched.modulo.ladder import (
    LoopPipelineOutcome,
    modulo_schedule,
    pipeline_loop,
)
from repro.sched.modulo.oracle import OracleReport, kernel_vs_unrolled

__all__ = [
    "critical_path",
    "recurrence_mii",
    "resource_mii",
    "start_windows",
    "ModuloIlp",
    "LoopPipelineOutcome",
    "modulo_schedule",
    "pipeline_loop",
    "OracleReport",
    "kernel_vs_unrolled",
]
