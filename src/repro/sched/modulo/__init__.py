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
    :class:`repro.ilp.Model`, so every backend solves it.
``repro.sched.modulo.ladder``
    The deadline-aware II search: MII upward with per-rung budget
    splits, §8-style degradation to the time-indexed ``swp``
    formulation and finally the unpipelined loop, ``kind="loop"``
    serve-store caching, and the ``swp.materialize`` chaos site.
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
from repro.sched.modulo.oracle import OracleReport, kernel_vs_unrolled

# The ladder imports repro.sched.swp (its fallback rung), and swp in turn
# imports repro.sched.modulo.bounds (the canonical MII code) — which runs
# this __init__.  Loading the ladder lazily keeps that cycle open no
# matter which module is imported first.
_LADDER_EXPORTS = ("LoopPipelineOutcome", "pipeline_loop")


def __getattr__(name):
    if name in _LADDER_EXPORTS:
        from repro.sched.modulo import ladder

        return getattr(ladder, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )

__all__ = [
    "critical_path",
    "recurrence_mii",
    "resource_mii",
    "start_windows",
    "ModuloIlp",
    "LoopPipelineOutcome",
    "pipeline_loop",
    "OracleReport",
    "kernel_vs_unrolled",
]
