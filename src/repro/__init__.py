"""Reproduction of Winkel, "Exploring the Performance Potential of Itanium
Processors with ILP-based Scheduling" (CGO 2004).

The package is organised as a stack of subsystems:

``repro.ilp``
    The integer linear programming substrate: a modeling layer whose
    models one general solver, HiGHS through scipy, solves (as CPLEX did
    in the paper).
``repro.machine``
    The Itanium 2 machine model: opcodes, functional units, dispersal
    rules and bundle templates.
``repro.ir``
    Program representation: instructions, basic blocks, control flow,
    dominators, loops, liveness, dependence graphs, plus a parser and
    printer for the textual IA-64 subset used by the examples and tests.
``repro.sched``
    The paper's contribution: the global scheduling ILP formulation with
    speculation, cyclic and partial-ready code motion, reconstruction of
    schedules with compensation code, a correctness verifier, and the
    heuristic baseline scheduler.
``repro.bundle``
    Dynamic-programming bundler that packs instruction groups into
    IA-64 bundles/templates.
``repro.perf``
    Static schedule evaluation and an in-order pipeline simulator used to
    derive speedups.
``repro.workloads``
    Synthetic workload generation calibrated to the paper's routines.

Typical use::

    from repro import optimize_function, parse_function
    fn = parse_function(asm_text)
    result = optimize_function(fn)
    print(result.report())
"""

__version__ = "1.0.0"

_LAZY_EXPORTS = {
    "parse_function": ("repro.ir.parser", "parse_function"),
    "format_function": ("repro.ir.printer", "format_function"),
    "IlpScheduler": ("repro.sched.scheduler", "IlpScheduler"),
    "ScheduleFeatures": ("repro.sched.scheduler", "ScheduleFeatures"),
    "optimize_function": ("repro.sched.scheduler", "optimize_function"),
    "ListScheduler": ("repro.sched.list_scheduler", "ListScheduler"),
    "ITANIUM2": ("repro.machine.itanium2", "ITANIUM2"),
}

__all__ = sorted(_LAZY_EXPORTS) + ["__version__"]


def __getattr__(name):
    """Resolve the public API lazily (PEP 562).

    Subsystems import numpy/scipy; deferring keeps ``import repro`` cheap
    and lets lower layers (e.g. ``repro.ilp``) be used standalone.
    """
    try:
        module_name, attr = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value
