"""Shared wall-clock budgets for the optimize pipeline.

The postpass contract (paper Sec. 6.1) gives CPLEX *one* budget for a
routine, not one per solve: phase 1, every bundling-cut re-solve and the
phase-2 cleanup all draw from the same clock, and whatever is left when
a stage starts is all that stage may spend.  :class:`Deadline` is that
budget: it is created once at the top of
:meth:`repro.sched.scheduler.IlpScheduler.optimize` from
``ScheduleFeatures.time_limit`` and handed down through the bundling-cut
loop, :func:`repro.sched.phase2.minimize_instruction_count` and
:func:`repro.ilp.solve_model`, which converts :meth:`remaining` into the
solver's ``time_limit`` for each individual solve.

A ``Deadline`` with ``budget=None`` never expires; every ``remaining()``
call then returns ``None`` and solves run unlimited, which keeps the
pre-deadline behaviour for callers that never set a limit.
"""

from __future__ import annotations

import time


class Deadline:
    """A monotonic wall-clock budget shared by a chain of solves.

    Parameters
    ----------
    budget:
        Total seconds available, or ``None`` for no limit.
    clock:
        Injectable time source (monotonic seconds); tests substitute a
        fake clock to exercise expiry deterministically.
    """

    __slots__ = ("_budget", "_start", "_clock")

    def __init__(self, budget=None, clock=time.monotonic):
        self._clock = clock
        self._start = clock()
        self._budget = None if budget is None else max(0.0, float(budget))

    @classmethod
    def start(cls, budget=None, clock=time.monotonic):
        """Alias constructor reading like prose: ``Deadline.start(120)``."""
        return cls(budget, clock=clock)

    @property
    def budget(self):
        """The total budget in seconds (``None`` = unlimited)."""
        return self._budget

    def elapsed(self):
        """Seconds since the deadline was started."""
        return self._clock() - self._start

    def remaining(self):
        """Seconds left, clipped at 0.0; ``None`` when unlimited."""
        if self._budget is None:
            return None
        return max(0.0, self._budget - self.elapsed())

    @property
    def expired(self):
        """True once the budget is spent (never for unlimited deadlines)."""
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0

    def bound(self, time_limit):
        """Clip an explicit per-solve ``time_limit`` to the remaining budget.

        Returns the tighter of the two; ``None`` only when both are
        unlimited. This is what :func:`repro.ilp.solve_model` applies to
        its ``time_limit`` keyword.
        """
        remaining = self.remaining()
        if remaining is None:
            return time_limit
        if time_limit is None:
            return remaining
        return min(float(time_limit), remaining)

    def __repr__(self):
        if self._budget is None:
            return "Deadline(unlimited)"
        return (
            f"Deadline(budget={self._budget:g}s, "
            f"remaining={self.remaining():g}s)"
        )
