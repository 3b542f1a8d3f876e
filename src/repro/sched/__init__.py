"""Global instruction scheduling (the paper's contribution).

Module map (paper section in parentheses):

* :mod:`repro.sched.regions` — destination-block sets Θ(n)/Θ_spec(n),
  predication-extended destinations (4),
* :mod:`repro.sched.cycles` — per-block cycle ranges G(A) (4.2),
* :mod:`repro.sched.schedule` — the Schedule value type,
* :mod:`repro.sched.ilp_formulation` — x/a/B variables and constraints
  (2)–(7) with resource and bundling constraints (4–4.3),
* :mod:`repro.sched.speculation` — control/data speculation groups with
  ``usespec`` switches (5.1),
* :mod:`repro.sched.cyclic` — cyclic code motion (5.2),
* :mod:`repro.sched.partial_ready` — partial-ready code motion (5.3),
* :mod:`repro.sched.phase2` — second ILP minimizing instruction count (5.5),
* :mod:`repro.sched.reconstruct` — solution → Schedule with compensation
  copies and recovery stubs,
* :mod:`repro.sched.verifier` — path-based correctness checker
  (Theorem 1; also usable on heuristic schedules, Sec. 7),
* :mod:`repro.sched.list_scheduler` — the heuristic baseline standing in
  for the production compiler,
* :mod:`repro.sched.certify` — serving a profile variant from a
  sibling's proven optimum when a certificate shows it stays optimal,
* :mod:`repro.sched.scheduler` — the postpass driver tying it together.
"""

from repro.sched.schedule import Schedule
from repro.sched.regions import SchedulingRegion, build_region
from repro.sched.scheduler import IlpScheduler, ScheduleFeatures, optimize_function
from repro.sched.list_scheduler import ListScheduler
from repro.sched.greedy_global import GreedyGlobalScheduler
from repro.sched.swp import ModuloSchedule
from repro.sched.swp_materialize import (
    materialize_counted_loop,
    recognize_counted_loop,
)
from repro.sched.verifier import verify_schedule

__all__ = [
    "Schedule",
    "SchedulingRegion",
    "build_region",
    "IlpScheduler",
    "ScheduleFeatures",
    "optimize_function",
    "ListScheduler",
    "GreedyGlobalScheduler",
    "ModuloSchedule",
    "materialize_counted_loop",
    "recognize_counted_loop",
    "verify_schedule",
]
