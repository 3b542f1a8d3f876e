"""Second optimization phase — paper Sec. 5.5.

"Nothing detains the ILP solver from using more speculation and more
compensation copies than necessary, as long as the resulting schedule is
valid and optimal. Hence we use an objective function during the second
phase that minimizes the number of scheduled instructions" while "the
length of each block is fixed to its solution value of the first phase".
"""

from __future__ import annotations

from repro.ilp import lin_sum, solve_model
from repro.obs import core as obs


def minimize_instruction_count(
    ilp,
    phase1_lengths,
    incumbent=None,
    deadline=None,
):
    """Run phase 2 on the phase-1 model; returns the solution, or
    ``None`` on failure.

    ``phase1_lengths`` maps block name -> optimal length from phase 1.
    The already-generated ``ilp`` is reused: the length pins are appended
    to its model and the objective swapped to Σx in place. The phase-1
    optimum is a feasible point of the pinned model, so callers pass it
    as ``incumbent`` to hand the solver an immediate upper bound.

    ``deadline`` is the routine's shared wall-clock budget
    (:class:`repro.tools.deadline.Deadline`): phase 2 only gets whatever
    phase 1 and the bundling-cut loop left over. A ``None`` return —
    whether from an exhausted budget, an injected ``solve.phase2`` fault,
    or a genuinely failed solve — tells the scheduler to keep the
    (already bundled) phase-1 schedule, degrading quality to ``phase1``
    instead of failing the routine.
    """
    prep = obs.span("phase2.prepare") if obs.ENABLED else obs.NOOP_SPAN
    with prep:
        model = ilp.model
        for block, length in phase1_lengths.items():
            model.add_constraint(
                ilp.blen[(block, length)].to_expr() == 1, name=f"fixlen_{block}"
            )
        model.set_objective(_instruction_count(ilp))
        prep.set_attr("pinned_blocks", len(phase1_lengths))
    if obs.ENABLED:
        obs.counter("phase2_solves_total", 1)
    solution = solve_model(
        model,
        incumbent=incumbent,
        deadline=deadline,
        fault_site="solve.phase2",
    )
    if obs.ENABLED:
        obs.event(
            "phase2.outcome",
            status=solution.status.name,
            gap=solution.stats.gap,
        )
    return solution if solution else None


def _instruction_count(ilp):
    """Phase 2's objective: Σx, ties broken against stores leaving loops.

    A copy of a store outside a loop that contains its source block
    turns the loop's repeated writes into one. With n such ``x``
    variables the objective is ``(n + 1)·Σx + Σ`` of them: the count
    stays primary, and such a copy survives only where the pinned
    lengths need it.
    """
    cfg = ilp.region.cfg
    leaving = []
    for (instr, block, _t), var in ilp.x.items():
        if not instr.is_store:
            continue
        loop = cfg.innermost_loop(ilp.info[instr].source)
        while loop is not None:
            if block not in loop.blocks:
                leaving.append(var)
                break
            loop = loop.parent
    if not leaving:
        return lin_sum(var for var in ilp.x.values())
    weight = float(len(leaving) + 1)
    return lin_sum(weight * var for var in ilp.x.values()) + lin_sum(leaving)
