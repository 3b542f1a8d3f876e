"""Second optimization phase — paper Sec. 5.5.

"Nothing detains the ILP solver from using more speculation and more
compensation copies than necessary, as long as the resulting schedule is
valid and optimal. Hence we use an objective function during the second
phase that minimizes the number of scheduled instructions" while "the
length of each block is fixed to its solution value of the first phase".

The paper sketches two further phase-2 objectives it does not evaluate;
both are implemented here and selectable through
``ScheduleFeatures.phase2_objective``:

* ``"instructions"`` (paper default) — minimize Σ x: drop unnecessary
  speculation and compensation copies;
* ``"register_pressure"`` — schedule definitions as late as their block
  length allows (minimizing Σ (L_A − t)·x over value-producing
  instructions shrinks live ranges at equal schedule length);
* ``"stalls"`` — maximize the issue distance between loads and their
  consumers (utilizing slack to hide cache misses, exactly the paper's
  "expand the distances between loads and their nearest use").

Every variant adds a small Σx tie-breaker so degenerate optima still
prefer fewer instructions.
"""

from __future__ import annotations

from repro.ilp import lin_sum, solve_model
from repro.ir.ddg import DepKind
from repro.obs import core as obs

OBJECTIVES = ("instructions", "register_pressure", "stalls")


def minimize_instruction_count(
    build_ilp,
    phase1_lengths,
    backend="highs",
    time_limit=None,
    objective="instructions",
    ilp=None,
    incumbent=None,
    heuristic_effort=0.5,
    deadline=None,
    solve_extra=None,
):
    """Run phase 2; returns ``(ilp, solution)`` or ``None`` on failure.

    ``phase1_lengths`` maps block name -> optimal length from phase 1.

    Passing an already-generated ``ilp`` reuses its model — the length
    pins are appended and the objective swapped in place, skipping the
    full rebuild (``build_ilp`` is then never called). The phase-1 optimum
    is a feasible point of the pinned model, so callers pass it as
    ``incumbent`` to hand the solver an immediate upper bound.

    ``deadline`` is the routine's shared wall-clock budget
    (:class:`repro.tools.deadline.Deadline`): phase 2 only gets whatever
    phase 1 and the bundling-cut loop left over. A ``None`` return —
    whether from an exhausted budget, an injected ``solve.phase2`` fault,
    or a genuinely failed solve — tells the scheduler to keep the
    (already bundled) phase-1 schedule, degrading quality to ``phase1``
    instead of failing the routine.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown phase-2 objective {objective!r}")
    reused = ilp is not None
    prep = (
        obs.span("phase2.prepare", objective=objective, reused_model=reused)
        if obs.ENABLED
        else obs.NOOP_SPAN
    )
    with prep:
        if ilp is None:
            ilp = build_ilp()
            model = ilp.generate()
        else:
            model = ilp.model
        for block, length in phase1_lengths.items():
            model.add_constraint(
                ilp.blen[(block, length)].to_expr() == 1, name=f"fixlen_{block}"
            )
        model.set_objective(_objective_expr(ilp, objective))
        prep.set_attr("pinned_blocks", len(phase1_lengths))
    if obs.ENABLED:
        obs.counter("phase2_solves_total", 1, reused_model=str(reused).lower())
    extra = dict(solve_extra) if solve_extra else {}
    if backend == "highs" and "heuristic_effort" not in extra:
        extra["heuristic_effort"] = heuristic_effort
    solution = solve_model(
        model,
        backend=backend,
        time_limit=time_limit,
        incumbent=incumbent,
        deadline=deadline,
        fault_site="solve.phase2",
        **extra,
    )
    if obs.ENABLED:
        obs.event(
            "phase2.outcome",
            objective=objective,
            reused_model=reused,
            status=solution.status.name,
            gap=solution.stats.gap,
        )
    if not solution:
        return None
    return ilp, solution


def _objective_expr(ilp, objective):
    count = lin_sum(var for var in ilp.x.values())
    if objective == "instructions":
        return count
    if objective == "register_pressure":
        return _register_pressure_expr(ilp) + count
    return _stall_expr(ilp) + count


def _register_pressure_expr(ilp):
    """Late-definition proxy for live-range length.

    For each value-producing placement, charge the cycles between its
    issue and the end of its block: Σ (L_A − t) · x[n,A,t]. With lengths
    fixed, minimizing it pushes definitions down, shrinking live ranges.
    The weight 8 keeps it dominant over the Σx tie-breaker.
    """
    terms = []
    for (instr, block, t), var in ilp.x.items():
        if not instr.regs_written() or instr.is_branch:
            continue
        slack = ilp.lengths[block] - t
        if slack > 0:
            terms.append(8.0 * slack * var)
    return lin_sum(terms) if terms else lin_sum([])


def _stall_expr(ilp):
    """Negative load→use distance: minimizing it spreads loads from uses.

    For every true dependence whose producer is a load, reward each cycle
    of distance inside a shared block: Σ (t_load − t_use) contributions,
    encoded per placement variable (weight 8 over the tie-breaker).
    """
    terms = []
    for edge in ilp.dep_edges():
        if not edge.src.is_load or edge.kind is not DepKind.TRUE:
            continue
        if edge.src not in ilp.info or edge.dst not in ilp.info:
            continue
        shared = ilp.info[edge.src].theta & ilp.info[edge.dst].theta
        for block in shared:
            for t in range(1, ilp.lengths[block] + 1):
                load_key = (edge.src, block, t)
                use_key = (edge.dst, block, t)
                if load_key in ilp.x:
                    terms.append(8.0 * t * ilp.x[load_key])
                if use_key in ilp.x:
                    terms.append(-8.0 * t * ilp.x[use_key])
    return lin_sum(terms) if terms else lin_sum([])
