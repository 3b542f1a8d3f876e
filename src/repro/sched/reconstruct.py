"""Building the optimal schedule from an ILP solution.

"After CPLEX has finished, the optimal schedule is constructed from the
delivered solution" (paper Sec. 6.1). Placement copies are materialized
for every ``x`` variable at 1; copies outside the source block become
compensation code, copies in predication-extended destinations receive
their qualifying predicate, and selected speculation groups replace their
original loads (with recovery stubs recorded for emission).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchedulingError
from repro.sched.schedule import Schedule


@dataclass
class RecoveryStub:
    """Recovery code attached to a used speculation check (Sec. 5.1)."""

    check: object
    load: object
    reexecuted_uses: list = field(default_factory=list)

    @property
    def label(self):
        return self.check.target


@dataclass
class ReconstructionResult:
    schedule: Schedule
    active_instructions: list  # instructions required to execute
    selected_groups: list
    recovery_stubs: list
    source_block: dict  # active instruction -> source block name
    guards: dict  # (instruction, block) -> qualifying predicate


def reconstruct_schedule(ilp, solution, spec_groups=()):
    """Translate a feasible solution into a :class:`Schedule`.

    Exclusive uses of selected mov-carrying speculation groups are placed
    as *rewritten copies* reading the temporary register; the canonical
    function is never mutated (it stays the semantic reference for the
    differential tests, and phase 1/phase 2 may select different groups).
    """
    region = ilp.region
    schedule = Schedule([b.name for b in region.fn.blocks])

    selected, inactive = [], set()
    for group in spec_groups:
        if solution.value_of(group.usespec) >= 1:
            selected.append(group)
            inactive.add(group.original)
        else:
            inactive.update(
                m for m in (group.spec_load, group.check, group.mov) if m is not None
            )

    # Collapsed blocks drop their unconditional branch (Sec. 5.4): the
    # branch is then unscheduled by design and must not count as required.
    for branch in ilp.collapsible_branches:
        block = ilp.info[branch].source
        if solution.value_of(ilp.blen[(block, 0)]) >= 1:
            inactive.add(branch)

    active = [i for i in ilp.info if i not in inactive]
    source_block = {i: ilp.info[i].source for i in active}

    rewrites = _exclusive_use_rewrites(selected)

    placed_in_source = set()
    for (instr, block, t), var in sorted(
        ilp.x.items(), key=lambda kv: (kv[0][0].uid, kv[0][1], kv[0][2])
    ):
        if instr in inactive or solution.value_of(var) < 1:
            continue
        guard = region.guard_for.get((instr, block))
        if instr in rewrites:
            placed = _rewrite_use_copy(instr, rewrites[instr])
        elif block == ilp.info[instr].source and instr not in placed_in_source:
            placed_in_source.add(instr)
            placed = instr
        else:
            placed = instr.copy()
        if guard is not None:
            placed.pred = guard
        schedule.place(placed, block, t)

    for fn_block in region.fn.blocks:
        name = fn_block.name
        length = None
        for t in range(0, ilp.lengths[name] + 1):
            if solution.value_of(ilp.blen[(name, t)]) >= 1:
                length = t
                break
        if length is None:
            raise SchedulingError(f"no block-length indicator set for {name}")
        schedule.set_block_length(name, length)

    _order_groups(ilp, schedule, solution)

    stubs = [
        RecoveryStub(
            check=group.check,
            load=group.original,
            reexecuted_uses=list(group.exclusive_uses),
        )
        for group in selected
    ]
    guards = {
        key: guard
        for key, guard in region.guard_for.items()
        if key[0] in source_block
    }
    return ReconstructionResult(
        schedule=schedule,
        active_instructions=active,
        selected_groups=selected,
        recovery_stubs=stubs,
        source_block=source_block,
        guards=guards,
    )


def _exclusive_use_rewrites(selected):
    """use instruction -> {old register: temp register} for selected
    mov-carrying groups (the uses read the speculated temp directly).
    A use may read the results of several speculated loads."""
    rewrites = {}
    for group in selected:
        if group.mov is None:
            continue
        old = group.original.dests[0]
        new = group.spec_load.dests[0]
        for use in group.exclusive_uses:
            rewrites.setdefault(use, {})[old] = new
    return rewrites


def _rewrite_use_copy(use, mapping):
    """A copy of ``use`` reading the temps instead of the original registers."""
    from repro.ir.instruction import MemRef

    copy = use.copy()
    copy.srcs = [mapping.get(s, s) for s in copy.srcs]
    if copy.mem is not None and copy.mem.base in mapping:
        copy.mem = MemRef(
            mapping[copy.mem.base], copy.mem.offset, copy.mem.alias_class,
            copy.mem.size,
        )
    if copy.pred in mapping:
        copy.pred = mapping[copy.pred]
    return copy


def _order_groups(ilp, schedule, solution):
    """Topologically order each cycle's group by zero-latency dependences.

    The slot order within an instruction group must respect intra-group
    register-anti and memory dependences (paper Sec. 1); the bundler then
    preserves this order when assigning template slots. Edges whose
    relaxation is *active* in the solution (switched-off speculation
    alternatives, cyclic-motion anti edges) impose no order — including
    them could even fabricate cycles against their flipped counterparts.
    """
    from repro.ilp.expr import LinExpr, Var

    def relax_active(edge, block):
        entries = ilp.relax_terms.get(edge)
        if not entries:
            return False
        total = 0.0
        for term, blocks in entries:
            if blocks is not None and block not in blocks:
                continue
            if isinstance(term, Var):
                total += solution.value_of(term)
            elif isinstance(term, LinExpr):
                total += term.value(solution.values)
            else:
                total += float(term)
        return total >= 0.5

    all_edges = list(ilp.dep_edges())

    def edges_by_pair_for(block):
        # Successors in a dict, not a set: instructions hash by id(), so
        # a set would order each group by memory address, and the same
        # solution would emit differently ordered groups from run to run.
        mapping = {}
        for edge in all_edges:
            if relax_active(edge, block):
                continue
            mapping.setdefault(edge.src, {})[edge.dst] = None
        return mapping

    def key_node(placed):
        return placed if placed in ilp.info else placed.origin

    for block in schedule.block_order:
        edges_by_pair = edges_by_pair_for(block)
        for cycle, group in schedule.cycles_of(block).items():
            if len(group) < 2:
                continue
            nodes = {key_node(p): p for p in group}
            pred_count = {n: 0 for n in nodes}
            for node in nodes:
                for succ in edges_by_pair.get(node, ()):
                    if succ in pred_count and succ is not node:
                        pred_count[succ] += 1
            ready = [n for n in nodes if pred_count[n] == 0]
            order = []
            while ready:
                node = ready.pop(0)
                order.append(nodes[node])
                for succ in edges_by_pair.get(node, ()):
                    if succ in pred_count and succ is not node:
                        pred_count[succ] -= 1
                        if pred_count[succ] == 0:
                            ready.append(succ)
            if len(order) != len(nodes):
                raise SchedulingError(
                    f"cyclic intra-group dependences in {block}[{cycle}]"
                )
            branches = [p for p in order if p.is_branch]
            rest = [p for p in order if not p.is_branch]
            group[:] = rest + branches
            # Record the *required* order (zero-latency dependences only) so
            # the bundler may permute the group within it.
            index_of = {p: i for i, p in enumerate(group)}
            pairs = []
            for node, placed in nodes.items():
                for succ in edges_by_pair.get(node, ()):
                    if succ in nodes and succ is not node:
                        pairs.append((index_of[placed], index_of[nodes[succ]]))
            schedule.order_pairs[(block, cycle)] = pairs
