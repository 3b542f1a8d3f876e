"""Path-based schedule verification (Theorem 1 checker).

The paper notes (Sec. 7) that because the basic model is proven correct,
feasibility of a schedule in the ILP certifies it — and that the same
machinery can validate schedules produced by heuristics. This module is
the operational version of that idea: it checks a concrete
:class:`~repro.sched.schedule.Schedule` against the region's semantics by
enumerating program paths through the acyclic block graph:

1. every program path through an instruction's source block executes a
   copy of it (completeness along paths);
2. non-speculative instructions appear on a path only if their source
   block is on it, unless the copy carries the qualifying predicate of a
   predication-extended destination;
3. for every dependence (m, n) with copies of both on the path, the last
   copy of n follows the last copy of m (cycle distance >= latency within
   a block, slot order for zero-latency same-cycle pairs);
4. every cycle's instruction group is dispersal-feasible and branches sit
   in the last cycle of their source block;
5. no block holds two copies of the same instruction.

Path enumeration (:meth:`repro.ir.cfg.CfgInfo.dag_paths`, the walk the
scheduling model's chain rows use too) is exponential in general; it is
capped and the report
says whether coverage was exhaustive (for the routine sizes of the paper
it always is in our experiments).

The checker runs on every cache hit of the schedule service, so it is one
indexed pass: a single walk over the schedule builds tables keyed by
``id()`` or by a small per-original int (placements per block, sources,
guards, the active set), dependence edges become int tuples once, and
each path fills a list of last positions. No instruction or edge is
hashed per path. ``tests/sched/verifier_reference.py`` keeps the direct
form of the checks; the differential test holds the two to identical
reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.itanium2 import ITANIUM2
from repro.machine.opcodes import lookup_opcode


# Port configuration -> {sorted unit letters: dispersal feasible}. Only
# the pure group rule is memoized; every schedule is still checked.
_DISPERSAL = {}
# Mnemonic -> (unit, unit letter, is_nop, is_branch); opcode facts are static.
_OPCODES = {}


@dataclass
class VerificationReport:
    ok: bool
    problems: list = field(default_factory=list)
    paths_checked: int = 0
    exhaustive: bool = True

    def __bool__(self):
        return self.ok


def verify_schedule(
    schedule,
    region,
    reconstruction=None,
    machine=ITANIUM2,
    dep_edges=None,
    edge_scopes=None,
    max_paths=4000,
):
    """Run all checks; returns a :class:`VerificationReport`."""
    if reconstruction is not None:
        active_list = reconstruction.active_instructions
        source_block = reconstruction.source_block
        guards = reconstruction.guards
    else:
        active_list = region.instructions
        source_block = region.source_block
        guards = region.guard_for
    # Instructions hash by id() and a CPython address hashes to itself, so
    # this set iterates in the order set(active_list) would: missing-copy
    # problems keep that order.
    active_ids = set(map(id, active_list))
    source_of = {id(i): b for i, b in source_block.items()}

    # -- one walk over the schedule ----------------------------------------
    feasible = _DISPERSAL.setdefault(machine.ports, {})
    resource_problems = []  # (cycle, message)
    branch_problems = []  # (cycle, message)
    index_of = {}  # id(original) -> k
    originals = []  # k -> original
    placements = []  # k -> [(block, cycle, slot, placed)]
    twice_in_block = set()  # k placed twice in one block
    per_block = {}  # block -> [(k, cycle, slot)], cycle/slot ascending
    for block in schedule.block_order:
        cycles = schedule.cycles_of(block)
        length = schedule.block_length(block)
        entries = per_block[block] = []
        first = (len(resource_problems), len(branch_problems))
        ascending = sorted(cycles)
        for cycle in ascending:
            units = []
            letters = []
            for slot, placed in enumerate(cycles[cycle]):
                info = _OPCODES.get(placed.mnemonic)
                if info is None:
                    op = lookup_opcode(placed.mnemonic)
                    info = _OPCODES[placed.mnemonic] = (
                        op.unit, op.unit.value, op.is_nop, op.is_branch
                    )
                unit, letter, is_nop, is_branch = info
                if not is_nop:
                    units.append(unit)
                    letters.append(letter)
                original = placed
                while original.origin is not None:
                    original = original.origin
                k = index_of.get(id(original))
                if k is None:
                    k = index_of[id(original)] = len(originals)
                    originals.append(original)
                    placements.append([])
                elif placements[k][-1][0] == block:
                    twice_in_block.add(k)
                placements[k].append((block, cycle, slot, placed))
                entries.append((k, cycle, slot))
                if is_branch:
                    home = source_of.get(id(original))
                    if home is not None and home != block:
                        branch_problems.append((
                            cycle,
                            f"branch {original.uid} moved from {home} to {block}",
                        ))
                    if cycle != length:
                        branch_problems.append((
                            cycle,
                            f"branch {original.uid} at cycle {cycle} of {block}, "
                            f"but block length is {length}",
                        ))
            letters.sort()
            key = tuple(letters)
            ok = feasible.get(key)
            if ok is None:
                ok = feasible[key] = machine.group_feasible(units)
            if not ok:
                resource_problems.append((
                    cycle,
                    f"dispersal infeasible group in {block}[{cycle}]: "
                    f"{[u.value for u in units]}",
                ))
        if (len(resource_problems), len(branch_problems)) != first and (
            ascending != list(cycles)
        ):
            # Group problems follow the block's cycle insertion order; the
            # walk went in ascending cycle order.
            rank = {c: i for i, c in enumerate(cycles)}
            for found, start in zip((resource_problems, branch_problems), first):
                found[start:] = sorted(found[start:], key=lambda p: rank[p[0]])
    problems = [m for _c, m in resource_problems] + [m for _c, m in branch_problems]
    for k in sorted(twice_in_block):
        problems.append(f"instruction {originals[k].uid} placed twice in one block")
    problems += _check_speculative_placement(
        index_of, originals, placements, region, source_of, guards
    )

    # -- per-call path tables -----------------------------------------------
    # Active instructions by source block, in active-set order.
    required = {}
    for order, iid in enumerate(active_ids):
        source = source_of.get(iid)
        if source is not None:
            required.setdefault(source, []).append((order, index_of.get(iid), iid))

    if dep_edges is None:
        dep_edges = region.ddg.edges
    checks = []  # (k_src, k_dst, latency, consumer source, scoped copies, edge)
    for edge in dep_edges:
        src, dst = id(edge.src), id(edge.dst)
        if src not in active_ids or dst not in active_ids:
            continue
        k_src, k_dst = index_of.get(src), index_of.get(dst)
        if k_src is None or k_dst is None:
            continue  # an end without copies is never on a path
        consumer_source = source_of.get(dst)
        if consumer_source is None:
            continue  # the consumer's source block is on no path
        scope = edge_scopes.get(edge) if edge_scopes else None
        if scope is not None:
            scope = (
                [(b, c, s) for b, c, s, _p in placements[k_src] if b in scope],
                [(b, c, s) for b, c, s, _p in placements[k_dst] if b in scope],
            )
        checks.append((k_src, k_dst, edge.latency, consumer_source, scope, edge))

    paths, exhaustive = region.cfg.dag_paths(max_paths)
    multiply_ok = {}
    for path in paths:
        path_index = {}
        last = [None] * len(originals)  # k -> last (block idx, cycle, slot)
        repeats = None
        for i, block in enumerate(path):
            path_index[block] = i
            for k, cycle, slot in per_block.get(block, ()):
                if last[k] is not None:
                    if repeats is None:
                        repeats = {}
                    repeats[k] = repeats.get(k, 1) + 1
                last[k] = (i, cycle, slot)
        where = "-".join(path)

        if repeats:
            for k in sorted(repeats):
                ok = multiply_ok.get(k)
                if ok is None:
                    ok = multiply_ok[k] = originals[k].multiply_executable
                if not ok:
                    original = originals[k]
                    problems.append(
                        f"path {where}: instruction {original.uid} "
                        f"({original.mnemonic}) executed {repeats[k]} times "
                        "but is not re-executable"
                    )

        missing = []
        for block in path:
            for order, k, iid in required.get(block, ()):
                if k is None or last[k] is None:
                    missing.append((order, iid, block))
        if missing:
            by_id = {id(i): i for i in active_list}
            for _order, iid, block in sorted(missing):
                problems.append(
                    f"path {where}: no copy of instruction "
                    f"{by_id[iid].uid} (source {block})"
                )

        for k_src, k_dst, latency, consumer_source, scope, edge in checks:
            if consumer_source not in path_index:
                continue  # consumer is speculative here; its value is unused
            if scope is None:
                pos_m = last[k_src]
                pos_n = last[k_dst]
                if pos_m is None or pos_n is None:
                    continue
            else:
                # Scoped edge (cyclic flipped dependence): only copies inside
                # the scope blocks carry the constraint.
                pos_m = _last_in(scope[0], path_index)
                pos_n = _last_in(scope[1], path_index)
                if pos_m is None or pos_n is None:
                    continue
            bi_m, c_m, s_m = pos_m
            bi_n, c_n, s_n = pos_n
            if bi_m < bi_n:
                continue
            if bi_m > bi_n:
                problems.append(
                    f"path {where}: dependence "
                    f"{edge.src.uid}->{edge.dst.uid} violated across blocks"
                )
                continue
            if c_n - c_m < latency:
                problems.append(
                    f"path {where}: dependence "
                    f"{edge.src.uid}->{edge.dst.uid} needs {latency} "
                    f"cycles, got {c_n - c_m}"
                )
            elif c_n == c_m and latency == 0 and s_n < s_m:
                problems.append(
                    f"path {where}: intra-group order violates "
                    f"{edge.src.uid}->{edge.dst.uid}"
                )

    return VerificationReport(
        ok=not problems,
        problems=problems,
        paths_checked=len(paths),
        exhaustive=exhaustive,
    )


# -- helpers -----------------------------------------------------------------------


def _check_speculative_placement(
    index_of, originals, placements, region, source_of, guards
):
    """Non-speculative copies must stay inside their Θ or carry a guard."""
    problems = []
    fixed = sorted(
        index_of[id(i)]
        for i, speculative in region.speculative.items()
        if not speculative and id(i) in index_of
    )
    guard_of = None
    cfg = region.cfg
    for k in fixed:
        original = originals[k]
        source = source_of.get(id(original))
        if source is None:
            continue
        for block, _cycle, _slot, placed in placements[k]:
            if block == source:
                continue
            if guard_of is None:
                guard_of = {(id(i), b): g for (i, b), g in guards.items()}
            guard = guard_of.get((id(original), block))
            if guard is not None and placed.pred == guard:
                continue
            up_safe = cfg.reaches(block, source) and cfg.postdominates(
                source, block
            )
            down_safe = cfg.reaches(source, block) and cfg.dominates(source, block)
            if not (up_safe or down_safe):
                problems.append(
                    f"non-speculative instruction {original.uid} placed "
                    f"speculatively in {block} (source {source})"
                )
    return problems


def _last_in(copies, path_index):
    """Last (path position, cycle, slot) of ``copies`` on the path, or None."""
    here = [(path_index[b], c, s) for b, c, s in copies if b in path_index]
    return max(here) if here else None

