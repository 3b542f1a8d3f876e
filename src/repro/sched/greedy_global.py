"""Greedy global scheduler: a stronger heuristic baseline.

The paper compares against Intel's production compiler, which performs
*global* instruction scheduling heuristically. The plain per-block list
scheduler (:mod:`repro.sched.list_scheduler`) under-approximates that,
so this module adds the classic greedy layer on top: after local
compaction, speculative instructions are hoisted into predecessor blocks
whenever a free slot exists there and every dependence stays satisfied —
the "fill the empty slots upward" strategy production EPIC compilers use
(without compensation copies, without speculation conversion, and
without optimality, which is precisely the gap the ILP then closes).

Selecting it: ``ScheduleFeatures(baseline="greedy")`` or
``REPRO_BASELINE=greedy`` for the benchmark harness.

Restrictions (all conservative):

* only single-source hoisting: an instruction moves to a block that
  dominates its source block and is an immediate DAG predecessor chain
  member (no compensation code);
* only speculative instructions move (the heuristic has no ld.s
  machinery);
* an instruction moves only if the target block has a free issue slot in
  a dispersal-feasible cycle and all its dependence sources are already
  scheduled early enough;
* backedge-variant instructions never leave their loop.
"""

from __future__ import annotations

from repro.machine.itanium2 import ITANIUM2
from repro.sched.schedule import Schedule


class GreedyGlobalScheduler:
    """List scheduling plus greedy upward code motion.

    ``schedule(fn, ddg, region)`` needs the region (for Θ sets and
    speculation classification); it returns a Schedule like the local
    baseline, with some instructions placed above their source blocks.
    """

    def __init__(self, machine=ITANIUM2, max_passes=3):
        self.machine = machine
        self.max_passes = max_passes

    def schedule(self, fn, ddg, region):
        cfg = region.cfg
        order = {name: i for i, name in enumerate(cfg.topo_order)}
        assignment = {}
        for block in fn.blocks:
            for instr in block.instructions:
                if not instr.is_nop:
                    assignment[instr] = block.name

        for _ in range(self.max_passes):
            placement = self._compact(fn, ddg, assignment)
            moved = False
            for instr in sorted(
                assignment, key=lambda i: order[assignment[i]]
            ):
                if not self._movable(instr, region):
                    continue
                target = self._hoist_target(instr, assignment[instr], region)
                if target is None:
                    continue
                cycle = self._free_cycle(instr, target, placement, ddg, cfg)
                if cycle is None:
                    continue
                placement[instr] = (target, cycle)
                assignment[instr] = target
                moved = True
            if not moved:
                break

        # Final compaction re-packs the vacated source blocks — without it
        # upward motion frees slots but never shortens anything.
        placement = self._compact(fn, ddg, assignment)
        return self._materialize(fn, ddg, placement)

    def _compact(self, fn, ddg, assignment):
        """Per-block critical-path list scheduling of the assigned sets."""
        by_block = {}
        for instr, block in assignment.items():
            by_block.setdefault(block, []).append(instr)
        placement = {}
        for block in fn.blocks:
            members = by_block.get(block.name, [])
            if not members:
                continue
            self._compact_block(block.name, members, ddg, placement)
        return placement

    def _compact_block(self, block_name, members, ddg, placement):
        member_set = set(members)
        preds = {
            i: [e for e in ddg.preds(i) if e.src in member_set and e.src is not i]
            for i in members
        }
        succs = {
            i: [e for e in ddg.succs(i) if e.dst in member_set and e.dst is not i]
            for i in members
        }
        priority = {}
        for instr in reversed(_topo(members, succs)):
            priority[instr] = max(
                (priority[e.dst] + max(e.latency, 1) for e in succs[instr]),
                default=0,
            )

        branches = [i for i in members if i.is_branch]
        remaining = {i for i in members if not i.is_branch}
        scheduled = {}
        cycle = 0
        while remaining:
            cycle += 1
            group = []
            ready = sorted(
                (
                    i
                    for i in remaining
                    if all(
                        scheduled.get(e.src, 10**9) + e.latency <= cycle
                        or (e.latency == 0 and scheduled.get(e.src) == cycle
                            and e.src in group)
                        for e in preds[i]
                        if e.src in remaining or e.src in scheduled
                    )
                ),
                key=lambda i: (-priority[i], i.uid),
            )
            for instr in ready:
                blocked = any(
                    e.src in remaining
                    or scheduled.get(e.src, -1) == cycle
                    and e.src not in group
                    and e.latency == 0
                    or scheduled.get(e.src, -(10**9)) + e.latency > cycle
                    for e in preds[instr]
                )
                if blocked:
                    continue
                candidate_units = [g.unit for g in group] + [instr.unit]
                if self.machine.group_feasible(candidate_units):
                    from repro.bundle import group_is_bundleable

                    if group_is_bundleable(group + [instr], []):
                        group.append(instr)
            if not group and cycle > 10 * len(members) + 64:
                raise RuntimeError(f"compaction stuck in {block_name}")
            for instr in group:
                scheduled[instr] = cycle
                remaining.discard(instr)
        if branches:
            earliest = max(
                [
                    scheduled.get(e.src, 0) + e.latency
                    for b in branches
                    for e in preds[b]
                ]
                + [cycle, 1]
            )
            for branch in branches:
                scheduled[branch] = earliest
        for instr, at in scheduled.items():
            placement[instr] = (block_name, at)

    # -- internals ------------------------------------------------------------
    @staticmethod
    def _movable(instr, region):
        if instr.is_branch or instr.is_call or instr.is_check:
            return False
        if not region.speculative.get(instr, False):
            return False
        if instr in region.backedge_variant:
            # never across its loops; conservative: keep put entirely
            return False
        return True

    def _hoist_target(self, instr, block, region):
        """The immediate DAG predecessor, when unique and allowed."""
        cfg = region.cfg
        preds = cfg.predecessors_in_dag(block)
        if len(preds) != 1:
            return None
        target = preds[0]
        if target not in region.theta.get(instr, ()):
            return None
        if cfg.innermost_loop(target) is not cfg.innermost_loop(block):
            # Never cross a loop boundary: hoisting into a loop would
            # re-execute the instruction per iteration.
            return None
        return target

    def _free_cycle(self, instr, target, placement, ddg, cfg):
        """Latest dispersal-feasible cycle in ``target`` respecting deps."""
        target_len = max(
            (c for i, (b, c) in placement.items() if b == target), default=0
        )
        if target_len == 0:
            return None  # do not grow empty blocks
        earliest = 1
        latest = target_len
        for edge in ddg.preds(instr):
            src = placement.get(edge.src)
            if src is None:
                continue
            src_block, src_cycle = src
            if src_block == target:
                earliest = max(earliest, src_cycle + edge.latency)
            elif not cfg.dominates(src_block, target):
                # The producer would not have run yet on every path.
                return None
        for edge in ddg.succs(instr):
            dst = placement.get(edge.dst)
            if dst is None:
                continue
            dst_block, dst_cycle = dst
            if dst_block == target:
                latest = min(latest, dst_cycle - edge.latency)
            elif not (
                cfg.reaches(target, dst_block) or dst_block == target
            ):
                # A consumer at or above the target: hoisting past it
                # would reorder the dependence.
                return None
        from repro.bundle import group_is_bundleable

        for cycle in range(min(latest, target_len), earliest - 1, -1):
            group = [
                i
                for i, (b, c) in placement.items()
                if b == target and c == cycle
            ]
            units = [i.unit for i in group] + [instr.unit]
            if self.machine.group_feasible(units) and group_is_bundleable(
                group + [instr], []
            ):
                return cycle
        return None

    def _materialize(self, fn, ddg, placement):
        schedule = Schedule([b.name for b in fn.blocks])
        by_spot = {}
        for instr, (block, cycle) in placement.items():
            by_spot.setdefault((block, cycle), []).append(instr)
        for (block, cycle), group in sorted(
            by_spot.items(), key=lambda kv: (kv[0][0], kv[0][1])
        ):
            ordered = self._topo_order(group, ddg)
            for instr in ordered:
                schedule.place(instr, block, cycle)
            index_of = {p: i for i, p in enumerate(ordered)}
            pairs = []
            for instr in ordered:
                for edge in ddg.succs(instr):
                    if edge.dst in index_of and edge.latency == 0:
                        pairs.append((index_of[instr], index_of[edge.dst]))
            schedule.order_pairs[(block, cycle)] = pairs
        return schedule

    @staticmethod
    def _topo_order(group, ddg):
        members = set(group)
        pred_count = {i: 0 for i in group}
        for instr in group:
            for edge in ddg.succs(instr):
                if edge.dst in members and edge.dst is not instr:
                    pred_count[edge.dst] += 1
        ready = sorted(
            (i for i in group if pred_count[i] == 0), key=lambda i: i.uid
        )
        order = []
        while ready:
            instr = ready.pop(0)
            order.append(instr)
            for edge in ddg.succs(instr):
                if edge.dst in members and edge.dst is not instr:
                    pred_count[edge.dst] -= 1
                    if pred_count[edge.dst] == 0:
                        ready.append(edge.dst)
        # Branches last (B slots sit at template ends anyway).
        return [i for i in order if not i.is_branch] + [
            i for i in order if i.is_branch
        ]
def _topo(members, succs):
    member_set = set(members)
    indegree = {i: 0 for i in members}
    for instr in members:
        for edge in succs[instr]:
            indegree[edge.dst] += 1
    ready = [i for i in members if indegree[i] == 0]
    order = []
    while ready:
        instr = ready.pop()
        order.append(instr)
        for edge in succs[instr]:
            indegree[edge.dst] -= 1
            if indegree[edge.dst] == 0:
                ready.append(edge.dst)
    return order

