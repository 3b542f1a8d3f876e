"""Register renaming: strip false dependences before scheduling.

The paper's tool "performs register renaming to remove all false
dependences which would otherwise restrict code motion" (Sec. 6.1). We
build du-webs from the reaching-definitions analysis and give every web a
fresh architectural register, except webs pinned to their name because

* one of their uses can also read the routine-live-in value (renaming
  would cut that path),
* one of their definitions reaches a routine exit where the register is
  live-out, or
* the register is a branch register (ABI-visible) — r0/p0 never appear
  as definitions in the first place.

Renaming stops gracefully when a bank's 128/64 registers are exhausted —
remaining webs keep their names (and their false dependences), mirroring
the real machine constraint.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.instruction import MemRef
from repro.ir.liveness import LivenessInfo, compute_liveness
from repro.ir.registers import RegisterBank, fresh_register_allocator


@dataclass
class RenameStats:
    """What the pass did (exposed for tests and reports)."""

    webs: int = 0
    renamed: int = 0
    pinned: int = 0
    exhausted: int = 0


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, item):
        parent = self.parent.setdefault(item, item)
        while parent != item:
            self.parent[item] = self.parent.setdefault(parent, parent)
            item = self.parent[item]
            parent = self.parent.setdefault(item, item)
        return item

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def rename_registers(fn, liveness=None):
    """Rename du-webs in place; returns :class:`RenameStats`.

    ``liveness`` may be passed to reuse an existing analysis. All analyses
    (liveness, DDG) are stale after this pass and must be recomputed — the
    scheduler driver does exactly that.
    """
    if liveness is None:
        liveness = compute_liveness(fn)

    uf = _UnionFind()
    all_instructions = list(fn.all_instructions())

    for instr in all_instructions:
        for dst in instr.regs_written():
            uf.find((instr, dst))

    # A use joins all definitions that may reach it into one web.
    use_webs = []  # (instr, reg, concrete defs, saw entry value)
    for instr in all_instructions:
        for regname, defs in liveness.reaching_uses.get(instr, {}).items():
            concrete = [d for d in defs if d is not LivenessInfo.ENTRY_DEF]
            saw_entry = len(concrete) != len(defs)
            for other in concrete[1:]:
                uf.union((concrete[0], regname), (other, regname))
            use_webs.append((instr, regname, concrete, saw_entry))

    webs = {}
    for instr in all_instructions:
        for dst in instr.regs_written():
            root = uf.find((instr, dst))
            web = webs.setdefault(
                root, {"reg": dst, "defs": [], "uses": [], "pinned": False}
            )
            web["defs"].append(instr)
    for instr, regname, concrete, saw_entry in use_webs:
        if not concrete:
            continue
        web = webs[uf.find((concrete[0], regname))]
        web["uses"].append(instr)
        if saw_entry:
            web["pinned"] = True

    for definition, regname in liveness.defs_reaching_exit:
        root = uf.find((definition, regname))
        if root in webs:
            webs[root]["pinned"] = True

    stats = RenameStats(webs=len(webs))
    used = {r for i in all_instructions for r in (i.regs_read() + i.regs_written())}
    used |= fn.live_in | fn.live_out
    allocators = {
        bank: fresh_register_allocator(used, bank)
        for bank in (RegisterBank.GR, RegisterBank.FR, RegisterBank.PR)
    }

    for web in webs.values():
        old = web["reg"]
        if web["pinned"] or old.bank is RegisterBank.BR:
            stats.pinned += 1
            continue
        if len(web["defs"]) == 1 and not _has_false_conflict(fn, old):
            # Unique name already: renaming would be a no-op churn.
            stats.pinned += 1
            continue
        allocator = allocators.get(old.bank)
        if allocator is None:
            stats.pinned += 1
            continue
        try:
            new = next(allocator)
        except StopIteration:
            stats.exhausted += 1
            continue
        for instr in web["defs"]:
            instr.dests = [new if d == old else d for d in instr.dests]
        for instr in web["uses"]:
            _rewrite_use(instr, old, new)
        stats.renamed += 1
    return stats


def _has_false_conflict(fn, regname):
    """Is ``regname`` defined more than once anywhere in the routine?"""
    count = 0
    for instr in fn.all_instructions():
        if regname in instr.regs_written():
            count += 1
            if count > 1:
                return True
    return False


def _rewrite_use(instr, old, new):
    instr.srcs = [new if s == old else s for s in instr.srcs]
    if instr.pred == old:
        instr.pred = new
    if instr.mem is not None and instr.mem.base == old:
        instr.mem = MemRef(
            base=new,
            offset=instr.mem.offset,
            alias_class=instr.mem.alias_class,
            size=instr.mem.size,
        )
