"""Scheduling regions: destination-block sets Θ(n) and Θ_spec(n).

Implements Sec. 4 of the paper:

* ``theta_spec(n)`` — every DAG ancestor and descendant of the source
  block (plus the source block itself): the *speculative* destination
  candidates.
* ``theta(n)`` — the actual candidates. For non-speculative instructions,
  predecessors not postdominated by s(n) and successors not dominated by
  s(n) are removed; branches, calls and checks are pinned to s(n).
* the predication extension: a non-speculative instruction may still move
  above a branch when guarded by the qualifying predicate of the edge it
  would otherwise speculate across (the destination→predicate map is
  exposed as ``guard_for``); the guarding compare then must not be
  speculated itself.

An instruction is *speculative* (safe to execute on paths where it did
not originally occur) when it cannot trap, is not a store/branch/call,
and its destination registers are "exclusive": written by no other
instruction and not live into/out of the routine. Everything else must
not execute unnecessarily (paper Sec. 5.1 reasons: exceptions and live
value clobbering / UD chains).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchedulingError
from repro.ir.ddg import DepKind


@dataclass
class SchedulingRegion:
    """All placement-related facts for one routine."""

    fn: object
    cfg: object
    ddg: object
    instructions: list = field(default_factory=list)
    source_block: dict = field(default_factory=dict)  # Instruction -> block name
    theta: dict = field(default_factory=dict)  # Instruction -> set[str]
    theta_spec: dict = field(default_factory=dict)
    guard_for: dict = field(default_factory=dict)  # (Instruction, block) -> Register
    guard_compare: dict = field(default_factory=dict)  # (Instruction, block) -> cmp
    speculative: dict = field(default_factory=dict)  # Instruction -> bool
    pinned: set = field(default_factory=set)  # instructions fixed to s(n)
    predicate_sources: set = field(default_factory=set)  # compares used as guards
    freq_cap: float = 5.0  # the paper's factor k for speculative loads
    backedge_variant: dict = field(default_factory=dict)  # instr -> [Loop]
    # Blocks visible to the analyses (paths, a-variables, liveness) but
    # closed to *placement*: partition exit stubs in the decomposed
    # pipeline (repro.sched.decompose). Every Θ-extension (speculation,
    # cyclic motion, predication) must respect this set.
    forbidden_blocks: frozenset = frozenset()
    # Lazy Θ⁻¹ index; invalidated whenever theta is mutated post-build.
    _hosting_index: dict | None = field(default=None, repr=False)

    OMEGA = "__omega__"

    def blocks_hosting(self, block_name):
        """Θ⁻¹(A): instructions that may be placed in ``block_name``.

        Served from a precomputed block→instructions index (built lazily
        on first call, in ``instructions`` order so callers see the same
        deterministic ordering as the old linear scan). The formulation
        calls this once per block while emitting resource rows, which
        made the O(instructions) scan quadratic on large routines.
        """
        index = self._hosting_index
        if index is None:
            index = {}
            for instr in self.instructions:
                for name in self.theta[instr]:
                    index.setdefault(name, []).append(instr)
            self._hosting_index = index
        return list(index.get(block_name, ()))

    def invalidate_hosting_index(self):
        """Drop the Θ⁻¹ index after a post-build mutation of ``theta``."""
        self._hosting_index = None

    def dag_preds(self, block):
        if block == self.OMEGA:
            return list(self.cfg.dag_sinks)
        return self.cfg.predecessors_in_dag(block)

    def a_blocks(self, instr):
        """Blocks for which an ``a`` variable exists: Θ_spec(n) ∪ {Ω}."""
        return list(self.theta_spec[instr]) + [self.OMEGA]


def build_region(
    fn,
    cfg,
    ddg,
    max_hops=None,
    freq_cap=5.0,
    allow_predication=True,
):
    """Compute Θ/Θ_spec for every instruction.

    ``max_hops`` optionally bounds the code-motion distance (in DAG edges)
    to keep the ILP compact — one of the paper's "fully automated
    optimizations to make the search space compact". ``freq_cap`` is the
    paper's factor k: speculative placement into blocks whose frequency
    exceeds k times the source block's is excluded (k = 5 in the
    experiments).
    """
    region = SchedulingRegion(fn=fn, cfg=cfg, ddg=ddg)
    region.freq_cap = freq_cap if freq_cap is not None else float("inf")
    exclusive = _exclusive_defs(fn)

    for block in fn.blocks:
        for instr in block.instructions:
            if instr.is_nop:
                continue
            region.instructions.append(instr)
            region.source_block[instr] = block.name

    for instr in region.instructions:
        source = region.source_block[instr]
        speculative = _is_speculative(instr, exclusive)
        region.speculative[instr] = speculative

        if instr.is_branch or instr.is_call or instr.is_check:
            # Pinned to the source block — but the a-domain must still span
            # the related set so precedence constraints (4) reach the blocks
            # other instructions could move to.
            region.pinned.add(instr)
            region.theta_spec[instr] = (
                {b for b in cfg.block_names if cfg.reaches(b, source)}
                | {b for b in cfg.block_names if cfg.reaches(source, b)}
                | {source}
            )
            region.theta[instr] = {source}
            continue

        full_ancestors = {b for b in cfg.block_names if cfg.reaches(b, source)}
        full_descendants = {b for b in cfg.block_names if cfg.reaches(source, b)}
        # Θ_spec — the a-variable domain — always covers the full related
        # set: paths through s(n) must be tracked even where placement is
        # forbidden (pinned/capped instructions included).
        region.theta_spec[instr] = full_ancestors | full_descendants | {source}

        ancestors = _bounded(full_ancestors, source, cfg, max_hops)
        descendants = _bounded(full_descendants, source, cfg, max_hops)
        placement = ancestors | descendants | {source}

        if speculative:
            theta = _apply_freq_cap(placement, source, fn, freq_cap, instr)
        else:
            theta = {source}
            for block in placement:
                if block == source:
                    continue
                if block in ancestors and cfg.postdominates(source, block):
                    theta.add(block)
                elif block in descendants and cfg.dominates(source, block):
                    theta.add(block)
        # Backedge-variant instructions (an operand is redefined inside a
        # containing loop, reaching only through the back edge) are
        # *confined* to that loop in the base model: hoisting above it
        # would miss the per-iteration recomputation the acyclic view
        # cannot see, and sinking below it would compute with the final
        # operand value instead of the last iteration's pre-update value
        # (the induction load ``ld [rIV]`` is the canonical victim in both
        # directions). The cyclic-code-motion extension (Sec. 5.2) reopens
        # above-loop blocks under its own conditions (copy above the loop
        # AND in every latch).
        for loop in _variant_loops(region, instr, source):
            region.backedge_variant.setdefault(instr, []).append(loop)
            theta = {b for b in theta if b in loop.blocks}
        # Motion INTO a foreign loop (paper Sec. 5.2): only for speculative,
        # multiply-executable non-loads — the instruction then re-executes
        # every iteration — and only when no loop member rewrites one of
        # its operands (re-execution must see unchanged values).
        theta = _filter_into_loop_motion(region, instr, source, theta)
        region.theta[instr] = theta

    for instr in region.instructions:
        if instr.is_store:
            _confine_variant_store(region, instr)
    if allow_predication:
        _extend_with_predication(region)
    return region


def _bounded(blocks, source, cfg, max_hops):
    if max_hops is None:
        return blocks
    kept = set()
    for block in blocks:
        distance = abs(cfg.topo_index(block) - cfg.topo_index(source))
        if distance <= max_hops:
            kept.add(block)
    return kept


def _apply_freq_cap(blocks, source, fn, freq_cap, instr):
    """Paper Sec. 5.1: forbid likely-useless speculation of loads."""
    if freq_cap is None or not instr.is_load:
        return blocks
    limit = freq_cap * fn.block(source).freq
    return {b for b in blocks if b == source or fn.block(b).freq <= limit}


def _filter_into_loop_motion(region, instr, source, theta):
    """Drop foreign-loop blocks from Θ unless Sec. 5.2's conditions hold."""
    cfg = region.cfg
    foreign = {}
    for block in theta:
        loop = cfg.innermost_loop(block)
        while loop is not None:
            if source not in loop.blocks:
                foreign.setdefault(id(loop), loop)
            loop = loop.parent
    if not foreign:
        return theta
    eligible = (
        region.speculative.get(instr, False)
        and instr.multiply_executable
        and not instr.is_load
    )
    reads = set(instr.regs_read())
    for loop in foreign.values():
        allowed = eligible and not _loop_writes(region, loop, reads)
        if not allowed:
            theta = {
                b
                for b in theta
                if b == source or b not in loop.blocks
            }
    return theta


def _loop_writes(region, loop, registers):
    """Does any instruction of ``loop`` write one of ``registers``?"""
    if not registers:
        return False
    for name in loop.blocks:
        for member in region.fn.block(name).instructions:
            if registers & set(member.regs_written()):
                return True
    return False


def _variant_loops(region, instr, source):
    """Containing loops whose back edge redefines one of n's operands.

    Detected through the DDG's anti edges (n reads r → d writes r later on
    a path) with the writer inside the loop, plus the self-overlap case
    (``add r1 = r1, ...``) which is variant in every containing loop.
    """
    cfg = region.cfg
    loops = []
    containing = _containing_loops(cfg, source)
    if not containing:
        return loops

    reads = set(instr.regs_read())
    self_variant = bool(reads & set(instr.regs_written()))
    in_loop_writers = set()
    for edge in region.ddg.succs(instr):
        if edge.kind.name != "ANTI":
            continue
        writer_block = region.source_block.get(edge.dst)
        if writer_block is not None and edge.reg in reads:
            in_loop_writers.add(writer_block)

    for loop in containing:
        if self_variant or any(b in loop.blocks for b in in_loop_writers):
            loops.append(loop)
    return loops


def _confine_variant_store(region, store):
    """Keep a store inside every loop that changes its address or value.

    Moved out of a loop, a store runs once instead of once per
    iteration. That is right only for a loop-invariant store, which
    writes the same value to the same address every time; a store
    whose address comes from a per-iteration load would drop all but
    one of its writes.
    """
    source = region.source_block[store]
    for loop in _containing_loops(region.cfg, source):
        if _varies_in_loop(region, store, loop):
            region.theta[store] = {
                b for b in region.theta[store] if b in loop.blocks
            }


def _varies_in_loop(region, instr, loop):
    """Can an operand of ``instr`` differ between iterations of ``loop``?

    Walks the in-loop definitions feeding ``instr`` (true dependences
    inside the loop). An operand varies when one of them is a load or a
    call (memory may change), is itself backedge-variant in ``loop``,
    or when a reader sees an in-loop definition of a register and some
    other one (the path taken may differ per iteration).
    """
    seen = {instr}
    stack = [instr]
    while stack:
        node = stack.pop()
        if node is not instr and (
            node.is_load
            or node.is_call
            or any(v is loop for v in region.backedge_variant.get(node, ()))
        ):
            return True
        writers = {}
        for edge in region.ddg.preds(node):
            if edge.kind is DepKind.TRUE:
                writers.setdefault(edge.reg, set()).add(edge.src)
        for defs in writers.values():
            inside = {
                d for d in defs if region.source_block.get(d) in loop.blocks
            }
            if inside and len(defs) > 1:
                return True
            for writer in inside - seen:
                seen.add(writer)
                stack.append(writer)
    return False


def _containing_loops(cfg, block):
    """Loops containing ``block``, innermost first."""
    loops = []
    loop = cfg.innermost_loop(block)
    while loop is not None:
        loops.append(loop)
        loop = loop.parent
    return loops


def _exclusive_defs(fn):
    """Registers written exactly once and not live across the boundary."""
    counts = {}
    for instr in fn.all_instructions():
        for dst in instr.regs_written():
            counts[dst] = counts.get(dst, 0) + 1
    return {
        regname
        for regname, count in counts.items()
        if count == 1 and regname not in fn.live_in and regname not in fn.live_out
    }


def _is_speculative(instr, exclusive):
    if instr.may_trap or instr.is_store or instr.is_branch or instr.is_call:
        return False
    if instr.is_check:
        return False
    if instr.pred is not None:
        # A predicated instruction is already guarded; moving it anywhere its
        # predicate is available keeps semantics, but we keep the paper's
        # conservative line: treat it as non-speculative placement-wise.
        return False
    written = instr.regs_written()
    if not written:
        return False
    return all(dst in exclusive for dst in written)


def _extend_with_predication(region):
    """Allow guarded upward motion across edges leaving s(n)'s postdom set.

    For control-flow edges (A, B) where B is postdominated by s(n) and A is
    not, the qualifying predicate of that edge (from A's conditional branch)
    guards the instruction: it may then be placed in A and A's DAG
    ancestors. A new dependence on the guarding compare is recorded via
    ``predicate_sources`` (the formulation adds the precedence edges), and
    that compare is excluded from being speculated itself.
    """
    fn, cfg = region.fn, region.cfg
    edge_guards = _edge_qualifying_predicates(fn)

    for instr in list(region.instructions):
        if region.speculative[instr] or instr in region.pinned:
            continue
        if instr.is_store or instr.may_trap:
            continue  # guarded stores work on IA-64 but stay out of scope
        source = region.source_block[instr]
        for (a_block, b_block), (guard, compare) in edge_guards.items():
            if not cfg.postdominates(source, b_block):
                continue
            if cfg.postdominates(source, a_block):
                continue
            if instr.pred is not None and instr.pred != guard:
                continue  # cannot stack a second qualifying predicate
            if compare is instr:
                continue
            targets = {a_block} | {
                blk for blk in cfg.block_names if cfg.reaches(blk, a_block)
            }
            targets &= region.theta_spec[instr]
            for target in targets:
                if target in region.theta[instr]:
                    continue
                if target in region.forbidden_blocks:
                    continue
                region.theta[instr].add(target)
                region.guard_for[(instr, target)] = guard
                region.guard_compare[(instr, target)] = compare
                region.predicate_sources.add(compare)
    region.invalidate_hosting_index()


def _edge_qualifying_predicates(fn):
    """Map CFG edge -> (guard predicate, defining compare), where known.

    The taken edge of ``(pX) br.cond T`` is guarded by pX; the fall-through
    edge by pX's *complement*, available when the compare writes a predicate
    pair (``cmp.eq p6, p7 = ...``).
    """
    guards = {}
    compare_of = {}
    complement_of = {}
    for block in fn.blocks:
        for instr in block.instructions:
            if instr.op.is_compare and len(instr.dests) == 2:
                p_true, p_false = instr.dests
                compare_of[p_true] = instr
                compare_of[p_false] = instr
                complement_of[p_true] = p_false
                complement_of[p_false] = p_true

    for block in fn.blocks:
        term_edges = fn.out_edges(block.name)
        branches = block.branches
        cond = [b for b in branches if b.pred is not None and b.target]
        if len(cond) != 1:
            continue
        branch = cond[0]
        guard = branch.pred
        compare = compare_of.get(guard)
        if compare is None:
            continue
        for edge in term_edges:
            if edge.dst == branch.target:
                guards[(block.name, edge.dst)] = (guard, compare)
            elif guard in complement_of:
                guards[(block.name, edge.dst)] = (
                    complement_of[guard],
                    compare,
                )
    return guards
