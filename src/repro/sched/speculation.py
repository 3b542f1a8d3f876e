"""Control and data speculation — paper Sec. 5.1.

For every candidate load the ILP gets *two mutually exclusive instruction
groups*: the normal load, or the speculative version plus its ``chk``
(and, for loads inside UD chains, a ``mov`` that copies the speculated
value from a temporary back to the original register). A binary
``usespec`` variable switches between them:

* the assignment RHS (eq. 3) of the normal load becomes ``1 - usespec``,
  of the ld.s/chk/mov instructions ``usespec``;
* precedence constraints out of the normal load get ``+ usespec`` on
  their right-hand side (switched off when the group is unused), the new
  constraints out of the speculative group get ``+ (1 - usespec)``.

Control speculation (``ld.s``/``chk.s``) erases the *trap* restriction:
the ld.s may be placed speculatively, while the chk.s inherits the
original load's non-speculative placement range. Data speculation
(``ld.a``/``chk.a``) instead erases selected store→load dependences that
are independent under ANSI aliasing rules (paper Sec. 6.1); the chk.a
keeps those store dependences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.ddg import DepEdge, DepKind
from repro.ir.registers import RegisterBank, fresh_register_allocator


@dataclass
class SpecGroup:
    """One speculation alternative wired into the model."""

    original: object
    spec_load: object
    check: object
    mov: object | None
    kind: str  # "control" | "data"
    usespec: object = None  # ilp Var, set by attach_speculation
    broken_edges: list = field(default_factory=list)  # data spec: st->ld deps
    exclusive_uses: list = field(default_factory=list)  # rewritten to read temp


def find_speculation_candidates(region, allow_control=True, allow_data=True):
    """Loads that would profit from a speculative alternative.

    Control candidates: normal (trapping) loads whose upward placement
    range is strictly smaller than the speculative range — exactly the
    case where the trap restriction binds. Data candidates: loads with an
    incoming ANSI-distinct store dependence.
    """
    groups = []
    cfg = region.cfg
    for instr in region.instructions:
        if not instr.is_load or instr.op.is_spec_load or instr.op.is_adv_load:
            continue
        if instr in region.predicate_sources:
            continue
        source = region.source_block[instr]
        if allow_control:
            blocked_up = any(
                cfg.reaches(block, source) and block not in region.theta[instr]
                for block in region.theta_spec[instr]
            )
            # A load whose upward motion is blocked by a *dependence* whose
            # source sits on a side path (not dominating the load) also
            # profits: only its ld.s version may be hoisted partial-ready
            # across that join (Fig. 6 — the compensated path re-executes
            # the access, and the hoisted copy must defer faults).
            side_dep = any(
                e.kind is DepKind.TRUE
                and (dep_block := region.source_block.get(e.src)) is not None
                and dep_block != source
                and cfg.reaches(dep_block, source)
                and not cfg.dominates(dep_block, source)
                for e in region.ddg.preds(instr)
            )
            if blocked_up or side_dep:
                groups.append(("control", instr, []))
                continue
        if allow_data:
            broken = [
                e
                for e in region.ddg.preds(instr)
                if e.kind is DepKind.MEM_TRUE and e.data_speculable
            ]
            if broken:
                groups.append(("data", instr, broken))
    return groups


def attach_speculation(ilp, candidates, used_registers):
    """Wire candidate groups into a :class:`SchedulingIlp` (pre-generate).

    Groups carry no objective cost: the paper leaves the Sec. 5.1 cost
    model unused ("this information was not available during our
    experiments").
    """
    region = ilp.region
    allocator = fresh_register_allocator(used_registers, RegisterBank.GR)
    spec_groups = []
    for kind, load, broken in candidates:
        group = _build_group(region, load, kind, broken, allocator)
        if group is None:
            continue
        _wire_group(ilp, group)
        spec_groups.append(group)
    return spec_groups


# -- group construction --------------------------------------------------------


def _build_group(region, load, kind, broken, allocator):
    source = region.source_block[load]
    dest = load.dests[0] if load.dests else None
    if dest is None:
        return None

    exclusive = _dest_is_exclusive(region, load)
    if exclusive:
        temp = dest
        mov = None
    else:
        try:
            temp = next(allocator)
        except StopIteration:
            return None  # register file exhausted: skip this candidate
        mov = load.copy(
            mnemonic="mov",
            dests=[dest],
            srcs=[temp],
            mem=None,
            imms=[],
            annotations={},
            origin=None,  # a new instruction, not a compensation copy
        )

    suffix = ".s" if kind == "control" else ".a"
    spec_load = load.copy(
        mnemonic=_spec_mnemonic(load.mnemonic, suffix),
        dests=[temp],
        pred=None,  # the ld.s itself may run unguarded (Sec. 5.1)
        origin=None,  # a new instruction, not a compensation copy
    )
    check = load.copy(
        mnemonic="chk.s" if kind == "control" else "chk.a",
        dests=[],
        srcs=[temp],
        mem=None,
        imms=[],
        target=f"recover_{load.uid}",
        annotations={},
        origin=None,  # a new instruction, not a compensation copy
    )
    return SpecGroup(load, spec_load, check, mov, kind, broken_edges=list(broken))


def _spec_mnemonic(mnemonic, suffix):
    base = mnemonic.split(".")[0]
    return base + suffix


def _dest_is_exclusive(region, load):
    """No other instruction writes the load's destination register."""
    dest = load.dests[0]
    if dest in region.fn.live_in or dest in region.fn.live_out:
        return False
    for other in region.fn.all_instructions():
        if other is not load and dest in other.regs_written():
            return False
    return True


# -- ILP wiring -------------------------------------------------------------------


def _wire_group(ilp, group):
    region = ilp.region
    load = group.original
    source = region.source_block[load]
    usespec = ilp.model.add_binary(f"usespec_{load.uid}")
    group.usespec = usespec

    spec_theta = _speculative_theta(region, load, source)
    nonspec_theta = set(region.theta[load])
    related = set(region.theta_spec[load])

    ilp.add_instruction(
        group.spec_load, theta=spec_theta, related=related, source=source,
        rhs=usespec,
    )
    ilp.add_instruction(
        group.check, theta=nonspec_theta, related=related, source=source,
        rhs=usespec,
    )
    if group.mov is not None:
        ilp.add_instruction(
            group.mov, theta=nonspec_theta, related=related, source=source,
            rhs=usespec,
        )
    ilp.set_assign_rhs(load, 1 - usespec)

    one_minus = 1 - usespec
    broken = set(group.broken_edges)

    # Incoming dependences: the spec load inherits them, except the
    # store→load edges data speculation exists to break (those move to the
    # chk.a). Switched off when the group is unused.
    for edge in list(region.ddg.preds(load)):
        target = group.check if edge in broken else group.spec_load
        new_edge = DepEdge(edge.src, target, edge.kind, edge.latency, reg=edge.reg)
        ilp.add_edge(new_edge)
        ilp.relax_edge(new_edge, one_minus)
        if edge in broken:
            # The normal load keeps the edge; it binds only when usespec=0.
            ilp.relax_edge(edge, usespec)

    # The check consumes the speculative result (deferred-exception token /
    # ALAT entry): it must wait for the load's full latency.
    check_dep = DepEdge(
        group.spec_load, group.check, DepKind.TRUE, load.latency
    )
    ilp.add_edge(check_dep)
    ilp.relax_edge(check_dep, one_minus)
    if group.mov is not None:
        mov_value = DepEdge(group.spec_load, group.mov, DepKind.TRUE, load.latency)
        mov_order = DepEdge(group.check, group.mov, DepKind.TRUE, 0)
        ilp.add_edge(mov_value)
        ilp.add_edge(mov_order)
        ilp.relax_edge(mov_value, one_minus)
        ilp.relax_edge(mov_order, one_minus)

    # Outgoing dependences: consumers listen to the spec group instead.
    producer_for_value = group.mov if group.mov is not None else group.spec_load
    for edge in list(region.ddg.succs(load)):
        ilp.relax_edge(edge, usespec)
        if edge.kind is DepKind.TRUE:
            exclusive_use = _use_is_exclusive(region, edge.dst, load)
            src = group.spec_load if exclusive_use else producer_for_value
            lat = edge.latency if src is group.spec_load else 1
            new_edge = DepEdge(src, edge.dst, DepKind.TRUE, lat, reg=edge.reg)
            if exclusive_use and group.mov is not None:
                group.exclusive_uses.append(edge.dst)
            ilp.add_edge(new_edge)
            ilp.relax_edge(new_edge, one_minus)
        else:
            # Ordering edges (ld→st anti, memory output): neither ALAT nor
            # deferred exceptions protect a load sinking *below* a
            # conflicting store, so the speculative load keeps them; the
            # check (whose recovery re-executes the access) keeps them too.
            for src in (group.spec_load, group.check):
                new_edge = DepEdge(src, edge.dst, edge.kind, edge.latency)
                ilp.add_edge(new_edge)
                ilp.relax_edge(new_edge, one_minus)


def _speculative_theta(region, load, source):
    """Placement range of the ld.s: full speculative set with the freq cap.

    Loads never move into a foreign loop (paper Sec. 5.2 excludes loads
    from into-loop motion — a re-executed load may observe different
    memory each iteration).
    """
    cfg, fn = region.cfg, region.fn
    blocks = {source}
    limit = region_freq_cap(region) * fn.block(source).freq
    source_loops = set()
    loop = cfg.innermost_loop(source)
    while loop is not None:
        source_loops.add(id(loop))
        loop = loop.parent
    for block in cfg.block_names:
        if not (cfg.reaches(block, source) or cfg.reaches(source, block)):
            continue
        if fn.block(block).freq > limit and block != source:
            continue
        loop = cfg.innermost_loop(block)
        foreign = False
        while loop is not None:
            if id(loop) not in source_loops:
                foreign = True
                break
            loop = loop.parent
        if not foreign:
            blocks.add(block)
    # Control speculation lifts the *trap* restriction only: a load whose
    # address operand is rewritten inside a containing loop (backedge
    # variant) is still confined to that loop — an ld.s above the loop
    # would read one address where the original read a new one per
    # iteration.
    for variant_loop in region.backedge_variant.get(load, []):
        blocks &= set(variant_loop.blocks) | {source}
    # Partition exit stubs (repro.sched.decompose) host no placements.
    return blocks - region.forbidden_blocks


def region_freq_cap(region):
    """The paper's factor k (5 in the experiments)."""
    return getattr(region, "freq_cap", 5.0)


def _use_is_exclusive(region, use, load):
    """Does ``use`` read the load's destination from this load only?"""
    dest = load.dests[0]
    for edge in region.ddg.preds(use):
        if edge.kind is DepKind.TRUE and edge.reg == dest and edge.src is not load:
            return False
    return True


def count_input_speculation(fn):
    """Number of speculative loads in the input (Table 2 "Spec. in")."""
    return sum(
        1
        for i in fn.all_instructions()
        if i.op.is_spec_load or i.op.is_adv_load
    )
