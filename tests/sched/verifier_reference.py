"""Reference path checker: the straightforward form of the Theorem 1 checks.

:func:`repro.sched.verifier.verify_schedule` runs the same five checks in
one pass over tables keyed by ``id()`` and small ints. This module keeps
the direct form it replaced, which re-derives every per-path fact from
the schedule and looks instructions and edges up by hash, as the oracle
the differential test (``test_verifier_differential.py``) compares
reports against field by field.
"""

from __future__ import annotations

from repro.machine.itanium2 import ITANIUM2
from repro.sched.verifier import VerificationReport


def reference_verify_schedule(
    schedule,
    region,
    reconstruction=None,
    machine=ITANIUM2,
    dep_edges=None,
    edge_scopes=None,
    max_paths=4000,
):
    """Run all checks; returns a :class:`VerificationReport`."""
    problems = []
    fn, cfg = region.fn, region.cfg

    if reconstruction is not None:
        active = set(reconstruction.active_instructions)
        source_block = reconstruction.source_block
        guards = reconstruction.guards
    else:
        active = set(region.instructions)
        source_block = region.source_block
        guards = region.guard_for

    copies = _collect_copies(schedule, active)
    problems += _check_resources(schedule, machine)
    problems += _check_branches(schedule, source_block)
    problems += _check_single_copy_per_block(copies)
    problems += _check_speculative_placement(copies, region, source_block, guards)

    if dep_edges is None:
        dep_edges = list(region.ddg.edges)
    edges = [
        e for e in dep_edges if e.src in active and e.dst in active
    ]

    paths, exhaustive = _enumerate_paths(cfg, max_paths)
    for path in paths:
        problems += _check_path(
            path, copies, active, source_block, edges, schedule,
            edge_scopes or {},
        )

    report = VerificationReport(
        ok=not problems,
        problems=problems,
        paths_checked=len(paths),
        exhaustive=exhaustive,
    )
    return report


# -- helpers -----------------------------------------------------------------------


def _collect_copies(schedule, active):
    """original instruction -> list of (block, cycle, placed, slot_index)."""
    copies = {}
    for block in schedule.block_order:
        for cycle in sorted(schedule.cycles_of(block)):
            for slot, placed in enumerate(schedule.group(block, cycle)):
                original = placed.root_origin
                copies.setdefault(original, []).append(
                    (block, cycle, placed, slot)
                )
    return copies


def _check_resources(schedule, machine):
    problems = []
    for block in schedule.block_order:
        for cycle, group in schedule.cycles_of(block).items():
            units = [p.unit for p in group if not p.is_nop]
            if not machine.group_feasible(units):
                problems.append(
                    f"dispersal infeasible group in {block}[{cycle}]: "
                    f"{[u.value for u in units]}"
                )
    return problems


def _check_branches(schedule, source_block):
    problems = []
    for block in schedule.block_order:
        length = schedule.block_length(block)
        for cycle, group in schedule.cycles_of(block).items():
            for placed in group:
                if not placed.is_branch:
                    continue
                original = placed.root_origin
                home = source_block.get(original)
                if home is not None and home != block:
                    problems.append(
                        f"branch {original.uid} moved from {home} to {block}"
                    )
                if cycle != length:
                    problems.append(
                        f"branch {original.uid} at cycle {cycle} of {block}, "
                        f"but block length is {length}"
                    )
    return problems


def _check_single_copy_per_block(copies):
    problems = []
    for original, placements in copies.items():
        blocks = [b for b, _c, _p, _s in placements]
        if len(blocks) != len(set(blocks)):
            problems.append(
                f"instruction {original.uid} placed twice in one block"
            )
    return problems


def _check_speculative_placement(copies, region, source_block, guards):
    """Non-speculative copies must stay inside their Θ or carry a guard."""
    problems = []
    cfg = region.cfg
    for original, placements in copies.items():
        if region.speculative.get(original, True):
            continue
        source = source_block.get(original)
        if source is None:
            continue
        for block, _cycle, placed, _slot in placements:
            if block == source:
                continue
            guarded = guards.get((original, block)) is not None and (
                placed.pred == guards[(original, block)]
            )
            if guarded:
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


def _last_in_scope(placements, path_index, scope):
    here = [
        (path_index[b], c, s)
        for b, c, _p, s in placements
        if b in path_index and b in scope
    ]
    return max(here) if here else None


def _enumerate_paths(cfg, max_paths):
    paths = []
    exhaustive = True
    entries = cfg.entries or cfg.block_names[:1]
    exit_set = set(cfg.exits)
    stack = [(entry, [entry]) for entry in entries]
    while stack:
        node, path = stack.pop()
        succs = cfg.successors_in_dag(node)
        if not succs or node in exit_set:
            paths.append(path)
            if len(paths) >= max_paths:
                exhaustive = False
                break
            if not succs:
                continue
        for succ in succs:
            stack.append((succ, path + [succ]))
    return paths, exhaustive


def _check_path(path, copies, active, source_block, edges, schedule, edge_scopes):
    problems = []
    path_index = {name: i for i, name in enumerate(path)}
    on_path = set(path)

    positions = {}  # original -> last (block idx, cycle, slot)
    for original, placements in copies.items():
        here = [
            (path_index[b], c, s)
            for b, c, _p, s in placements
            if b in path_index
        ]
        if here:
            positions[original] = max(here)
        if len(here) > 1 and not original.multiply_executable:
            problems.append(
                f"path {'-'.join(path)}: instruction {original.uid} "
                f"({original.mnemonic}) executed {len(here)} times but is "
                "not re-executable"
            )

    for instr in active:
        source = source_block.get(instr)
        if source in on_path and instr not in positions:
            problems.append(
                f"path {'-'.join(path)}: no copy of instruction "
                f"{instr.uid} (source {source})"
            )

    for edge in edges:
        scope = edge_scopes.get(edge)
        if scope is None:
            pos_m = positions.get(edge.src)
            pos_n = positions.get(edge.dst)
        else:
            # Scoped edge (cyclic flipped dependence): only copies inside
            # the scope blocks carry the constraint.
            pos_m = _last_in_scope(copies.get(edge.src, ()), path_index, scope)
            pos_n = _last_in_scope(copies.get(edge.dst, ()), path_index, scope)
        if pos_m is None or pos_n is None:
            continue
        if source_block.get(edge.dst) not in on_path:
            continue  # consumer is speculative here; its value is unused
        bi_m, c_m, s_m = pos_m
        bi_n, c_n, s_n = pos_n
        if bi_m < bi_n:
            continue
        if bi_m > bi_n:
            problems.append(
                f"path {'-'.join(path)}: dependence "
                f"{edge.src.uid}->{edge.dst.uid} violated across blocks"
            )
            continue
        if c_n - c_m < edge.latency:
            problems.append(
                f"path {'-'.join(path)}: dependence "
                f"{edge.src.uid}->{edge.dst.uid} needs {edge.latency} "
                f"cycles, got {c_n - c_m}"
            )
        elif c_n == c_m and edge.latency == 0 and s_n < s_m:
            problems.append(
                f"path {'-'.join(path)}: intra-group order violates "
                f"{edge.src.uid}->{edge.dst.uid}"
            )
    return problems
