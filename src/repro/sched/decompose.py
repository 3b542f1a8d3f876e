"""Region decomposition: independently-solved sub-ILPs per CFG partition.

BENCH_solver.json's scale ceiling is *model size*, not solver speed: the
phase-1 row count grows superlinearly with routine size, so one large
routine dominates sweep wall time. This module breaks a big routine into
contiguous topological intervals at *cut blocks*, solves one complete
phase-1/phase-2 pipeline per partition (fanned out over threads — the
LP/MIP kernels release the GIL), and stitches the per-partition
schedules into one whole-function :class:`~repro.sched.schedule.Schedule`
that the existing verifier checks against the whole-function region.

Cut legality
============

The decomposed model is a *restriction* of the whole-function model:
every placement it can choose is one the whole model could also choose,
but cross-cut code motion is forfeited. A topological boundary (between
topo positions ``k-1`` and ``k``; ``C = topo_order[k]`` is the cut
block) is legal when:

* **structure** — every forward edge crossing the boundary lands exactly
  on ``C`` (so the suffix is entered through the cut alone and the
  partition's sub-CFG keeps the whole function's dominance shape), and
  no back edge crosses (loops stay whole inside one partition);
* **profitable-motion loss** — no instruction's *effective* placement
  domain (``Θ(n)`` plus the speculative domain of candidate loads plus
  the cyclic-motion extension) contains a cross-boundary block with
  strictly lower frequency than its source block. When
  ``features.max_hops`` is set, the test considers domain blocks within
  that topological distance of the source — the same bound Θ itself
  uses — so an ``ld.s`` placement many blocks away (which
  ``_speculative_theta`` admits unbounded) is sacrificed rather than
  vetoing the cut. Losing only equal-or-higher-frequency or
  beyond-the-bound destinations keeps the decomposed optimum's quality
  no worse in practice; the ``decompose`` benchmark section gates this
  empirically (bundle counts no worse, wall time better).

This deliberately deviates from the literal "no Θ(n) spans the cut"
rule: on a connected CFG with speculation enabled *every* boundary is
spanned by some Θ, so the literal rule admits no cuts at all (see
``docs/decomposition.md``).

Boundary constraints are realized by :mod:`repro.ilp.boundary`: pinned
cross-cut live ranges (whole-function liveness restricted to the cut)
and an exit stub absorbing crossing edges so sub-CFG dominance *and*
postdominance agree exactly with the whole function restricted to the
partition. Stubs are ``forbidden_blocks`` — analyses see them, placement
never does.

Failure discipline: any partition failure — degrade, infeasibility,
verifier-relevant inconsistency, an injected ``decompose.stitch`` fault —
abandons decomposition and falls back to the whole-function pipeline.
The caller (:class:`repro.sched.scheduler.IlpScheduler`) treats ``None``
as "solve whole".

Per-partition caching: when the scheduler carries a ``partition_store``
(:class:`repro.serve.store.ScheduleStore`), each partition gets its own
fingerprint (:func:`repro.serve.fingerprint.partition_fingerprint`) and
its achieved block lengths are published under it. A later solve of the
same partition — e.g. after editing one block of a large routine, which
leaves the other partitions' fingerprints untouched — seeds its cycle
ranges from the stored lengths, exactly like a serve family near miss.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from repro.errors import SchedulingError
from repro.bundle import bundle_schedule
from repro.ilp.boundary import (
    build_partition_function,
    partition_specs,
    stub_frequency,
)
from repro.ilp.status import SolverStats, SolveStatus
from repro.ir.cfg import CfgInfo
from repro.ir.ddg import build_dependence_graph
from repro.ir.liveness import compute_liveness
from repro.obs import core as obs
from repro.sched.cyclic import candidate_extension, find_cyclic_candidates
from repro.sched.list_scheduler import ListScheduler
from repro.sched.reconstruct import ReconstructionResult
from repro.sched.regions import build_region
from repro.sched.schedule import Schedule
from repro.sched.scheduler import _PipelineResult
from repro.sched.speculation import (
    _speculative_theta,
    find_speculation_candidates,
    region_freq_cap,
)
from repro.tools import faults


class StitchedSolution:
    """The union of the per-partition solutions, shaped like a Solution.

    ``values`` merges the partitions' variable assignments (ILP ``Var``
    objects hash by identity, so distinct models never collide), the
    status is the worst contributing status, the objective and search
    stats are summed (``gap`` is the worst partition gap). Plain data —
    pickles across the serve store like a single-model solution.
    """

    def __init__(self, parts):
        self.parts = list(parts)
        self.values = {}
        stats = SolverStats()
        status = SolveStatus.OPTIMAL
        objective = 0.0
        has_objective = False
        gaps = []
        for sol in self.parts:
            self.values.update(sol.values)
            if sol.status is not SolveStatus.OPTIMAL:
                status = SolveStatus.FEASIBLE
            if sol.objective is not None:
                objective += sol.objective
                has_objective = True
            stats.nodes += sol.stats.nodes
            stats.time_seconds += sol.stats.time_seconds
            stats.backend = sol.stats.backend or stats.backend
            if sol.stats.gap is not None:
                gaps.append(sol.stats.gap)
        stats.gap = max(gaps) if gaps else None
        self.status = status
        self.objective = objective if has_objective else None
        self.stats = stats

    def value_of(self, var):
        raw = self.values[var]
        if var.is_integer:
            return int(round(raw))
        return raw

    def __bool__(self):
        return self.status.has_solution


@dataclass
class _Partition:
    """One partition's solve-ready bundle."""

    spec: object  # BoundarySpec
    fn: object  # sub-Function (shared blocks + exit stub)
    region: object  # sub-SchedulingRegion, stub in forbidden_blocks
    input_schedule: object
    cache_key: str | None = None
    hint: dict | None = None
    messages: list = field(default_factory=list)


# -- cut legality -------------------------------------------------------------


def find_cut_blocks(region, features):
    """Legal cut blocks of ``region`` under ``features``, in topo order.

    Returns the (possibly empty) list of blocks that may open a new
    partition. Empty means whole-function solving: multiple entries,
    a topo order incoherent with the DAG edges, or simply no boundary
    that survives the legality rule.
    """
    cfg = region.cfg
    fn = region.fn
    order = list(cfg.topo_order)
    count = len(order)
    if count < 2 or len(fn.entry_blocks) != 1:
        return []
    index = {name: position for position, name in enumerate(order)}
    if index.get(fn.entry_blocks[0]) != 0:
        return []
    legal = [position > 0 for position in range(count)]

    def forbid_span(left, right):
        low, high = (left, right) if left <= right else (right, left)
        for position in range(low + 1, high + 1):
            if position < count:
                legal[position] = False

    back = set(cfg.back_edges)
    for edge in fn.edges:
        src = index.get(edge.src)
        dst = index.get(edge.dst)
        if src is None or dst is None:
            return []
        if (edge.src, edge.dst) in back:
            if dst > src:
                return []
            # no boundary inside a loop: the back edge must not cross
            for position in range(dst + 1, src + 1):
                legal[position] = False
        elif dst <= src:
            return []  # forward edge against topo order: bail entirely
        else:
            # a forward edge may cross only by landing exactly on the cut
            for position in range(src + 1, dst):
                legal[position] = False

    # Profitable-motion loss: effective domains (Θ plus what speculation
    # and cyclic motion would re-open at ILP build time) must not reach a
    # strictly colder block across the boundary.
    extra = {}
    if features.speculation or features.data_speculation:
        for _kind, load, _broken in find_speculation_candidates(
            region,
            allow_control=features.speculation,
            allow_data=features.data_speculation,
        ):
            extra.setdefault(load, set()).update(
                _speculative_theta(region, load, region.source_block[load])
            )
    if features.cyclic:
        for site in find_cyclic_candidates(region):
            extra.setdefault(site.instr, set()).update(
                candidate_extension(region, site)
            )
    # Θ is already hop-bounded when max_hops is set; apply the same
    # distance bound to the speculative/cyclic extras, so a far ld.s
    # placement is sacrificed instead of vetoing every cut between.
    hops = features.max_hops
    for instr in region.instructions:
        source = region.source_block[instr]
        source_position = index[source]
        source_freq = fn.block(source).freq
        domain = set(region.theta[instr]) | extra.get(instr, set())
        for block in domain:
            position = index.get(block)
            if position is None or position == source_position:
                continue
            if hops is not None and abs(position - source_position) > hops:
                continue
            if fn.block(block).freq < source_freq:
                forbid_span(source_position, position)

    return [order[position] for position in range(1, count) if legal[position]]


def plan_partitions(region, features):
    """Greedy partition plan: contiguous topo intervals at legal cuts.

    Boundaries are taken left to right once the accumulating partition
    holds at least ``decompose_min_instructions // 4`` instructions, so
    tiny partitions never pay the per-partition analysis overhead; an
    undersized final partition is merged backwards. Returns a list of
    block-name lists (each starting at its cut) or ``None`` when fewer
    than two partitions survive.
    """
    cuts = set(find_cut_blocks(region, features))
    if not cuts:
        return None
    floor = max(1, features.decompose_min_instructions // 4)
    sizes = {
        block.name: len(block.instructions) for block in region.fn.blocks
    }
    partitions = []
    current = []
    current_size = 0
    for name in region.cfg.topo_order:
        if current and name in cuts and current_size >= floor:
            partitions.append(current)
            current = []
            current_size = 0
        current.append(name)
        current_size += sizes.get(name, 0)
    if current:
        if partitions and current_size < floor:
            partitions[-1].extend(current)
        else:
            partitions.append(current)
    if len(partitions) < 2:
        return None
    return partitions


# -- partition construction ---------------------------------------------------


def _build_partition(scheduler, work, spec, stub_freq):
    """Analyze one partition: sub-function, sub-region, input schedule."""
    features = scheduler.features
    sub_fn = build_partition_function(work, spec, stub_freq)
    sub_cfg = CfgInfo(sub_fn)
    sub_liveness = compute_liveness(sub_fn)
    sub_ddg = build_dependence_graph(sub_fn, sub_cfg, sub_liveness)
    sub_region = build_region(
        sub_fn,
        sub_cfg,
        sub_ddg,
        max_hops=features.max_hops,
    )
    stub = spec.exit
    if stub is not None:
        # The stub hosts analyses, never placements. build_region ran
        # before the ban could be recorded, so strip what it admitted
        # (predication may have targeted the stub's incoming edges).
        sub_region.forbidden_blocks = frozenset({stub})
        for instr in sub_region.instructions:
            sub_region.theta[instr].discard(stub)
        for key in [k for k in sub_region.guard_for if k[1] == stub]:
            del sub_region.guard_for[key]
        for key in [k for k in sub_region.guard_compare if k[1] == stub]:
            del sub_region.guard_compare[key]
        sub_region.invalidate_hosting_index()
    sub_input = ListScheduler(scheduler.machine).schedule(sub_fn, sub_ddg)
    return _Partition(
        spec=spec, fn=sub_fn, region=sub_region, input_schedule=sub_input
    )


def _attach_cache(scheduler, parts, trace):
    """Assign per-partition fingerprints and load length hints."""
    store = getattr(scheduler, "partition_store", None)
    if store is None:
        return
    from repro.serve.fingerprint import CODE_VERSION, partition_fingerprint

    for part in parts:
        try:
            part.cache_key = partition_fingerprint(
                part.fn, scheduler.features, scheduler.machine
            )
        except Exception:
            part.cache_key = None
            continue
        header = store.load_header(part.cache_key)
        hint = None
        if (
            header
            and header.get("code_version") == CODE_VERSION
            and header.get("kind") == "partition"
        ):
            lengths = header.get("block_lengths")
            if isinstance(lengths, dict) and lengths:
                hint = lengths
        part.hint = hint
        name = "partition_cache_hits" if hint else "partition_cache_misses"
        trace.count(name)
        if obs.ENABLED:
            obs.counter(name + "_total")


def _store_partition(store, part, pieces):
    """Publish a solved partition's achieved block lengths as a hint."""
    if store is None or part.cache_key is None:
        return
    from repro.serve.fingerprint import CODE_VERSION

    schedule = pieces.reconstruction.schedule
    lengths = {
        name: schedule.block_length(name) for name in schedule.block_order
    }
    quality = (
        "optimal"
        if all(s is SolveStatus.OPTIMAL for s in pieces.statuses)
        else "incumbent"
    )
    meta = {
        "code_version": CODE_VERSION,
        "kind": "partition",
        "routine": part.fn.name,
        "quality": quality,
        "block_lengths": lengths,
    }
    payload = json.dumps({"block_lengths": lengths}).encode("utf-8")
    try:
        store.put(part.cache_key, "", payload, meta=meta)
    except OSError:
        pass  # a failed cache fill is never a routine failure


# -- solving ------------------------------------------------------------------


def _solve_partitions(scheduler, parts, deadline, trace, messages):
    """Solve every partition (threaded); ``None`` if any one fails.

    Partitions and routines share the machine: inside a routine-pool
    worker the fan-out collapses to one thread (see
    :func:`repro.tools.parallel.partition_workers`). The solver kernels
    release the GIL, so threads suffice and instruction/block identity
    is preserved for stitching — a process pool would pickle the
    partitions into disconnected copies.
    """
    from repro.tools.parallel import fan_out, merge_trace, partition_workers

    def solve_one(part):
        sub_trace = obs.Trace()
        started = time.perf_counter()
        pieces = scheduler._run_pipeline(
            part.fn,
            part.region,
            part.input_schedule,
            deadline,
            part.messages,
            sub_trace,
            length_hint=part.hint,
        )
        return pieces, sub_trace, time.perf_counter() - started

    runs = fan_out(
        [lambda part=part: solve_one(part) for part in parts],
        partition_workers(len(parts)),
    )

    solved = []
    for part, run in zip(parts, runs):
        if isinstance(run, Exception):
            messages.append(
                f"partition {part.spec.index} ({part.spec.entry}) failed: "
                f"{run}"
            )
            return None
        pieces, sub_trace, elapsed = run
        merge_trace(trace, sub_trace)
        messages.extend(part.messages)
        if obs.ENABLED:
            obs.counter("decompose_partitions_total")
            obs.histogram("partition_solve_seconds", elapsed)
        solved.append(pieces)
    return solved


# -- stitching ----------------------------------------------------------------


def _stitch(work, region, ddg, parts, solved):
    """Merge per-partition pipeline results into one ``_PipelineResult``.

    Its ``verify_edges`` carry each partition's verifiable edges plus
    every cross-partition DDG edge (satisfied by block order — the
    machine flushes latencies at block boundaries, and a producer's
    partition precedes its cross-cut consumers on every path).

    Raises :class:`SchedulingError` on any inconsistency (including an
    injected ``decompose.stitch`` fault); the caller falls back to the
    whole-function model.
    """
    injected = faults.fire("decompose.stitch")
    if injected is not None:
        raise SchedulingError(f"injected stitch fault ({injected})")

    owner = {}
    for position, part in enumerate(parts):
        for instr in part.region.instructions:
            owner[instr] = position
    if set(owner) != set(region.instructions):
        raise SchedulingError(
            "partition instruction sets do not cover the routine"
        )

    merged = Schedule([block.name for block in work.blocks])
    active = []
    selected = []
    recovery = []
    source_block = {}
    guards = {}
    spec_groups = []
    statuses = []
    verify_edges = []
    verify_scopes = {}
    phase2_failure = None
    unproven_site = None
    size = {
        "constraints": 0, "chain_rows": 0, "variables": 0, "nodes": 0,
        "time": 0.0,
    }
    objective = 0.0
    has_objective = False
    gaps = []

    for part, pieces in zip(parts, solved):
        stub = part.spec.exit
        recon = pieces.reconstruction
        sub_schedule = recon.schedule
        for name in sub_schedule.block_order:
            if name == stub:
                if sub_schedule.cycles_of(name):
                    raise SchedulingError(
                        f"partition {part.spec.index} placed instructions "
                        f"in its exit stub {name}"
                    )
                continue  # the stub's real schedule belongs to the next part
            for cycle in sorted(sub_schedule.cycles_of(name)):
                for instr in sub_schedule.group(name, cycle):
                    merged.place(instr, name, cycle)
            merged.set_block_length(name, sub_schedule.block_length(name))
        for key, pairs in sub_schedule.order_pairs.items():
            if key[0] != stub:
                merged.order_pairs[key] = list(pairs)

        active.extend(recon.active_instructions)
        selected.extend(recon.selected_groups)
        recovery.extend(recon.recovery_stubs)
        source_block.update(recon.source_block)
        guards.update(recon.guards)
        spec_groups.extend(pieces.spec_groups)
        statuses.extend(pieces.statuses)
        if phase2_failure is None:
            phase2_failure = pieces.phase2_failure
        if unproven_site is None:
            unproven_site = pieces.unproven_site

        verify_edges.extend(pieces.verify_edges)
        verify_scopes.update(pieces.verify_scopes)

        part_size = pieces.phase1_size or {}
        for key in ("constraints", "chain_rows", "variables", "nodes", "time"):
            size[key] += part_size.get(key) or 0
        if part_size.get("objective") is not None:
            objective += part_size["objective"]
            has_objective = True
        if part_size.get("gap") is not None:
            gaps.append(part_size["gap"])

        # The emitted schedule follows the partitions' speculation
        # decisions; fold them into the whole region so the verifier's
        # dominance/postdominance checks grade each placement by the
        # rule it was actually scheduled under.
        region.speculative.update(part.region.speculative)

    # Cross-partition dependences: every producer's partition precedes
    # its consumers' on all paths, so the path verifier's block-order
    # rule discharges them — include them so it actually checks that.
    for instr in region.instructions:
        for edge in ddg.succs(instr):
            src_owner = owner.get(edge.src)
            dst_owner = owner.get(edge.dst)
            if src_owner is None or dst_owner is None:
                continue
            if src_owner != dst_owner:
                verify_edges.append(edge)

    size["objective"] = objective if has_objective else None
    size["gap"] = max(gaps) if gaps else None

    reconstruction = ReconstructionResult(
        schedule=merged,
        active_instructions=active,
        selected_groups=selected,
        recovery_stubs=recovery,
        source_block=source_block,
        guards=guards,
    )
    return _PipelineResult(
        ilp=None,
        final_solution=StitchedSolution(
            [pieces.final_solution for pieces in solved]
        ),
        reconstruction=reconstruction,
        spec_groups=spec_groups,
        bundles_out=bundle_schedule(merged),
        phase1_size=size,
        phase2_applied=all(pieces.phase2_applied for pieces in solved),
        phase2_failure=phase2_failure,
        statuses=statuses,
        unproven_site=unproven_site,
        verify_edges=verify_edges,
        verify_scopes=verify_scopes,
    )


# -- driver -------------------------------------------------------------------


def try_decomposed_pipeline(
    scheduler, work, liveness, ddg, region, deadline, messages, trace
):
    """Attempt the decomposed pipeline; ``None`` means "solve whole".

    Never raises for pipeline failures (a partition degrade, a stitch
    fault, an analysis error all return ``None`` with a message); the
    one exception is :class:`~repro.tools.faults.FaultConfigError`,
    which is a driver misconfiguration and must propagate.
    """
    features = scheduler.features
    if not features.decompose:
        return None
    total = sum(len(block.instructions) for block in work.blocks)
    if total < features.decompose_min_instructions:
        return None
    try:
        partitions = plan_partitions(region, features)
        if partitions is None:
            return None
        specs = partition_specs(work, liveness, partitions)
        stub_freq = stub_frequency(work, region_freq_cap(region))
        with trace.span("decompose", partitions=len(specs)) as span:
            parts = [
                _build_partition(scheduler, work, spec, stub_freq)
                for spec in specs
            ]
            _attach_cache(scheduler, parts, trace)
            solved = _solve_partitions(
                scheduler, parts, deadline, trace, messages
            )
            if solved is None:
                messages.append(
                    "decomposition abandoned; solving the whole function"
                )
                return None
            pieces = _stitch(work, region, ddg, parts, solved)
            store = getattr(scheduler, "partition_store", None)
            for part, part_pieces in zip(parts, solved):
                _store_partition(store, part, part_pieces)
            span.set_attr("stitched", True)
    except faults.FaultConfigError:
        raise
    except Exception as exc:
        messages.append(
            f"decomposition abandoned ({type(exc).__name__}: {exc}); "
            "solving the whole function"
        )
        return None
    trace.count("decompose_partitions", len(parts))
    messages.append(f"decomposed into {len(parts)} partitions")
    return pieces
