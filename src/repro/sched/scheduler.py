"""The postpass optimizer driver (paper Sec. 6.1).

Pipeline: clone → undo input speculation → register renaming → CFG /
liveness / dependence analyses → baseline list schedule ("input
schedule") → region + cycle ranges → ILP (with enabled extensions) →
solve → reconstruct → bundling-cut loop → optional phase 2 → verify.

``IlpScheduler._run_pipeline`` runs phase 1, the cut re-solves and phase
2 over one region and returns a ``_PipelineResult``: the schedule plus
the edge set and scopes it must verify against. A routine cut into
partitions (:mod:`repro.sched.decompose`) runs it once per partition
and stitches the runs into one result of the same type, so verification
and grading never ask which path produced it.

``ScheduleFeatures`` mirrors the paper's experiment axes (Fig. 7):
speculation, cyclic code motion and partial-ready code motion can be
switched individually; predication, branch-collapse modeling and the
phase-2 instruction-count cleanup are part of the base configuration.

Graceful degradation: rescheduling is a *postpass*, so it is optional by
contract — when the solver cannot deliver, the compiler's input schedule
is always a valid answer. ``optimize`` therefore never fails a routine;
it walks a fallback ladder instead, recorded in ``OptimizeResult.quality``:

``"optimal"``
    every solve contributing to the emitted schedule proved optimality;
``"incumbent"``
    the schedule comes from the ILP but at least one contributing solve
    hit a limit and returned its best incumbent unproven;
``"phase1"``
    phase 2 was requested but failed (timeout without a usable solution,
    infeasibility, or a discarded reconstruction); the bundled phase-1
    schedule is emitted;
``"fallback_input"``
    the ILP pipeline could not produce a verified schedule at all (no
    incumbent, cycle-range or bundling-cut budgets exhausted, wall-clock
    budget spent, the verifier rejected the ILP schedule, or any stage
    raised); the input list schedule is returned unchanged. Pipeline and
    verification share one ``try``, so every such cause leaves through
    the one exit, ``_input_fallback``.

``OptimizeResult.fallback_reason`` carries the structured cause, and one
wall-clock :class:`~repro.tools.deadline.Deadline` built from
``ScheduleFeatures.time_limit`` is shared by phase 1, every bundling-cut
re-solve and phase 2, so each solve gets only the *remaining* budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import BundlingError, SchedulingError
from repro.ilp import SolveStatus, solve_model
from repro.obs import core as obs
from repro.obs import insight
from repro.ir.cfg import CfgInfo
from repro.ir.ddg import DepEdge, DepKind, build_dependence_graph
from repro.ir.liveness import compute_liveness
from repro.ir.rename import rename_registers
from repro.machine.itanium2 import ITANIUM2
from repro.bundle import bundle_schedule
from repro.sched import certify
from repro.sched.cycles import grow_lengths, lengths_from_input
from repro.sched.ilp_formulation import SchedulingIlp
from repro.sched.list_scheduler import ListScheduler
from repro.sched.phase2 import minimize_instruction_count
from repro.sched.prep import clone_function, undo_speculation
from repro.sched.reconstruct import reconstruct_schedule
from repro.sched.regions import build_region
from repro.sched.speculation import (
    attach_speculation,
    find_speculation_candidates,
)
from repro.sched.verifier import VerificationReport, verify_schedule
from repro.tools import faults
from repro.tools.deadline import Deadline

QUALITY_TIERS = ("optimal", "incumbent", "phase1", "fallback_input")

# Retry budgets of the phase-1 loop, counted separately: cycle-range
# growths per INFEASIBLE verdict, bundling retries per BundlingError.
MAX_RESIZE_ATTEMPTS = 3
MAX_BUNDLE_RETRIES = 4


@dataclass(frozen=True)
class FallbackReason:
    """Why the result sits below ``"optimal"`` on the fallback ladder.

    ``site`` is a :data:`repro.tools.faults.SITES` name (or ``"pipeline"``
    for an unexpected error), ``kind`` the failure class (``"timeout"``,
    ``"infeasible"``, ``"no_incumbent"``, ``"deadline"``,
    ``"retries_exhausted"``, ``"no_solution"``, ``"discarded"``,
    ``"unproven"``, ``"rejected"``, ``"error"``), ``detail`` free text.
    """

    site: str
    kind: str
    detail: str = ""

    def __str__(self):
        base = f"{self.site}:{self.kind}"
        return f"{base} ({self.detail})" if self.detail else base


class _Degrade(Exception):
    """Internal control flow: abandon the ILP pipeline, keep the input.

    ``ilp_size`` is the phase-1 size to report when a model was solved
    before the pipeline gave up."""

    def __init__(self, reason, ilp_size=None):
        super().__init__(str(reason))
        self.reason = reason
        self.ilp_size = ilp_size


@dataclass
class _PipelineResult:
    """What a successful ILP pipeline run hands back to ``optimize``: one
    whole-function run, or the stitch of one run per partition
    (:mod:`repro.sched.decompose`, where ``ilp`` is None)."""

    ilp: object
    final_solution: object
    reconstruction: object
    spec_groups: list
    bundles_out: object
    phase1_size: dict
    phase2_applied: bool
    phase2_failure: FallbackReason | None
    statuses: list  # SolveStatus of solves contributing to the schedule
    unproven_site: str | None
    # The edge set and scopes the path verifier checks the schedule
    # against (see _verify_inputs).
    verify_edges: list
    verify_scopes: dict
    # What a profile variant may reuse of this run (repro.sched.certify);
    # made only for a run that was handed ``family`` records.
    family_record: dict | None = None


@dataclass(frozen=True)
class ScheduleFeatures:
    """Optimizer configuration (paper defaults)."""

    speculation: bool = True  # control speculation groups (5.1)
    data_speculation: bool = True  # ld.a/chk.a groups (5.1/6.1)
    cyclic: bool = True  # cyclic code motion (5.2)
    partial_ready: bool = True  # partial-ready code motion (5.3)
    two_phase: bool = True  # instruction-count cleanup (5.5)
    baseline: str = "local"  # input-schedule heuristic: "local" | "greedy"
    verify: bool = True
    time_limit: float | None = 120.0
    reserve: int = 1  # G_A head-room (Sec. 6.1, k)
    max_hops: int | None = None  # optional code-motion distance bound
    # Region decomposition (repro.sched.decompose): partition large
    # routines at legal cut blocks and solve one ILP per partition.
    # Routines below the instruction threshold — and routines where no
    # boundary survives the cut-legality rule — solve whole-function,
    # bit-identically to decompose=False.
    decompose: bool = True
    decompose_min_instructions: int = 100
    # Software pipelining (repro.sched.modulo): beside the acyclic global
    # schedule (on a second thread when one is free), modulo-schedule
    # every counted single-block inner loop through the II ladder (the
    # modulo ILP from MII upward, then the unpipelined loop).  Off by
    # default: the pipelined routine is attached as per-loop
    # ``OptimizeResult.swp_outcomes`` records, never spliced into the
    # acyclic ``output_schedule``.
    swp: bool = False
    swp_max_ii: int = 32  # II ladder ceiling
    swp_max_stages: int = 4  # stage-count / register-pressure bound
    swp_time_limit: float = 10.0  # per-loop ladder budget (seconds)

    def __post_init__(self):
        if self.swp_max_ii < 1:
            raise ValueError("swp_max_ii must be >= 1")
        if self.swp_max_stages < 1:
            raise ValueError("swp_max_stages must be >= 1")


@dataclass
class OptimizeResult:
    """Everything the benchmarks and reports read."""

    fn: object  # the (prepared, renamed) routine actually scheduled
    input_schedule: object
    output_schedule: object
    reconstruction: object
    region: object
    solution: object
    spec_groups: list
    bundles_in: object
    bundles_out: object
    verification: object = None
    phase2_applied: bool = False
    undo_stats: object = None
    ilp_size: dict = field(default_factory=dict)
    messages: list = field(default_factory=list)
    # Fallback-ladder tier ("optimal" | "incumbent" | "phase1" |
    # "fallback_input") and the structured cause when below "optimal".
    quality: str = "optimal"
    fallback_reason: FallbackReason | None = None
    # Per-routine span tree (repro.obs.Trace), recorded unconditionally:
    # the source of the phase-timing breakdown below and — when global
    # observability is on — of the routine's lane in the Chrome trace.
    trace: object = None
    # The exact edge set/scopes verification ran with.  Cyclic flipped
    # dependences are verify-exempt or scoped; a bare ``verify_schedule``
    # call over the full DDG would falsely reject such schedules, so
    # consumers that re-verify (the serving cache) must replay these.
    verify_edges: object = None
    verify_scopes: object = None
    # Software-pipelining step (features.swp): one
    # repro.sched.modulo.ladder.LoopPipelineOutcome per counted loop.
    # The acyclic output_schedule is never altered by this step.
    swp_outcomes: list = field(default_factory=list)
    # The repro.sched.certify record a profile variant of this routine
    # may be served from; set only on the serving path (``family``).
    family_record: dict | None = None

    # -- headline metrics -------------------------------------------------------
    @property
    def weighted_length_in(self):
        return self.input_schedule.weighted_length(self.fn)

    @property
    def weighted_length_out(self):
        return self.output_schedule.weighted_length(self.fn)

    @property
    def static_reduction(self):
        before = self.weighted_length_in
        if before <= 0:
            return 0.0
        return 1.0 - self.weighted_length_out / before

    @property
    def spec_possible(self):
        return len(self.spec_groups)

    @property
    def spec_used(self):
        if self.solution is None:
            return 0
        return sum(
            1
            for g in self.spec_groups
            if self.solution.value_of(g.usespec) >= 1
        )

    def report(self):
        lines = [
            f"routine {self.fn.name}:",
            f"  weighted schedule length {self.weighted_length_in:g} -> "
            f"{self.weighted_length_out:g} "
            f"({self.static_reduction:.1%} reduction)",
            f"  instructions {self.input_schedule.instruction_count} -> "
            f"{self.output_schedule.instruction_count}",
            f"  bundles {self.bundles_in.total_bundles} -> "
            f"{self.bundles_out.total_bundles}",
            f"  speculation possible/used: {self.spec_possible}/{self.spec_used}",
            f"  ILP: {self.ilp_size.get('constraints', '?')} constraints "
            f"({self.ilp_size.get('chain_rows', 0)} chain rows), "
            f"{self.ilp_size.get('variables', '?')} variables, "
            f"{self.ilp_size.get('nodes', '?')} B&B nodes, "
            f"{self.ilp_size.get('time', 0):.2f}s",
        ]
        gap = self.ilp_size.get("gap")
        if gap is not None:
            lines.append(f"  final optimality gap: {gap:.2%}")
        breakdown = self.phase_breakdown()
        if breakdown:
            lines.append("  phases: " + breakdown)
        if self.verification is not None:
            status = "passed" if self.verification.ok else "FAILED"
            lines.append(
                f"  verification {status} "
                f"({self.verification.paths_checked} paths)"
            )
        lines.append(f"  quality: {self.quality}")
        if self.fallback_reason is not None:
            lines.append(f"  fallback reason: {self.fallback_reason}")
        lines.extend(f"  {o.summary()}" for o in self.swp_outcomes)
        lines.extend(f"  note: {m}" for m in self.messages)
        return "\n".join(lines)

    # Report labels for the trace's pipeline-stage spans, in display order.
    _PHASE_LABELS = (
        ("analyze", "analyze"),
        ("input_schedule", "input schedule"),
        ("ilp.build", "ilp build"),
        ("solve.phase1", "phase 1"),
        ("solve.cut_resolve", "cut re-solves"),
        ("bundle", "bundle"),
        ("solve.phase2", "phase 2"),
        ("verify", "verify"),
        ("swp.ladder", "swp ladder"),
        ("swp.materialize", "swp materialize"),
        ("swp.oracle", "swp oracle"),
    )

    def phase_breakdown(self):
        """One-line per-phase timing summary from the span tree.

        ``""`` when the result predates the trace (old pickles) — report()
        then simply omits the line.
        """
        if self.trace is None:
            return ""
        durations = self.trace.durations()
        parts = []
        for name, label in self._PHASE_LABELS:
            agg = durations.get(name)
            if agg is None:
                continue
            text = f"{label} {agg['seconds']:.2f}s"
            if agg["count"] > 1:
                text += f" (x{agg['count']})"
            parts.append(text)
        return " | ".join(parts)

    def phase_timings(self):
        """Machine-readable ``{span name: {"seconds", "count"}}`` map."""
        return {} if self.trace is None else self.trace.durations()


class IlpScheduler:
    """ILP-based global scheduler with the paper's extensions."""

    def __init__(self, machine=ITANIUM2, features=None, family=None):
        self.machine = machine
        self.features = features or ScheduleFeatures()
        # Serving path only: repro.sched.certify records of solved family
        # siblings (possibly none). A whole-function run then first tries
        # to serve the routine from one of them, and records its own.
        self.family = family

    # -- public -----------------------------------------------------------------
    def optimize(self, fn, length_hint=None):
        """Schedule ``fn``; never raises for pipeline failures — degrades
        along the fallback ladder (see the module docstring).  The one
        deliberate exception is :class:`repro.tools.faults.FaultConfigError`
        (a malformed ``REPRO_FAULTS`` spec): that is a configuration bug in
        the *driver*, and swallowing it would silently turn every routine
        into ``fallback_input`` while injecting nothing, so it propagates.

        ``length_hint`` is an optional ``{block name: cycles}`` map of
        block lengths achieved by a structurally similar routine (a
        cache-family near miss, :mod:`repro.serve.service`).  Hinted
        blocks get their initial cycle range *tightened* to the hint
        (never widened), shrinking the ILP; if the hint turns out
        infeasible for this routine, the normal cycle-range growth
        ladder recovers.  A scheduler built with ``family`` records
        tries those first: a sibling optimum that provably stays optimal
        is served without a solve (:mod:`repro.sched.certify`), and the
        hint applies only when none does."""
        deadline = Deadline(self.features.time_limit)
        trace = obs.Trace()
        with trace.span("optimize", routine=fn.name) as root_span:
            result = self._optimize_impl(fn, deadline, trace, length_hint)
            # Paper-metric analytics ride the trace (and, when recording,
            # the optimize span) so Table 1/2-shaped numbers survive the
            # pool fan-out and land in the Chrome trace for dashboards.
            try:
                trace.paper_metrics = insight.paper_metrics(result)
            except Exception as exc:  # never fail a routine over analytics
                result.messages.append(
                    f"paper-metric analytics failed: "
                    f"{type(exc).__name__}: {exc}"
                )
            else:
                root_span.set_attr("quality", result.quality)
                root_span.set_attr("paper_metrics", trace.paper_metrics)
        self._publish_routine_metrics(result, trace, deadline)
        return result

    def _optimize_impl(self, fn, deadline, trace, length_hint=None):
        features = self.features
        with trace.span("analyze"):
            work = clone_function(fn)
            undo_stats = undo_speculation(work)
            rename_registers(work)
            cfg = CfgInfo(work)
            liveness = compute_liveness(work)
            ddg = build_dependence_graph(work, cfg, liveness)

            region = build_region(
                work,
                cfg,
                ddg,
                max_hops=features.max_hops,
            )

        def schedule():
            return self._schedule(
                work, undo_stats, liveness, ddg, region, deadline, trace,
                length_hint,
            )

        if not features.swp:
            return schedule()
        # Nothing changes ``work`` or its analyses from here on, so the
        # software-pipelining ladder runs beside the acyclic pipeline on
        # its own thread, sharing the routine's deadline. The acyclic
        # pipeline stays on this thread; with width 1 (a routine-pool
        # worker, a 1-CPU host) the two run in that order, here.
        from repro.tools.parallel import fan_out, merge_trace, partition_workers

        swp_trace = obs.Trace()

        def pipeline_loops():
            return self._run_swp(work, cfg, ddg, deadline, swp_trace)

        result, (outcomes, swp_messages) = fan_out(
            [schedule, pipeline_loops], partition_workers(2)
        )
        if isinstance(result, Exception):
            raise result
        merge_trace(trace, swp_trace)
        result.swp_outcomes = outcomes
        result.messages.extend(swp_messages)
        return result

    def _schedule(
        self, work, undo_stats, liveness, ddg, region, deadline, trace,
        length_hint,
    ):
        """Input schedule, ILP pipeline and verification of the analyzed
        ``work``; the acyclic part of :meth:`optimize`."""
        features = self.features
        with trace.span("input_schedule", baseline=features.baseline):
            if features.baseline == "greedy":
                from repro.sched.greedy_global import GreedyGlobalScheduler

                input_schedule = GreedyGlobalScheduler(self.machine).schedule(
                    work, ddg, region
                )
            else:
                input_schedule = ListScheduler(self.machine).schedule(work, ddg)
            bundles_in = bundle_schedule(input_schedule)

        messages = []
        try:
            pieces = None
            if features.decompose:
                from repro.sched.decompose import try_decomposed_pipeline

                pieces = try_decomposed_pipeline(
                    self, work, liveness, ddg, region, deadline, messages,
                    trace,
                )
            if pieces is None:
                pieces = self._run_pipeline(
                    work, region, input_schedule, deadline, messages, trace,
                    length_hint=length_hint, family=self.family,
                )
            verification = (
                self._verify(pieces, region, messages, trace)
                if features.verify
                else None
            )
        except faults.FaultConfigError:
            raise  # driver misconfiguration, not a routine failure
        except Exception as exc:  # graceful floor: a routine never fails
            if not isinstance(exc, _Degrade):
                exc = _Degrade(FallbackReason(
                    "pipeline", "error", f"{type(exc).__name__}: {exc}"
                ))
            return self._input_fallback(
                work, region, input_schedule, bundles_in, undo_stats,
                deadline, messages, exc, trace,
            )

        quality, fallback_reason = self._grade(pieces)
        return OptimizeResult(
            fn=work,
            input_schedule=input_schedule,
            output_schedule=pieces.reconstruction.schedule,
            reconstruction=pieces.reconstruction,
            region=region,
            solution=pieces.final_solution,
            spec_groups=pieces.spec_groups,
            bundles_in=bundles_in,
            bundles_out=pieces.bundles_out,
            verification=verification,
            phase2_applied=pieces.phase2_applied,
            undo_stats=undo_stats,
            ilp_size=pieces.phase1_size,
            messages=messages,
            quality=quality,
            fallback_reason=fallback_reason,
            trace=trace,
            verify_edges=pieces.verify_edges if features.verify else None,
            verify_scopes=pieces.verify_scopes if features.verify else None,
            family_record=pieces.family_record,
        )

    def _verify(self, pieces, region, messages, trace):
        """Path-verify the pipeline's schedule against its own edge set.

        A rejection raises ``_Degrade``: an unproven schedule is never
        emitted (verified rollback)."""
        with trace.span("verify"):
            verification = verify_schedule(
                pieces.reconstruction.schedule,
                region,
                pieces.reconstruction,
                machine=self.machine,
                dep_edges=pieces.verify_edges,
                edge_scopes=pieces.verify_scopes,
            )
        injected = faults.fire("verify")
        if injected is not None:
            verification = VerificationReport(
                ok=False,
                problems=[f"injected verification fault ({injected})"],
                paths_checked=verification.paths_checked,
                exhaustive=verification.exhaustive,
            )
        if verification.ok:
            return verification
        messages.append(
            "verification rejected the ILP schedule; "
            "rolled back to the input schedule"
        )
        problem = (
            verification.problems[0]
            if verification.problems
            else "schedule failed path verification"
        )
        raise _Degrade(
            FallbackReason("verify", "rejected", problem),
            ilp_size=pieces.phase1_size,
        )

    def _run_swp(self, fn, cfg, ddg, deadline, trace):
        """Software-pipelining step (``features.swp``); returns
        ``(outcomes, messages)``.

        Runs the II ladder (:func:`repro.sched.modulo.ladder.pipeline_loop`)
        over every natural loop of the analyzed routine ``fn`` (with the
        ``cfg`` and ``ddg`` built for it), one outcome per loop. The
        acyclic schedule, its verification, and the quality tier are
        untouched — a loop that cannot be pipelined simply reports itself
        unpipelined. Like the main pipeline, this step never raises (only
        a malformed ``REPRO_FAULTS`` spec propagates): an error keeps the
        outcomes so far and becomes a message.
        """
        from repro.sched.modulo.ladder import pipeline_loop

        features = self.features
        outcomes = []
        try:
            for loop in cfg.loops:
                outcomes.append(pipeline_loop(
                    fn, cfg, ddg, loop,
                    machine=self.machine,
                    deadline=deadline,
                    max_ii=features.swp_max_ii,
                    max_stages=features.swp_max_stages,
                    time_limit=features.swp_time_limit,
                    trace=trace,
                ))
        except faults.FaultConfigError:
            raise  # driver misconfiguration, not a routine failure
        except Exception as exc:  # the ladder never fails a routine
            return outcomes, [
                f"software pipelining failed: {type(exc).__name__}: {exc}"
            ]
        return outcomes, []

    # Pipeline sites whose share of the wall-clock budget is worth a
    # histogram: one observation per routine per site that actually ran.
    _DEADLINE_SITES = (
        "solve.phase1", "solve.cut_resolve", "solve.phase2", "bundle", "verify",
    )

    def _publish_routine_metrics(self, result, trace, deadline):
        """Fold one routine's outcome into the process metrics registry.

        Published for *every* tier — degraded routines included — so the
        metrics dump always answers "which tier did each routine land on".
        Reads the trace's plain counters, which survive a mid-pipeline
        ``_Degrade`` (unlike pipeline locals).
        """
        if not obs.ENABLED:
            return
        name = result.fn.name
        obs.counter("routine_fallback_total", 1, routine=name, tier=result.quality)
        nodes = result.ilp_size.get("nodes") or 0
        if nodes:
            obs.counter("routine_nodes_total", nodes, routine=name)
        hits = trace.counters.get("warm_start_hits", 0)
        misses = trace.counters.get("warm_start_misses", 0)
        if hits:
            obs.counter("routine_warm_start_hits_total", hits, routine=name)
        if misses:
            obs.counter("routine_warm_start_misses_total", misses, routine=name)
        cuts = trace.counters.get("bundling_cuts", 0)
        if cuts:
            obs.counter("bundling_cuts_total", cuts, routine=name)
        obs.histogram("bundling_cuts_per_routine", float(cuts))
        gap = result.ilp_size.get("gap")
        if gap is not None:
            obs.gauge("routine_final_gap", float(gap), routine=name)
        paper = trace.paper_metrics
        if paper:
            obs.gauge(
                "routine_static_reduction",
                float(paper["static_reduction"]),
                routine=name,
            )
            obs.gauge(
                "routine_weighted_ipc_out",
                float(paper["weighted_ipc_out"]),
                routine=name,
            )
            obs.gauge(
                "routine_nop_density_out",
                float(paper["nop_density_out"]),
                routine=name,
            )
            if paper["compensation_copies"]:
                obs.counter(
                    "compensation_copies_total",
                    paper["compensation_copies"],
                    routine=name,
                )
        budget = deadline.budget
        if budget:
            durations = trace.durations()
            for site in self._DEADLINE_SITES:
                agg = durations.get(site)
                if agg is not None:
                    obs.histogram(
                        "deadline_fraction_consumed",
                        agg["seconds"] / budget,
                        site=site,
                    )

    # -- pipeline ---------------------------------------------------------------
    def _run_pipeline(
        self, work, region, input_schedule, deadline, messages, trace,
        length_hint=None, family=None,
    ):
        """Phase 1 + bundling-cut loop + phase 2; raises ``_Degrade`` when
        no ILP schedule can be produced within the budgets.

        With ``family`` (records of solved siblings, possibly none) the
        run starts from its unhinted phase-1 model: a sibling optimum that
        :mod:`repro.sched.certify` proves optimal for it is served with
        no solve. Otherwise the run goes on as without, and records its
        own optimum when that qualifies as a source."""
        features = self.features
        lengths = unhinted = lengths_from_input(
            input_schedule, work, reserve=features.reserve
        )
        tightened = apply_length_hint(lengths, length_hint) if length_hint else None
        # The built (ilp, model) pair is cached across cut-loop re-solves:
        # a violated bundle only appends its cut rows to the existing model
        # (and its cached matrix form) instead of regenerating the whole
        # formulation. A cycle-range growth changes the variable set, so it
        # invalidates the cache and rebuilds.
        ilp = model = digest = None
        spec_groups = []
        if family is not None:
            with trace.span("ilp.build"):
                ilp, spec_groups = self._build_ilp(region, lengths, [])
                candidates = [r for r in family if certify.certifies(ilp, r)]
                # The unhinted model is worth generating to check a
                # candidate, or because it is the model solved below.
                if candidates or tightened is None or tightened == lengths:
                    model = ilp.generate()
            if model is not None:
                arrays = model.to_arrays()
                digest = certify.feasible_digest(arrays)
                reused = candidates and self._reuse_family(
                    ilp, spec_groups, arrays, digest, candidates, messages,
                    trace,
                )
                if reused:
                    return reused
        if tightened is not None:
            if tightened != lengths:
                ilp = model = None
            lengths = tightened
            trace.count("family_hint_applied")
            messages.append("seeded cycle ranges from a cache-family near miss")
        bundling_cuts = []
        resize_attempts = 0
        bundle_retries = 0
        prev_values = None
        # Cut-effectiveness attribution: the objective before a cut was
        # appended, resolved against the next successful re-solve.
        pending_cut = None
        while True:
            site = "solve.cut_resolve" if bundle_retries else "solve.phase1"
            if deadline.expired:
                raise _Degrade(FallbackReason(
                    site, "deadline",
                    f"wall-clock budget ({deadline.budget:g}s) exhausted",
                ))
            if ilp is None:
                with trace.span("ilp.build"):
                    ilp, spec_groups = self._build_ilp(
                        region, lengths, bundling_cuts
                    )
                    model = ilp.generate()
            # A seeded re-solve is a warm-start hit; anything solved cold
            # (first solve, or after a rebuild dropped the incumbent) a miss.
            trace.count(
                "warm_start_hits" if prev_values is not None
                else "warm_start_misses"
            )
            with trace.span(site) as solve_span:
                solution = solve_model(
                    model,
                    deadline=deadline,
                    incumbent=prev_values,
                    fault_site=site,
                )
                _record_solve(trace, solve_span, site, solution)
            if solution.status is SolveStatus.INFEASIBLE:
                resize_attempts += 1
                if resize_attempts > MAX_RESIZE_ATTEMPTS:
                    raise _Degrade(FallbackReason(
                        site, "infeasible",
                        f"{work.name}: model stays infeasible after "
                        f"{MAX_RESIZE_ATTEMPTS} cycle-range growths",
                    ))
                lengths = grow_lengths(lengths)
                ilp = model = None
                prev_values = None
                # A rebuild with grown ranges confounds the attribution.
                pending_cut = None
                messages.append("grew cycle ranges after infeasibility")
                continue
            if not solution:
                raise _Degrade(FallbackReason(
                    site, "no_incumbent",
                    f"{work.name}: solver returned {solution.status.name} "
                    "without an incumbent",
                ))
            if pending_cut is not None:
                effect = insight.cut_effect(
                    pending_cut["index"],
                    pending_cut["members"],
                    pending_cut["prev_objective"],
                    solution,
                    site,
                )
                trace.cuts.append(effect)
                if obs.ENABLED:
                    obs.event("cut.effect", **effect)
                pending_cut = None
            reconstruction = reconstruct_schedule(ilp, solution, spec_groups)
            injected = faults.fire("bundle")
            try:
                with trace.span("bundle"):
                    if injected is not None:
                        raise BundlingError(
                            f"injected bundle fault ({injected})"
                        )
                    bundles_out = bundle_schedule(reconstruction.schedule)
                break
            except BundlingError as exc:
                bundle_retries += 1
                if bundle_retries > MAX_BUNDLE_RETRIES:
                    raise _Degrade(FallbackReason(
                        "bundle", "retries_exhausted",
                        f"bundling still failing after "
                        f"{MAX_BUNDLE_RETRIES} retries: {exc}",
                    ))
                members = getattr(exc, "instructions", [])
                placed = {
                    (p.root_origin, blk)
                    for blk in reconstruction.schedule.block_order
                    for p in reconstruction.schedule.instructions_in(blk)
                }
                cut = [
                    (i.root_origin, blk)
                    for i in members
                    for blk in reconstruction.schedule.block_order
                    if (i.root_origin, blk) in placed
                ]
                if cut:
                    bundling_cuts.append(cut)
                    trace.count("bundling_cuts")
                    pending_cut = {
                        "index": len(bundling_cuts) - 1,
                        "members": len(cut),
                        "prev_objective": solution.objective,
                    }
                    ilp.append_bundling_cut(cut)
                    messages.append(f"added bundling constraint: {exc}")
                else:
                    # No offending group attached (an injected fault): retry
                    # the unchanged model.
                    messages.append(f"bundling failed without a cut: {exc}")
                # The previous optimum seeds the re-solve. It violates a cut
                # just added, so validation drops it then, but a re-solve
                # after several stacked cuts can reuse it.
                prev_values = solution.values

        statuses = [solution.status]
        unproven_site = (
            site if solution.status is not SolveStatus.OPTIMAL else None
        )
        phase1_size = _phase1_size(ilp, solution)
        final_solution = solution
        phase2_applied = False
        phase2_failure = None
        if features.two_phase and deadline.expired:
            phase2_failure = FallbackReason(
                "solve.phase2", "deadline", "no budget left for phase 2"
            )
            messages.append("phase 2 skipped: wall-clock budget exhausted")
        elif features.two_phase:
            phase1_lengths = {
                name: reconstruction.schedule.block_length(name)
                for name in reconstruction.schedule.block_order
            }
            with trace.span("solve.phase2") as p2span:
                # Reuse the phase-1 model: pin lengths / swap the objective
                # in place and seed with the phase-1 optimum (feasible for
                # the pinned model by construction).
                trace.count("warm_start_hits")
                solution2 = minimize_instruction_count(
                    ilp,
                    phase1_lengths,
                    incumbent=solution.values,
                    deadline=deadline,
                )
                if solution2 is not None:
                    _record_solve(trace, p2span, "solve.phase2", solution2)
            if solution2 is None:
                phase2_failure = FallbackReason(
                    "solve.phase2", "no_solution",
                    "phase-2 solve returned no usable solution",
                )
                messages.append("phase 2 failed: no usable solution")
            else:
                try:
                    recon2 = reconstruct_schedule(ilp, solution2, spec_groups)
                    bundles2 = bundle_schedule(recon2.schedule)
                except (BundlingError, SchedulingError) as exc:
                    phase2_failure = FallbackReason(
                        "solve.phase2", "discarded", str(exc)
                    )
                    messages.append(f"phase 2 discarded: {exc}")
                else:
                    # keep phase-1 solver stats; swap the schedule pieces
                    final_solution = solution2
                    reconstruction = recon2
                    bundles_out = bundles2
                    phase2_applied = True
                    statuses.append(solution2.status)
                    if (
                        solution2.status is not SolveStatus.OPTIMAL
                        and unproven_site is None
                    ):
                        unproven_site = "solve.phase2"

        family_record = None
        if (
            digest is not None
            and lengths == unhinted
            and not resize_attempts
            and not bundling_cuts
            and (phase2_applied or not features.two_phase)
            and all(s is SolveStatus.OPTIMAL for s in statuses)
        ):
            family_record = certify.family_record(
                ilp, digest, solution, final_solution if phase2_applied else None
            )
        verify_edges, verify_scopes = _verify_inputs(ilp, final_solution)
        return _PipelineResult(
            ilp=ilp,
            final_solution=final_solution,
            reconstruction=reconstruction,
            spec_groups=spec_groups,
            bundles_out=bundles_out,
            phase1_size=phase1_size,
            phase2_applied=phase2_applied,
            phase2_failure=phase2_failure,
            statuses=statuses,
            unproven_site=unproven_site,
            verify_edges=verify_edges,
            verify_scopes=verify_scopes,
            family_record=family_record,
        )

    def _reuse_family(
        self, ilp, spec_groups, arrays, digest, family, messages, trace
    ):
        """The pipeline result served from a certified sibling optimum
        with no solve, or ``None``.

        ``ilp`` is the generated unhinted phase-1 model, ``arrays`` its
        matrix form, ``digest`` their feasible-set digest and ``family``
        the sibling records :func:`certify.certifies` accepted. The phase-1
        optimum is only read for its lengths and objective: with phase 2
        on, the schedule is rebuilt from the transplanted phase-2 optimum
        alone, and the phase-2 model is never built.
        """
        with trace.span("family.certify"):
            found = certify.reuse(
                ilp, arrays, digest, family, self.features.two_phase
            )
        if found is None:
            return None
        phase1, phase2 = found
        final = phase2 or phase1
        try:
            reconstruction = reconstruct_schedule(ilp, final, spec_groups)
            with trace.span("bundle"):
                bundles_out = bundle_schedule(reconstruction.schedule)
        except (BundlingError, SchedulingError) as exc:
            messages.append(f"certified family optimum not reusable: {exc}")
            return None
        trace.count("family_certified")
        messages.append("served from a certified family sibling (no solve)")
        verify_edges, verify_scopes = _verify_inputs(ilp, final)
        return _PipelineResult(
            ilp=ilp,
            final_solution=final,
            reconstruction=reconstruction,
            spec_groups=spec_groups,
            bundles_out=bundles_out,
            phase1_size=_phase1_size(ilp, phase1),
            phase2_applied=phase2 is not None,
            phase2_failure=None,
            statuses=[final.status],
            unproven_site=None,
            verify_edges=verify_edges,
            verify_scopes=verify_scopes,
            family_record=certify.family_record(ilp, digest, phase1, phase2),
        )

    def _grade(self, pieces):
        """Map pipeline outcomes to (quality tier, fallback reason)."""
        if self.features.two_phase and not pieces.phase2_applied:
            return "phase1", pieces.phase2_failure
        if all(s is SolveStatus.OPTIMAL for s in pieces.statuses):
            return "optimal", None
        return "incumbent", FallbackReason(
            pieces.unproven_site or "solve.phase1",
            "unproven",
            "accepted best incumbent; optimality not proven within budget",
        )

    def _input_fallback(
        self, work, region, input_schedule, bundles_in, undo_stats,
        deadline, messages, degrade, trace,
    ):
        """The ladder's floor: return the (verified) input list schedule
        for the pipeline abandoned by ``degrade`` (a ``_Degrade``). A
        verifier that raises here leaves a failed report, not an
        exception."""
        reason = degrade.reason
        messages = list(messages)
        messages.append(f"degraded to the input schedule ({reason})")
        verification = None
        if self.features.verify:
            with trace.span("verify"):
                try:
                    verification = verify_schedule(
                        input_schedule, region, machine=self.machine
                    )
                except faults.FaultConfigError:
                    raise
                except Exception as exc:  # the floor itself never raises
                    problem = f"verifier error: {type(exc).__name__}: {exc}"
                    verification = VerificationReport(ok=False, problems=[problem])
                    messages.append(f"input schedule not verified ({problem})")
        size = {
            "constraints": 0,
            "chain_rows": 0,
            "variables": 0,
            "nodes": 0,
            "time": deadline.elapsed(),
            "objective": None,
            "gap": None,
        }
        if degrade.ilp_size:
            size.update(degrade.ilp_size)
        return OptimizeResult(
            fn=work,
            input_schedule=input_schedule,
            output_schedule=input_schedule,
            reconstruction=None,
            region=region,
            solution=None,
            spec_groups=[],
            bundles_in=bundles_in,
            bundles_out=bundles_in,
            verification=verification,
            phase2_applied=False,
            undo_stats=undo_stats,
            ilp_size=size,
            messages=messages,
            quality="fallback_input",
            fallback_reason=reason,
            trace=trace,
        )

    # -- construction ----------------------------------------------------------
    def _build_ilp(self, region, lengths, bundling_cuts):
        """The phase-1 formulation with the enabled extensions attached;
        returns ``(ilp, spec_groups)``."""
        features = self.features
        ilp = SchedulingIlp(region, dict(lengths), self.machine)
        ilp.bundling_cuts = list(bundling_cuts)
        spec_groups = []
        if features.speculation or features.data_speculation:
            candidates = find_speculation_candidates(
                region,
                allow_control=features.speculation,
                allow_data=features.data_speculation,
            )
            used = _used_registers(region.fn)
            spec_groups = attach_speculation(ilp, candidates, used)
        if features.cyclic:
            from repro.sched.cyclic import attach_cyclic_motion

            attach_cyclic_motion(ilp)
        if features.partial_ready:
            from repro.sched.partial_ready import attach_partial_ready

            attach_partial_ready(ilp, spec_groups)
        _mark_collapsible_branches(ilp)
        _add_guard_dependences(ilp)
        return ilp, spec_groups


def apply_length_hint(lengths, hint):
    """Tighten initial cycle ranges toward a family near-miss's achieved
    block lengths.

    Applied only when the hint covers exactly the same block set — a
    sibling with different blocks says nothing about this routine.  Each
    hinted length only ever *shrinks* a range (``min``), so the model
    never gets larger than the cold-start one.  A hint that leaves no
    feasible schedule surfaces as INFEASIBLE and the growth ladder
    recovers; but a hint can also be too tight and still feasible: it
    then cuts off the cold optimum, and the solve proves optimality only
    within the shrunken ranges, so a longer schedule ships labeled
    ``optimal``.  Returns the tightened map, or ``None`` when the hint
    is unusable.
    """
    try:
        cleaned = {name: int(value) for name, value in hint.items()}
    except (TypeError, ValueError, AttributeError):
        return None
    if set(cleaned) != set(lengths):
        return None
    return {
        name: max(1, min(own, max(cleaned[name], 1)))
        for name, own in lengths.items()
    }


def _phase1_size(ilp, solution):
    """The phase-1 model's size and ``solution``'s search stats, as
    ``OptimizeResult.ilp_size`` reports them."""
    stats = solution.stats
    return {
        "constraints": ilp.model.num_constraints,
        "chain_rows": ilp.chain_rows,
        "variables": ilp.model.num_variables,
        "nodes": stats.nodes,
        "time": stats.time_seconds,
        "objective": solution.objective,
        "gap": stats.gap,
    }


def _record_solve(trace, span, site, solution):
    """Attach a solve's outcome to its open span and to ``trace.solves``."""
    stats = solution.stats
    span.set_attr("status", solution.status.name)
    span.set_attr("nodes", stats.nodes)
    if stats.gap is not None:
        span.set_attr("gap", stats.gap)
    timeline = stats.gap_timeline
    if timeline is not None and len(timeline):
        span.set_attr("gap_timeline", timeline.as_dict())
    trace.solves.append(insight.solve_telemetry(site, solution))


def _verify_inputs(ilp, solution):
    """``(edges, scopes)``: the dependence edges the path verifier should
    check, and the verify scopes of those edges.

    Edges registered as verify-exempt are dropped when their controlling
    expression is active in the solution: those encode *cross-iteration*
    semantics (cyclic code motion) that the last-copy path rule cannot
    express. Everything else — including partially-relaxed partial-ready
    edges, whose compensation copies satisfy the last-copy rule — stays.
    """
    from repro.ilp.expr import LinExpr, Var

    def active(expr):
        if isinstance(expr, Var):
            return solution.value_of(expr) >= 0.5
        if isinstance(expr, LinExpr):
            return expr.value(solution.values) >= 0.5
        return float(expr) >= 0.5

    skip = {edge for edge, expr in ilp.verify_exempt if active(expr)}
    edges = [e for e in ilp.dep_edges() if e not in skip]
    kept = set(edges)
    scopes = {e: scope for e, scope in ilp.verify_scopes.items() if e in kept}
    return edges, scopes


def _used_registers(fn):
    used = set(fn.live_in) | set(fn.live_out)
    for instr in fn.all_instructions():
        used.update(instr.regs_read())
        used.update(instr.regs_written())
    return used


def _mark_collapsible_branches(ilp):
    """Unconditional-branch-only blocks may empty and drop their branch.

    Backedge branches are excluded: removing one would dissolve the loop,
    not merely redirect a fall-through.
    """
    region = ilp.region
    cfg = region.cfg
    for block in region.fn.blocks:
        branches = block.branches
        if len(branches) != 1:
            continue
        branch = branches[0]
        op = branch.op
        if branch.pred is not None or op.is_return or op.is_call:
            continue
        if (block.name, branch.target) in cfg.back_edges:
            continue
        ilp.collapsible_branches.add(branch)


def _add_guard_dependences(ilp):
    """Predication extension: guarded copies depend on their compare."""
    region = ilp.region
    seen = set()
    for (instr, _target), compare in region.guard_compare.items():
        key = (compare, instr)
        if key in seen:
            continue
        seen.add(key)
        ilp.add_edge(DepEdge(compare, instr, DepKind.TRUE, 1))


def optimize_function(fn, features=None, machine=ITANIUM2):
    """One-call entry point: schedule ``fn`` and return an OptimizeResult."""
    return IlpScheduler(machine=machine, features=features).optimize(fn)
