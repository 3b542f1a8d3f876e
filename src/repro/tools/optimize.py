"""``tia-opt``: the postpass optimizer as a command-line filter.

Reads a TIA assembly file (see :mod:`repro.ir.parser` for the format),
runs the ILP scheduler and writes the optimized routine — the workflow
of paper Sec. 6.1 ("The assembly files are directly input to our
optimizer ... a bundler generates the final assembly output").

Usage::

    tia-opt INPUT.tia [-o OUTPUT.tia] [--no-speculation] [--no-cyclic]
            [--no-partial-ready] [--time-limit S]
            [--cache DIR] [--schedule] [--bundles]
            [--trace TRACE.json] [--metrics METRICS.json|.prom]
            [--events EVENTS.jsonl] [--html DASHBOARD.html]

Observability (:mod:`repro.obs`): any of ``--trace`` (Chrome
``trace_event`` JSON, loadable in Perfetto / ``chrome://tracing``),
``--metrics`` (flat JSON, or Prometheus text when the path ends in
``.prom``), ``--events`` (raw JSONL event log) or ``--html`` (the
self-contained dashboard page, :mod:`repro.obs.dashboard`) turns
recording on for the run; ``REPRO_OBS=1`` does the same without
writing files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.ir.parser import parse_functions
from repro.ir.printer import format_function, format_schedule
from repro.sched.scheduler import ScheduleFeatures, optimize_function


def _emit_function(result):
    """Render the optimized schedule back to TIA text.

    Recovery code for used speculation groups is materialized as real
    blocks at the end of the routine (the paper added these by hand,
    Sec. 6.1): each re-executes the faulting load (non-speculatively)
    plus the uses that were scheduled before the check, then branches
    back to the check's block.
    """
    from repro.ir.block import BasicBlock
    from repro.ir.function import Function
    from repro.ir.parser import parse_instruction

    fn = result.fn
    schedule = result.output_schedule
    out = Function(name=fn.name, live_in=set(fn.live_in), live_out=set(fn.live_out))
    order = schedule.block_order
    for index, name in enumerate(order):
        block = BasicBlock(name=name, freq=fn.block(name).freq)
        for instr in schedule.instructions_in(name):
            block.instructions.append(instr)
        # An emptied block loses its unconditional branch (Sec. 5.4); when
        # its successor is not next in layout, branch to it explicitly.
        target = _fall_through_target(fn, block)
        following = order[index + 1] if index + 1 < len(order) else None
        if target is not None and target != following:
            block.instructions.append(parse_instruction(f"br {target}"))
        out.add_block(block)

    check_blocks = {
        p.instr.root_origin: p.block
        for p in schedule.placements()
        if p.instr.is_check
    }
    # A degraded result (quality "fallback_input") carries the untouched
    # input schedule and no reconstruction — there are no speculation
    # groups and hence no recovery blocks to materialize.
    recon = result.reconstruction
    for stub, group in zip(
        recon.recovery_stubs if recon is not None else (),
        recon.selected_groups if recon is not None else (),
    ):
        block = BasicBlock(name=stub.label, freq=0.0)
        reload_ = group.original.copy(
            dests=list(group.spec_load.dests), pred=None, origin=None
        )
        block.instructions.append(reload_)
        for use in stub.reexecuted_uses:
            block.instructions.append(use.copy(origin=None))
        resume = check_blocks.get(group.check)
        if resume is not None:
            block.instructions.append(parse_instruction(f"br {resume}"))
        out.add_block(block)

    for edge in fn.edges:
        out.add_edge(edge.src, edge.dst, edge.prob)
    return format_function(out)


def _fall_through_target(fn, block):
    """The successor ``block`` reaches by falling off its end, if any.

    That is the one CFG successor of ``fn`` that none of the block's
    branches targets, when the block does not end in an unconditional
    branch or a return.
    """
    targets = set()
    for instr in block.branches:
        op = instr.op
        if op.is_return or (instr.pred is None and not op.is_call):
            return None
        if not op.is_call:
            targets.add(instr.target)
    implicit = [s for s in dict.fromkeys(fn.successors(block.name)) if s not in targets]
    return implicit[0] if len(implicit) == 1 else None


def main(argv=None):
    parser = argparse.ArgumentParser(prog="tia-opt", description=__doc__)
    parser.add_argument("input", help="TIA assembly file ('-' for stdin)")
    parser.add_argument("-o", "--output", default=None)
    parser.add_argument("--no-speculation", action="store_true")
    parser.add_argument("--no-data-speculation", action="store_true")
    parser.add_argument("--no-cyclic", action="store_true")
    parser.add_argument("--no-partial-ready", action="store_true")
    parser.add_argument("--no-verify", action="store_true")
    parser.add_argument(
        "--no-decompose",
        action="store_true",
        help="disable region decomposition (repro.sched.decompose)",
    )
    parser.add_argument(
        "--decompose-min",
        type=int,
        default=None,
        metavar="N",
        help="decompose only routines with at least N instructions "
        "(default: ScheduleFeatures.decompose_min_instructions)",
    )
    parser.add_argument(
        "--swp",
        action="store_true",
        help="software-pipeline counted inner loops after scheduling "
        "(repro.sched.modulo; per-loop summaries land in the report)",
    )
    parser.add_argument(
        "--swp-max-ii",
        type=int,
        default=None,
        metavar="N",
        help="II ladder ceiling (default: ScheduleFeatures.swp_max_ii)",
    )
    parser.add_argument(
        "--swp-max-stages",
        type=int,
        default=None,
        metavar="N",
        help="stage-count bound for the modulo ILP "
        "(default: ScheduleFeatures.swp_max_stages)",
    )
    parser.add_argument(
        "--swp-time-limit",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-loop II ladder budget "
        "(default: ScheduleFeatures.swp_time_limit)",
    )
    parser.add_argument(
        "--max-hops",
        type=int,
        default=None,
        metavar="N",
        help="bound code motion to N blocks of topological distance "
        "(also required for region decomposition to find legal cuts "
        "when speculation is enabled)",
    )
    parser.add_argument("--time-limit", type=float, default=120.0)
    parser.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="route solves through the schedule cache (repro.serve) in DIR",
    )
    parser.add_argument(
        "--schedule", action="store_true", help="print the cycle-level schedule"
    )
    parser.add_argument(
        "--bundles", action="store_true", help="print the bundle encoding"
    )
    parser.add_argument(
        "--dot",
        metavar="PREFIX",
        default=None,
        help="write PREFIX.cfg.dot / PREFIX.ddg.dot / PREFIX.sched.dot",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a Chrome trace_event JSON of the run (enables recording)",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        default=None,
        help="write the metrics dump (JSON, or Prometheus text for *.prom)",
    )
    parser.add_argument(
        "--events",
        metavar="FILE",
        default=None,
        help="write the raw JSONL event log (enables recording)",
    )
    parser.add_argument(
        "--html",
        metavar="FILE",
        default=None,
        help="write the self-contained HTML dashboard (enables recording)",
    )
    args = parser.parse_args(argv)

    want_obs = args.trace or args.metrics or args.events or args.html
    if want_obs:
        from repro.obs import core as obs

        obs.enable()

    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input) as handle:
            text = handle.read()

    features = ScheduleFeatures(
        speculation=not args.no_speculation,
        data_speculation=not args.no_data_speculation,
        cyclic=not args.no_cyclic,
        partial_ready=not args.no_partial_ready,
        verify=not args.no_verify,
        decompose=not args.no_decompose,
        max_hops=args.max_hops,
        time_limit=args.time_limit,
    )
    if args.decompose_min is not None:
        features = replace(
            features, decompose_min_instructions=args.decompose_min
        )
    if args.swp:
        features = replace(features, swp=True)
    for flag, name in (
        (args.swp_max_ii, "swp_max_ii"),
        (args.swp_max_stages, "swp_max_stages"),
        (args.swp_time_limit, "swp_time_limit"),
    ):
        if flag is not None:
            features = replace(features, **{name: flag})

    outputs = []
    for fn in parse_functions(text):
        if args.cache:
            from repro.serve.service import cached_optimize

            outcome = cached_optimize(fn, features, cache_dir=args.cache)
            result = outcome.result
            print(
                f"cache: {outcome.kind} ({outcome.elapsed:.3f}s)",
                file=sys.stderr,
            )
        else:
            result = optimize_function(fn, features)
        print(result.report(), file=sys.stderr)
        if args.schedule:
            print(format_schedule(result.output_schedule, result.fn), file=sys.stderr)
        if args.bundles:
            for block in result.output_schedule.block_order:
                for bundle in result.bundles_out.bundles_of(block):
                    print(f"  {block}: {bundle!r}", file=sys.stderr)
        if args.dot:
            from repro.ir.cfg import CfgInfo
            from repro.ir.ddg import build_dependence_graph
            from repro.ir.dot import cfg_to_dot, ddg_to_dot, schedule_to_dot
            from repro.ir.liveness import compute_liveness

            work = result.fn
            cfg = CfgInfo(work)
            ddg = build_dependence_graph(work, cfg, compute_liveness(work))
            for suffix, text_out in (
                ("cfg", cfg_to_dot(work, cfg, result.output_schedule)),
                ("ddg", ddg_to_dot(work, ddg)),
                ("sched", schedule_to_dot(work, result.output_schedule)),
            ):
                with open(f"{args.dot}.{suffix}.dot", "w") as handle:
                    handle.write(text_out)
        outputs.append(_emit_function(result))

    text_out = "\n".join(outputs)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text_out)
    else:
        print(text_out)

    if want_obs:
        from repro.obs import export as obs_export

        if args.trace:
            obs_export.write_chrome_trace(args.trace)
            print(f"wrote Chrome trace to {args.trace}", file=sys.stderr)
        if args.metrics:
            obs_export.write_metrics(args.metrics)
            print(f"wrote metrics to {args.metrics}", file=sys.stderr)
        if args.events:
            obs_export.write_jsonl(args.events)
            print(f"wrote event log to {args.events}", file=sys.stderr)
        if args.html:
            from repro.obs import dashboard as obs_dashboard

            obs_dashboard.write_dashboard(
                args.html,
                trace=obs_export.chrome_trace(),
                metrics=obs_export.metrics_dict(),
                title=f"tia-opt {args.input}",
            )
            print(f"wrote dashboard to {args.html}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
