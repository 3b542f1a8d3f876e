"""One workload of the end-to-end benchmark, run in one process.

``perfbench/run.py`` starts this script with the hash seed pinned and the
``REPRO_*`` overrides cleared, then turns the JSON line it prints into
the benchmark's report. It can be run directly the same way::

    PYTHONHASHSEED=0 PYTHONPATH=src python3 perfbench/bench.py \\
        --workload paper_sweep --seed 1 --seconds 10 --trace 0

The corpora are fixed (see README.md); ``--seed`` sets the order in
which items are compiled and the request stream of ``serve_mix``. The
quality metrics are therefore identical on every run, and the timing
metrics differ only by noise.
"""

from __future__ import annotations

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402

from repro.ir.parser import parse_functions  # noqa: E402
from repro.ir.printer import format_function  # noqa: E402
from repro.perf.pipeline import PipelineSimulator  # noqa: E402
from repro.perf.static_eval import compare_schedules  # noqa: E402
from repro.perf.trace import generate_trace  # noqa: E402
from repro.sched.scheduler import ScheduleFeatures, optimize_function  # noqa: E402
from repro.serve.client import ClientError, FleetClient  # noqa: E402
from repro.serve.fleet import FleetDaemon  # noqa: E402
from repro.serve.service import ScheduleService  # noqa: E402
from repro.tools.optimize import _emit_function  # noqa: E402
from repro.workloads.generator import (  # noqa: E402
    RoutineSpec,
    generate_routine,
    loop_dominated_family,
    multi_region_family,
)
from repro.workloads.spec_routines import SPEC_ROUTINES, build_spec_routine  # noqa: E402

import equivalence  # noqa: E402
from calibrate import Calibration  # noqa: E402
import tracer as tracing  # noqa: E402

WORKDIR = ".perfbench"  # relative to the checkout root (the cwd)

# The experiment defaults of the paper sweep: four-hop motion bound and a
# 120 s limit no item comes near (a run that hits it is flagged).
FEATURES = ScheduleFeatures(time_limit=120.0, max_hops=4)
DEFAULT_MISS_RATE = RoutineSpec(name="default").miss_rate
SIM_INVOCATIONS = 20  # profile walks per routine (120 costs ~1 s a loop)
SIM_SEED = 1

PAPER_SCALE = 0.3
LOOP_SEEDS = (1, 2)
LOOP_POSITIONS = 11  # positions 0-10 keep a pass near 7 s
# The ladder splits its budget evenly over the rungs left (about 28), so
# at the default 10 s the II=5 rung of loop10 gets 0.36 s and needs about
# 0.4 s: its II would be set by the clock. 60 s leaves every rung ~2 s.
SWP_TIME_LIMIT = 60.0
REGION_SEEDS = (3, 5)
REGION_SCALE = 0.5

# Seconds one pass over the corpus (one serve_mix epoch) takes on a
# 2-core x86-64 sandbox. A run makes round(--seconds / this) passes, at
# least one: the same work on every run, whatever the machine's speed,
# so rates never shift with how many warm passes a run happened to fit.
PASS_SECONDS = {
    "paper_sweep": 8.0,
    "loop_swp": 7.5,
    "multi_region": 18.0,
    "serve_mix": 16.0,
}

CAL_SAMPLES = 12  # calibration samples per pass (epoch), at least

SERVE_ROUTINES = 24
SERVE_HITS = 246
SERVE_VARIANTS = 30

# Failure kinds that mean a solve stopped on the clock, not on a proof.
LIMIT_KINDS = ("deadline", "unproven", "timeout", "no_incumbent")


@dataclass
class Item:
    name: str
    text: str  # TIA assembly, as tia-opt reads it
    miss_rate: float = DEFAULT_MISS_RATE


# -- corpora -----------------------------------------------------------------
def paper_items():
    return [
        Item(spec.name,
             format_function(build_spec_routine(spec.name, scale=PAPER_SCALE)),
             spec.miss_rate)
        for spec in SPEC_ROUTINES
    ]


def loop_items():
    return [
        Item(f"{spec.name}.s{seed}", format_function(fn))
        for seed in LOOP_SEEDS
        for spec, fn in loop_dominated_family(count=LOOP_POSITIONS, seed=seed)
    ]


def region_items():
    return [
        Item(f"{spec.name}.s{seed}", format_function(fn))
        for seed in REGION_SEEDS
        for spec, fn in multi_region_family(
            count=2, scale=REGION_SCALE, seed=seed
        )
    ]


def serve_pool():
    return [
        Item(f"svc{i}", format_function(generate_routine(RoutineSpec(
            name=f"svc{i}", seed=900 + i, instructions=24 + 4 * (i % 4),
            blocks=5 + i % 3,
        ))))
        for i in range(SERVE_ROUTINES)
    ]


def profile_variant(text, index):
    """Same routine, one block's profile weight changed: a family member."""
    fn = parse_functions(text)[0]
    block = fn.blocks[1 + index % (len(fn.blocks) - 1)]
    block.freq = round(block.freq * (1.5 + 0.5 * index), 3)
    return format_function(fn)


BATCH = {
    "paper_sweep": (paper_items, FEATURES),
    "loop_swp": (
        loop_items, replace(FEATURES, swp=True, swp_time_limit=SWP_TIME_LIMIT)
    ),
    "multi_region": (region_items, FEATURES),
}
WORKLOADS = tuple(BATCH) + ("serve_mix",)


# -- shared helpers ----------------------------------------------------------
def compile_text(text, features):
    """The tia-opt path: parse -> optimize_function -> emit."""
    results = [optimize_function(fn, features) for fn in parse_functions(text)]
    return results, "\n".join(_emit_function(r) for r in results)


def quality_of(result, miss_rate):
    comparison = compare_schedules(
        result.fn, result.input_schedule, result.output_schedule,
        result.bundles_in, result.bundles_out,
    )
    trace = generate_trace(result.fn, invocations=SIM_INVOCATIONS, seed=SIM_SEED)
    simulator = PipelineSimulator(miss_rate=miss_rate)
    return {
        "wl_in": comparison.metrics_in.weighted_length,
        "wl_out": comparison.metrics_out.weighted_length,
        "bundles": result.bundles_out.total_bundles,
        "cycles_in": simulator.run(result.input_schedule, result.fn, trace).cycles,
        "cycles_out": simulator.run(result.output_schedule, result.fn, trace).cycles,
    }


def limit_hits(results):
    """(routines that stopped on a limit, loops whose ladder did)."""
    deadline = sum(
        1 for r in results
        if r.fallback_reason is not None and r.fallback_reason.kind in LIMIT_KINDS
    )
    budget = sum(
        1 for r in results for o in r.swp_outcomes if tracing.ladder_exhausted(o)
    )
    return deadline, budget


_RECOVERY_LABEL = re.compile(r"recover_\d+")


def canonical(text):
    """Emitted text with recovery labels numbered from 0.

    The optimizer numbers recovery blocks from a process-wide counter,
    so the same routine compiled twice in one process gets other labels.
    """
    names = {}
    return _RECOVERY_LABEL.sub(
        lambda m: names.setdefault(m.group(), f"recover_{len(names)}"), text
    )


def digest(texts):
    h = hashlib.sha256()
    for name in sorted(texts):
        h.update(f"{name}\0{texts[name]}\0".encode())
    return h.hexdigest()[:16]


def percentile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def warm_up(features):
    """One solve of a fixed tiny routine: loads every lazy module."""
    fn = generate_routine(RoutineSpec(name="warmup", seed=7, instructions=12, blocks=4))
    compile_text(format_function(fn), features)


def quality_metrics(quality):
    totals = {k: sum(q[k] for q in quality.values()) for k in
              ("wl_in", "wl_out", "bundles", "cycles_in", "cycles_out")}
    return {
        "weighted_length_ratio": totals["wl_out"] / totals["wl_in"],
        "bundles": totals["bundles"],
        "sim_speedup": totals["cycles_in"] / totals["cycles_out"],
    }


class Run:
    """Counters shared by both workload kinds."""

    def __init__(self):
        self.attempted = 0
        self.failures = []  # "item: problem"
        self.optimal = 0
        self.latencies = []
        self.correct = True
        self.notes = []
        self.drifted = set()  # items whose text changed between repeats
        self.emitted = {}  # item -> emitted text of its first compile
        self.verdicts = {}  # (item, emitted digest) -> problem or None
        self.deadline_hits = 0
        self.budget_exhausted = 0

    def judge(self, name, emitted, check):
        """Record one attempt; ``check()`` runs once per distinct output."""
        self.attempted += 1
        emitted = canonical(emitted)
        if self.emitted.setdefault(name, emitted) != emitted:
            self.drifted.add(name)
        key = (name, hashlib.sha256(emitted.encode()).hexdigest())
        if key not in self.verdicts:
            try:
                self.verdicts[key] = check()
            except Exception as exc:
                self.verdicts[key] = f"check raised {type(exc).__name__}: {exc}"
        if self.verdicts[key]:
            self.failures.append(f"{name}: {self.verdicts[key]}")

    def fail(self, name, problem):
        self.attempted += 1
        self.failures.append(f"{name}: {problem}")

    def summary(self, setup_s, timed_s, quality, cal):
        """Report; timings are scaled to the reference speed (see calibrate)."""
        throughput = len(self.latencies) / timed_s
        p50_ms = statistics.median(self.latencies) * 1e3
        metrics = {
            "setup_s": setup_s / cal.ratio,
            "throughput_per_s": throughput * cal.ratio,
            "p50_ms": p50_ms / cal.ratio,
            **quality_metrics(quality),
            "optimal_share": self.optimal / self.attempted,
            "equivalent_share": (self.attempted - len(self.failures))
            / self.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": metrics,
            "samples": {"p50_ms": len(self.latencies)},
            "raw": {
                "calibration_ratio": cal.ratio,
                "setup_s": setup_s,
                "throughput_per_s": throughput,
                "p50_ms": p50_ms,
            },
            "guard": {
                "ilp.deadline_hits": self.deadline_hits,
                "sched.modulo_budget_exhausted": self.budget_exhausted,
            },
            "failures": sorted(set(self.failures)),
            "notes": self.notes + [
                f"{name}: emitted text differs between repeats in one process"
                for name in sorted(self.drifted)
            ],
            "digest": digest(self.emitted),
        }


# -- batch workloads (tia-opt path) ------------------------------------------
def run_batch(workload, seed, seconds, trace, setup_only):
    make_items, features = BATCH[workload]
    items = make_items()
    warm_up(features)
    setup_s = time.monotonic() - started_at()
    cal = Calibration()
    if setup_only:
        cal.sample(3)
        return {"setup_s": setup_s / cal.ratio}

    run = Run()
    quality = {}
    swp = {"loops": 0, "passing": 0, "ratios": []}
    rng = random.Random(seed)
    order = list(items)
    passes = []
    per_item = -(-CAL_SAMPLES // len(items))
    for _ in range(pass_count(workload, seconds)):
        rng.shuffle(order)
        pass_s = 0.0
        for item in order:
            gc.collect()
            cal.sample(per_item)
            t0 = time.perf_counter()
            try:
                results, emitted = compile_text(item.text, features)
            except Exception as exc:
                pass_s += time.perf_counter() - t0
                run.fail(item.name, f"raised {type(exc).__name__}: {exc}")
                continue
            latency = time.perf_counter() - t0
            pass_s += latency
            run.latencies.append(latency)
            first_time = item.name not in quality
            run.judge(
                item.name, emitted,
                lambda: batch_check(item, emitted, results, swp if first_time else None),
            )
            if first_time:
                quality[item.name] = sum_quality(results, item.miss_rate)
            deadline, budget = limit_hits(results)
            run.deadline_hits += deadline
            run.budget_exhausted += budget
            run.optimal += all(r.quality == "optimal" for r in results)
        passes.append(pass_s)

    report = run.summary(setup_s, sum(passes), quality, cal)
    report["samples"]["throughput_per_s"] = len(passes)
    if workload == "loop_swp":
        report["extra"] = {
            "swp_pipelined_share": swp["passing"] / max(swp["loops"], 1),
            "ii_over_mii": statistics.mean(swp["ratios"]) if swp["ratios"] else 0.0,
        }
        report["samples"]["swp_pipelined_share"] = swp["loops"]
        report["samples"]["ii_over_mii"] = len(swp["ratios"])
    if trace:
        report["layers"] = traced_batch(
            workload, seed, order, features, passes[-1]
        )
    return report


def batch_check(item, emitted, results, swp):
    """Equivalence of the emitted file, plus each shipped SWP kernel."""
    problem = equivalence.check_texts(item.text, emitted)
    problems = [problem] if problem else []
    for result in results:
        passing, swp_problems = equivalence.check_pipelined(result)
        problems += swp_problems
        if swp is not None:
            swp["loops"] += len(result.swp_outcomes)
            swp["passing"] += passing
            swp["ratios"] += [
                o.ii / o.mii for o in result.swp_outcomes if o.pipelined_fn
            ]
    return "; ".join(problems) or None


def sum_quality(results, miss_rate):
    parts = [quality_of(r, miss_rate) for r in results]
    return {k: sum(p[k] for p in parts) for k in parts[0]}


def plain_pass(order, features, tracer=None):
    """Compile every item once; returns the seconds spent compiling."""
    total = 0.0
    for item in order:
        gc.collect()
        scope = tracer.item(item.name) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with scope:
            results, _emitted = compile_text(item.text, features)
        total += time.perf_counter() - t0
        if tracer:
            tracer.results.extend(results)
    return total


def traced_batch(workload, seed, order, features, last_pass_s):
    """One traced pass, then one more untraced pass to price the trace."""
    tracer = tracing.Tracer(client_thread=threading.get_ident())
    tracer.install()
    try:
        traced_s = plain_pass(order, features, tracer)
    finally:
        tracer.uninstall()
    untraced_s = (last_pass_s + plain_pass(order, features)) / 2
    return finish_trace(tracer, workload, seed, traced_s / untraced_s)


def finish_trace(tracer, workload, seed, overhead):
    path = os.path.join(WORKDIR, f"trace-{workload}-seed{seed}.json")
    tracer.write_chrome_trace(path)
    return {
        "metrics": tracing.layer_metrics(tracer, overhead),
        "table": tracer.layer_table(),
        "item_seconds": sum(s[3] - s[2] for s in tracer.spans if s[1] == "item"),
        "trace_file": path,
    }


# -- serve_mix (tia-client -> FleetDaemon -> ScheduleService) ----------------
class Daemon:
    """An in-process FleetDaemon over a fresh store, on its own thread."""

    def __init__(self, workdir):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        self.workdir = workdir
        self.service = ScheduleService(
            os.path.join(workdir, "store"), default_features=FEATURES
        )
        self.socket = os.path.join(workdir, "d.sock")
        self.daemon = FleetDaemon(self.service, self.socket)
        # A daemon thread, so a failed run can still exit; close() drains it.
        self.thread = threading.Thread(
            target=self.daemon.serve_forever, name="perfbench-daemon",
            daemon=True,
        )
        self.thread.start()
        if not self.daemon.wait_ready(30):
            self.close()
            raise RuntimeError("daemon did not come up")

    def close(self):
        self.daemon.initiate_drain("benchmark done")
        self.thread.join(60)
        if self.thread.is_alive():
            raise RuntimeError("daemon did not drain")
        shutil.rmtree(self.workdir, ignore_errors=True)


def serve_stream(rng, pool):
    """~300 requests: each routine's first request is its cold miss,
    ``SERVE_VARIANTS`` profile variants are family-warm, the rest hit."""
    variants = [(i % len(pool), i // len(pool)) for i in range(SERVE_VARIANTS)]
    tokens = [(i, "miss", 0) for i in range(len(pool))]
    tokens += [(i, "family", j) for i, j in variants]
    tokens += [(i % len(pool), "exact", 0) for i in range(SERVE_HITS)]
    rng.shuffle(tokens)
    seen = {}
    for position, (routine, _kind, _j) in enumerate(tokens):
        seen.setdefault(routine, position)
    for routine, first in seen.items():
        base = tokens.index((routine, "miss", 0))
        tokens[first], tokens[base] = tokens[base], tokens[first]
    return tokens


def run_serve(seed, seconds, trace, setup_only):
    pool = serve_pool()
    texts = {}
    for i, item in enumerate(pool):
        texts[(i, "miss", 0)] = texts[(i, "exact", 0)] = item.text
    for j in range(-(-SERVE_VARIANTS // SERVE_ROUTINES)):
        for i, item in enumerate(pool):
            texts[(i, "family", j)] = profile_variant(item.text, j)
    warm_up(FEATURES)
    daemon = Daemon(os.path.join(WORKDIR, f"{os.getpid()}-0"))
    client = FleetClient([daemon.socket], rng=random.Random(seed))
    client.health()
    setup_s = time.monotonic() - started_at()
    cal = Calibration()
    if setup_only:
        daemon.close()
        cal.sample(3)
        return {"setup_s": setup_s / cal.ratio}

    run = Run()
    by_kind = {"exact": [], "family": [], "miss": []}
    unexpected = 0
    quality = {}
    epochs = []
    try:
        for epoch in range(pass_count("serve_mix", seconds)):
            if epoch:
                daemon = Daemon(os.path.join(WORKDIR, f"{os.getpid()}-{epoch}"))
                client = FleetClient([daemon.socket], rng=random.Random(seed))
            gc.collect()
            stream = serve_stream(random.Random(seed * 1000 + epoch), pool)
            replies = {}  # request text -> this epoch's first reply
            epoch_s = 0.0
            for n, token in enumerate(stream):
                if n % (len(stream) // CAL_SAMPLES) == 0:
                    cal.sample()
                text = texts[token]
                name = pool[token[0]].name
                if token[1] == "family":
                    name += f"~v{token[2]}"
                t0 = time.perf_counter()
                try:
                    reply = client.solve(text)
                except ClientError as exc:
                    epoch_s += time.perf_counter() - t0
                    run.fail(name, f"no ok reply: {exc}")
                    continue
                latency = time.perf_counter() - t0
                epoch_s += latency
                run.latencies.append(latency)
                kind = reply.results[0]["kind"]
                by_kind.setdefault(kind, []).append(latency)
                unexpected += kind != token[1]
                # A hit must return the stored reply byte for byte.
                if replies.setdefault(text, reply.text) != reply.text:
                    run.correct = False
                    run.notes.append(f"{name}: a hit differs from the miss")
                run.judge(
                    name, reply.text,
                    lambda: equivalence.check_texts(text, reply.text),
                )
                run.optimal += all(
                    r["quality"] == "optimal" for r in reply.results
                )
            epochs.append(epoch_s)
            if not quality:
                results = served_results(daemon.service, pool)
                for item, result in zip(pool, results):
                    quality[item.name] = quality_of(result, item.miss_rate)
                run.deadline_hits, run.budget_exhausted = limit_hits(results)
            daemon.close()
    finally:
        if daemon.thread.is_alive():
            daemon.close()

    report = run.summary(setup_s, sum(epochs), quality, cal)
    report["samples"]["throughput_per_s"] = len(epochs)
    report["extra"] = {}
    for name, kind, q in (("hit_p50_ms", "exact", 0.5), ("hit_p90_ms", "exact", 0.9),
                          ("warm_p50_ms", "family", 0.5), ("miss_p50_ms", "miss", 0.5)):
        report["extra"][name] = percentile(by_kind[kind], q) * 1e3 / cal.ratio
        report["samples"][name] = len(by_kind[kind])
    if unexpected:
        report["notes"].append(
            f"{unexpected} replies came from another cache tier than planned"
        )
    if trace:
        report["layers"] = traced_serve(seed, texts, pool, epochs[-1])
    return report


def served_results(service, pool):
    """The stored OptimizeResults behind each routine's replies."""
    results = []
    for item in pool:
        outcome = service.request(parse_functions(item.text)[0])
        results.append(outcome.result)
    return results


def plain_epoch(seed, texts, pool, tracer=None):
    """Replay one epoch on a fresh daemon; returns the request seconds."""
    daemon = Daemon(os.path.join(WORKDIR, f"{os.getpid()}-extra"))
    try:
        client = FleetClient([daemon.socket], rng=random.Random(seed))
        if tracer:
            tracer.install()
        gc.collect()
        total = 0.0
        for n, token in enumerate(serve_stream(random.Random(seed * 1000), pool)):
            scope = tracer.item(f"req{n}") if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            with scope:
                try:
                    client.solve(texts[token])
                except ClientError:
                    pass  # counted as failed in the timed epochs
            total += time.perf_counter() - t0
    finally:
        if tracer:
            tracer.uninstall()
        daemon.close()
    return total


def traced_serve(seed, texts, pool, last_epoch_s):
    """One traced epoch, then one more untraced epoch to price the trace."""
    tracer = tracing.Tracer(client_thread=threading.get_ident())
    traced_s = plain_epoch(seed, texts, pool, tracer)
    untraced_s = (last_epoch_s + plain_epoch(seed, texts, pool)) / 2
    return finish_trace(tracer, "serve_mix", seed, traced_s / untraced_s)


# -- entry point ---------------------------------------------------------------
def pass_count(workload, seconds):
    return max(1, round(seconds / PASS_SECONDS[workload]))


def started_at():
    """When the run's first process started (run.py passes its clock)."""
    return float(os.environ.get("PERFBENCH_T0") or _STARTED)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    os.makedirs(WORKDIR, exist_ok=True)
    if args.workload == "serve_mix":
        report = run_serve(args.seed, args.seconds, args.trace, args.setup_only)
    else:
        report = run_batch(
            args.workload, args.seed, args.seconds, args.trace, args.setup_only
        )
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
