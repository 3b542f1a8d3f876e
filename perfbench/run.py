"""End-to-end benchmark of tia-opt and tia-serve: one command, four workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10         # every workload
    python3 perfbench/run.py --workload loop_swp --trace 1        # per-layer run

Each workload runs in a child process (``perfbench/bench.py``) with
``PYTHONHASHSEED`` pinned and every ``REPRO_*`` override cleared. The
report lists each metric with its unit and sample count, the failed and
attempted counts, the deadline guard, and every failed item; the last
line of standard output is the JSON result. Timings are scaled to a
reference machine speed measured during the run (``calibrate.py``); the
report also prints them unscaled. ``--trace 1`` adds a
separate traced pass and reports the per-layer metrics instead, writing
a Chrome ``trace_event`` file under ``.perfbench/``. Set-up time is the
median of three set-ups, each in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_sweep", "loop_swp", "multi_region", "serve_mix")
SETUP_PROBES = 2  # extra set-up-only processes besides the measured run
TIME_BUDGET = 170.0  # seconds for one workload, all processes included
HASH_SEED = "0"


class BenchError(Exception):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PERFBENCH_T0"] = repr(time.monotonic())
    return env


def run_child(args, deadline):
    """Run bench.py with ``args``; returns its JSON result."""
    command = [sys.executable, os.path.join(HERE, "bench.py"), *args]
    proc = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"bench.py {' '.join(args)} ran out of time")
    if proc.returncode != 0:
        raise BenchError(f"bench.py {' '.join(args)} exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"bench.py {' '.join(args)} printed no result")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace):
    """One benchmark run of ``workload``: set-up probes, then the run."""
    deadline = time.monotonic() + TIME_BUDGET
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(run_child(base + ["--setup-only"], deadline)["setup_s"])
    report = run_child(
        base + ["--seconds", str(seconds), "--trace", str(trace)], deadline
    )
    setups.append(report["metrics"]["setup_s"])
    report["metrics"]["setup_s"] = statistics.median(setups)  # each one scaled
    report["samples"]["setup_s"] = len(setups)
    return report


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def result_line(report, trace, spec):
    """The driver's JSON: exactly the metrics BENCHMARK.json lists."""
    section = spec["per_layer"] if trace else spec["end_to_end"]
    values = report["layers"]["metrics"] if trace else report["metrics"]
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in section
        },
    }


# -- human-readable report ----------------------------------------------------
def print_report(workload, seed, trace, report, spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"== {workload}  seed {seed}  attempted {report['attempted']}  "
          f"failed {report['failed']}  correct {report['correct']}  "
          f"output digest {report['digest']}")
    samples = report["samples"]
    rows = dict(report["metrics"])
    rows.update(report.get("extra", {}))
    if not trace:
        for name, value in rows.items():
            print(f"  {name:<24} {value:>14.6g} {units.get(name, extra_unit(name)):<6}"
                  f" n={samples.get(name, 1)}")
    raw = report["raw"]
    print(f"  unscaled: calibration ratio {raw['calibration_ratio']:.4f}, "
          f"setup {raw['setup_s']:.4g} s, throughput {raw['throughput_per_s']:.4g} 1/s, "
          f"p50 {raw['p50_ms']:.4g} ms")
    guard = report["guard"]
    flagged = any(guard.values())
    print("  deadline guard: " + ", ".join(f"{k} {v}" for k, v in guard.items())
          + ("  ** FLAGGED: this run measured the clock **" if flagged else ""))
    for failure in report["failures"]:
        print(f"  failed: {failure}")
    for note in report["notes"]:
        print(f"  note: {note}")
    if trace:
        layers = report["layers"]
        wall = layers["item_seconds"]
        print(f"  per-layer (traced pass, {wall:.3f} s of item wall; "
              f"trace in {layers['trace_file']})")
        print(f"  {'span':<26} {'calls':>7} {'seconds':>10} {'self s':>10} {'share':>7}")
        table = sorted(layers["table"].items(), key=lambda kv: -kv[1]["seconds"])
        for name, row in table:
            if name == "item":
                continue
            print(f"  {name:<26} {row['calls']:>7} {row['seconds']:>10.4f} "
                  f"{row['self_seconds']:>10.4f} {row['seconds'] / wall:>7.1%}")
        for name, value in layers["metrics"].items():
            print(f"  {name:<32} {value:>14.6g} {units.get(name, '')}")


def extra_unit(name):
    return "ms" if name.endswith("_ms") else "ratio" if name == "ii_over_mii" else "share"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        spec = load_spec()
        results = {}
        for workload in workloads:
            report = measure(workload, args.seed, args.seconds, args.trace)
            print_report(workload, args.seed, args.trace, report, spec)
            results[workload] = result_line(report, args.trace, spec)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    if len(results) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
