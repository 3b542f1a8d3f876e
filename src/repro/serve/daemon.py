"""``tia-serve`` / ``tia-cache``: batch + socket front-ends for the cache.

``tia-serve`` drains scheduling requests through a
:class:`~repro.serve.service.ScheduleService` backed by an on-disk
store.  Two ingestion modes:

* **batch** — one or more TIA assembly files (each may hold several
  routines); every routine becomes a request, fanned out over a thread
  pool so duplicate routines coalesce.  ``--rounds N`` replays the
  request list N times (round 2+ should be all exact hits).
* **socket** — ``--listen PATH`` binds a Unix stream socket served by
  the overload-safe fleet front-end (:mod:`repro.serve.fleet`): a
  multi-threaded worker pool behind a bounded queue with load
  shedding, per-request deadlines, health/stats probes and graceful
  SIGTERM/SIGINT drain.  Connections speak the length-prefixed framed
  protocol (:mod:`repro.serve.protocol`); ``tia-client``
  (:mod:`repro.serve.client`) is the matching retrying/failover
  client.  ``--max-requests`` bounds the loop for scripted runs and
  tests — only *completed* solve requests count; shed or errored
  connections are tallied separately as ``rejected``.  ``--journal
  DIR`` attaches a persistent telemetry journal
  (:mod:`repro.obs.journal`): one record per request exit path, read
  back by ``tia-telemetry``.

``tia-cache`` inspects and maintains a store directory::

    tia-cache stats DIR [--json]     entry/byte/family counts + hit mix
    tia-cache ls DIR                 entries with routine/quality/age
    tia-cache gc DIR --budget BYTES  LRU-evict down to a size budget
    tia-cache verify DIR             re-checksum everything, drop corrupt
    tia-cache warm DIR INPUT...      populate the cache from TIA files

Both tools honor the observability switches: ``--metrics FILE`` writes
the metrics dump (JSON or ``.prom``), ``REPRO_OBS=1`` records without
writing.  A malformed ``REPRO_FAULTS`` fails fast here, exactly like
the parallel driver.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.ir.parser import parse_functions
from repro.obs import core as obs
from repro.obs.telemetry import percentiles
from repro.sched.scheduler import ScheduleFeatures
from repro.serve.service import ScheduleService
from repro.serve.store import ScheduleStore
from repro.tools import faults


def _features_from_args(args):
    return ScheduleFeatures(
        speculation=not args.no_speculation,
        cyclic=not args.no_cyclic,
        partial_ready=not args.no_partial_ready,
        time_limit=args.time_limit,
    )


def _read_functions(paths):
    fns = []
    for path in paths:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        fns.extend(parse_functions(text))
    return fns


def _serve_stats(outcomes):
    kinds = {"exact": 0, "family": 0, "miss": 0}
    latency = {k: [] for k in kinds}
    coalesced = 0
    tiers = {}
    for outcome in outcomes:
        # setdefault on *both* maps: an outcome kind outside the three
        # standard ones must extend the stats, not KeyError on latency.
        kinds.setdefault(outcome.kind, 0)
        kinds[outcome.kind] += 1
        latency.setdefault(outcome.kind, []).append(outcome.elapsed)
        coalesced += outcome.coalesced
        tiers[outcome.result.quality] = tiers.get(outcome.result.quality, 0) + 1
    total = len(outcomes)
    return {
        "requests": total,
        "hits": kinds,
        "hit_rate": (kinds["exact"] + kinds["family"]) / total if total else 0.0,
        "coalesced": coalesced,
        "quality_tiers": tiers,
        "latency": {k: percentiles(v) for k, v in latency.items() if v},
    }


# -- tia-serve ----------------------------------------------------------------
def serve_main(argv=None):
    parser = argparse.ArgumentParser(prog="tia-serve", description=__doc__)
    parser.add_argument("inputs", nargs="*", help="TIA files ('-' = stdin)")
    parser.add_argument("--cache", required=True, metavar="DIR")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--time-limit", type=float, default=120.0)
    parser.add_argument("--no-speculation", action="store_true")
    parser.add_argument("--no-cyclic", action="store_true")
    parser.add_argument("--no-partial-ready", action="store_true")
    parser.add_argument("--no-revalidate", action="store_true")
    parser.add_argument(
        "--size-budget", type=int, default=None,
        help="store size budget in bytes (LRU-evicted after writes)",
    )
    parser.add_argument("--stats-out", metavar="FILE", default=None)
    parser.add_argument("--metrics", metavar="FILE", default=None)
    parser.add_argument(
        "-o", "--output", default=None,
        help="write optimized assembly of the last round here",
    )
    parser.add_argument("--listen", metavar="SOCKET", default=None)
    parser.add_argument(
        "--max-requests", type=int, default=None,
        help="socket mode: exit after N *completed* solve requests "
             "(shed/errored connections count separately)",
    )
    parser.add_argument(
        "--queue-capacity", type=int, default=None,
        help="socket mode: bounded request queue size (default 2x workers)",
    )
    parser.add_argument(
        "--shed-watermark", type=int, default=None,
        help="socket mode: queue depth at which new connections are "
             "shed with a busy reply (default: queue capacity)",
    )
    parser.add_argument(
        "--io-timeout", type=float, default=30.0,
        help="socket mode: per-socket-operation timeout in seconds",
    )
    parser.add_argument(
        "--drain-budget", type=float, default=10.0,
        help="socket mode: seconds granted to in-flight and queued "
             "work after SIGTERM/SIGINT before the rest is flushed",
    )
    parser.add_argument(
        "--default-deadline-ms", type=int, default=None,
        help="socket mode: deadline applied to requests without one",
    )
    parser.add_argument(
        "--journal", metavar="DIR", default=None,
        help="socket mode: append one telemetry-journal record per "
             "request exit path under DIR (read back by tia-telemetry)",
    )
    args = parser.parse_args(argv)

    faults.validate_env()
    if args.metrics or os.environ.get("REPRO_OBS"):
        obs.enable()

    store = ScheduleStore(args.cache, size_budget=args.size_budget)
    service = ScheduleService(
        store,
        default_features=_features_from_args(args),
        revalidate=not args.no_revalidate,
    )

    if args.listen:
        counters = _serve_socket(service, args)
        print(
            f"served {counters['completed']} request(s), "
            f"rejected {counters['rejected']} "
            f"(shed {counters['shed']}, drained {counters['drained']})",
            file=sys.stderr,
        )
    else:
        if not args.inputs:
            parser.error("no inputs (give TIA files or --listen SOCKET)")
        _serve_batch(service, args)

    if args.metrics:
        from repro.obs import export as obs_export

        obs_export.write_metrics(args.metrics)
        print(f"wrote metrics to {args.metrics}", file=sys.stderr)
    return 0


def _serve_batch(service, args):
    fns = _read_functions(args.inputs)
    if not fns:
        print("no routines found in inputs", file=sys.stderr)
        return
    all_outcomes = []
    last_round = []
    for round_no in range(max(1, args.rounds)):
        started = time.perf_counter()
        outcomes = service.request_many(fns, workers=args.workers)
        elapsed = time.perf_counter() - started
        for outcome in outcomes:
            summary = outcome.summary()
            print(
                f"round {round_no}: {summary['routine']:20s} "
                f"{summary['kind']:6s} quality={summary['quality']:14s} "
                f"{summary['elapsed']:8.3f}s"
                + (" (coalesced)" if summary["coalesced"] else ""),
                file=sys.stderr,
            )
        print(
            f"round {round_no}: {len(outcomes)} request(s) in {elapsed:.3f}s",
            file=sys.stderr,
        )
        all_outcomes.extend(outcomes)
        last_round = outcomes
    stats = _serve_stats(all_outcomes)
    stats["store"] = service.store.stats()
    print(json.dumps(stats, indent=2, sort_keys=True), file=sys.stderr)
    if args.stats_out:
        with open(args.stats_out, "w", encoding="utf-8") as handle:
            json.dump(stats, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.output:
        from repro.tools.optimize import _emit_function

        text = "\n".join(_emit_function(o.result) for o in last_round)
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _serve_socket(service, args):
    """Run the overload-safe fleet front-end until drained.

    Returns the daemon's final counters dict.  SIGTERM/SIGINT initiate
    a graceful drain when this is the main thread (tests driving the
    daemon from a worker thread call ``initiate_drain`` directly).
    """
    import signal
    import threading

    from repro.serve.fleet import FleetDaemon

    daemon = FleetDaemon(
        service,
        args.listen,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        shed_watermark=args.shed_watermark,
        io_timeout=args.io_timeout,
        drain_budget=args.drain_budget,
        max_requests=args.max_requests,
        default_deadline_ms=args.default_deadline_ms,
        journal=args.journal,
    )
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(
                signum,
                lambda num, _frame: daemon.initiate_drain(
                    signal.Signals(num).name
                ),
            )
    return daemon.serve_forever()


# -- tia-cache ----------------------------------------------------------------
def cache_main(argv=None):
    parser = argparse.ArgumentParser(prog="tia-cache", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="entry/byte/family counts")
    p_stats.add_argument("dir")
    p_stats.add_argument("--json", action="store_true")

    p_ls = sub.add_parser("ls", help="list entries")
    p_ls.add_argument("dir")

    p_gc = sub.add_parser("gc", help="LRU-evict down to a byte budget")
    p_gc.add_argument("dir")
    p_gc.add_argument("--budget", type=int, required=True)

    p_verify = sub.add_parser("verify", help="re-checksum all entries")
    p_verify.add_argument("dir")

    p_warm = sub.add_parser("warm", help="populate from TIA files")
    p_warm.add_argument("dir")
    p_warm.add_argument("inputs", nargs="+")
    p_warm.add_argument("--time-limit", type=float, default=120.0)
    p_warm.add_argument("--no-speculation", action="store_true")
    p_warm.add_argument("--no-cyclic", action="store_true")
    p_warm.add_argument("--no-partial-ready", action="store_true")
    p_warm.add_argument("--workers", type=int, default=None)

    args = parser.parse_args(argv)
    faults.validate_env()
    store = ScheduleStore(args.dir)

    if args.command == "stats":
        stats = store.stats()
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
        else:
            print(
                f"{stats['entries']} entries, {stats['bytes']} bytes, "
                f"{stats['families']} families"
            )
        return 0

    if args.command == "ls":
        now = time.time()
        for key, _path, size, mtime in sorted(store.entries()):
            header = store.load_header(key) or {}
            print(
                f"{key[:16]}  {header.get('routine', '?'):20s} "
                f"{header.get('quality', '?'):14s} {size:8d}B  "
                f"age {now - mtime:7.0f}s"
            )
        return 0

    if args.command == "gc":
        evicted = store.gc(args.budget)
        stats = store.stats()
        print(
            f"evicted {len(evicted)} entr{'y' if len(evicted) == 1 else 'ies'}; "
            f"{stats['entries']} left, {stats['bytes']} bytes"
        )
        return 0

    if args.command == "verify":
        ok, dropped = store.verify_all()
        print(f"{ok} entries ok, {len(dropped)} corrupt dropped")
        return 0 if not dropped else 1

    if args.command == "warm":
        features = _features_from_args(args)
        service = ScheduleService(store, default_features=features)
        fns = _read_functions(args.inputs)
        outcomes = service.request_many(fns, workers=args.workers)
        stats = _serve_stats(outcomes)
        stats["store"] = store.stats()
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0

    parser.error(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(serve_main())
