#!/usr/bin/env python
"""Schedule-cache serving benchmark — the numbers behind ``repro.serve``.

Six sections, each a dict in ``BENCH_serve.json`` at the repo root:

* ``cold_vs_hit``   — per-routine cold-solve latency vs byte-identical
  exact-hit latency over the same store (``hit_speedup`` is the
  headline: an exact hit must be at least an order of magnitude
  cheaper than the solve it replaced, and ``byte_identical`` asserts
  the hit really is the same schedule);
* ``wire_hit``      — the same routines' exact hits as a client sees
  them: repeated request payloads through ``FleetClient`` and an
  in-process ``FleetDaemon``, with and without ``deadline_ms``.
  ``wire_vs_in_process_ratio`` (a wire hit pass over an in-process
  ``ScheduleService.request`` hit pass) is the gated headline; the
  ``*_exact`` booleans assert every repeat, deadline or not, is a
  byte-identical exact hit;
* ``family_warm``   — cold solve vs a family request for the same
  routine under a different solver budget (same family, new exact
  key).  The profile is unchanged, so each sibling optimum certifies
  and is served with no solve: ``family_vs_cold_ratio`` well below 1.0
  is that saving, and 1.0 or above would mean the certificate check
  costs as much as the solve it replaces;
* ``hit_rate_sweep``— a replayed request mix over *generator*
  workloads (a pool of seeded synthetic routines, every one requested
  ``rounds`` times) through one service: hit rate, coalescing and
  store growth of a steady-state serving loop;
* ``overload``      — a concurrent burst against a deliberately
  under-provisioned :class:`~repro.serve.fleet.FleetDaemon` (framed
  socket protocol, pre-warmed cache): p50/p99 latency of *accepted*
  requests, saturation throughput, and the shed rate.  The invariant
  gated here is ``no_request_raised``: under overload every request
  ends in a typed reply (ok or busy), never an exception or silence;
* ``journal_overhead`` — the same burst twice, without and with the
  telemetry journal enabled.  ``journal_overhead_ratio`` (plain
  throughput over journaled throughput, ~1.0 when journaling is free)
  is the gated headline — ``tia-bench-diff`` holds it near the
  baseline with a tight section threshold — and the journal itself is
  audited: every request exit produced exactly one checksummed record.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py            # full run
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke --out fresh.json
    PYTHONPATH=src python benchmarks/bench_serve.py --sections overload

CI gates with the noise-aware diff: ``tia-bench-diff BENCH_serve.json
fresh.json --gate``.  Run with ``PYTHONHASHSEED=0`` (CI does) — solver
wall time follows dict/set iteration order, and the committed baseline
was recorded under a pinned hash seed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import socket
import sys
import tempfile
import threading
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

from repro.ir.printer import format_function, format_schedule  # noqa: E402
from repro.sched.scheduler import ScheduleFeatures  # noqa: E402
from repro.serve.service import ScheduleService  # noqa: E402
from repro.workloads.generator import RoutineSpec, generate_routine  # noqa: E402
from repro.workloads.spec_routines import build_spec_routine  # noqa: E402

SMOKE_ROUTINES = ("xfree", "firstone", "get_heap_head")
FULL_ROUTINES = (
    "xfree", "firstone", "get_heap_head", "add_to_heap", "send_bits",
)
SMOKE_SEEDS = 4
FULL_SEEDS = 8


def _emitted(result):
    return format_function(result.fn) + "\n" + format_schedule(
        result.output_schedule, result.fn
    )


def _service(root, features):
    return ScheduleService(root, default_features=features)


def bench_cold_vs_hit(names, scale, time_limit, workdir):
    features = ScheduleFeatures(time_limit=time_limit)
    service = _service(workdir / "cold_vs_hit", features)
    fns = [build_spec_routine(name, scale=scale) for name in names]

    cold_seconds = 0.0
    cold_texts = []
    for fn in fns:
        t0 = time.perf_counter()
        outcome = service.request(fn)
        cold_seconds += time.perf_counter() - t0
        assert outcome.kind == "miss", outcome.kind
        cold_texts.append(_emitted(outcome.result))

    service.store.drop_mem()  # disk-hit numbers, not in-process-LRU ones
    hit_seconds = 0.0
    byte_identical = True
    for fn, cold_text in zip(fns, cold_texts):
        t0 = time.perf_counter()
        outcome = service.request(fn)
        hit_seconds += time.perf_counter() - t0
        byte_identical &= (
            outcome.kind == "exact" and _emitted(outcome.result) == cold_text
        )

    mem_seconds = 0.0  # second pass: served from the in-process front
    for fn in fns:
        t0 = time.perf_counter()
        service.request(fn)
        mem_seconds += time.perf_counter() - t0

    return {
        "routines": list(names),
        "scale": scale,
        "time_limit": time_limit,
        "cold_seconds": cold_seconds,
        "exact_hit_seconds": hit_seconds,
        "mem_hit_seconds": mem_seconds,
        "hit_speedup": cold_seconds / max(hit_seconds, 1e-9),
        "byte_identical": byte_identical,
    }


def bench_wire_hit(names, scale, time_limit, workdir, repeats):
    """Exact hits over the wire vs in process, median of ``repeats``
    passes over the routines.

    The deadline passes send ``deadline_ms`` at half the feature time
    limit, so the deadline tightens the limit of any solve; it must not
    change the key, so those repeats must hit too.
    """
    from repro.ir.parser import parse_functions
    from repro.serve.client import FleetClient
    from repro.serve.fleet import FleetDaemon

    root = workdir / "wire_hit"
    root.mkdir(parents=True)
    service = _service(root / "cache", ScheduleFeatures(time_limit=time_limit))
    texts = [
        format_function(build_spec_routine(name, scale=scale))
        for name in names
    ]
    daemon = FleetDaemon(service, str(root / "serve.sock"), workers=1)
    server = threading.Thread(target=daemon.serve_forever, daemon=True)
    server.start()
    if not daemon.wait_ready(30):
        raise RuntimeError("wire_hit daemon never bound its socket")
    client = FleetClient([daemon.path])
    deadline_ms = int(time_limit * 500)

    def wire_pass(**kwargs):
        seconds = 0.0
        replies = []
        for text in texts:
            t0 = time.perf_counter()
            reply = client.solve(text, **kwargs)
            seconds += time.perf_counter() - t0
            replies.append(reply)
        return seconds, replies

    try:
        cold_seconds, cold = wire_pass()
        fns = [parse_functions(text)[0] for text in texts]
        runs = {"in_process": [], "plain": [], "deadline": []}
        exact = {"plain": True, "deadline": True}
        for _ in range(repeats):
            t0 = time.perf_counter()
            for fn in fns:
                service.request(fn)
            runs["in_process"].append(time.perf_counter() - t0)
            for label, kwargs in (
                ("plain", {}), ("deadline", {"deadline_ms": deadline_ms}),
            ):
                seconds, replies = wire_pass(**kwargs)
                runs[label].append(seconds)
                exact[label] &= all(
                    r.results[0]["kind"] == "exact" and r.text == c.text
                    for r, c in zip(replies, cold)
                )
    finally:
        daemon.initiate_drain("bench-complete")
        server.join(60)

    median = {
        label: _percentile(sorted(values), 0.5)
        for label, values in runs.items()
    }
    return {
        "routines": list(names),
        "scale": scale,
        "time_limit": time_limit,
        "repeats": repeats,
        "deadline_ms": deadline_ms,
        "cold_seconds": cold_seconds,
        "in_process_hit_seconds": median["in_process"],
        "wire_hit_seconds": median["plain"],
        "wire_deadline_hit_seconds": median["deadline"],
        "wire_vs_in_process_ratio": median["plain"] / max(
            median["in_process"], 1e-9
        ),
        "wire_hits_exact": exact["plain"],
        "deadline_hits_exact": exact["deadline"],
    }


def bench_family_warm(names, scale, time_limit, workdir):
    cold_features = ScheduleFeatures(time_limit=time_limit)
    warm_features = ScheduleFeatures(time_limit=time_limit * 2)
    service = _service(workdir / "family_warm", cold_features)
    fns = [build_spec_routine(name, scale=scale) for name in names]

    cold_seconds = 0.0
    for fn in fns:
        t0 = time.perf_counter()
        outcome = service.request(fn)
        cold_seconds += time.perf_counter() - t0
        assert outcome.kind == "miss"

    warm_seconds = 0.0
    warm_hits = 0
    for fn in fns:
        t0 = time.perf_counter()
        outcome = service.request(fn, warm_features)
        warm_seconds += time.perf_counter() - t0
        warm_hits += outcome.kind == "family"

    return {
        "routines": list(names),
        "scale": scale,
        "time_limit": time_limit,
        "cold_seconds": cold_seconds,
        "family_warm_seconds": warm_seconds,
        "family_hits": warm_hits,
        "family_vs_cold_ratio": warm_seconds / max(cold_seconds, 1e-9),
    }


def bench_hit_rate_sweep(seeds, time_limit, rounds, workdir):
    """Generator-workload traffic: each seeded routine requested
    ``rounds`` times through one service."""
    features = ScheduleFeatures(time_limit=time_limit)
    service = _service(workdir / "hit_rate", features)
    fns = [
        generate_routine(RoutineSpec(
            name=f"gen{seed}", seed=seed, instructions=16, blocks=4, loops=1,
        ))
        for seed in range(seeds)
    ]

    kinds = {"exact": 0, "family": 0, "miss": 0}
    coalesced = 0
    t0 = time.perf_counter()
    for _round in range(rounds):
        outcomes = service.request_many(fns)
        for outcome in outcomes:
            kinds[outcome.kind] += 1
            coalesced += outcome.coalesced
    elapsed = time.perf_counter() - t0
    requests = rounds * len(fns)

    stats = service.store.stats()
    return {
        "seeds": seeds,
        "rounds": rounds,
        "time_limit": time_limit,
        "requests": requests,
        "hits": kinds,
        "coalesced": coalesced,
        "hit_rate": (kinds["exact"] + kinds["family"]) / requests,
        "total_seconds": elapsed,
        "store_entries": stats["entries"],
        "store_bytes": stats["bytes"],
    }


def _percentile(ordered, frac):
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(len(ordered) * frac))]


def _prewarmed_overload_service(root, time_limit):
    """(service, request text) with the xfree schedule already cached.

    Pre-warming goes through the same parse path the daemon uses, so
    overload bursts are all exact hits — they measure the serving tier
    under saturation, not the solver.
    """
    from repro.ir.parser import parse_functions

    features = ScheduleFeatures(time_limit=time_limit)
    service = _service(root / "cache", features)
    text = format_function(build_spec_routine("xfree", scale=0.3))
    service.request(parse_functions(text)[0])
    return service, text


def _overload_burst(service, text, root, *, clients, requests_per_client,
                    journal=None, queue_capacity=2, shed_watermark=2):
    """One concurrent burst against a FleetDaemon.

    Clients send raw framed requests with no retry: a busy reply is
    recorded as a shed, an ok reply's latency feeds the percentile
    ladder, and any exception fails ``no_request_raised``.  The default
    capacity/watermark deliberately under-provision the daemon (the
    overload section); callers can provision generously instead to
    measure the accepted-path pipeline without shed jitter.
    """
    from repro.serve import protocol
    from repro.serve.fleet import FleetDaemon

    root.mkdir(parents=True, exist_ok=True)
    sock_path = str(root / "serve.sock")
    daemon = FleetDaemon(
        service, sock_path, workers=2, queue_capacity=queue_capacity,
        shed_watermark=shed_watermark, io_timeout=10.0, drain_budget=10.0,
        journal=journal,
    )
    box = {}

    def serve():
        box["counters"] = daemon.serve_forever()

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    if not daemon.wait_ready(30):
        raise RuntimeError("overload daemon never bound its socket")

    latencies = []  # accepted (ok) request latencies, seconds
    tallies = {"ok": 0, "busy": 0, "error": 0, "raised": 0}
    lock = threading.Lock()
    barrier = threading.Barrier(clients)

    def load(client_no):
        header, payload = protocol.solve_request(text)
        barrier.wait()
        for _ in range(requests_per_client):
            t0 = time.perf_counter()
            try:
                conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                conn.settimeout(30.0)
                try:
                    conn.connect(sock_path)
                    try:
                        protocol.send_frame(conn, header, payload)
                    except (BrokenPipeError, ConnectionResetError):
                        pass  # shed before the read: reply is buffered
                    reply = protocol.recv_frame(conn)
                finally:
                    conn.close()
                status = reply[0]["status"] if reply else "error"
            except Exception:
                status = "raised"
            elapsed = time.perf_counter() - t0
            with lock:
                tallies[status] = tallies.get(status, 0) + 1
                if status == "ok":
                    latencies.append(elapsed)

    threads = [
        threading.Thread(target=load, args=(i,)) for i in range(clients)
    ]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(300)
    elapsed = time.perf_counter() - t0
    daemon.initiate_drain("bench-complete")
    server.join(60)

    latencies.sort()
    total = clients * requests_per_client
    return {
        "requests": total,
        "accepted": tallies["ok"],
        "shed": tallies["busy"],
        "errors": tallies["error"] + tallies["raised"],
        "shed_rate": tallies["busy"] / total,
        "accepted_p50_seconds": _percentile(latencies, 0.50),
        "accepted_p99_seconds": _percentile(latencies, 0.99),
        "accepted_per_sec": tallies["ok"] / max(elapsed, 1e-9),
        "wall_seconds": elapsed,
        "no_request_raised": tallies["raised"] == 0 and tallies["error"] == 0,
        "daemon_counters": box.get("counters", {}),
    }


def bench_overload(workdir, *, clients, requests_per_client, time_limit):
    """Concurrent burst against an under-provisioned FleetDaemon."""
    root = workdir / "overload"
    service, text = _prewarmed_overload_service(root, time_limit)
    result = _overload_burst(
        service, text, root,
        clients=clients, requests_per_client=requests_per_client,
    )
    result["clients"] = clients
    result["requests_per_client"] = requests_per_client
    return result


def bench_journal_overhead(workdir, *, clients, requests_per_client,
                           time_limit):
    """The overload burst with and without the telemetry journal.

    Same pre-warmed cache, same load shape; the only variable is
    whether every request exit appends a checksummed journal record.
    ``journal_overhead_ratio`` is plain throughput over journaled
    throughput (1.0 = journaling is free), measured as best-of-N over
    interleaved burst pairs — single bursts are scheduler jitter,
    best-of-N against best-of-N cancels most of it.  Unlike the
    ``overload`` section the daemon here is *provisioned* (nothing
    sheds): shed patterns under saturation are far noisier than the
    per-request journal write being measured, and a shed burst would
    gate on that noise instead of on journaling cost.  The journaled
    runs are also audited against the exactly-one-record-per-exit
    invariant: request records must number completed + probes +
    rejected, and every record must checksum and schema-validate.
    """
    from repro.obs.journal import read_records, validate_record

    root = workdir / "journal_overhead"
    service, text = _prewarmed_overload_service(root, time_limit)
    repeats = 5
    capacity = max(64, clients * requests_per_client)
    plain_rps, journaled_rps = [], []
    records = []
    expected = 0
    raised = False
    for rep in range(repeats):
        plain = _overload_burst(
            service, text, root / f"plain{rep}",
            clients=clients, requests_per_client=requests_per_client,
            queue_capacity=capacity, shed_watermark=capacity,
        )
        journal_root = root / f"journal{rep}"
        journaled = _overload_burst(
            service, text, root / f"journaled{rep}",
            clients=clients, requests_per_client=requests_per_client,
            journal=str(journal_root),
            queue_capacity=capacity, shed_watermark=capacity,
        )
        plain_rps.append(plain["accepted_per_sec"])
        journaled_rps.append(journaled["accepted_per_sec"])
        records.extend(read_records(journal_root, kinds=("request",)))
        counters = journaled["daemon_counters"]
        expected += (
            counters.get("completed", 0)
            + counters.get("probes", 0)
            + counters.get("rejected", 0)
        )
        raised |= not (
            plain["no_request_raised"] and journaled["no_request_raised"]
        )

    best_plain = max(plain_rps)
    best_journaled = max(journaled_rps)
    return {
        "clients": clients,
        "requests_per_client": requests_per_client,
        "repeats": repeats,
        # Raw throughputs (requests/second) are context, not gates —
        # the ratio below is the gated signal, so these deliberately
        # avoid the *_per_sec suffix bench_diff would gate on.
        "plain_accepted_rps": best_plain,
        "journaled_accepted_rps": best_journaled,
        "journal_overhead_ratio": best_plain / max(best_journaled, 1e-9),
        "journal_records": len(records),
        "journal_records_match": len(records) == expected,
        "journal_records_valid": all(
            validate_record(r) == [] for r in records
        ),
        "no_request_raised": not raised,
    }


SECTIONS = (
    "cold_vs_hit", "wire_hit", "family_warm", "hit_rate_sweep", "overload",
    "journal_overhead",
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--out", default=str(REPO / "BENCH_serve.json"),
        help="snapshot path (merged under the 'full'/'smoke' mode key)",
    )
    parser.add_argument(
        "--sections", default=",".join(SECTIONS), metavar="A,B",
        help="comma-separated subset to run (others keep their snapshot)",
    )
    args = parser.parse_args(argv)

    sections = [s for s in args.sections.split(",") if s]
    unknown = set(sections) - set(SECTIONS)
    if unknown:
        parser.error(f"unknown sections: {sorted(unknown)}")

    if args.smoke:
        names, scale, time_limit, rounds = SMOKE_ROUTINES, 0.3, 20.0, 3
        seeds = SMOKE_SEEDS
        clients, requests_per_client = 8, 4
    else:
        names, scale, time_limit, rounds = FULL_ROUTINES, 1.0, 60.0, 3
        seeds = FULL_SEEDS
        clients, requests_per_client = 12, 10
    mode = "smoke" if args.smoke else "full"

    workdir = pathlib.Path(tempfile.mkdtemp(prefix="bench_serve_"))
    try:
        report = {}
        if "cold_vs_hit" in sections:
            report["cold_vs_hit"] = bench_cold_vs_hit(
                names, scale, time_limit, workdir
            )
        if "wire_hit" in sections:
            report["wire_hit"] = bench_wire_hit(
                names, scale, time_limit, workdir, repeats=21
            )
        if "family_warm" in sections:
            report["family_warm"] = bench_family_warm(
                names, scale, time_limit, workdir
            )
        if "hit_rate_sweep" in sections:
            report["hit_rate_sweep"] = bench_hit_rate_sweep(
                seeds, time_limit, rounds, workdir
            )
        if "overload" in sections:
            report["overload"] = bench_overload(
                workdir, clients=clients,
                requests_per_client=requests_per_client,
                time_limit=20.0,
            )
        if "journal_overhead" in sections:
            # Longer bursts than the overload section: the overhead
            # ratio needs enough requests per burst to rise above
            # scheduler jitter.
            report["journal_overhead"] = bench_journal_overhead(
                workdir, clients=clients,
                requests_per_client=requests_per_client * 8,
                time_limit=20.0,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps(report, indent=2, sort_keys=True))
    out_path = pathlib.Path(args.out)
    merged = json.loads(out_path.read_text()) if out_path.exists() else {}
    existing = merged.get(mode, {})
    existing.update(report)
    merged[mode] = existing
    out_path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}", file=sys.stderr)

    problems = []
    cvh = report.get("cold_vs_hit")
    if cvh is not None:
        if not cvh["byte_identical"]:
            problems.append("exact hits were not byte-identical")
        if cvh["hit_speedup"] < 10.0:
            problems.append(
                f"exact-hit speedup {cvh['hit_speedup']:.1f}x < 10x"
            )
    wire = report.get("wire_hit")
    if wire is not None:
        if not wire["wire_hits_exact"]:
            problems.append("repeated wire requests were not exact hits")
        if not wire["deadline_hits_exact"]:
            problems.append(
                "repeated wire requests with a deadline were not exact hits"
            )
    overload = report.get("overload")
    if overload is not None:
        if not overload["no_request_raised"]:
            problems.append(
                f"overload run raised/errored {overload['errors']} request(s)"
            )
        if overload["accepted"] == 0:
            problems.append("overload run accepted nothing")
    journal = report.get("journal_overhead")
    if journal is not None:
        if not journal["no_request_raised"]:
            problems.append("journal_overhead run raised/errored requests")
        if not journal["journal_records_match"]:
            problems.append(
                f"journal recorded {journal['journal_records']} request "
                "exits, daemon counters disagree"
            )
        if not journal["journal_records_valid"]:
            problems.append("journal contains invalid records")
    if problems:
        print("FAIL: " + "; ".join(problems), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
