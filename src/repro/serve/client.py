"""``tia-client``: retrying, failing-over client for the serve fleet.

One :class:`FleetClient` fronts N replica sockets of the framed
``tia-serve`` protocol (:mod:`repro.serve.protocol`) and gives callers
the property the daemon alone cannot: **a request succeeds as long as
any replica is healthy**.

Retry policy, in order of what it protects against:

* **Connect/read timeouts** — a dead or wedged replica costs a bounded
  slice of the budget, never a hang.
* **Ordered failover** — replicas are tried in the order given
  (primary first); a connection failure, timeout, protocol error or
  ``error`` reply moves to the next replica immediately.
* **Busy hints** — a ``busy`` reply (load shed or draining) is not a
  failure: the client sleeps the server's ``retry_after_ms`` hint
  (capped by its own backoff ceiling and remaining budget) before the
  next attempt, so a shedding fleet sees a self-pacing client instead
  of a retry storm.
* **Capped exponential backoff with jitter** — after a full pass over
  all replicas the per-round delay doubles from ``base_delay`` up to
  ``max_delay``, with multiplicative jitter drawn from a seedable RNG
  (tests and benchmarks pass ``random.Random(seed)`` for deterministic
  schedules); jitter prevents synchronized client herds re-arriving in
  lockstep after a shed wave.
* **A wall-clock budget** — ``deadline_ms`` bounds the whole attempt
  tree; when it expires the client raises :class:`ClientError` with
  the per-replica failure trail.

The CLI::

    tia-client routine.tia --socket /run/tia-a.sock --socket /run/tia-b.sock
    tia-client --health --socket /run/tia-a.sock
    tia-client --stats  --socket /run/tia-a.sock --json

Exit status 0 when every input routine was served, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import socket
import sys
import time
import uuid
from dataclasses import dataclass, field

from repro.obs import core as obs
from repro.serve import protocol


class ClientError(Exception):
    """All replicas exhausted (or the deadline expired) for a request."""


def _reply_tag(reply):
    """Echoed request/trace ids of a busy/error reply, for the trail."""
    request_id = reply.get("id")
    trace_id = reply.get("trace_id")
    if request_id is None and trace_id is None:
        return ""
    return f" [req={request_id or '-'} trace={(trace_id or '-')[:8]}]"


@dataclass
class RetryPolicy:
    """Backoff/retry knobs; defaults suit a local fleet."""

    max_rounds: int = 5  # full passes over the replica list
    base_delay: float = 0.05  # seconds, doubled per round
    max_delay: float = 2.0  # backoff + busy-hint ceiling
    connect_timeout: float = 1.0
    read_timeout: float = 120.0  # a solve can legitimately take this long

    def delay_for_round(self, round_no, rng):
        """Capped exponential backoff with multiplicative jitter."""
        delay = min(self.max_delay, self.base_delay * (2.0 ** round_no))
        return delay * (0.5 + rng.random())


@dataclass
class ClientReply:
    """A successful ``ok`` reply: emitted assembly + per-routine meta."""

    text: str
    results: list
    replica: str
    attempts: int
    elapsed: float
    request_id: str = None
    trace_id: str = None  # distributed-trace id the request carried


@dataclass
class ClientStats:
    """Telemetry a load generator (``bench_serve``) reads back."""

    attempts: int = 0
    busy: int = 0
    errors: int = 0
    connect_failures: int = 0
    failovers: int = 0
    trail: list = field(default_factory=list)  # last request's failures


class FleetClient:
    """Retrying client over an ordered list of replica socket paths."""

    def __init__(self, socket_paths, policy=None, rng=None):
        if isinstance(socket_paths, (str, os.PathLike)):
            socket_paths = [socket_paths]
        self.socket_paths = [str(p) for p in socket_paths]
        if not self.socket_paths:
            raise ValueError("no replica socket paths given")
        self.policy = policy or RetryPolicy()
        self.rng = rng or random.Random()
        self.stats = ClientStats()

    # -- public --------------------------------------------------------------
    def solve(self, text, deadline_ms=None, features=None, request_id=None,
              trace_id=None):
        """Serve ``text`` (TIA assembly); returns a :class:`ClientReply`.

        Raises :class:`ClientError` only when every replica failed in
        every round or ``deadline_ms`` expired — a single live replica
        is enough to succeed.

        The request carries a distributed-trace context: ``trace_id``
        (else the ambient :func:`repro.obs.core.current_trace`, else a
        fresh id) plus the client span's ref, so the daemon's spans and
        journal records attribute back to this call.
        """
        request_id = request_id or uuid.uuid4().hex[:12]
        trace_id = trace_id or obs.current_trace()[0] or obs.new_trace_id()
        with obs.trace_scope(trace_id):
            with obs.span(
                "client.solve", request=str(request_id)
            ) as span:
                header, payload = protocol.solve_request(
                    text, request_id=request_id,
                    deadline_ms=deadline_ms, features=features,
                    trace=protocol.trace_header(trace_id, span.ref),
                )
                reply = self._with_retries(
                    "solve", header, payload, deadline_ms=deadline_ms,
                    tag=f"req={request_id} trace={trace_id[:8]}",
                )
        reply.request_id = request_id
        reply.trace_id = trace_id
        return reply

    def health(self, deadline_ms=2000):
        """First healthy replica's health header (dict)."""
        trace_id, _parent = obs.current_trace()
        header, payload = protocol.probe_request(
            "health",
            trace=protocol.trace_header(trace_id, obs.current_span_ref()),
        )
        return self._with_retries(
            "health", header, payload, deadline_ms=deadline_ms
        )

    def fleet_stats(self, deadline_ms=2000):
        """Per-replica stats headers: ``{path: dict | None}``."""
        out = {}
        for path in self.socket_paths:
            try:
                reply, _payload = self._roundtrip(
                    path, *protocol.probe_request("stats")
                )
                out[path] = reply
            except (OSError, protocol.ProtocolError):
                out[path] = None
        return out

    # -- retry engine --------------------------------------------------------
    def _with_retries(self, op, header, payload, deadline_ms=None, tag=None):
        started = time.monotonic()
        deadline = (
            None if deadline_ms is None
            else started + float(deadline_ms) / 1000.0
        )
        suffix = f" [{tag}]" if tag else ""
        trail = []
        attempts = 0
        for round_no in range(self.policy.max_rounds):
            busy_hint = None
            for path in self.socket_paths:
                if deadline is not None and time.monotonic() >= deadline:
                    self.stats.trail = trail
                    raise ClientError(
                        f"deadline expired after {attempts} attempt(s)"
                        f"{suffix}: " + "; ".join(trail[-4:])
                    )
                attempts += 1
                self.stats.attempts += 1
                try:
                    reply, reply_payload = self._roundtrip(
                        path, header, payload, deadline
                    )
                except (ConnectionRefusedError, FileNotFoundError) as exc:
                    self.stats.connect_failures += 1
                    self.stats.failovers += 1
                    trail.append(f"{path}: {type(exc).__name__}")
                    continue
                except (TimeoutError, socket.timeout):
                    self.stats.connect_failures += 1
                    self.stats.failovers += 1
                    trail.append(f"{path}: timeout")
                    continue
                except (OSError, protocol.ProtocolError) as exc:
                    self.stats.failovers += 1
                    trail.append(f"{path}: {type(exc).__name__}: {exc}")
                    continue
                status = reply.get("status")
                if status == "busy":
                    self.stats.busy += 1
                    hint = reply.get("retry_after_ms")
                    if hint is not None:
                        hint_s = max(0.0, float(hint) / 1000.0)
                        busy_hint = (
                            hint_s if busy_hint is None
                            else min(busy_hint, hint_s)
                        )
                    trail.append(
                        f"{path}: busy ({reply.get('reason', '?')})"
                        + _reply_tag(reply)
                    )
                    continue  # failover: another replica may have room
                if status == "error":
                    self.stats.errors += 1
                    trail.append(
                        f"{path}: error: {reply.get('error')}"
                        + _reply_tag(reply)
                    )
                    continue
                if op == "solve" and status == "ok":
                    return ClientReply(
                        text=reply_payload.decode("utf-8"),
                        results=reply.get("results", []),
                        replica=path,
                        attempts=attempts,
                        elapsed=time.monotonic() - started,
                    )
                if op == "health" and status == "health":
                    return reply
                trail.append(f"{path}: unexpected status {status!r}")
            delay = self.policy.delay_for_round(round_no, self.rng)
            if busy_hint is not None:
                # Honor the server's hint, but never beyond our own
                # backoff ceiling — a confused server must not park us.
                delay = min(max(delay, busy_hint), self.policy.max_delay)
            if deadline is not None:
                delay = min(delay, max(0.0, deadline - time.monotonic()))
            if delay > 0:
                time.sleep(delay)
        self.stats.trail = trail
        raise ClientError(
            f"all replicas failed after {attempts} attempt(s){suffix}: "
            + "; ".join(trail[-6:])
        )

    def _roundtrip(self, path, header, payload, deadline=None):
        connect_timeout = self.policy.connect_timeout
        read_timeout = self.policy.read_timeout
        if deadline is not None:
            remaining = max(1e-3, deadline - time.monotonic())
            connect_timeout = min(connect_timeout, remaining)
            read_timeout = min(read_timeout, remaining)
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            conn.settimeout(connect_timeout)
            conn.connect(path)
            conn.settimeout(read_timeout)
            try:
                protocol.send_frame(conn, header, payload)
            except (BrokenPipeError, ConnectionResetError):
                # The daemon may shed/drain a connection before reading
                # the request; its typed busy reply can already be in
                # our receive buffer, so fall through to the read.
                pass
            frame = protocol.recv_frame(conn)
            if frame is None:
                raise protocol.ProtocolError("peer closed without a reply")
            return frame
        finally:
            try:
                conn.close()
            except OSError:
                pass


# -- CLI ----------------------------------------------------------------------
def client_main(argv=None):
    parser = argparse.ArgumentParser(prog="tia-client", description=__doc__)
    parser.add_argument("inputs", nargs="*", help="TIA files ('-' = stdin)")
    parser.add_argument(
        "--socket", dest="sockets", action="append", metavar="PATH",
        help="replica socket path (repeat for failover order)", default=[],
    )
    parser.add_argument("--deadline-ms", type=int, default=None)
    parser.add_argument("--retries", type=int, default=5,
                        help="full passes over the replica list")
    parser.add_argument("--connect-timeout", type=float, default=1.0)
    parser.add_argument("--read-timeout", type=float, default=120.0)
    parser.add_argument("--time-limit", type=float, default=None,
                        help="per-request solver budget override")
    parser.add_argument("--seed", type=int, default=None,
                        help="jitter RNG seed (deterministic backoff)")
    parser.add_argument("-o", "--output", default=None)
    parser.add_argument("--health", action="store_true",
                        help="probe the fleet and print the reply")
    parser.add_argument("--stats", action="store_true",
                        help="print per-replica serving stats")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    args = parser.parse_args(argv)

    if not args.sockets:
        parser.error("at least one --socket PATH is required")
    policy = RetryPolicy(
        max_rounds=max(1, args.retries),
        connect_timeout=args.connect_timeout,
        read_timeout=args.read_timeout,
    )
    rng = random.Random(args.seed) if args.seed is not None else None
    client = FleetClient(args.sockets, policy=policy, rng=rng)

    if args.health:
        try:
            reply = client.health()
        except ClientError as exc:
            print(f"unhealthy: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(reply, indent=2, sort_keys=True))
        return 0
    if args.stats:
        print(json.dumps(client.fleet_stats(), indent=2, sort_keys=True))
        return 0

    if not args.inputs:
        parser.error("no inputs (give TIA files, '-', or --health/--stats)")
    features = {}
    if args.time_limit is not None:
        features["time_limit"] = args.time_limit

    texts = []
    for path in args.inputs:
        if path == "-":
            texts.append(sys.stdin.read())
        else:
            with open(path, encoding="utf-8") as handle:
                texts.append(handle.read())

    emitted = []
    failures = 0
    for path, text in zip(args.inputs, texts):
        try:
            reply = client.solve(
                text, deadline_ms=args.deadline_ms,
                features=features or None,
            )
        except ClientError as exc:
            failures += 1
            print(f"{path}: FAILED: {exc}", file=sys.stderr)
            continue
        emitted.append(reply.text)
        for result in reply.results:
            print(
                f"{result['routine']:20s} {result['kind']:6s} "
                f"quality={result['quality']:14s} via {reply.replica} "
                f"({reply.attempts} attempt(s), {reply.elapsed:.3f}s)"
                + (" (coalesced)" if result.get("coalesced") else ""),
                file=sys.stderr,
            )

    if args.json:
        print(json.dumps({
            "served": len(emitted),
            "failed": failures,
            "attempts": client.stats.attempts,
            "busy": client.stats.busy,
            "connect_failures": client.stats.connect_failures,
            "failovers": client.stats.failovers,
        }, indent=2, sort_keys=True))
    if args.output:
        # Join exactly like tia-opt -o does, so an exact-hit reply is
        # byte-comparable (cmp) against the tia-opt output.
        text = "\n".join(emitted)
        if args.output == "-":
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(client_main())
