"""Overload-safe multi-threaded socket daemon for ``tia-serve``.

The original socket mode was a single-threaded accept loop: no
timeouts, no backpressure, no safe shutdown — one stalled client
wedged the whole tier and a SIGTERM mid-solve dropped in-flight work on
the floor.  :class:`FleetDaemon` is the robustness substrate the fleet
needs:

* **Bounded admission.**  The accept loop feeds a bounded queue drained
  by a fixed worker pool.  At or above the shed watermark the daemon
  *sheds*: the client gets a typed ``busy`` reply carrying a
  ``retry_after_ms`` hint (EWMA of recent service time × queue depth)
  instead of an unbounded queue growing latency for everyone.
* **Deadlines end to end.**  A request's ``deadline_ms`` starts burning
  at accept; queue wait is charged against it, and what remains at
  dispatch tightens the cold solve's ``time_limit`` — so an over-queued
  request degrades along the optimizer's fallback ladder (the
  :class:`~repro.tools.deadline.Deadline` machinery) instead of blowing
  its budget inside the solver.  The deadline is not part of the
  cache keys, so a request repeated with a deadline still hits.
  Requests still never raise.
* **Stalled clients cannot wedge workers.**  Every accepted socket gets
  ``settimeout``; the framed protocol (:mod:`repro.serve.protocol`)
  reads are bounded in both bytes and time.
* **Graceful drain.**  SIGTERM/SIGINT (or reaching ``--max-requests``)
  stops accepting, closes and unlinks the socket (new clients fail
  over instantly), lets in-flight and already-queued work finish up to
  a drain budget, then flushes whatever is left with ``busy
  (draining)`` replies and exits cleanly — rc 0, store intact.
* **Stale-socket takeover.**  On startup a leftover socket path is
  probed: a live listener is an error (never steal a serving replica's
  socket); a dead one (connection refused) is unlinked and rebound.
* **Probes.**  ``health`` and ``stats`` ops are answered inline from
  the accept thread's worker pool without competing with solves for
  queue slots beyond their (tiny) service time.

* **Attributable exits.**  Every request adopts the client's
  distributed-trace context (the ``trace`` header member) for the
  spans the daemon records on its behalf and echoes ``id`` +
  ``trace_id`` on every reply — busy and error included, via a
  best-effort read of the queued frame on the shed/drain paths.  When
  a telemetry journal is attached, exactly one
  :mod:`repro.obs.journal` record is appended per request exit path
  (``ok``/``busy``/``error``/``drained``/``fault``/``probe``), and a
  drain-time ``portfolio_summary`` record persists the per-family
  solver-race win tallies.

Chaos hooks: fault sites ``serve.accept`` (the accepted connection
fails before queueing), ``serve.queue`` (forced shed), ``serve.drain``
(failure inside the drain sweep) and ``obs.journal`` (journal append
I/O failure, which must never surface into the request path) let
:mod:`repro.tools.faults` prove each of those paths degrades instead of
crashing.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import time

from repro.obs import core as obs
from repro.obs import journal as journal_mod
from repro.serve import protocol
from repro.tools import faults


class DaemonError(Exception):
    """Fatal daemon startup/teardown failure (e.g. live socket path)."""


def _wire_features(features):
    """JSON-able view of the wire-overridable knobs actually in effect."""
    view = {}
    for name in protocol.WIRE_FEATURES:
        value = getattr(features, name, None)
        if isinstance(value, tuple):
            value = list(value)
        view[name] = value
    return view


class FleetDaemon:
    """One serving replica: accept loop + bounded queue + worker pool.

    Parameters
    ----------
    service:
        The :class:`~repro.serve.service.ScheduleService` answering
        requests (shared store, coalescing, admission control).
    path:
        Unix socket path to bind.
    workers:
        Worker threads draining the queue (default ``min(4, cpus)``).
    queue_capacity:
        Bounded queue size (default ``2 × workers``).
    shed_watermark:
        Queue depth at/above which new connections are shed (default:
        ``queue_capacity``; set lower to shed before the queue is hard
        full).
    io_timeout:
        Per-socket-operation timeout in seconds; a silent client can
        hold a worker for at most this long.
    drain_budget:
        Seconds granted to in-flight + queued work after drain starts.
    max_requests:
        Exit after this many *completed* solve requests (scripted runs
        and tests); rejected/shed connections do not count.
    default_deadline_ms:
        Applied to requests that carry no ``deadline_ms`` of their own
        (``None`` = the service's feature time limit alone governs).
    journal:
        A :class:`repro.obs.journal.TelemetryJournal` — or a directory
        path, in which case one is built with default budgets —
        receiving one record per request exit path.  ``None`` disables
        journaling.
    """

    def __init__(
        self,
        service,
        path,
        *,
        workers=None,
        queue_capacity=None,
        shed_watermark=None,
        io_timeout=30.0,
        drain_budget=10.0,
        max_requests=None,
        default_deadline_ms=None,
        backlog=64,
        journal=None,
    ):
        self.service = service
        self.path = str(path)
        if workers is None:
            workers = min(4, max(1, os.cpu_count() or 1))
        self.workers = max(1, int(workers))
        if queue_capacity is None:
            queue_capacity = 2 * self.workers
        self.queue_capacity = max(1, int(queue_capacity))
        if shed_watermark is None:
            shed_watermark = self.queue_capacity
        self.shed_watermark = max(1, min(int(shed_watermark), self.queue_capacity))
        self.io_timeout = float(io_timeout)
        self.drain_budget = float(drain_budget)
        self.max_requests = max_requests
        self.default_deadline_ms = default_deadline_ms
        self.backlog = backlog
        if journal is not None and not hasattr(journal, "append"):
            journal = journal_mod.TelemetryJournal(journal)
        self.journal = journal
        self.replica = f"{os.path.basename(self.path)}:{os.getpid()}"
        self._portfolio_families = {}  # family -> {backend spec: race wins}

        self._queue = queue.Queue(maxsize=self.queue_capacity)
        self._stop = threading.Event()  # stop accepting
        self._ready = threading.Event()  # socket bound + listening
        self._reject_queued = False  # drain flush: workers busy-reply
        self._drain_reason = None
        self._lock = threading.Lock()
        self._inflight = 0
        self._started = None
        self._server = None
        # EWMA of per-request service seconds, seeding the busy
        # retry-after hint; starts pessimistic so the first sheds do
        # not tell clients to hammer a cold daemon.
        self._ewma_service = 0.05
        self.counters = {
            "completed": 0,
            "rejected": 0,
            "shed": 0,
            "drained": 0,
            "probes": 0,
            "accept_errors": 0,
        }

    # -- lifecycle -----------------------------------------------------------
    def bind(self):
        """Bind and listen (with stale-socket takeover); idempotent."""
        if self._server is not None:
            return
        if os.path.exists(self.path):
            self._takeover_stale_socket()
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            server.bind(self.path)
        except OSError:
            server.close()
            raise
        server.listen(self.backlog)
        server.settimeout(0.1)  # poll the stop event between accepts
        self._server = server
        self._started = time.monotonic()
        self._ready.set()

    def _takeover_stale_socket(self):
        """Unlink a dead leftover socket; refuse to steal a live one."""
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        probe.settimeout(0.25)
        try:
            probe.connect(self.path)
        except (ConnectionRefusedError, FileNotFoundError):
            try:
                os.unlink(self.path)
            except FileNotFoundError:
                pass
        except OSError:
            # ENOTSOCK and friends: the path is not a live listener.
            try:
                os.unlink(self.path)
            except FileNotFoundError:
                pass
        else:
            raise DaemonError(
                f"socket {self.path} has a live listener "
                "(another replica is serving; refusing to steal it)"
            )
        finally:
            probe.close()

    def wait_ready(self, timeout=10.0):
        """Block until the socket is bound (tests/background starts)."""
        return self._ready.wait(timeout)

    def initiate_drain(self, reason="signal"):
        """Stop accepting; in-flight + queued work gets the drain budget.

        Safe from any thread and from signal handlers; idempotent.
        """
        if not self._stop.is_set():
            self._drain_reason = reason
            self._stop.set()

    @property
    def draining(self):
        return self._stop.is_set()

    def serve_forever(self):
        """Run until drained; returns the final counters dict."""
        self.bind()
        threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(i,),
                name=f"serve-worker-{i}",
                daemon=True,
            )
            for i in range(self.workers)
        ]
        for thread in threads:
            thread.start()
        try:
            self._accept_loop()
        finally:
            self._close_listener()
            self._drain(threads)
            self._flush_journal()
        return dict(self.counters)

    def _close_listener(self):
        """Close + unlink so new clients fail over immediately."""
        server, self._server = self._server, None
        if server is not None:
            try:
                server.close()
            except OSError:
                pass
        try:
            os.unlink(self.path)
        except OSError:
            pass

    # -- accept path ---------------------------------------------------------
    def _accept_loop(self):
        while not self._stop.is_set():
            with self._lock:
                completed = self.counters["completed"]
            if self.max_requests is not None and completed >= self.max_requests:
                self.initiate_drain("max-requests")
                break
            try:
                conn, _addr = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                if self._stop.is_set():
                    break
                self._count("accept_errors")
                if obs.ENABLED:
                    obs.counter("serve_accept_errors_total")
                continue
            self._admit(conn)

    def _admit(self, conn):
        accepted_at = time.monotonic()
        if faults.fire("serve.accept") is not None:
            # Injected accept-path failure: the connection dies before
            # it is queued; the loop must keep serving.
            self._count("accept_errors")
            self._count("rejected")
            if obs.ENABLED:
                obs.counter("serve_accept_errors_total")
            request_id, trace_id = self._peek_ids(conn)
            self._journal_request(
                "fault",
                trace_id=trace_id,
                request_id=request_id,
                fault="serve.accept",
                timings={"total": time.monotonic() - accepted_at},
            )
            self._best_effort_reply(
                conn,
                *protocol.error_reply(
                    request_id, "injected accept fault", trace_id=trace_id
                ),
            )
            self._close(conn)
            return
        depth = self._queue.qsize()
        forced_shed = faults.fire("serve.queue") is not None
        if forced_shed or depth >= self.shed_watermark:
            self._shed(
                conn, depth, "injected" if forced_shed else "overload",
                accepted_at,
            )
            return
        try:
            self._queue.put_nowait((conn, accepted_at))
        except queue.Full:
            self._shed(conn, self._queue.qsize(), "overload", accepted_at)
            return
        if obs.ENABLED:
            obs.gauge("serve_conn_queue_depth", float(self._queue.qsize()))

    def _shed(self, conn, depth, reason, accepted_at=None):
        self._count("shed")
        self._count("rejected")
        if obs.ENABLED:
            obs.counter("serve_shed_total", reason=reason)
        request_id, trace_id = self._peek_ids(conn)
        timings = None
        if accepted_at is not None:
            timings = {"total": time.monotonic() - accepted_at}
        self._journal_request(
            "busy",
            trace_id=trace_id,
            request_id=request_id,
            shed_reason=reason,
            timings=timings,
        )
        header, payload = protocol.busy_reply(
            request_id, self._retry_after_ms(depth), reason,
            queue_depth=depth, trace_id=trace_id,
        )
        self._best_effort_reply(conn, header, payload)
        self._close(conn)

    def _peek_ids(self, conn, timeout=0.1):
        """Best-effort ``(request_id, trace_id)`` off a doomed connection.

        A shed/drained/faulted connection never reaches a worker's
        normal frame read, but by the time the daemon decides to reject
        it the client has almost always written its single request
        frame — so a short bounded read usually recovers the request id
        and trace context, making the typed reply and the journal
        record attributable from the client side.  Any failure (slow
        client, garbage frame) just yields anonymous ids; the rejection
        itself is never at risk.
        """
        try:
            conn.settimeout(timeout)
            frame = protocol.recv_frame(conn)
        except Exception:
            return (None, None)
        if frame is None:
            return (None, None)
        header, _payload = frame
        trace_id, _parent = protocol.trace_from_header(header)
        request_id = header.get("id")
        return (
            None if request_id is None else str(request_id),
            trace_id,
        )

    def _retry_after_ms(self, depth):
        """How long a shed client should wait: the backlog's expected
        service time, clamped to something a client can act on."""
        hint = self._ewma_service * (depth + 1) * 1000.0
        return int(min(5000.0, max(25.0, hint)))

    def _best_effort_reply(self, conn, header, payload):
        try:
            conn.settimeout(min(1.0, self.io_timeout))
            protocol.send_frame(conn, header, payload)
        except OSError:
            pass

    @staticmethod
    def _close(conn):
        try:
            conn.close()
        except OSError:
            pass

    def _count(self, name, n=1):
        with self._lock:
            self.counters[name] += n

    # -- telemetry journal ---------------------------------------------------
    def _journal_request(self, outcome, **fields):
        """Append one request-exit record; a no-op without a journal.

        :meth:`TelemetryJournal.append` never raises, so this is safe
        on every exit path including the drain sweep.
        """
        journal = self.journal
        if journal is None:
            return
        journal.append(
            journal_mod.request_record(
                outcome, replica=self.replica, seal=False, **fields
            )
        )

    def _portfolio_note(self, outcomes):
        """Race digest for one request + fold per-family win tallies.

        Returns ``{races, winner, seed_transfers}`` when at least one
        portfolio race ran for the request, else ``None``; as a side
        effect the winning backend's tally for the routine's cache
        family is bumped (persisted at drain as the
        ``portfolio_summary`` journal record).
        """
        races = 0
        transfers = 0
        winner = None
        with self._lock:
            for outcome in outcomes:
                trace = getattr(outcome.result, "trace", None)
                for solve in getattr(trace, "solves", None) or ():
                    detail = (
                        solve.get("portfolio")
                        if isinstance(solve, dict)
                        else None
                    )
                    if not detail:
                        continue
                    races += 1
                    transfers += int(detail.get("seed_transfers") or 0)
                    spec = detail.get("winner")
                    if spec:
                        winner = spec
                        tallies = self._portfolio_families.setdefault(
                            outcome.family, {}
                        )
                        tallies[spec] = tallies.get(spec, 0) + 1
        if not races:
            return None
        return {
            "races": races,
            "winner": winner,
            "seed_transfers": transfers,
        }

    def _flush_journal(self):
        """Drain-time persistence: per-family race tallies + counters."""
        journal = self.journal
        if journal is None:
            return
        with self._lock:
            families = {
                family: dict(tallies)
                for family, tallies in self._portfolio_families.items()
            }
            counters = dict(self.counters)
        journal.append(
            journal_mod.seal_record(
                {
                    "kind": "portfolio_summary",
                    "ts": time.time(),
                    "replica": self.replica,
                    "families": families,
                    "counters": counters,
                    "drain_reason": self._drain_reason,
                    "write_errors": journal.write_errors,
                }
            )
        )
        journal.close()

    # -- worker path ---------------------------------------------------------
    def _worker_loop(self, index=0):
        if obs.ENABLED:
            obs.name_thread(f"fleet worker {index}")
        while True:
            try:
                item = self._queue.get(timeout=0.1)
            except queue.Empty:
                if self._stop.is_set() and self._reject_queued:
                    return
                continue
            if item is None:  # shutdown sentinel
                return
            conn, accepted_at = item
            if self._reject_queued:
                # Drain budget expired with this connection still
                # queued: flush it with a typed busy instead of
                # starting work we cannot finish.
                self._flush_queued(conn, accepted_at)
                continue
            self._handle(conn, accepted_at)

    def _flush_queued(self, conn, accepted_at):
        """Busy-reply a queued connection the drain gave up on."""
        self._count("drained")
        self._count("rejected")
        if obs.ENABLED:
            obs.counter("serve_drained_total")
        request_id, trace_id = self._peek_ids(conn)
        self._journal_request(
            "drained",
            trace_id=trace_id,
            request_id=request_id,
            shed_reason="draining",
            timings={"total": time.monotonic() - accepted_at},
        )
        self._best_effort_reply(
            conn,
            *protocol.busy_reply(request_id, 250, "draining", trace_id=trace_id),
        )
        self._close(conn)

    def _handle(self, conn, accepted_at):
        with self._lock:
            self._inflight += 1
            inflight = self._inflight
        if obs.ENABLED:
            obs.gauge("serve_inflight", float(inflight))
            obs.gauge("serve_conn_queue_depth", float(self._queue.qsize()))
        started = time.monotonic()
        # Populated by _handle_framed as soon as the header parses, so
        # the error exits below can echo ids and journal attributably.
        ctx = {"id": None, "trace": None}
        try:
            conn.settimeout(self.io_timeout)
            self._handle_framed(conn, accepted_at, ctx)
        except (TimeoutError, socket.timeout):
            self._reject(conn, accepted_at, ctx, "request timed out")
        except protocol.ProtocolError as exc:
            self._reject(conn, accepted_at, ctx, str(exc))
        except Exception as exc:  # a bad request must not kill the worker
            self._reject(
                conn, accepted_at, ctx, f"{type(exc).__name__}: {exc}"
            )
        finally:
            self._close(conn)
            with self._lock:
                self._inflight -= 1
                inflight = self._inflight
            self._ewma_service = (
                0.8 * self._ewma_service + 0.2 * (time.monotonic() - started)
            )
            if obs.ENABLED:
                obs.gauge("serve_inflight", float(inflight))

    def _reject(self, conn, accepted_at, ctx, error):
        """Typed error exit: count, journal once, best-effort reply."""
        self._count("rejected")
        self._journal_request(
            "error",
            trace_id=ctx["trace"],
            request_id=ctx["id"],
            error=error,
            timings={"total": time.monotonic() - accepted_at},
        )
        self._best_effort_reply(
            conn,
            *protocol.error_reply(ctx["id"], error, trace_id=ctx["trace"]),
        )

    def _handle_framed(self, conn, accepted_at, ctx):
        frame = protocol.recv_frame(conn)
        if frame is None:  # connected and left without a frame
            return
        header, payload = frame
        request_id = header.get("id")
        trace_id, parent_ref = protocol.trace_from_header(header)
        ctx["id"] = request_id
        ctx["trace"] = trace_id
        # Adopt the client's trace for everything recorded on this
        # request's behalf — the fleet.request span becomes the local
        # root that the Chrome-trace exporter stitches to the client's
        # span via its remote parent ref.
        with obs.trace_scope(trace_id, parent_ref):
            with obs.span(
                "fleet.request",
                op=str(header.get("op")),
                request=str(request_id),
            ):
                self._serve_framed(
                    conn, accepted_at, header, payload, trace_id
                )

    def _serve_framed(self, conn, accepted_at, header, payload, trace_id):
        op = header.get("op")
        request_id = header.get("id")
        if op in ("health", "stats"):
            self._count("probes")
            probe = (
                self._health_header(request_id)
                if op == "health"
                else self._stats_header(request_id)
            )
            if trace_id is not None:
                probe["trace_id"] = str(trace_id)
            protocol.send_frame(conn, probe)
            self._journal_request(
                "probe",
                trace_id=trace_id,
                request_id=request_id,
                timings={"total": time.monotonic() - accepted_at},
            )
            return
        if op != "solve":
            raise protocol.ProtocolError(f"unknown op {op!r}")

        waited = time.monotonic() - accepted_at
        if obs.ENABLED:
            # Retroactive span covering accept -> dispatch, so the
            # Chrome trace shows queue wait as a first-class phase of
            # the request instead of a silent gap before the solve.
            obs.complete_span("fleet.queue_wait", waited)
        deadline_ms = header.get("deadline_ms", self.default_deadline_ms)
        budget = None
        if deadline_ms is not None:
            # Queue wait already burned part of the client's budget;
            # what is left bounds the solve, so an over-queued request
            # degrades along the fallback ladder instead of overshooting.
            # The budget is not part of the cache keys: a request
            # repeated with a deadline still hits its entry.
            budget = max(1e-6, float(deadline_ms) / 1000.0 - waited)
        features = protocol.features_from_wire(
            self.service.default_features, header.get("features")
        )
        served = self.service.request_text(payload, features, budget)
        if not served:
            protocol.send_frame(
                conn,
                *protocol.error_reply(
                    request_id, "no routines in payload", trace_id=trace_id
                ),
            )
            self._count("rejected")
            self._journal_request(
                "error",
                trace_id=trace_id,
                request_id=request_id,
                error="no routines in payload",
                timings={
                    "queue_wait": waited,
                    "total": time.monotonic() - accepted_at,
                },
            )
            return

        outcomes = [outcome for outcome, _text in served]
        results = [
            {
                "routine": outcome.result.fn.name,
                "kind": outcome.kind,
                "quality": outcome.result.quality,
                "coalesced": bool(outcome.coalesced),
            }
            for outcome in outcomes
        ]
        reply_text = "\n".join(text for _outcome, text in served)
        reply_header, reply_payload = protocol.ok_reply(
            request_id, results, reply_text.encode("utf-8"),
            trace_id=trace_id,
        )
        protocol.send_frame(conn, reply_header, reply_payload)
        self._count("completed")
        if obs.ENABLED:
            obs.counter("serve_completed_total")
        cache_kinds = {}
        for outcome in outcomes:
            cache_kinds[outcome.kind] = cache_kinds.get(outcome.kind, 0) + 1
        self._journal_request(
            "ok",
            trace_id=trace_id,
            request_id=request_id,
            family=outcomes[0].family,
            routines=results,
            features=_wire_features(protocol.apply_deadline(features, budget)),
            timings={
                "queue_wait": waited,
                "solve": sum(o.elapsed for o in outcomes),
                "total": time.monotonic() - accepted_at,
            },
            cache_kinds=cache_kinds,
            portfolio=self._portfolio_note(outcomes),
        )

    def _health_header(self, request_id):
        with self._lock:
            counters = dict(self.counters)
            inflight = self._inflight
        return {
            "status": "health",
            "id": request_id,
            "ok": True,
            "uptime_seconds": time.monotonic() - (self._started or time.monotonic()),
            "inflight": inflight,
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self.queue_capacity,
            "workers": self.workers,
            "draining": self.draining,
            "completed": counters["completed"],
            "shed": counters["shed"],
        }

    def _stats_header(self, request_id):
        with self._lock:
            counters = dict(self.counters)
        try:
            store_stats = self.service.store.stats()
        except OSError as exc:
            store_stats = {"error": str(exc)}
        return {
            "status": "stats",
            "id": request_id,
            "counters": counters,
            "store": store_stats,
            "queue_capacity": self.queue_capacity,
            "shed_watermark": self.shed_watermark,
            "workers": self.workers,
        }

    # -- drain ---------------------------------------------------------------
    def _drain(self, threads):
        """Finish in-flight + queued work within the budget, then flush."""
        deadline = time.monotonic() + self.drain_budget
        try:
            if faults.fire("serve.drain") is not None:
                raise OSError("injected drain fault")
            while time.monotonic() < deadline:
                with self._lock:
                    inflight = self._inflight
                if inflight == 0 and self._queue.empty():
                    break
                time.sleep(0.02)
        except Exception:
            # An injected (or real) drain failure must not leave the
            # process hanging or exiting dirty: fall through to the
            # flush, which busy-replies whatever is left.
            if obs.ENABLED:
                obs.counter("serve_drain_errors_total")
        # Budget spent (or queue clear): anything still queued gets a
        # typed busy instead of silence.
        self._reject_queued = True
        while True:
            try:
                conn, accepted_at = self._queue.get_nowait()
            except queue.Empty:
                break
            self._flush_queued(conn, accepted_at)
        for _thread in threads:
            try:
                self._queue.put_nowait(None)
            except queue.Full:
                break
        remaining = max(0.5, deadline - time.monotonic())
        for thread in threads:
            thread.join(timeout=remaining)
        if obs.ENABLED:
            obs.gauge("serve_conn_queue_depth", 0.0)
