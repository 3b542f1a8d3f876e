"""``repro.obs.journal`` — the crash-safe persistent telemetry journal.

Everything the obs layer records dies with its process: metrics dumps
are per-run and the fleet daemon's counters evaporate at exit.  This
module is the durable substrate: an
**append-only JSONL journal** written by the serving tier on every
request exit path and read back by ``tia-telemetry`` (and, eventually,
``tia-tune``).

Layout under the journal root::

    shard-<created_ns>-<pid>-<seq>.jsonl     append-only record shards
    quarantine/                              shards that failed verify

Durability discipline (the same rules as :mod:`repro.serve.store`):

* **Append-only, checksummed records.**  One JSON object per line; each
  record carries ``"v"`` (schema version) and ``"crc"`` — the sha256
  prefix of the record's canonical JSON *without* the crc field.  A
  torn tail line from a crash mid-append fails the checksum and is
  skipped on read; it can never corrupt earlier records, because
  earlier bytes are never rewritten.
* **Atomic shard rotation.**  When the active shard exceeds
  ``shard_bytes`` it is flushed, fsynced and closed — *sealed* shards
  are immutable from then on — and a fresh shard (strictly increasing
  sequence number) becomes active.  There is no rename window: a shard
  file is complete at every byte boundary.
* **Size-budgeted GC.**  :meth:`TelemetryJournal.gc` deletes whole
  sealed shards oldest-first until the journal fits the budget; the
  active shard is never deleted.
* **Quarantine on corrupt.**  :meth:`TelemetryJournal.verify` moves any
  shard with an invalid *non-tail* line (mid-file corruption — bit rot,
  truncation, editor damage) into ``quarantine/`` so it cannot poison
  rollups, while plain readers (:func:`read_records`) simply skip
  invalid lines and never mutate the journal.
* **Never into the request path.**  :meth:`TelemetryJournal.append`
  swallows every failure (counted as ``journal_write_errors_total`` and
  returned as ``False``); the ``obs.journal`` fault-injection site
  makes the chaos suite prove that promise.

Records are plain dicts.  The ``request`` kind — one per fleet request
exit (ok / busy / error / drained / fault / probe) — is built by
:func:`request_record` and validated by :func:`validate_record`; see
``docs/observability.md`` for the field-by-field schema.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time

from repro.obs import core as obs
from repro.tools import faults

SCHEMA_VERSION = 1
_SHARD_PREFIX = "shard-"
_SHARD_SUFFIX = ".jsonl"

# Record kinds the schema knows. "request" is one fleet request exit;
# "portfolio_summary" is the drain-time persistence of the daemon's
# counters (the name predates the removal of the solver race and is kept
# so existing journals still verify); "note" is free-form (markers, tests).
RECORD_KINDS = ("request", "portfolio_summary", "note")

# Outcomes a request record may carry — the fleet daemon's exit paths.
REQUEST_OUTCOMES = ("ok", "busy", "error", "drained", "fault", "probe")


def _canonical(record):
    """A record's canonical JSON without its crc field."""
    body = {k: v for k, v in record.items() if k != "crc"}
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _digest(canonical):
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _crc(record):
    """Checksum of a record's canonical JSON without its crc field."""
    return _digest(_canonical(record))


def seal_record(record):
    """Stamp schema version + checksum onto ``record`` (returns it)."""
    record.setdefault("v", SCHEMA_VERSION)
    record["crc"] = _crc(record)
    return record


def _sealed_line(record):
    """Seal ``record`` and return its JSONL line, encoding it once: the
    line is the canonical body with the crc spliced in as its first
    member (readers parse JSON, so member order carries no meaning)."""
    record.setdefault("v", SCHEMA_VERSION)
    canonical = _canonical(record)
    record["crc"] = crc = _digest(canonical)
    return f'{{"crc":"{crc}",{canonical[1:]}\n'.encode("utf-8")


def check_record(record):
    """``True`` when the record's checksum matches its body."""
    crc = record.get("crc")
    return isinstance(crc, str) and crc == _crc(record)


def validate_record(record):
    """Schema problems with one journal record (empty = valid)."""
    problems = []
    if not isinstance(record, dict):
        return ["record is not an object"]
    if record.get("v") != SCHEMA_VERSION:
        problems.append(f"schema version {record.get('v')!r} != {SCHEMA_VERSION}")
    if not check_record(record):
        problems.append("checksum mismatch")
    kind = record.get("kind")
    if kind not in RECORD_KINDS:
        problems.append(f"unknown kind {kind!r}")
    if not isinstance(record.get("ts"), (int, float)):
        problems.append("missing numeric 'ts'")
    if kind == "request":
        if record.get("outcome") not in REQUEST_OUTCOMES:
            problems.append(f"unknown outcome {record.get('outcome')!r}")
        timings = record.get("timings")
        if timings is not None:
            if not isinstance(timings, dict):
                problems.append("'timings' is not an object")
            else:
                for key, value in timings.items():
                    if value is not None and not isinstance(value, (int, float)):
                        problems.append(f"timing {key!r} is not numeric")
        routines = record.get("routines")
        if routines is not None and not isinstance(routines, list):
            problems.append("'routines' is not a list")
    return problems


def request_record(
    outcome,
    *,
    trace_id=None,
    request_id=None,
    family=None,
    routines=None,
    features=None,
    timings=None,
    cache_kinds=None,
    shed_reason=None,
    error=None,
    fault=None,
    replica=None,
    seal=True,
):
    """Build (and seal) one ``request`` record.

    ``outcome`` is the exit path (:data:`REQUEST_OUTCOMES`);
    ``routines`` is a list of ``{routine, kind, quality}`` dicts;
    ``features`` the effective wire-safe :class:`ScheduleFeatures`
    knobs; ``timings`` ``{queue_wait, solve, total}`` seconds.
    ``seal=False`` leaves the sealing to :meth:`TelemetryJournal.append`,
    which seals every record it writes, so it is done once.
    """
    record = {
        "v": SCHEMA_VERSION,
        "kind": "request",
        "ts": time.time(),
        "outcome": outcome,
    }
    if trace_id is not None:
        record["trace_id"] = str(trace_id)
    if request_id is not None:
        record["request_id"] = str(request_id)
    if family is not None:
        record["family"] = family
    if routines:
        record["routines"] = list(routines)
    if features:
        record["features"] = dict(features)
    if timings:
        record["timings"] = {
            k: (None if v is None else float(v)) for k, v in timings.items()
        }
    if cache_kinds:
        record["cache_kinds"] = dict(cache_kinds)
    if shed_reason is not None:
        record["shed_reason"] = shed_reason
    if error is not None:
        record["error"] = str(error)
    if fault is not None:
        record["fault"] = str(fault)
    if replica is not None:
        record["replica"] = str(replica)
    return seal_record(record) if seal else record


class TelemetryJournal:
    """Append-only JSONL journal with shard rotation and GC.

    Thread-safe: the fleet daemon's worker threads append concurrently
    under one lock (appends are tiny — a dict dump and a buffered
    write).  ``shard_bytes`` bounds the active shard before rotation;
    ``size_budget`` (bytes, ``None`` = unbounded) makes every rotation
    also GC oldest sealed shards down to the budget.
    """

    def __init__(self, root, *, shard_bytes=4 * 1024 * 1024,
                 size_budget=256 * 1024 * 1024):
        self.root = str(root)
        self.shard_bytes = int(shard_bytes)
        self.size_budget = size_budget
        self.write_errors = 0
        self.appended = 0
        self._lock = threading.Lock()
        self._handle = None
        self._active = None
        self._active_bytes = 0
        self._seq = 0
        os.makedirs(self.root, exist_ok=True)
        os.makedirs(os.path.join(self.root, "quarantine"), exist_ok=True)

    # -- shard management ----------------------------------------------------
    def _shard_name(self):
        self._seq += 1
        return (
            f"{_SHARD_PREFIX}{time.time_ns()}-{os.getpid()}-{self._seq:04d}"
            f"{_SHARD_SUFFIX}"
        )

    def _open_shard(self):
        name = self._shard_name()
        path = os.path.join(self.root, name)
        # "x": a fresh shard must never clobber an existing one — the
        # name carries a nanosecond stamp + pid + sequence, so a
        # collision means something is badly wrong and should surface.
        handle = open(path, "xb")
        self._handle = handle
        self._active = path
        self._active_bytes = 0

    def _seal_active(self):
        """Flush, fsync and close the active shard (it becomes immutable)."""
        handle, self._handle = self._handle, None
        self._active = None
        if handle is None:
            return
        try:
            handle.flush()
            os.fsync(handle.fileno())
        except (OSError, ValueError):
            pass
        finally:
            try:
                handle.close()
            except OSError:
                pass

    # -- public --------------------------------------------------------------
    def append(self, record):
        """Seal and append one record; **never raises**.  Returns ``True`` on
        success, ``False`` when the write failed (counted, and — when
        recording is on — ``journal_write_errors_total`` incremented).
        The ``obs.journal`` fault site fires here."""
        try:
            data = _sealed_line(record)
            with self._lock:
                if faults.fire("obs.journal") is not None:
                    raise OSError("injected journal I/O fault")
                if self._handle is None:
                    self._open_shard()
                self._handle.write(data)
                self._handle.flush()
                self._active_bytes += len(data)
                self.appended += 1
                if self._active_bytes >= self.shard_bytes:
                    self._seal_active()
                    if self.size_budget is not None:
                        self._gc_locked(self.size_budget)
            return True
        except Exception as exc:
            with self._lock:
                self.write_errors += 1
                # A failed handle may be wedged (disk full, closed fd):
                # drop it so the next append starts a fresh shard
                # instead of failing forever.
                try:
                    self._seal_active()
                except Exception:
                    pass
            if obs.ENABLED:
                obs.counter("journal_write_errors_total")
                obs.event("obs.journal_error", error=str(exc))
            return False

    def close(self):
        """Seal the active shard (idempotent)."""
        with self._lock:
            self._seal_active()

    def shards(self):
        """``[(path, size, created_ns)]`` sorted oldest-first."""
        return journal_shards(self.root)

    def size_bytes(self):
        return sum(size for _path, size, _c in self.shards())

    def gc(self, max_bytes=None):
        """Delete sealed shards oldest-first until ≤ ``max_bytes``.

        The active shard is never deleted.  Returns deleted paths.
        """
        if max_bytes is None:
            max_bytes = self.size_budget
        if max_bytes is None:
            return []
        with self._lock:
            return self._gc_locked(max_bytes)

    def _gc_locked(self, max_bytes):
        rows = journal_shards(self.root)
        total = sum(size for _p, size, _c in rows)
        deleted = []
        for path, size, _created in rows:
            if total <= max_bytes:
                break
            if path == self._active:
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            deleted.append(path)
        if deleted and obs.ENABLED:
            obs.counter("journal_shards_evicted_total", len(deleted))
        return deleted

    def verify(self):
        """Re-validate every shard; quarantine mid-file corruption.

        Returns ``(ok_records, bad_lines, quarantined_paths)``.  A bad
        *tail* line is crash litter (a torn final append) and tolerated;
        a bad line anywhere else means the shard was damaged after the
        fact, and the whole shard moves to ``quarantine/`` so rollups
        never read around silent corruption.
        """
        ok = 0
        bad = 0
        quarantined = []
        with self._lock:
            self._seal_active()
            for path, _size, _created in journal_shards(self.root):
                good, bad_positions, total_lines = _scan_shard(path)
                ok += good
                bad += len(bad_positions)
                if any(pos < total_lines - 1 for pos in bad_positions):
                    dest = os.path.join(
                        self.root, "quarantine", os.path.basename(path)
                    )
                    try:
                        os.replace(path, dest)
                        quarantined.append(path)
                    except OSError:
                        pass
        if quarantined and obs.ENABLED:
            obs.counter(
                "journal_shards_quarantined_total", len(quarantined)
            )
        return ok, bad, quarantined


# -- reading ------------------------------------------------------------------
def journal_shards(root):
    """``[(path, size, created_ns)]`` for a journal dir, oldest-first."""
    rows = []
    try:
        names = os.listdir(root)
    except OSError:
        return []
    for name in names:
        if not (name.startswith(_SHARD_PREFIX) and name.endswith(_SHARD_SUFFIX)):
            continue
        path = os.path.join(root, name)
        try:
            size = os.stat(path).st_size
        except OSError:
            continue
        stamp = name[len(_SHARD_PREFIX):-len(_SHARD_SUFFIX)]
        try:
            created = int(stamp.split("-", 1)[0])
        except ValueError:
            created = 0
        rows.append((path, size, created))
    rows.sort(key=lambda row: (row[2], row[0]))
    return rows


def _scan_shard(path):
    """``(good_count, [bad line indexes], total_lines)`` for one shard."""
    good = 0
    bad = []
    total = 0
    try:
        with open(path, "rb") as handle:
            for index, raw in enumerate(handle):
                total = index + 1
                if _parse_line(raw) is None:
                    bad.append(index)
                else:
                    good += 1
    except OSError:
        return 0, [], 0
    return good, bad, total


def _parse_line(raw):
    """A validated record dict from one shard line, else ``None``."""
    line = raw.strip()
    if not line:
        return None
    try:
        record = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict) or not check_record(record):
        return None
    if record.get("v") != SCHEMA_VERSION:
        return None
    return record


def read_records(root, kinds=None):
    """Yield every valid record across a journal dir, oldest shard first.

    Invalid lines (torn tails, corruption) are skipped, never raised on
    and never mutated — quarantine is :meth:`TelemetryJournal.verify`'s
    job.  ``kinds`` (iterable) filters by record kind.
    """
    wanted = None if kinds is None else set(kinds)
    for path, _size, _created in journal_shards(root):
        try:
            with open(path, "rb") as handle:
                for raw in handle:
                    record = _parse_line(raw)
                    if record is None:
                        continue
                    if wanted is not None and record.get("kind") not in wanted:
                        continue
                    yield record
        except OSError:
            continue
