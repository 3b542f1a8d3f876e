"""Crash-safe on-disk content-addressed store for solved schedules.

Layout under the store root::

    objects/ab/cd/abcdef....entry     one cache entry per exact key
    families/ab/abcdef....json        family key -> member exact keys
    tmp/                              staging area for atomic writes
    locks/                            advisory fcntl locks (gc, family
                                      index) for multi-replica sharing

An entry file is a one-line JSON **header** followed by an opaque binary
payload (the pickled :class:`~repro.sched.scheduler.OptimizeResult`).
The header carries a magic string, the store format version, the code
version the entry was produced under, the payload's sha256 and length,
and serving metadata (routine name, quality tier, achieved block
lengths for family warm starts, solve cost).

Durability and integrity rules:

* **Atomic writes** — entries and family indexes are staged in
  ``tmp/`` and published with ``os.replace``; a crash mid-write leaves
  at worst a stale temp file (swept by :meth:`ScheduleStore.gc`),
  never a truncated entry.
* **Verified reads** — every load re-checks magic, store version, code
  version and the payload checksum.  Anything that fails — including a
  short read from a torn write or bit rot — is *quarantined* (the file
  is removed, ``cache_corrupt_entries_total`` counted) and reported as
  a miss, so corruption can never propagate a wrong schedule; the
  service re-solves cold.
* **LRU eviction** — entry files' mtime is touched on every hit;
  :meth:`gc` (and the post-``put`` budget check) drops the
  least-recently-used entries until the store fits ``size_budget``.

An in-process LRU fronts the disk so a hot serving loop touches the
filesystem only for misses and periodic mtime bumps.  Each resident
entry holds the header, the payload bytes and — once a caller asks
through :meth:`ScheduleStore.decoded` and :meth:`ScheduleStore.rendered`
— the decoded payload and its rendered reply text, so a hot entry is
unpickled and emitted at most once per process.  Both live and die with
the bytes: ``put``, quarantine, :meth:`drop_mem` and LRU eviction drop
all three.  The ``serve.store_io`` and ``serve.corrupt_entry``
fault sites (:mod:`repro.tools.faults`) let the chaos harness inject
I/O failures and checksum-breaking corruption on this exact path.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager

try:  # POSIX advisory locking; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.obs import core as obs
from repro.tools import faults

ENTRY_MAGIC = "tia-schedule-cache"
STORE_VERSION = 1
_ENTRY_SUFFIX = ".entry"


class CorruptEntryError(Exception):
    """An entry failed magic/version/checksum validation on load."""


def _payload_sha(payload):
    return hashlib.sha256(payload).hexdigest()


class _Resident:
    """One in-process front entry: the validated header and payload
    bytes, plus the payload decoded and its reply text rendered on
    first request (``None`` until then)."""

    __slots__ = ("header", "payload", "decoded", "rendered")

    def __init__(self, header, payload):
        self.header = header
        self.payload = payload
        self.decoded = None
        self.rendered = None


class ScheduleStore:
    """Content-addressed schedule store with an in-process LRU front.

    ``size_budget`` (bytes, ``None`` = unbounded) triggers LRU eviction
    after writes; ``mem_entries`` bounds the in-process front, and with
    it the decoded payloads and rendered texts kept there.  All mutating operations are
    safe under concurrent use from multiple processes sharing the
    directory (N daemon replicas on one cache):
    entry writes are atomic renames, and the read-modify-write
    operations — gc/LRU eviction and family-index compaction — are
    serialized by advisory ``fcntl`` locks under ``locks/``.
    """

    def __init__(self, root, size_budget=None, mem_entries=64):
        self.root = str(root)
        self.size_budget = size_budget
        self.mem_entries = mem_entries
        self._mem = OrderedDict()  # key -> _Resident
        # Worker threads share the front: LRU reordering and eviction are
        # check-then-act sequences on the OrderedDict.
        self._mem_lock = threading.Lock()
        for sub in ("objects", "families", "tmp", "locks"):
            os.makedirs(os.path.join(self.root, sub), exist_ok=True)

    # -- cross-process advisory locking --------------------------------------
    @contextmanager
    def _locked(self, name):
        """Exclusive advisory ``flock`` on ``locks/<name>.lock``.

        N daemon replicas share one cache directory: entry *writes*
        are already safe (atomic rename), but read-modify-write
        operations — LRU eviction / gc and family-index compaction —
        would race between processes (double-unlink accounting, lost
        index appends).  The lock serializes exactly those.  Lock
        files are tiny and never deleted, so there is no unlink race
        on the lock itself.  On platforms without ``fcntl`` this is a
        no-op: single-replica behaviour is unchanged, and the races it
        guards are cross-process only.
        """
        if fcntl is None:
            yield
            return
        path = os.path.join(self.root, "locks", name + ".lock")
        with open(path, "a+b") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    # -- paths ---------------------------------------------------------------
    def _entry_path(self, key):
        return os.path.join(
            self.root, "objects", key[:2], key[2:4], key + _ENTRY_SUFFIX
        )

    def _family_path(self, family):
        return os.path.join(self.root, "families", family[:2], family + ".json")

    def _tmp_path(self, name):
        return os.path.join(
            self.root, "tmp", f"{name}.{os.getpid()}.{time.monotonic_ns()}"
        )

    # -- writes --------------------------------------------------------------
    def put(self, key, family, payload, meta=None):
        """Publish ``payload`` under ``key``; returns the header dict.

        ``meta`` is extra JSON-able serving metadata folded into the
        header (code_version, routine, quality, solve_seconds,
        time_limit, family_record).  An
        injected ``serve.store_io`` fault (or a real I/O error) raises
        ``OSError`` — callers treat a failed put as a skipped cache
        fill, never as a request failure.
        """
        if faults.fire("serve.store_io") is not None:
            raise OSError("injected store I/O fault (put)")
        header = {
            "magic": ENTRY_MAGIC,
            "version": STORE_VERSION,
            "key": key,
            "family": family,
            "payload_sha256": _payload_sha(payload),
            "payload_len": len(payload),
            "created": time.time(),
        }
        header.update(meta or {})
        path = self._entry_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = self._tmp_path(key[:16])
        with open(tmp, "wb") as handle:
            handle.write(json.dumps(header, sort_keys=True).encode("utf-8"))
            handle.write(b"\n")
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        if family:
            self._index_family(family, key)
        self._mem_put(key, header, payload)
        if obs.ENABLED:
            obs.counter("cache_store_writes_total")
        if self.size_budget is not None:
            self.gc(self.size_budget)
        return header

    def _index_family(self, family, key):
        """Append ``key`` to the family index (atomic rewrite).

        The read-modify-write is serialized across processes by an
        advisory lock: two replicas indexing siblings concurrently
        must not lose each other's append (a lost append only costs a
        warm-start opportunity, but with N daemons on one directory it
        would be a *steady* leak, not a rare blip).
        """
        path = self._family_path(family)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with self._locked("family-" + family[:16]):
            keys = self.family_members(family)
            if key in keys:
                return
            keys.append(key)
            tmp = self._tmp_path("fam-" + family[:16])
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump({"keys": keys}, handle)
            os.replace(tmp, path)

    # -- reads ---------------------------------------------------------------
    def get(self, key, touch=True):
        """``(header, payload)`` for ``key``, or ``None`` on miss.

        Corrupt or version-mismatched entries are quarantined and
        reported as misses.  I/O faults propagate as ``OSError`` for the
        service to degrade on.
        """
        resident = self._mem_get(key)
        if resident is not None:
            if touch:
                try:
                    os.utime(self._entry_path(key))
                except OSError:
                    pass
            return resident.header, resident.payload
        path = self._entry_path(key)
        if faults.fire("serve.store_io") is not None:
            raise OSError("injected store I/O fault (get)")
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return None
        try:
            header, payload = self._validate(key, raw)
        except CorruptEntryError as exc:
            self._quarantine(key, path, str(exc))
            return None
        if touch:
            try:
                os.utime(path)
            except OSError:
                pass
        self._mem_put(key, header, payload)
        return header, payload

    def decoded(self, key, payload, decode):
        """``decode(payload)``, computed at most once per resident entry.

        ``payload`` must be the bytes :meth:`get` just returned for
        ``key``.  While those exact bytes are still resident in the
        in-process front, the decoded object is kept beside them and
        handed to every later caller — so it is shared and must be
        treated as read-only.  Once the bytes are replaced or dropped
        (``put``, quarantine, :meth:`drop_mem`, eviction) the next call
        decodes afresh.  Exceptions from ``decode`` propagate and cache
        nothing.
        """
        resident = self._mem.get(key)
        if resident is None or resident.payload is not payload:
            return decode(payload)
        if resident.decoded is None:
            resident.decoded = decode(payload)
        return resident.decoded

    def rendered(self, key, decoded, render):
        """``render(decoded)``, computed at most once per decoded object.

        ``decoded`` must be what :meth:`decoded` returned for ``key``.
        While it is still the resident entry's decoded object, the text
        is kept beside it, so it is dropped whenever the decoded object
        is.  Any other object (a fresh solve, an entry no longer
        resident) is rendered afresh and nothing is kept.
        """
        resident = self._mem.get(key)
        if resident is None or resident.decoded is not decoded:
            return render(decoded)
        if resident.rendered is None:
            resident.rendered = render(decoded)
        return resident.rendered

    def _validate(self, key, raw):
        newline = raw.find(b"\n")
        if newline < 0:
            raise CorruptEntryError("no header line")
        try:
            header = json.loads(raw[:newline].decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise CorruptEntryError(f"unparsable header: {exc}") from None
        payload = raw[newline + 1:]
        if faults.fire("serve.corrupt_entry") is not None and payload:
            # Injected bit rot: flip the first payload byte so the
            # checksum check below must catch it.
            payload = bytes([payload[0] ^ 0xFF]) + payload[1:]
        if header.get("magic") != ENTRY_MAGIC:
            raise CorruptEntryError("bad magic")
        if header.get("version") != STORE_VERSION:
            raise CorruptEntryError(
                f"store version {header.get('version')!r} != {STORE_VERSION}"
            )
        if header.get("key") not in (None, key):
            raise CorruptEntryError("key mismatch (misplaced entry)")
        if len(payload) != header.get("payload_len"):
            raise CorruptEntryError(
                f"payload length {len(payload)} != header "
                f"{header.get('payload_len')}"
            )
        if _payload_sha(payload) != header.get("payload_sha256"):
            raise CorruptEntryError("payload checksum mismatch")
        return header, payload

    def _quarantine(self, key, path, problem):
        with self._mem_lock:
            self._mem.pop(key, None)
        try:
            os.unlink(path)
        except OSError:
            pass
        if obs.ENABLED:
            obs.counter("cache_corrupt_entries_total")
            obs.event("serve.corrupt_entry", key=key, problem=problem)

    def load_header(self, key):
        """Header dict only (no payload checksum walk); ``None`` on miss
        or any validation failure.  Used for family sibling records,
        where a bad sibling simply means no record."""
        resident = self._mem.get(key)
        if resident is not None:
            return resident.header
        path = self._entry_path(key)
        try:
            with open(path, "rb") as handle:
                line = handle.readline()
            header = json.loads(line.decode("utf-8"))
        except (OSError, ValueError, UnicodeDecodeError):
            return None
        if (
            header.get("magic") != ENTRY_MAGIC
            or header.get("version") != STORE_VERSION
        ):
            return None
        return header

    def family_members(self, family):
        """Exact keys indexed under ``family`` (existing entries only)."""
        try:
            with open(self._family_path(family), encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, ValueError):
            return []
        keys = [k for k in doc.get("keys", []) if isinstance(k, str)]
        return [k for k in keys if os.path.exists(self._entry_path(k))]

    def __contains__(self, key):
        return key in self._mem or os.path.exists(self._entry_path(key))

    # -- in-process LRU ------------------------------------------------------
    def _mem_get(self, key):
        with self._mem_lock:
            resident = self._mem.get(key)
            if resident is not None:
                self._mem.move_to_end(key)
            return resident

    def _mem_put(self, key, header, payload):
        with self._mem_lock:
            self._mem[key] = _Resident(header, payload)
            self._mem.move_to_end(key)
            while len(self._mem) > self.mem_entries:
                self._mem.popitem(last=False)

    def drop_mem(self):
        """Forget the in-process front (tests; cross-process refresh)."""
        with self._mem_lock:
            self._mem.clear()

    # -- maintenance ---------------------------------------------------------
    def entries(self):
        """``[(key, path, size, mtime)]`` for every entry on disk."""
        out = []
        objects = os.path.join(self.root, "objects")
        for dirpath, _dirnames, filenames in os.walk(objects):
            for name in filenames:
                if not name.endswith(_ENTRY_SUFFIX):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                out.append(
                    (name[: -len(_ENTRY_SUFFIX)], path,
                     stat.st_size, stat.st_mtime)
                )
        return out

    def stats(self):
        """``{"entries", "bytes", "families"}`` for dashboards/CLIs."""
        rows = self.entries()
        families = 0
        fam_root = os.path.join(self.root, "families")
        for _dirpath, _dirnames, filenames in os.walk(fam_root):
            families += sum(1 for n in filenames if n.endswith(".json"))
        return {
            "entries": len(rows),
            "bytes": sum(size for _k, _p, size, _m in rows),
            "families": families,
        }

    def gc(self, max_bytes):
        """Evict least-recently-used entries until ≤ ``max_bytes``.

        Also sweeps stale temp files older than an hour (crash litter).
        Returns the list of evicted keys.  The whole sweep runs under
        the cross-process ``gc`` lock so N replicas sharing the
        directory do not scan + unlink the same victim set concurrently
        (each would charge the same bytes and over-evict far below the
        budget).
        """
        with self._locked("gc"):
            tmp_root = os.path.join(self.root, "tmp")
            horizon = time.time() - 3600.0
            for name in os.listdir(tmp_root):
                path = os.path.join(tmp_root, name)
                try:
                    if os.stat(path).st_mtime < horizon:
                        os.unlink(path)
                except OSError:
                    pass
            rows = sorted(self.entries(), key=lambda r: r[3])  # oldest first
            total = sum(size for _k, _p, size, _m in rows)
            evicted = []
            for key, path, size, _mtime in rows:
                if total <= max_bytes:
                    break
                try:
                    os.unlink(path)
                except OSError:
                    continue
                total -= size
                evicted.append(key)
                with self._mem_lock:
                    self._mem.pop(key, None)
        if evicted and obs.ENABLED:
            obs.counter("cache_evictions_total", len(evicted))
        if obs.ENABLED:
            obs.gauge("cache_size_bytes", float(total))
        return evicted

    def verify_all(self):
        """Re-validate every entry; quarantine failures.

        Returns ``(ok_count, dropped_keys)`` — the ``tia-cache verify``
        subcommand and the CI serve-smoke job run this after chaos.
        """
        ok = 0
        dropped = []
        for key, path, _size, _mtime in self.entries():
            try:
                with open(path, "rb") as handle:
                    raw = handle.read()
                self._validate(key, raw)
            except CorruptEntryError as exc:
                self._quarantine(key, path, str(exc))
                dropped.append(key)
            except OSError:
                continue
            else:
                ok += 1
        return ok, dropped
