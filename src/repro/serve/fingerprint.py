"""Canonical request fingerprints for the schedule cache.

Two requests must share a cache entry exactly when the optimizer would
produce the same schedule for both.  The optimizer's output depends on
the routine's *structure* — opcodes, operands as a dataflow pattern,
memory shape, CFG, profile — but not on which virtual register numbers
the compiler happened to pick, nor on the textual order blocks were
emitted in (the pipeline renames registers and works over the CFG).
The **exact** fingerprint therefore hashes a canonical form that is
invariant under:

* consistent virtual-register renaming (registers are numbered by first
  appearance in a canonical traversal, per bank; the hardwired
  constants ``r0``/``p0`` keep their identity), and
* permutation of the textual block order (blocks are traversed in
  sorted-name order; block *names* are part of CFG identity).

while distinguishing any change that can alter the schedule: a
different opcode, a latency override, an immediate, an alias class, a
block frequency or edge probability, any :class:`ScheduleFeatures`
field, the machine description, and ``CODE_VERSION`` (bumped whenever
the formulation/solver semantics change, which invalidates every
existing entry wholesale without touching the store).

The **family** fingerprint is deliberately coarser: it drops latency
overrides, immediates, and profile numbers, and ignores solver-only
feature knobs (time limits, verification, the decomposition and SWP
budgets).
Requests in one family are *near misses* of each other — close enough
that a cached sibling's achieved block lengths seed the cycle ranges of
a fresh solve (:mod:`repro.serve.service`), but not interchangeable as
answers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.ir.registers import Register

# Bump when the scheduler/formulation changes in a way that can change
# emitted schedules: every cached entry keyed under the old version
# becomes unreachable (and is eventually LRU-evicted).
# serve-3: software-pipelining subsystem (repro.sched.modulo) — new
# ScheduleFeatures knobs and the kind="loop" entries.
# serve-4: the portfolio race and compact length linking were removed,
# dropping four ScheduleFeatures fields from every key.
# serve-5: seven ScheduleFeatures knobs no caller set were removed (the
# rebuild-per-cut path, the alternative phase-2 objectives, the
# speculation cost model, collapse and rollback switches, retry budgets).
# serve-6: HiGHS became the only solver; backend, heuristic_effort,
# predication and freq_cap left ScheduleFeatures.
# serve-7: per-path dependence-chain rows in the phase-1 model, and
# ordering edges between the groups of chained speculated loads.
# serve-8: family requests may be served from a certified sibling
# optimum (repro.sched.certify), and entries carry its record; hinted
# entries of older versions may carry a longer schedule marked optimal.
CODE_VERSION = "serve-8"

# ScheduleFeatures fields that steer the *solver*, not the model: two
# requests differing only here want the same schedule, so they share a
# family (but never an exact key — the solver config can change which
# answer is actually reached, e.g. optimal vs incumbent).
SOLVER_ONLY_FEATURES = frozenset({
    "time_limit",
    "verify",
    # Decomposition partitions the *search*, aiming at the same schedule:
    # family hints (achieved block lengths) transfer across the switch.
    # Exact keys still differ — features_dict(family=False) keeps every
    # field — so decomposed and whole-function answers never alias.
    "decompose",
    "decompose_min_instructions",
    # The SWP ladder budget steers how far the II search gets, not which
    # kernel a given II admits; the structural knobs (swp, swp_max_ii,
    # swp_max_stages) stay in the family key because they change which
    # pipelined loop is even attempted.
    "swp_time_limit",
})


# -- canonical function form --------------------------------------------------
class _RegisterCanon:
    """Bank-local first-appearance numbering of registers.

    Hardwired constants (``r0``, ``p0``) canonicalize to themselves:
    they read as constants, so their identity is architectural, not a
    naming choice.
    """

    def __init__(self):
        self._ids = {}
        self._next = {}  # bank -> next free canonical number

    def __call__(self, register):
        if register is None:
            return None
        if not isinstance(register, Register):
            return str(register)
        if register.is_constant:
            return f"{register.bank.value}const"
        assigned = self._ids.get(register)
        if assigned is None:
            bank = register.bank
            count = self._next.get(bank, 0)
            self._next[bank] = count + 1
            assigned = self._ids[register] = f"{bank.value}#{count}"
        return assigned


def _canonical_instruction(instr, canon):
    mem = None
    if instr.mem is not None:
        mem = [
            canon(instr.mem.base),
            instr.mem.offset,
            instr.mem.alias_class,
            instr.mem.size,
        ]
    return [
        instr.mnemonic,
        [canon(d) for d in instr.dests],
        [canon(s) for s in instr.srcs],
        mem,
        canon(instr.pred),
        instr.target,
        [str(i) for i in instr.imms],
        sorted((str(k), str(v)) for k, v in instr.annotations.items()),
    ]


def canonical_function(fn, coarse=False):
    """Plain-data canonical form of a routine.

    Blocks are visited in sorted-name order (so any textual permutation
    of the same CFG canonicalizes identically) and registers are
    numbered by first appearance within that traversal (so consistent
    renamings canonicalize identically).  With ``coarse=True`` the
    schedule-affecting details that *family* members may differ in are
    dropped (see :func:`_coarsen`).
    """
    canon = _RegisterCanon()
    blocks = []
    for block in sorted(fn.blocks, key=lambda b: b.name):
        instrs = [
            _canonical_instruction(instr, canon)
            for instr in block.instructions
        ]
        edges = sorted(
            (e.dst, None if e.prob is None else round(e.prob, 9))
            for e in fn.out_edges(block.name)
        )
        blocks.append([block.name, round(block.freq, 9), instrs, edges])
    # Live sets: registers already seen in the stream use their canonical
    # ids; stream-absent ones are numbered afterwards in architectural
    # order (deterministic, though not rename-invariant for registers
    # that appear *nowhere* in the code — an acceptable corner).
    live = {
        label: sorted(canon(r) for r in sorted(regs))
        for label, regs in (("in", fn.live_in), ("out", fn.live_out))
    }
    form = {"blocks": blocks, "live": live}
    return _coarsen(form) if coarse else form


def _coarsen(form):
    """The family view of an exact canonical form, as a new structure.

    Drops latency overrides and other annotations, immediate values
    (their count stays), memory offsets, block frequencies and edge
    probabilities.  Register numbering is the exact form's, so both
    request keys come from one traversal (:func:`request_keys`).
    """
    blocks = []
    for name, _freq, instrs, edges in form["blocks"]:
        rows = []
        for row in instrs:
            mem = row[3]
            if mem is not None:
                mem = [mem[0], None, mem[2], mem[3]]
            rows.append(row[:3] + [mem, row[4], row[5], len(row[6]), []])
        blocks.append([name, None, rows, [(dst, None) for dst, _p in edges]])
    return {"blocks": blocks, "live": form["live"]}


# -- feature / machine digests ------------------------------------------------
def features_dict(features, family=False):
    """JSON-able view of a ScheduleFeatures; ``family=True`` drops the
    solver-only knobs (see :data:`SOLVER_ONLY_FEATURES`)."""
    out = {}
    for f in dataclasses.fields(features):
        if family and f.name in SOLVER_ONLY_FEATURES:
            continue
        value = getattr(features, f.name)
        out[f.name] = value if isinstance(
            value, (int, float, str, bool, type(None))
        ) else str(value)
    return out


def machine_dict(machine):
    """JSON-able identity of a machine description.

    Ports and simulator penalties are enumerated field-by-field; the
    shared opcode/template tables are code, covered by CODE_VERSION.
    """
    ports = {
        f.name: getattr(machine.ports, f.name)
        for f in dataclasses.fields(machine.ports)
    }
    out = {
        f.name: getattr(machine, f.name)
        for f in dataclasses.fields(machine)
        if isinstance(getattr(machine, f.name), (int, float, str, bool))
    }
    out["name"] = machine.name
    out["ports"] = ports
    out["templates"] = len(machine.templates)
    return out


def _request_digest(form, features_view, machine):
    payload = {
        "code": CODE_VERSION,
        "fn": form,
        "features": features_view,
        "machine": machine_dict(machine),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def fingerprint(fn, features, machine):
    """Exact cache key: hex sha256 over the full canonical request."""
    return _request_digest(
        canonical_function(fn), features_dict(features), machine
    )


def family_fingerprint(fn, features, machine):
    """Coarse near-miss key: structure + model-shaping features only."""
    return _request_digest(
        canonical_function(fn, coarse=True),
        features_dict(features, family=True),
        machine,
    )


def request_keys(fn, features, machine):
    """``(fingerprint, family_fingerprint)`` of one request, byte-identical
    to the two separate calls but from a single canonical traversal."""
    form = canonical_function(fn)
    return (
        _request_digest(form, features_dict(features), machine),
        _request_digest(
            _coarsen(form), features_dict(features, family=True), machine
        ),
    )
