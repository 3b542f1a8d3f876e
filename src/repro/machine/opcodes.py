"""The IA-64 instruction subset known to the tools.

Mnemonics follow the IA-64 assembly syntax used by the paper's examples
(``ld8``, ``ld8.s``, ``chk.s``, ``cmp.eq``, ``br.cond`` ...). Completers
that do not change scheduling behaviour (``.eq``/``.lt``/... on ``cmp``,
size suffixes beyond the base family) are folded onto one table entry by
:func:`lookup_opcode`.

Latencies are *scheduling* latencies on Itanium 2 in cycles between a
producer's issue and the earliest dependent issue. They come from the
Itanium 2 (McKinley) micro-architecture documentation the paper cites
[15]; the two special cases the dependence builder knows about are

* ``cmp``/``tbit`` feeding a branch: 0 cycles (compare and dependent
  branch may share an instruction group),
* stores: latency applies to memory ordering edges, not register results.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MachineError
from repro.machine.units import UnitKind


@dataclass(frozen=True)
class OpcodeInfo:
    """Static properties of one opcode family."""

    name: str
    unit: UnitKind
    latency: int = 1
    is_load: bool = False
    is_store: bool = False
    is_branch: bool = False
    is_call: bool = False
    is_return: bool = False
    is_compare: bool = False  # writes predicate registers
    is_spec_load: bool = False  # ld.s  (control speculative)
    is_adv_load: bool = False  # ld.a  (data speculative)
    is_check: bool = False  # chk.s / chk.a
    is_nop: bool = False
    may_trap: bool = False  # can raise an exception if executed
    multiply_executable: bool = True  # safe to re-execute with same operands

    @property
    def touches_memory(self):
        return self.is_load or self.is_store


def _op(name, unit, latency=1, **flags):
    return name, OpcodeInfo(name=name, unit=unit, latency=latency, **flags)


_LOAD = dict(is_load=True, may_trap=True, multiply_executable=True)
_STORE = dict(is_store=True, may_trap=True)

OPCODES = dict(
    [
        # --- A-type ALU (disperse to M or I), 1-cycle -----------------------
        _op("add", UnitKind.A),
        _op("adds", UnitKind.A),
        _op("addl", UnitKind.A),
        _op("sub", UnitKind.A),
        _op("and", UnitKind.A),
        _op("andcm", UnitKind.A),
        _op("or", UnitKind.A),
        _op("xor", UnitKind.A),
        _op("shladd", UnitKind.A),
        _op("mov", UnitKind.A),  # register move / move immediate
        _op("cmp", UnitKind.A, is_compare=True),
        _op("cmp4", UnitKind.A, is_compare=True),
        # --- M-type memory --------------------------------------------------
        _op("ld1", UnitKind.M, latency=2, **_LOAD),
        _op("ld2", UnitKind.M, latency=2, **_LOAD),
        _op("ld4", UnitKind.M, latency=2, **_LOAD),
        _op("ld8", UnitKind.M, latency=2, **_LOAD),
        _op("ld1.s", UnitKind.M, latency=2, is_load=True, is_spec_load=True),
        _op("ld2.s", UnitKind.M, latency=2, is_load=True, is_spec_load=True),
        _op("ld4.s", UnitKind.M, latency=2, is_load=True, is_spec_load=True),
        _op("ld8.s", UnitKind.M, latency=2, is_load=True, is_spec_load=True),
        _op("ld1.a", UnitKind.M, latency=2, is_load=True, is_adv_load=True),
        _op("ld2.a", UnitKind.M, latency=2, is_load=True, is_adv_load=True),
        _op("ld4.a", UnitKind.M, latency=2, is_load=True, is_adv_load=True),
        _op("ld8.a", UnitKind.M, latency=2, is_load=True, is_adv_load=True),
        _op("st1", UnitKind.M, latency=0, **_STORE),
        _op("st2", UnitKind.M, latency=0, **_STORE),
        _op("st4", UnitKind.M, latency=0, **_STORE),
        _op("st8", UnitKind.M, latency=0, **_STORE),
        _op("chk.s", UnitKind.M, latency=0, is_check=True, may_trap=True),
        _op("chk.a", UnitKind.M, latency=0, is_check=True, may_trap=True),
        _op("lfetch", UnitKind.M, latency=0),
        _op("setf", UnitKind.M, latency=5),
        _op("getf", UnitKind.M, latency=5),
        # --- I-type integer/shift --------------------------------------------
        _op("shl", UnitKind.I),
        _op("shr", UnitKind.I),
        _op("shr.u", UnitKind.I),
        _op("extr", UnitKind.I),
        _op("extr.u", UnitKind.I),
        _op("dep", UnitKind.I),
        _op("dep.z", UnitKind.I),
        _op("zxt1", UnitKind.I),
        _op("zxt2", UnitKind.I),
        _op("zxt4", UnitKind.I),
        _op("sxt1", UnitKind.I),
        _op("sxt2", UnitKind.I),
        _op("sxt4", UnitKind.I),
        _op("tbit", UnitKind.I, is_compare=True),
        _op("popcnt", UnitKind.I, latency=2),
        _op("mux1", UnitKind.I),
        _op("mux2", UnitKind.I),
        # --- F-type floating point -------------------------------------------
        _op("fma", UnitKind.F, latency=4),
        _op("fnma", UnitKind.F, latency=4),
        _op("fmpy", UnitKind.F, latency=4),
        _op("fadd", UnitKind.F, latency=4),
        _op("fsub", UnitKind.F, latency=4),
        _op("fcmp", UnitKind.F, latency=2, is_compare=True),
        _op("fcvt.fx", UnitKind.F, latency=4),
        _op("fcvt.xf", UnitKind.F, latency=4),
        _op("ldf", UnitKind.M, latency=6, **_LOAD),  # fp loads bypass L1D
        _op("stf", UnitKind.M, latency=0, **_STORE),
        # --- B-type branches --------------------------------------------------
        _op("br", UnitKind.B, latency=0, is_branch=True, multiply_executable=False),
        _op(
            "br.cond",
            UnitKind.B,
            latency=0,
            is_branch=True,
            multiply_executable=False,
        ),
        _op(
            "br.call",
            UnitKind.B,
            latency=0,
            is_branch=True,
            is_call=True,
            may_trap=True,
            multiply_executable=False,
        ),
        _op(
            "br.ret",
            UnitKind.B,
            latency=0,
            is_branch=True,
            is_return=True,
            multiply_executable=False,
        ),
        # --- long immediate ----------------------------------------------------
        _op("movl", UnitKind.L),
        # --- nops (bundler fillers) ---------------------------------------------
        _op("nop.m", UnitKind.M, latency=0, is_nop=True),
        _op("nop.i", UnitKind.I, latency=0, is_nop=True),
        _op("nop.f", UnitKind.F, latency=0, is_nop=True),
        _op("nop.b", UnitKind.B, latency=0, is_nop=True),
    ]
)

# Completers that may be appended to a family mnemonic without changing the
# scheduling model (condition codes, hints, orderings).
_STRIPPABLE_FAMILIES = (
    "cmp4",
    "cmp",
    "fcmp",
    "tbit",
    "br.call",
    "br.ret",
    "br.cond",
    "br",
    "ld8.s",
    "ld4.s",
    "ld2.s",
    "ld1.s",
    "ld8.a",
    "ld4.a",
    "ld2.a",
    "ld1.a",
    "ld8",
    "ld4",
    "ld2",
    "ld1",
    "ldf",
    "st8",
    "st4",
    "st2",
    "st1",
    "stf",
    "chk.s",
    "chk.a",
    "shr.u",
    "shr",
    "fcvt.fx",
    "fcvt.xf",
    "setf",
    "getf",
    "mov",
)


def lookup_opcode(mnemonic):
    """Resolve a full mnemonic (with completers) to its :class:`OpcodeInfo`.

    ``cmp.eq.unc`` → ``cmp``; ``br.cond.dptk.few`` → ``br.cond``;
    ``ld8.s`` stays its own entry because speculation changes scheduling.
    Raises :class:`~repro.errors.MachineError` for unknown mnemonics.
    """
    info = OPCODES.get(mnemonic)
    if info is not None:
        return info
    for family in _STRIPPABLE_FAMILIES:
        if mnemonic == family or mnemonic.startswith(family + "."):
            return OPCODES[family]
    raise MachineError(f"unknown opcode: {mnemonic!r}")
