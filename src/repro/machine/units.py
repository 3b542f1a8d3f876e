"""Execution-unit kinds and Itanium 2 port counts.

IA-64 instructions are typed by the functional-unit class they need:

* ``M`` — memory (loads, stores, some moves, ``chk``),
* ``I`` — integer/shift/multimedia,
* ``F`` — floating point,
* ``B`` — branch,
* ``A`` — "ALU" instructions encodable as either M or I (add, logical,
  compare, ...); the dispersal hardware routes them to whichever M or I
  port is free,
* ``L`` — long-immediate (``movl``), occupying the L+X slot pair of an
  MLX bundle (counted as two issue slots).

The Itanium 2 (McKinley) can disperse two bundles — six instructions — per
cycle to 4 M ports, 2 I ports, 2 F ports and 3 B ports [Intel, 2002; paper
Sec. 1 and 4.2].
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class UnitKind(enum.Enum):
    """Functional-unit class required by an instruction."""

    M = "M"
    I = "I"  # noqa: E741 - the architectural name
    F = "F"
    B = "B"
    A = "A"  # ALU: dispersable to M or I
    L = "L"  # movl: L+X slot pair


@dataclass(frozen=True)
class Itanium2Ports:
    """Issue-port inventory of one Itanium 2 core."""

    issue_width: int = 6
    bundles_per_cycle: int = 2
    m_ports: int = 4
    i_ports: int = 2
    f_ports: int = 2
    b_ports: int = 3

    def feasible(self, counts):
        """Dispersal feasibility of one cycle's instruction group.

        ``counts`` maps :class:`UnitKind` to the number of instructions of
        that kind issued this cycle. A-type instructions may use any M or I
        port; L-type occupies two issue slots and one I port (the X slot is
        executed by the I unit on Itanium 2).
        """
        m_only = counts.get(UnitKind.M, 0)
        i_only = counts.get(UnitKind.I, 0)
        f_cnt = counts.get(UnitKind.F, 0)
        b_cnt = counts.get(UnitKind.B, 0)
        a_cnt = counts.get(UnitKind.A, 0)
        l_cnt = counts.get(UnitKind.L, 0)
        slots = m_only + i_only + f_cnt + b_cnt + a_cnt + 2 * l_cnt
        if slots > self.issue_width:
            return False
        if m_only > self.m_ports:
            return False
        if i_only + l_cnt > self.i_ports:
            return False
        if f_cnt > self.f_ports:
            return False
        if b_cnt > self.b_ports:
            return False
        # A-type overflow into the remaining M/I ports.
        spare = (self.m_ports - m_only) + (self.i_ports - i_only - l_cnt)
        return a_cnt <= spare
