"""Register-pressure estimation for schedules.

Used to quantify the paper's Sec. 5.5 concern ("long-range code motion
increases the register pressure, and the first phase could use more of
it than necessary").

The estimate is per-block and conservative: a register is counted live
at a cycle if it is live into the block (function-level liveness), or
defined at an earlier cycle of the block and still needed (used later in
the block, or live out of it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.liveness import compute_liveness
from repro.ir.registers import RegisterBank


@dataclass
class PressureReport:
    """Peak and per-block register pressure of a schedule."""

    peak: int
    peak_block: str
    per_block: dict = field(default_factory=dict)  # block -> peak in block
    weighted_average: float = 0.0

    def __repr__(self):
        return (
            f"PressureReport(peak={self.peak} in {self.peak_block}, "
            f"weighted_avg={self.weighted_average:.1f})"
        )


def measure_pressure(schedule, fn, bank=RegisterBank.GR, liveness=None):
    """Estimate GR pressure cycle by cycle; returns a PressureReport."""
    liveness = liveness or compute_liveness(fn)
    per_block = {}
    peak, peak_block = 0, ""
    weighted_total, weighted_cycles = 0.0, 0.0

    for block in schedule.block_order:
        length = schedule.block_length(block)
        if length == 0:
            per_block[block] = 0
            continue
        live_in = {
            r for r in liveness.live_in.get(block, ()) if r.bank is bank
        }
        live_out = {
            r for r in liveness.live_out.get(block, ()) if r.bank is bank
        }
        defs_at, last_use_at = {}, {}
        for cycle in range(1, length + 1):
            for instr in schedule.group(block, cycle):
                for src in instr.regs_read():
                    if src.bank is bank:
                        last_use_at[src] = cycle
                for dst in instr.regs_written():
                    if dst.bank is bank and dst not in defs_at:
                        defs_at[dst] = cycle

        block_peak = 0
        freq = fn.block(block).freq
        for cycle in range(1, length + 1):
            live = set(live_in)
            for reg, def_cycle in defs_at.items():
                if def_cycle > cycle:
                    continue
                needed_later = last_use_at.get(reg, 0) > cycle or reg in live_out
                if needed_later:
                    live.add(reg)
            # Live-in values die after their last in-block use unless
            # live-out.
            for reg in list(live):
                if reg in live_in and reg not in live_out:
                    if last_use_at.get(reg, 0) < cycle and reg not in defs_at:
                        live.discard(reg)
            count = len(live)
            block_peak = max(block_peak, count)
            weighted_total += freq * count
            weighted_cycles += freq
        per_block[block] = block_peak
        if block_peak > peak:
            peak, peak_block = block_peak, block

    return PressureReport(
        peak=peak,
        peak_block=peak_block,
        per_block=per_block,
        weighted_average=(
            weighted_total / weighted_cycles if weighted_cycles else 0.0
        ),
    )
