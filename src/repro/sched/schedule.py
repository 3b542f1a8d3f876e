"""The Schedule value type: placed instruction copies per block and cycle."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Placement:
    """One scheduled copy: where an instruction instance sits."""

    instr: object  # Instruction (possibly a compensation copy)
    block: str
    cycle: int  # 1-based within the block

    def __repr__(self):
        return f"Placement({self.instr!r} @ {self.block}[{self.cycle}])"


class Schedule:
    """A global schedule: per block, cycles 1..length with instruction groups.

    The same *original* instruction may appear in several blocks
    (compensation copies); each appearance is a distinct Instruction object
    whose ``origin`` chain leads back to the original. Intra-cycle list
    order is the intra-group (slot) order the bundler must respect.
    """

    def __init__(self, block_order):
        self.block_order = list(block_order)
        self._cycles = {name: {} for name in self.block_order}
        self._lengths = {name: 0 for name in self.block_order}
        # (block, cycle) -> list of (i, j) index pairs: group[i] must stay
        # before group[j] in slot order (zero-latency intra-group deps).
        # The bundler may permute a group within these constraints; a group
        # without an entry is treated as fully ordered (conservative).
        self.order_pairs = {}

    # -- construction ----------------------------------------------------------
    def place(self, instr, block, cycle):
        if block not in self._cycles:
            raise KeyError(f"unknown block {block!r}")
        if cycle < 1:
            raise ValueError(f"cycle must be >= 1, got {cycle}")
        self._cycles[block].setdefault(cycle, []).append(instr)
        self._lengths[block] = max(self._lengths[block], cycle)
        return Placement(instr, block, cycle)

    def set_block_length(self, block, length):
        """Pin a block's length (>= its last occupied cycle)."""
        occupied = max(self._cycles[block], default=0)
        if length < occupied:
            raise ValueError(
                f"length {length} below last occupied cycle {occupied} in {block}"
            )
        self._lengths[block] = length

    def sort_groups(self, key):
        """Re-order instructions within every cycle by ``key`` (slot order)."""
        for cycles in self._cycles.values():
            for group in cycles.values():
                group.sort(key=key)

    # -- queries -----------------------------------------------------------------
    def cycles_of(self, block):
        return self._cycles[block]

    def group(self, block, cycle):
        return self._cycles[block].get(cycle, [])

    def block_length(self, block):
        return self._lengths[block]

    def placements(self):
        for block in self.block_order:
            for cycle in sorted(self._cycles[block]):
                for instr in self._cycles[block][cycle]:
                    yield Placement(instr, block, cycle)

    def instructions_in(self, block):
        for cycle in sorted(self._cycles[block]):
            yield from self._cycles[block][cycle]

    def copies_of(self, original):
        """All placements whose origin chain leads to ``original``."""
        return [
            p for p in self.placements() if p.instr.root_origin is original.root_origin
        ]

    # -- metrics --------------------------------------------------------------------
    @property
    def total_length(self):
        return sum(self._lengths.values())

    def weighted_length(self, fn):
        return sum(
            fn.block(name).freq * self._lengths[name] for name in self.block_order
        )

    @property
    def instruction_count(self):
        """Scheduled instructions, nops excluded."""
        return sum(
            1 for p in self.placements() if not p.instr.is_nop
        )

    def collapsed_blocks(self):
        return [name for name in self.block_order if self._lengths[name] == 0]

    def __repr__(self):
        return (
            f"Schedule(blocks={len(self.block_order)}, "
            f"total_length={self.total_length}, "
            f"instructions={self.instruction_count})"
        )
