"""Functions: the basic-block graph G_B of the paper (Sec. 4)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ParseError


@dataclass(frozen=True)
class Edge:
    """A control-flow edge with an optional traversal probability.

    ``prob`` is the probability of taking this edge out of ``src`` (the
    workload files annotate it; when absent, probabilities are derived from
    destination block frequencies). ``backedge`` marks loop back edges —
    they are excluded from the acyclic scheduling graph but drive the
    cyclic-code-motion extension (paper Sec. 5.2).
    """

    src: str
    dst: str
    prob: float | None = None


@dataclass(eq=False)
class Function:
    """A routine: ordered blocks, control-flow edges, profile data.

    Blocks keep their textual order (which defines fall-through layout).
    Entry blocks are those without predecessors plus the first block;
    exit blocks are those ending in a return or without successors
    (matching B_entry / B_exit of the paper).
    """

    name: str
    blocks: list = field(default_factory=list)
    edges: list = field(default_factory=list)
    live_out: set = field(default_factory=set)
    live_in: set = field(default_factory=set)
    annotations: dict = field(default_factory=dict)

    def __post_init__(self):
        self._by_name = {b.name: b for b in self.blocks}
        if len(self._by_name) != len(self.blocks):
            raise ParseError(f"duplicate block names in function {self.name}")

    # -- construction ---------------------------------------------------------
    def add_block(self, block):
        if block.name in self._by_name:
            raise ParseError(f"duplicate block name {block.name}")
        self.blocks.append(block)
        self._by_name[block.name] = block
        return block

    def add_edge(self, src, dst, prob=None):
        if src not in self._by_name or dst not in self._by_name:
            raise ParseError(f"edge {src}->{dst} references unknown block")
        self.edges.append(Edge(src, dst, prob))

    # -- lookup ----------------------------------------------------------------
    def block(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise ParseError(f"no block named {name!r} in {self.name}") from None

    def __contains__(self, name):
        return name in self._by_name

    def successors(self, name):
        return [e.dst for e in self.edges if e.src == name]

    def predecessors(self, name):
        return [e.src for e in self.edges if e.dst == name]

    def out_edges(self, name):
        return [e for e in self.edges if e.src == name]

    @property
    def entry_blocks(self):
        entries = [b.name for b in self.blocks if not self.predecessors(b.name)]
        first = self.blocks[0].name if self.blocks else None
        if first is not None and first not in entries:
            entries.insert(0, first)
        return entries

    @property
    def exit_blocks(self):
        exits = []
        for block in self.blocks:
            term = block.terminator
            if term is not None and term.op.is_return:
                exits.append(block.name)
            elif not self.successors(block.name):
                exits.append(block.name)
        return exits

    # -- derived data ------------------------------------------------------------
    def all_instructions(self):
        for block in self.blocks:
            yield from block.instructions

    @property
    def instruction_count(self):
        return sum(len(b) for b in self.blocks)

    def edge_probability(self, edge):
        """Probability of ``edge``; derived from frequencies if unannotated."""
        if edge.prob is not None:
            return edge.prob
        out = self.out_edges(edge.src)
        if len(out) == 1:
            return 1.0
        total = sum(self.block(e.dst).freq for e in out)
        if total <= 0:
            return 1.0 / len(out)
        return self.block(edge.dst).freq / total

    def validate(self):
        """Structural sanity checks; raises ParseError on violations."""
        for edge in self.edges:
            if edge.src not in self._by_name or edge.dst not in self._by_name:
                raise ParseError(f"dangling edge {edge.src}->{edge.dst}")
        for block in self.blocks:
            for i, instr in enumerate(block.instructions):
                if instr.is_branch and not instr.is_call and instr.target is not None:
                    if instr.target not in self._by_name:
                        raise ParseError(
                            f"branch in {block.name} targets unknown block "
                            f"{instr.target!r}"
                        )
                if (
                    instr.is_branch
                    and not instr.is_call  # calls return: execution continues
                    and i < len(block.instructions) - 1
                ):
                    follow = block.instructions[i + 1]
                    if not follow.is_branch:
                        raise ParseError(
                            f"non-branch after branch in block {block.name}"
                        )
        if not self.blocks:
            raise ParseError(f"function {self.name} has no blocks")
        return self

    def __repr__(self):
        return (
            f"Function({self.name!r}, blocks={len(self.blocks)}, "
            f"instructions={self.instruction_count})"
        )
