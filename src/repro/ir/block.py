"""Basic blocks."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(eq=False)
class BasicBlock:
    """A straight-line instruction sequence with one entry and one exit.

    ``freq`` is the profile execution frequency used by the objective
    function (7); it is read from the ``freq=`` annotation the workload
    generator (standing in for Intel's ``-prof_use`` output) attaches to
    each block.
    """

    name: str
    instructions: list = field(default_factory=list)
    freq: float = 1.0

    @property
    def terminator(self):
        """The final branch, if the block ends in one."""
        if self.instructions and self.instructions[-1].is_branch:
            return self.instructions[-1]
        return None

    @property
    def branches(self):
        return [i for i in self.instructions if i.is_branch]

    def __iter__(self):
        return iter(self.instructions)

    def __len__(self):
        return len(self.instructions)

    def __repr__(self):
        return f"BasicBlock({self.name}, {len(self.instructions)} instrs, freq={self.freq:g})"

    def __hash__(self):
        return id(self)
