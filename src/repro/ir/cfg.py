"""Control-flow analyses: dominators, postdominators, loops, DAG order.

The scheduler works on the *acyclic* block graph (back edges removed,
paper Sec. 4) and consults dominance to classify code motion as
speculative or not, and the loop forest for cyclic code motion
(Sec. 5.2). Dominators are computed with the iterative
Cooper–Harvey–Kennedy algorithm over reverse postorder; natural loops come
from dominance back edges, with DFS back edges as a fallback so that even
irreducible inputs yield an acyclic forward graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

_VENTRY = "__entry__"
_VEXIT = "__exit__"


@dataclass(eq=False)
class Loop:
    """A natural loop: header, member blocks, and latch (backedge-source) blocks."""

    header: str
    blocks: set
    latches: set
    parent: "Loop | None" = None
    children: list = field(default_factory=list)

    @property
    def depth(self):
        depth, node = 1, self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def __repr__(self):
        return f"Loop(header={self.header}, blocks={sorted(self.blocks)})"


class CfgInfo:
    """All control-flow facts for one function, computed eagerly."""

    def __init__(self, fn):
        self.fn = fn
        self.block_names = [b.name for b in fn.blocks]
        self._succs = {name: [] for name in self.block_names}
        self._preds = {name: [] for name in self.block_names}
        for edge in fn.edges:
            self._succs[edge.src].append(edge.dst)
            self._preds[edge.dst].append(edge.src)

        self.entries = fn.entry_blocks
        self.exits = fn.exit_blocks

        self.idom = self._dominators(forward=True)
        self.ipdom = self._dominators(forward=False)
        self.back_edges = self._find_back_edges()
        self.forward_succs = {
            name: [s for s in self._succs[name] if (name, s) not in self.back_edges]
            for name in self.block_names
        }
        self.forward_preds = {name: [] for name in self.block_names}
        for src, dsts in self.forward_succs.items():
            for dst in dsts:
                self.forward_preds[dst].append(src)
        self.topo_order = self._topological_order()
        self._topo_index = {name: i for i, name in enumerate(self.topo_order)}
        self._reach = self._reachability()
        self.loops = self._build_loops()
        self._loop_by_block = {}
        for loop in sorted(self.loops, key=lambda l: l.depth):
            for block in loop.blocks:
                self._loop_by_block[block] = loop  # deepest loop wins

    # -- adjacency -------------------------------------------------------------
    def succs(self, name):
        return self._succs[name]

    def preds(self, name):
        return self._preds[name]

    # -- dominance ---------------------------------------------------------------
    def dominates(self, a, b):
        """Does block ``a`` dominate block ``b``? (reflexive)"""
        node = b
        while node is not None:
            if node == a:
                return True
            node = self.idom.get(node)
        return False

    def postdominates(self, a, b):
        """Does block ``a`` postdominate block ``b``? (reflexive)"""
        node = b
        while node is not None:
            if node == a:
                return True
            node = self.ipdom.get(node)
        return False

    def control_equivalent(self, a, b):
        """a dominates b and b postdominates a (or vice versa)."""
        return (self.dominates(a, b) and self.postdominates(b, a)) or (
            self.dominates(b, a) and self.postdominates(a, b)
        )

    # -- DAG structure -------------------------------------------------------------
    def reaches(self, a, b):
        """Is there a forward (acyclic) path from ``a`` to ``b``? (irreflexive)"""
        return b in self._reach[a]

    def topo_index(self, name):
        return self._topo_index[name]

    def predecessors_in_dag(self, name):
        return self.forward_preds[name]

    def successors_in_dag(self, name):
        return self.forward_succs[name]

    def dag_paths(self, max_paths):
        """Program paths through the block DAG, as ``(paths, exhaustive)``.

        Each path is a list of block names from an entry to a block with
        no forward successor; a path also ends at every exit block it
        reaches, even one with forward successors. The walk is a
        depth-first stack with a fixed order, so the first ``max_paths``
        paths are the same on every call; ``exhaustive`` is False when the
        cap cut the walk short.
        """
        paths = []
        exhaustive = True
        entries = self.entries or self.block_names[:1]
        exit_set = set(self.exits)
        stack = [(entry, [entry]) for entry in entries]
        while stack:
            node, path = stack.pop()
            succs = self.forward_succs[node]
            if not succs or node in exit_set:
                paths.append(path)
                if len(paths) >= max_paths:
                    exhaustive = False
                    break
                if not succs:
                    continue
            for succ in succs:
                stack.append((succ, path + [succ]))
        return paths, exhaustive

    @property
    def dag_sinks(self):
        """Blocks without forward successors: exits plus loop latches.

        Every acyclic program path ends in one of these; they are the
        predecessors of the pseudo exit block Ω in the scheduling model —
        using only the function's return blocks would let instructions in
        latch blocks escape the assignment constraints entirely.
        """
        return [name for name in self.block_names if not self.forward_succs[name]]

    # -- loops ------------------------------------------------------------------
    def innermost_loop(self, block):
        """Deepest loop containing ``block``, or None."""
        return self._loop_by_block.get(block)

    def loop_with_header(self, header):
        for loop in self.loops:
            if loop.header == header:
                return loop
        return None

    # -- internals -----------------------------------------------------------------
    def _dominators(self, forward):
        """Iterative CHK dominators; returns idom map (roots map to None)."""
        if forward:
            roots = list(self.entries)
            succs = self._succs
            preds_of = dict(self._preds)
        else:
            roots = list(self.exits)
            succs = self._preds
            preds_of = dict(self._succs)
        if not roots:
            roots = [self.block_names[0]] if forward else [self.block_names[-1]]

        virtual = _VENTRY if forward else _VEXIT
        preds_of = {k: list(v) for k, v in preds_of.items()}
        succs = dict(succs)
        succs[virtual] = list(roots)
        for root in roots:
            preds_of.setdefault(root, []).append(virtual)
        preds_of[virtual] = []

        order = self._rpo(virtual, succs)
        index = {name: i for i, name in enumerate(order)}
        idom = {virtual: virtual}
        changed = True
        while changed:
            changed = False
            for node in order[1:]:
                processed = [
                    p for p in preds_of.get(node, []) if p in idom and p in index
                ]
                if not processed:
                    continue
                new = processed[0]
                for other in processed[1:]:
                    new = self._intersect(new, other, idom, index)
                if idom.get(node) != new:
                    idom[node] = new
                    changed = True
        result = {}
        for name in self.block_names:
            dom = idom.get(name)
            result[name] = None if dom in (virtual, None, name) else dom
        return result

    @staticmethod
    def _intersect(a, b, idom, index):
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    @staticmethod
    def _rpo(root, succs):
        seen = {root}
        order = []
        stack = [(root, iter(succs.get(root, [])))]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(succs.get(nxt, []))))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
        order.reverse()
        return order

    def _find_back_edges(self):
        """Edges whose target dominates their source, plus DFS leftovers."""
        back = set()
        for src in self.block_names:
            for dst in self._succs[src]:
                if self.dominates(dst, src):
                    back.add((src, dst))
        # Fallback: break any remaining cycles (irreducible graphs) with DFS.
        color = {}
        for root in self.entries or self.block_names[:1]:
            stack = [(root, iter(self._succs[root]))]
            color[root] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if (node, nxt) in back:
                        continue
                    state = color.get(nxt, 0)
                    if state == 0:
                        color[nxt] = 1
                        stack.append((nxt, iter(self._succs[nxt])))
                        advanced = True
                        break
                    if state == 1:
                        back.add((node, nxt))
                if not advanced:
                    color[node] = 2
                    stack.pop()
        return back

    def _topological_order(self):
        indeg = {name: 0 for name in self.block_names}
        for src, dsts in self.forward_succs.items():
            for dst in dsts:
                indeg[dst] += 1
        ready = [name for name in self.block_names if indeg[name] == 0]
        order = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for nxt in self.forward_succs[node]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        if len(order) != len(self.block_names):
            # Unreachable-from-entry blocks with residual cycles: append as-is.
            rest = [n for n in self.block_names if n not in set(order)]
            order.extend(rest)
        return order

    def _reachability(self):
        """reach[a] = set of blocks reachable from a by >=1 forward edge."""
        reach = {name: set() for name in self.block_names}
        for name in reversed(self.topo_order):
            for succ in self.forward_succs[name]:
                reach[name].add(succ)
                reach[name] |= reach[succ]
        return reach

    def _build_loops(self):
        by_header = {}
        for src, dst in self.back_edges:
            if not self.dominates(dst, src):
                continue  # DFS-fallback pseudo backedge: not a natural loop
            loop = by_header.setdefault(dst, Loop(dst, {dst}, set()))
            loop.latches.add(src)
            # Natural loop body: reverse reachability from the latch, stopping
            # at the header.
            work = [src]
            while work:
                node = work.pop()
                if node in loop.blocks:
                    continue
                loop.blocks.add(node)
                work.extend(self._preds[node])
        loops = list(by_header.values())
        # Nest by strict containment.
        for loop in loops:
            candidates = [
                other
                for other in loops
                if other is not loop and loop.blocks < other.blocks
            ]
            if candidates:
                loop.parent = min(candidates, key=lambda l: len(l.blocks))
                loop.parent.children.append(loop)
        return loops
