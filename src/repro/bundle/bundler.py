"""Dynamic-programming bundler for Itanium 2.

Definitions:

* a *group* is one cycle's instructions in their required slot order
  (the scheduler emits a topological order of the intra-group
  dependences; the bundler preserves it, which is always sufficient);
* a *state* between groups is either ``CLOSED`` (next group starts a new
  bundle) or an open mid-stop bundle: ``("MMI", 1)`` after an ``M;MI``
  stop, ``("MII", 2)`` after an ``MI;I`` stop — the next group continues
  in the same bundle at the given slot;
* a group may span at most two bundles (the dispersal window is two
  bundles wide; spanning three would split the cycle).

Feasibility of placing an ordered unit sequence into a slot sequence is
checked greedily (earliest compatible slot), which is exact for
order-preserving matching when every slot may alternatively hold a nop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.errors import BundlingError
from repro.machine.templates import TEMPLATES_BY_NAME, nop_for_slot, slot_accepts
from repro.machine.units import UnitKind

CLOSED = "closed"

# Mid-stop resume states: template name -> resume slot index.
_MID_STOP_STATES = (("MMI", 1), ("MII", 2))

_TEMPLATE_NAMES = ("MII", "MLX", "MMI", "MFI", "MMF", "MIB", "MBB", "BBB", "MMB", "MFB")


@dataclass
class Bundle:
    """One 128-bit bundle: template, three slot entries, stop marker.

    ``slots`` holds Instruction objects or nop mnemonics (strings);
    ``stop_after`` is the slot index after which the ``;;`` falls, or
    None when the group continues into the next bundle.
    """

    template: str
    slots: list
    stop_after: int | None
    mid_stop: int | None = None  # internal ;; when two groups share the bundle

    @property
    def nop_count(self):
        return sum(1 for s in self.slots if isinstance(s, str))

    def __repr__(self):
        names = [
            s if isinstance(s, str) else s.mnemonic for s in self.slots
        ]
        stop = f";;@{self.stop_after}" if self.stop_after is not None else ""
        return f"Bundle({self.template}: {', '.join(names)}{stop})"


@dataclass
class BundleResult:
    """Bundles per block plus the counters Table 1 reports."""

    bundles: dict = field(default_factory=dict)  # block -> list[Bundle]

    @property
    def total_bundles(self):
        return sum(len(v) for v in self.bundles.values())

    @property
    def total_nops(self):
        return sum(b.nop_count for v in self.bundles.values() for b in v)

    def bundles_of(self, block):
        return self.bundles.get(block, [])


def _unit_signature(group):
    return tuple(i.unit for i in group)


# Slot type -> the unit kinds it accepts (slot_accepts, precomputed).
_ACCEPTS = {
    slot_type: frozenset(u for u in UnitKind if slot_accepts(slot_type, u))
    for slot_type in ("M", "I", "F", "B", "L")
}


def _fill_order(template, first=0):
    """Fillable slots from ``first`` on as (slot index, accepted kinds);
    X halves are skipped (a movl in the preceding L slot consumes them)."""
    return tuple(
        (slot, _ACCEPTS[slot_type])
        for slot, slot_type in enumerate(template.slots)
        if slot >= first and slot_type != "X"
    )


_TEMPLATE_SLOTS = tuple(
    (name, _fill_order(TEMPLATES_BY_NAME[name])) for name in _TEMPLATE_NAMES
)
_RESUME_SLOTS = {
    (name, resume): _fill_order(TEMPLATES_BY_NAME[name], resume)
    for name, resume in _MID_STOP_STATES
}
_MID_STOP = dict(_MID_STOP_STATES)  # template name -> resume slot


def _greedy(units, start, slots):
    """Greedy order-preserving placement of ``units[start:]`` into slots.

    Returns the ``(slot_index, unit_position)`` pairs; slots not listed
    become nops. Every prefix of the greedy placement is itself feasible;
    the maximal one dominates, but shorter prefixes matter when the
    remainder flows into a second bundle.
    """
    placements = []
    position = start
    count = len(units)
    for slot, accepts in slots:
        if position < count and units[position] in accepts:
            placements.append((slot, position))
            position += 1
    return placements


def _with_mid_stop(name, assignment):
    """``(out_state, stop_slot)`` when template ``name`` may take a mid
    stop after ``assignment`` (which then ends at or before that stop),
    else None."""
    resume = _MID_STOP.get(name)
    if resume is None:
        return None
    stop_at = resume - 1
    if any(slot > stop_at for slot, _pos in assignment):
        return None
    return (name, resume), stop_at


def _closing_fills(units, start):
    """Single-bundle fills that place all of ``units[start:]``."""
    fills = []
    for name, slots in _TEMPLATE_SLOTS:
        placements = _greedy(units, start, slots)
        if start + len(placements) == len(units):
            fills.append((name, tuple(placements)))
    return fills


@lru_cache(maxsize=100000)
def _packings_for(units, state):
    """All ways to pack an ordered unit tuple starting from ``state``.

    Returns a tuple of ``(bundles_used, out_state, layout)`` where
    ``layout`` is a tuple of per-bundle slot assignments: each entry is
    ``(template_name, start_slot, ((slot_index, unit_position), ...),
    stop_after)``. ``bundles_used`` counts *newly opened* bundles (a
    continued open bundle costs 0 — it was counted by the group that
    opened it).
    """
    count = len(units)
    options = []
    if state == CLOSED:
        heads = [(0, ())]
    else:
        # The continuation bundle always ends with a stop at its end: the
        # next group may not resume inside it (it would be a third group
        # in one bundle boundary chain, which the state machine forbids).
        name, resume = state
        placements = _greedy(units, 0, _RESUME_SLOTS[state])
        heads = [
            (cut, ((name, resume, tuple(placements[:cut]), 2),))
            for cut in range(len(placements) + 1)
        ]

    closing = {}  # start position -> _closing_fills(units, start)
    for consumed0, layout0 in heads:
        if consumed0 == count:
            # Done inside the open bundle (or an empty group: no encoding).
            options.append((0, CLOSED, layout0))
            continue
        spans_two = bool(layout0)
        # A continuation bundle that does not finish the group has no end
        # stop — the group flows into the next bundle.
        layout_open = tuple((t, s, a, None) for t, s, a, _stop in layout0)
        for name1, slots1 in _TEMPLATE_SLOTS:
            placements = _greedy(units, consumed0, slots1)
            for cut in range(len(placements) + 1):
                assign1 = tuple(placements[:cut])
                total1 = consumed0 + cut
                if total1 == count:
                    # Close with an end stop...
                    options.append(
                        (1, CLOSED, layout_open + ((name1, 0, assign1, 2),))
                    )
                    # ...or leave a mid-stop open for the next group.
                    mid = _with_mid_stop(name1, assign1)
                    if mid is not None:
                        out_state, stop_at = mid
                        options.append(
                            (
                                1,
                                out_state,
                                layout_open + ((name1, 0, assign1, stop_at),),
                            )
                        )
                    continue
                if spans_two or cut == 0:
                    continue  # already spans two bundles, or no progress
                fills = closing.get(total1)
                if fills is None:
                    fills = closing[total1] = _closing_fills(units, total1)
                first = layout_open + ((name1, 0, assign1, None),)
                for name2, assign2 in fills:
                    options.append((2, CLOSED, first + ((name2, 0, assign2, 2),)))
                    mid = _with_mid_stop(name2, assign2)
                    if mid is not None:
                        out_state, stop_at = mid
                        options.append(
                            (2, out_state, first + ((name2, 0, assign2, stop_at),))
                        )
    return tuple(options)


_MAX_ORDERS = 64


@lru_cache(maxsize=100000)
def _linear_extensions(units, pairs):
    """Distinct unit-sequence linear extensions of the partial order.

    ``pairs`` is a sorted tuple of (i, j) index pairs (i before j);
    ``None`` means "preserve the given order exactly". Returns a tuple of
    ``(unit_tuple, perm)`` where ``perm[pos]`` is the original index of
    the unit placed at ``pos``. Orders whose unit signature repeats are
    deduplicated; enumeration is capped at ``_MAX_ORDERS`` signatures.
    """
    n = len(units)
    identity = tuple(range(n))
    if pairs is None or n <= 1:
        return ((tuple(units), identity),)
    succs = {}
    pred_count = [0] * n
    for i, j in pairs:
        succs.setdefault(i, []).append(j)
        pred_count[j] += 1

    results = []
    seen_signatures = set()
    order = []

    def dfs(counts, available):
        if len(results) >= _MAX_ORDERS:
            return
        if len(order) == n:
            signature = tuple(units[i] for i in order)
            if signature not in seen_signatures:
                seen_signatures.add(signature)
                results.append((signature, tuple(order)))
            return
        for idx in sorted(available):
            order.append(idx)
            available.discard(idx)
            released = []
            for succ in succs.get(idx, ()):  # release successors
                counts[succ] -= 1
                if counts[succ] == 0:
                    available.add(succ)
                    released.append(succ)
            dfs(counts, available)
            for succ in succs.get(idx, ()):
                counts[succ] += 1
            for succ in released:
                available.discard(succ)
            available.add(idx)
            order.pop()

    dfs(list(pred_count), {i for i in range(n) if pred_count[i] == 0})
    if not results:
        return ((tuple(units), identity),)
    return tuple(results)


@lru_cache(maxsize=100000)
def _transitions(units, pairs, state):
    """The DP's moves out of ``state`` for one group.

    Returns ``(out_state, opened, layout, perm)`` per reachable out-state,
    in the order the out-states are first found, keeping the first
    cheapest packing over every allowed slot order. Folding these into
    the DP with a strict ``<`` picks exactly what scanning every packing
    would.
    """
    best = {}
    for signature, perm in _linear_extensions(units, pairs):
        for opened, out_state, layout in _packings_for(signature, state):
            entry = best.get(out_state)
            if entry is None or opened < entry[0]:
                best[out_state] = (opened, layout, perm)
    return tuple((out, *entry) for out, entry in best.items())


def pack_groups(groups, order_pairs=None, machine=None):
    """DP over a block's cycle groups; returns list of Bundle per block.

    ``groups``: list of instruction lists (cycle order, slot order within).
    ``order_pairs``: per-group lists of (i, j) index pairs the slot order
    must respect; ``None`` entries preserve the given order exactly.
    Raises :class:`BundlingError` naming the first unpackable group.
    """
    states = {CLOSED: (0, None, None, None)}  # state -> (cost, bp, layout, perm)
    history = [states]
    for index, group in enumerate(groups):
        if not group:
            # A stall cycle needs no encoding: the in-order pipeline stalls
            # on the unavailable operand by itself. Identity transition so
            # the backtracking chain stays aligned with group indices.
            states = {
                state: (cost, state, (), None)
                for state, (cost, _bp, _layout, _perm) in states.items()
            }
            history.append(states)
            continue
        pairs = order_pairs[index] if order_pairs is not None else None
        pairs_key = tuple(sorted(set(pairs))) if pairs is not None else None
        units = _unit_signature(group)
        new_states = {}
        for state, (cost, _bp, _layout, _perm) in states.items():
            for out_state, opened, layout, perm in _transitions(
                units, pairs_key, state
            ):
                total = cost + opened
                best = new_states.get(out_state)
                if best is None or total < best[0]:
                    new_states[out_state] = (total, state, layout, perm)
        if not new_states:
            error = BundlingError(
                f"group {index} ({[i.mnemonic for i in group]}) fits no "
                "template sequence"
            )
            error.instructions = list(group)
            error.group_index = index
            raise error
        states = new_states
        history.append(states)

    # Backtrack from the cheapest final state.
    final_state = min(states, key=lambda s: states[s][0])
    chain = []
    state = final_state
    for index in range(len(groups), 0, -1):
        cost, back, layout, perm = history[index][state]
        chain.append((index - 1, layout, perm))
        state = back
    chain.reverse()
    return _materialize(groups, chain)


def _materialize(groups, chain):
    """Turn DP layouts into concrete Bundle objects."""
    bundles = []
    open_bundle = None
    for index, layout, perm in chain:
        group = groups[index]
        if perm is not None:
            group = [group[i] for i in perm]
        for template_name, start_slot, assignment, stop_after in layout or ():
            template = TEMPLATES_BY_NAME[template_name]
            if start_slot > 0 and open_bundle is not None:
                bundle = open_bundle
                bundle.mid_stop = bundle.stop_after
            else:
                bundle = Bundle(
                    template_name,
                    [nop_for_slot(t) for t in template.slots],
                    None,
                )
                bundles.append(bundle)
            for slot, pos in assignment:
                bundle.slots[slot] = group[pos]
            if stop_after == 2:
                bundle.stop_after = 2
                open_bundle = None
            elif stop_after is None:
                bundle.stop_after = None
                open_bundle = None
            else:
                bundle.stop_after = stop_after  # mid stop: bundle stays open
                open_bundle = bundle
    return bundles


def bundle_block(schedule, block, machine=None):
    """Bundle one block of a schedule."""
    groups = []
    pairs = []
    for cycle in range(1, schedule.block_length(block) + 1):
        groups.append(schedule.group(block, cycle))
        pairs.append(schedule.order_pairs.get((block, cycle)))
    return pack_groups(groups, pairs, machine)


def bundle_schedule(schedule, machine=None):
    """Bundle every block; returns a :class:`BundleResult`."""
    result = BundleResult()
    for block in schedule.block_order:
        result.bundles[block] = bundle_block(schedule, block, machine)
    return result


def group_is_bundleable(group, order_pairs=None, machine=None):
    """Advance check used to generate bundling constraints (Sec. 4.2)."""
    try:
        pack_groups([list(group)], [order_pairs], machine)
        return True
    except BundlingError:
        return False
