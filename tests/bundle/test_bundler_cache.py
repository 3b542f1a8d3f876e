"""The cached bundling DP must pick exactly what the uncached one did.

The reference below is the DP as it was before its caches were added
(``_packings_for`` without its cache, ``_fill_slots``,
``_linear_extensions`` and ``pack_groups``), kept verbatim so any change
to the fast path's tie-breaking shows up as a different bundle.
"""

from hypothesis import example, given, settings, strategies as st

from repro.bundle.bundler import (
    CLOSED,
    _MID_STOP_STATES,
    _TEMPLATE_NAMES,
    _materialize,
    _packings_for,
    _unit_signature,
    pack_groups,
)
from repro.errors import BundlingError
from repro.ir.parser import parse_instruction
from repro.machine.templates import TEMPLATES_BY_NAME, slot_accepts
from repro.machine.units import UnitKind

_SAMPLES = {
    UnitKind.A: "add r1 = r2, r3",
    UnitKind.M: "ld8 r4 = [r5]",
    UnitKind.I: "shl r6 = r7, 2",
    UnitKind.F: "fma f1 = f2, f3",
    UnitKind.B: "br.ret b0",
    UnitKind.L: "movl r9 = 123456",
}
_KINDS = list(_SAMPLES)
_STATES = [CLOSED] + list(_MID_STOP_STATES)


# -- reference DP ------------------------------------------------------------
def _ref_packings_for(units, state):
    """All ways to pack an ordered unit tuple starting from ``state``.

    Returns a list of ``(bundles_used, out_state, layout)`` where
    ``layout`` is a tuple of per-bundle slot assignments: each entry is
    ``(template_name, start_slot, ((slot_index, unit_position | None), ...),
    stop_after)``. ``bundles_used`` counts *newly opened* bundles (a
    continued open bundle costs 0 — it was counted by the group that
    opened it).
    """
    options = []
    heads = []  # (consumed_prefix_len, opened_bundles, partial_layout)
    if state == CLOSED:
        heads.append((0, 0, ()))
    else:
        template_name, resume = state
        template = TEMPLATES_BY_NAME[template_name]
        tail_slots = list(range(resume, len(template.slots)))
        for consumed, assignment in _ref_fill_slots(units, 0, template, tail_slots):
            heads.append(
                (
                    consumed,
                    0,
                    ((template_name, resume, assignment, 2),),
                )
            )
        # The continuation bundle always ends with a stop at its end: the
        # next group may not resume inside it (it would be a third group
        # in one bundle boundary chain, which the state machine forbids).

    for consumed0, opened0, layout0 in heads:
        remaining0 = len(units) - consumed0
        if remaining0 == 0 and consumed0 > 0 or (len(units) == 0 and layout0):
            options.append((opened0, CLOSED, layout0))
        if remaining0 == 0:
            if not layout0:
                # Empty group: no encoding needed.
                options.append((0, CLOSED, ()))
            continue
        max_new = 2 - len(layout0)
        # A continuation bundle that does not finish the group has no end
        # stop — the group flows into the next bundle.
        layout_open = tuple(
            (t, s, a, None) if i == len(layout0) - 1 else (t, s, a, st)
            for i, (t, s, a, st) in enumerate(layout0)
        )
        for name1 in _TEMPLATE_NAMES:
            template1 = TEMPLATES_BY_NAME[name1]
            all_slots = list(range(len(template1.slots)))
            for consumed1, assign1 in _ref_fill_slots(
                units, consumed0, template1, all_slots
            ):
                total1 = consumed0 + consumed1
                remaining1 = len(units) - total1
                if remaining1 == 0:
                    # Close with an end stop...
                    options.append(
                        (
                            opened0 + 1,
                            CLOSED,
                            layout_open + ((name1, 0, assign1, 2),),
                        )
                    )
                    # ...or leave a mid-stop open for the next group.
                    for mid_name, resume in _MID_STOP_STATES:
                        if name1 != mid_name:
                            continue
                        stop_at = resume - 1
                        if all(
                            pos is None or slot <= stop_at
                            for slot, pos in assign1
                        ):
                            trimmed = tuple(
                                (slot, pos)
                                for slot, pos in assign1
                                if slot <= stop_at
                            )
                            options.append(
                                (
                                    opened0 + 1,
                                    (mid_name, resume),
                                    layout_open + ((name1, 0, trimmed, stop_at),),
                                )
                            )
                    continue
                if max_new < 2:
                    continue  # already spans two bundles
                if consumed1 == 0:
                    continue
                for name2 in _TEMPLATE_NAMES:
                    template2 = TEMPLATES_BY_NAME[name2]
                    slots2 = list(range(len(template2.slots)))
                    for consumed2, assign2 in _ref_fill_slots(
                        units, total1, template2, slots2
                    ):
                        if total1 + consumed2 != len(units):
                            continue
                        options.append(
                            (
                                opened0 + 2,
                                CLOSED,
                                layout_open
                                + (
                                    (name1, 0, assign1, None),
                                    (name2, 0, assign2, 2),
                                ),
                            )
                        )
                        for mid_name, resume in _MID_STOP_STATES:
                            if name2 != mid_name:
                                continue
                            stop_at = resume - 1
                            if all(
                                pos is None or slot <= stop_at
                                for slot, pos in assign2
                            ):
                                trimmed = tuple(
                                    (s, p) for s, p in assign2 if s <= stop_at
                                )
                                options.append(
                                    (
                                        opened0 + 2,
                                        (mid_name, resume),
                                        layout_open
                                        + (
                                            (name1, 0, assign1, None),
                                            (name2, 0, trimmed, stop_at),
                                        ),
                                    )
                                )
    return options


def _ref_fill_slots(units, start, template, slot_indices):
    """Greedy order-preserving placements of ``units[start:]`` into slots.

    Yields ``(consumed, assignment)`` for every *prefix length* that can be
    placed; assignment is a tuple of (slot_index, unit_position) — slots
    not listed become nops. The maximal greedy assignment dominates, but
    shorter prefixes matter when the remainder flows into a second bundle.
    """
    placements = []
    position = start
    for slot in slot_indices:
        slot_type = template.slots[slot]
        if slot_type == "X":
            # Consumed by a movl in the preceding L slot, or nop.
            continue
        if position < len(units) and slot_accepts(slot_type, units[position]):
            placements.append((slot, position))
            position += 1
    # Every prefix of the greedy placement is itself feasible.
    for cut in range(len(placements) + 1):
        consumed = cut
        assignment = tuple(placements[:cut])
        yield consumed, assignment


_REF_MAX_ORDERS = 64


def _ref_linear_extensions(units, pairs):
    """Distinct unit-sequence linear extensions of the partial order.

    ``pairs`` is an iterable of (i, j) index pairs (i before j); ``None``
    means "preserve the given order exactly". Returns a list of
    ``(unit_tuple, perm)`` where ``perm[pos]`` is the original index of
    the unit placed at ``pos``. Orders whose unit signature repeats are
    deduplicated; enumeration is capped at ``_REF_MAX_ORDERS`` signatures.
    """
    n = len(units)
    identity = tuple(range(n))
    if pairs is None or n <= 1:
        return [(tuple(units), identity)]
    succs = {}
    pred_count = [0] * n
    for i, j in pairs:
        succs.setdefault(i, []).append(j)
        pred_count[j] += 1

    results = []
    seen_signatures = {}
    order = []

    def dfs(counts, available):
        if len(results) >= _REF_MAX_ORDERS:
            return
        if len(order) == n:
            signature = tuple(units[i] for i in order)
            if signature not in seen_signatures:
                seen_signatures[signature] = True
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
        return [(tuple(units), identity)]
    return results


def _ref_pack_groups(groups, order_pairs=None, machine=None):
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
        orders = _ref_linear_extensions(units, pairs_key)
        new_states = {}
        for state, (cost, _bp, _layout, _perm) in states.items():
            for signature, perm in orders:
                for opened, out_state, layout in _ref_packings_for(signature, state):
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



# -- properties ----------------------------------------------------------------
@st.composite
def group_with_pairs(draw):
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=0, max_size=6))
    group = [parse_instruction(_SAMPLES[k]) for k in kinds]
    mode = draw(st.sampled_from(["fixed", "free", "partial"]))
    if mode == "fixed":
        return group, None
    if mode == "free" or len(kinds) < 2:
        return group, []
    all_pairs = [(i, j) for i in range(len(kinds)) for j in range(i + 1, len(kinds))]
    pairs = draw(st.lists(st.sampled_from(all_pairs), max_size=len(all_pairs)))
    return group, pairs


def _shape(bundles):
    return [
        (
            b.template,
            [s if isinstance(s, str) else id(s) for s in b.slots],
            b.stop_after,
            b.mid_stop,
        )
        for b in bundles
    ]


def _run(pack, groups, pairs):
    try:
        return _shape(pack(groups, pairs))
    except BundlingError as exc:
        return ("error", exc.group_index, [id(i) for i in exc.instructions])


_F = parse_instruction(_SAMPLES[UnitKind.F])
_L = parse_instruction(_SAMPLES[UnitKind.L])


@given(st.lists(group_with_pairs(), min_size=1, max_size=5))
@settings(max_examples=300, deadline=None)
@example([([_F, _F.copy(), _L], [])])  # two F ops plus a movl: three bundles
def test_cached_dp_bundles_exactly_like_the_uncached_one(drawn):
    groups = [group for group, _ in drawn]
    pairs = [p for _, p in drawn]
    expected = _run(_ref_pack_groups, groups, pairs)
    assert _run(pack_groups, groups, pairs) == expected
    # Again, now that every cache is warm.
    assert _run(pack_groups, groups, pairs) == expected


def test_an_unpackable_group_raises_in_both():
    groups = [[_F, _F.copy(), _L]]
    assert _run(_ref_pack_groups, groups, [[]])[0] == "error"
    assert _run(pack_groups, groups, [[]])[0] == "error"


@given(
    st.lists(st.sampled_from(_KINDS), min_size=0, max_size=6),
    st.sampled_from(_STATES),
)
@settings(max_examples=300, deadline=None)
def test_packings_match_the_reference(kinds, state):
    units = tuple(kinds)
    assert _packings_for(units, state) == tuple(_ref_packings_for(units, state))
