"""Fingerprint invariants: rename/order blindness, change sensitivity.

The exact fingerprint must not move under transformations the optimizer
is itself blind to (consistent virtual-register renaming, textual block
permutation) and must move for anything that can change the emitted
schedule (opcode, latency override, immediate, feature flag).  The
family fingerprint sits in between: solver-only knobs and latency/
profile detail fold together, model-shaping features do not.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.parser import parse_function
from repro.ir.registers import Register, RegisterBank
from repro.machine.itanium2 import ITANIUM2
from repro.sched.scheduler import ScheduleFeatures
from repro.serve.fingerprint import (
    family_fingerprint,
    fingerprint,
    request_keys,
)
from repro.workloads.generator import (
    LoopDominatedSpec,
    MultiRegionSpec,
    RoutineSpec,
    generate_loop_dominated,
    generate_multi_region,
    generate_routine,
)

FEATURES = ScheduleFeatures(time_limit=30)


# -- transformation helpers ---------------------------------------------------
def _rename_map(fn, seed):
    """A consistent per-bank permutation of every register in ``fn``."""
    rng = random.Random(seed)
    used = set()
    for block in fn.blocks:
        for instr in block.instructions:
            used.update(instr.dests)
            used.update(instr.srcs)
            if instr.pred is not None:
                used.add(instr.pred)
            if instr.mem is not None:
                used.add(instr.mem.base)
    used.update(fn.live_in)
    used.update(fn.live_out)
    mapping = {}
    for bank in RegisterBank:
        regs = sorted(
            r for r in used if r.bank is bank and not r.is_constant
        )
        if not regs:
            continue
        # Map onto fresh indexes drawn from the top of the bank, shuffled.
        pool = [
            i for i in range(bank.size - 1, 0, -1)
            if Register(bank, i) not in used
        ][: len(regs)]
        if len(pool) < len(regs):
            pytest.skip("bank too full to rename")
        rng.shuffle(pool)
        for reg_, idx in zip(regs, pool):
            mapping[reg_] = Register(bank, idx)
    return mapping


def _rename(fn, mapping):
    def m(reg_):
        if reg_ is None:
            return None
        return mapping.get(reg_, reg_)

    out = Function(
        name=fn.name,
        live_in={m(r) for r in fn.live_in},
        live_out={m(r) for r in fn.live_out},
    )
    for block in fn.blocks:
        nb = BasicBlock(name=block.name, freq=block.freq)
        for instr in block.instructions:
            mem = instr.mem
            if mem is not None:
                mem = type(mem)(
                    base=m(mem.base),
                    offset=mem.offset,
                    alias_class=mem.alias_class,
                    size=mem.size,
                )
            nb.instructions.append(
                instr.copy(
                    dests=[m(d) for d in instr.dests],
                    srcs=[m(s) for s in instr.srcs],
                    mem=mem,
                    pred=m(instr.pred),
                    origin=None,
                )
            )
        out.add_block(nb)
    for edge in fn.edges:
        out.add_edge(edge.src, edge.dst, edge.prob)
    return out


def _permute_blocks(fn, seed):
    """Same blocks and edges, different textual insertion order."""
    order = list(fn.blocks)
    rng = random.Random(seed)
    rng.shuffle(order)
    out = Function(
        name=fn.name, live_in=set(fn.live_in), live_out=set(fn.live_out)
    )
    for block in order:
        out.add_block(block)
    for edge in fn.edges:
        out.add_edge(edge.src, edge.dst, edge.prob)
    return out


def _generated(seed):
    return generate_routine(
        RoutineSpec(name="fp", seed=seed, instructions=20, blocks=5, loops=1)
    )


# -- invariance properties ----------------------------------------------------
@given(seed=st.integers(0, 10**6))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_fingerprint_invariant_under_renaming(seed):
    fn = _generated(seed)
    renamed = _rename(fn, _rename_map(fn, seed + 1))
    assert fingerprint(fn, FEATURES, ITANIUM2) == fingerprint(
        renamed, FEATURES, ITANIUM2
    )
    assert family_fingerprint(fn, FEATURES, ITANIUM2) == family_fingerprint(
        renamed, FEATURES, ITANIUM2
    )


@given(seed=st.integers(0, 10**6))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_fingerprint_invariant_under_block_permutation(seed):
    fn = _generated(seed)
    permuted = _permute_blocks(fn, seed + 7)
    assert fingerprint(fn, FEATURES, ITANIUM2) == fingerprint(
        permuted, FEATURES, ITANIUM2
    )


@given(seed=st.integers(0, 10**6))
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_fingerprint_invariant_under_both(seed):
    fn = _generated(seed)
    transformed = _permute_blocks(
        _rename(fn, _rename_map(fn, seed + 1)), seed + 2
    )
    assert fingerprint(fn, FEATURES, ITANIUM2) == fingerprint(
        transformed, FEATURES, ITANIUM2
    )


# -- sensitivity --------------------------------------------------------------
def _first_alu(fn):
    for block in fn.blocks:
        for i, instr in enumerate(block.instructions):
            if instr.mnemonic == "add":
                return block, i, instr
    pytest.skip("no add instruction in routine")


def test_one_opcode_change_moves_fingerprint(straight_fn):
    fn = straight_fn
    block, i, instr = _first_alu(fn)
    base = fingerprint(fn, FEATURES, ITANIUM2)
    base_family = family_fingerprint(fn, FEATURES, ITANIUM2)
    block.instructions[i] = instr.copy(mnemonic="sub", origin=None)
    assert fingerprint(fn, FEATURES, ITANIUM2) != base
    assert family_fingerprint(fn, FEATURES, ITANIUM2) != base_family


def test_latency_override_moves_exact_not_family(straight_fn):
    fn = straight_fn
    block, i, instr = _first_alu(fn)
    base = fingerprint(fn, FEATURES, ITANIUM2)
    base_family = family_fingerprint(fn, FEATURES, ITANIUM2)
    annotations = dict(instr.annotations, lat=7)
    block.instructions[i] = instr.copy(annotations=annotations, origin=None)
    assert fingerprint(fn, FEATURES, ITANIUM2) != base
    assert family_fingerprint(fn, FEATURES, ITANIUM2) == base_family


def test_model_feature_flag_moves_both(straight_fn):
    flipped = ScheduleFeatures(time_limit=30, speculation=False)
    assert fingerprint(straight_fn, FEATURES, ITANIUM2) != fingerprint(
        straight_fn, flipped, ITANIUM2
    )
    assert family_fingerprint(
        straight_fn, FEATURES, ITANIUM2
    ) != family_fingerprint(straight_fn, flipped, ITANIUM2)


def test_solver_knob_moves_exact_not_family(straight_fn):
    longer = ScheduleFeatures(time_limit=300)
    assert fingerprint(straight_fn, FEATURES, ITANIUM2) != fingerprint(
        straight_fn, longer, ITANIUM2
    )
    assert family_fingerprint(
        straight_fn, FEATURES, ITANIUM2
    ) == family_fingerprint(straight_fn, longer, ITANIUM2)


def test_block_frequency_moves_exact_not_family(straight_fn):
    base = fingerprint(straight_fn, FEATURES, ITANIUM2)
    base_family = family_fingerprint(straight_fn, FEATURES, ITANIUM2)
    straight_fn.blocks[0].freq *= 3.0
    assert fingerprint(straight_fn, FEATURES, ITANIUM2) != base
    assert family_fingerprint(straight_fn, FEATURES, ITANIUM2) == base_family


def test_distinct_routines_distinct_fingerprints():
    seen = set()
    for seed in range(8):
        seen.add(fingerprint(_generated(seed), FEATURES, ITANIUM2))
    assert len(seen) == 8


def test_parse_roundtrip_same_fingerprint(straight_fn):
    from repro.ir.printer import format_function

    reparsed = parse_function(format_function(straight_fn))
    assert fingerprint(straight_fn, FEATURES, ITANIUM2) == fingerprint(
        reparsed, FEATURES, ITANIUM2
    )


# -- golden digests -----------------------------------------------------------
# Every stored entry is addressed by these digests: a change to the
# canonical form that moves them silently orphans the whole store, so a
# deliberate key change must update this table *and* bump CODE_VERSION.
GOLDEN = [
    (
        generate_routine,
        RoutineSpec(name="g0", seed=0, instructions=12, blocks=3),
        "31f27d0179e9b4eef306021a8031f0034ea69dd9b5166c13ec8f0ca0f3785279",
        "a00f4929188e0a762dae380ea69db0913724e858e000e21f5accb310feed32a6",
    ),
    (
        generate_routine,
        RoutineSpec(name="g1", seed=1),
        "e4c07419848f3766f963ffdaeab4ec5ffbb117878ac827828edffdb951168bf0",
        "99a6cceafcd7d09bdfc679d6220a0808d4b181a60280a409c4ce648dab7a24bb",
    ),
    (
        generate_routine,
        RoutineSpec(
            name="g2", seed=2, instructions=40, blocks=6, loops=2,
            input_spec_loads=2,
        ),
        "a0d2445db878dbc3ad827b0e31b1e7d765a817036836ecf987499a8ead79dc24",
        "25a835f400e6b6da3f357b68009d16ba1ba0a25bec0aaa72930ca809cbd5ceae",
    ),
    (
        generate_routine,
        RoutineSpec(name="g3", seed=3, instructions=150, blocks=16),
        "65a67e23cb0f4a0570500b39df884b0fd1ab0a9a7d2c84edefb52496229ee823",
        "c72ffbf19b0f181e0acc3dc72bd3bbd54a3bebd88580bbfe626822a0abcac30c",
    ),
    (
        generate_loop_dominated,
        LoopDominatedSpec(name="g4", seed=4),
        "c89f56a7bdce211b15d5dbaac1ba8a4238a0c8134009142d989bd3e92e1b9a33",
        "a0a0e62ecec3af357b5cb2f370ab14fd54f9362feb7bd539d3bba99c3f4f7c7a",
    ),
    (
        generate_multi_region,
        MultiRegionSpec(
            name="g5", seed=5, segments=3, segment_instructions=14,
            segment_blocks=5,
        ),
        "ff0757b11bcfc4a88d07e461f3e890c01c64a36bd104717598d9dc954364fc15",
        "3c594c100771aec3a425da4d26fac13003975454e28d337673f8f2a5a3812531",
    ),
]


@pytest.mark.parametrize(
    "generate,spec,exact,family", GOLDEN, ids=[g[1].name for g in GOLDEN]
)
def test_golden_digests(generate, spec, exact, family):
    fn = generate(spec)
    assert fingerprint(fn, FEATURES, ITANIUM2) == exact
    assert family_fingerprint(fn, FEATURES, ITANIUM2) == family
    assert request_keys(fn, FEATURES, ITANIUM2) == (exact, family)
