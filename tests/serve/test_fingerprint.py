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


# -- partition fingerprints (repro.sched.decompose) ---------------------------
@given(seed=st.integers(0, 10**6))
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_partition_fingerprint_invariant_under_renaming(seed):
    from repro.serve.fingerprint import partition_fingerprint

    fn = _generated(seed)
    renamed = _rename(fn, _rename_map(fn, seed + 1))
    assert partition_fingerprint(
        fn, FEATURES, ITANIUM2
    ) == partition_fingerprint(renamed, FEATURES, ITANIUM2)


def test_partition_fingerprint_distinct_from_whole(straight_fn):
    """The same bytes cached as a partition must never answer a
    whole-routine request (the payloads have different shapes)."""
    from repro.serve.fingerprint import partition_fingerprint

    assert partition_fingerprint(
        straight_fn, FEATURES, ITANIUM2
    ) != fingerprint(straight_fn, FEATURES, ITANIUM2)


# -- kind="loop" fingerprints -------------------------------------------------
def test_loop_fingerprint_distinct_from_routine_and_per_loop():
    from repro.serve.fingerprint import loop_fingerprint
    from repro.workloads.generator import (
        LoopDominatedSpec,
        generate_loop_dominated,
    )

    fn = generate_loop_dominated(LoopDominatedSpec(name="lfp", seed=4))
    routine_key = fingerprint(fn, FEATURES, ITANIUM2)
    loop_key = loop_fingerprint(fn, "LOOP", FEATURES, ITANIUM2)
    assert loop_key != routine_key
    # Stable across calls, sensitive to the loop header and the knobs.
    assert loop_key == loop_fingerprint(fn, "LOOP", FEATURES, ITANIUM2)
    assert loop_key != loop_fingerprint(fn, "LOOP2", FEATURES, ITANIUM2)
    flipped = ScheduleFeatures(time_limit=30, swp_max_stages=2)
    assert loop_key != loop_fingerprint(fn, "LOOP", flipped, ITANIUM2)


# -- golden digests -----------------------------------------------------------
# Every stored entry is addressed by these digests: a change to the
# canonical form that moves them silently orphans the whole store, so a
# deliberate key change must update this table *and* bump CODE_VERSION.
GOLDEN = [
    (
        generate_routine,
        RoutineSpec(name="g0", seed=0, instructions=12, blocks=3),
        "2abe4c6fd37400606822d4a132c7428f85a9116f5603c95364ca1433e421b351",
        "b304f8ff1d213cdfb0df115aa3cf2d31957b29bb3b5348096c10ef768303e01f",
    ),
    (
        generate_routine,
        RoutineSpec(name="g1", seed=1),
        "707a9c58f170023270f78baf050ba108e12a6ae942424ddb611a2b87a5dde720",
        "a4e56c46e2d10649b4ac3702bac89bd4a2b8214af5bd4c570fef11478ef90107",
    ),
    (
        generate_routine,
        RoutineSpec(
            name="g2", seed=2, instructions=40, blocks=6, loops=2,
            input_spec_loads=2,
        ),
        "68b4dee8de3a7381c0a4987348cda6002c40fa3694e293f3f5b93ae64254188e",
        "0f2450f0c6c21f3c16c68cdd26a1d195780df464db90ae1b30b59d33b4ad3d42",
    ),
    (
        generate_routine,
        RoutineSpec(name="g3", seed=3, instructions=150, blocks=16),
        "d8f9aeb3203cd4edfe7b4200772d125e44caebc860c138ddc9aaf79ed4132190",
        "fad52c7d56920fd65c85a09305ed4d61607a135eba7b840ff01a331567b021ef",
    ),
    (
        generate_loop_dominated,
        LoopDominatedSpec(name="g4", seed=4),
        "ab6b8e5e093af8e96ed514de2729458bd44ec3d7e1d3d528f69e13a84c30ea8a",
        "f2647c315d2808dadba49513923d9c04b6bf3b337b52e1cc836491c4655a3aba",
    ),
    (
        generate_multi_region,
        MultiRegionSpec(
            name="g5", seed=5, segments=3, segment_instructions=14,
            segment_blocks=5,
        ),
        "918c57fb4e762f4794b16d7d506f732d8335af98364712e71f2aae9331d46ee2",
        "3a0c0296a0b4c68cddb0c41836d1d7d02e5f9a1ff9f1c775495d6914e0fce61c",
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
