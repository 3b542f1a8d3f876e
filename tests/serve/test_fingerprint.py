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
        "fbec91004681f226d3728bbd9a37e726959f5a3e6e75fdfbd9561e45d286b9a3",
        "8f23eaa9a8033f841fbebf492bba4ccaaebc54ca07505b7937e6a79d5140a0f6",
    ),
    (
        generate_routine,
        RoutineSpec(name="g1", seed=1),
        "2512952d474374e4ab9ff8168c0521c16902faa7d7173a7803d6a287de5157eb",
        "290f8d2ccebd6649eff21a4b397f884636929b1146822234615b20e56c1c9187",
    ),
    (
        generate_routine,
        RoutineSpec(
            name="g2", seed=2, instructions=40, blocks=6, loops=2,
            input_spec_loads=2,
        ),
        "63107f14f2b7b2791c3deae0d0990b7e8809e053f21f369f8daf158118c3baae",
        "432e903bd565c1d2458e1d976b431e6b6e8080f86c5dfea44b106cb8fe581873",
    ),
    (
        generate_routine,
        RoutineSpec(name="g3", seed=3, instructions=150, blocks=16),
        "55cf90504e6d0bf7a3b32d13303920cad5acebc518204370117f4800bfc51d17",
        "8767524e7fd49680a410e7e2a624315af2e6d1c8d84de77adefd77e6a43fc697",
    ),
    (
        generate_loop_dominated,
        LoopDominatedSpec(name="g4", seed=4),
        "519857ddffff33ba3e163415f13c066fc83c91d426e61db06c48569b3a203cf6",
        "c7419f64cbb782e38abfe8bd3be7d6fd7677191c268e60f176da67b9f0e32622",
    ),
    (
        generate_multi_region,
        MultiRegionSpec(
            name="g5", seed=5, segments=3, segment_instructions=14,
            segment_blocks=5,
        ),
        "8087b87b2480ceb0b63cc4b52301a8233816995f20e233a30414113011903709",
        "40e2636efdb6e007d866bb4cd05591bcff7ac289dd09ef34a238211709fe1987",
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
