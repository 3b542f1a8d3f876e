"""Loop-related Θ restrictions (the Sec. 5.2 motion rules)."""

import pytest

from repro.ir.cfg import CfgInfo
from repro.ir.ddg import build_dependence_graph
from repro.ir.liveness import compute_liveness
from repro.ir.parser import parse_function
from repro.sched.regions import build_region

TEXT = """
.proc loopy
.livein r32, r33
.liveout r8
.block PRE freq=10
  add r10 = r32, r33
  add r15 = r32, 0
.block LOOP freq=1000 succ=LOOP:0.9,POST:0.1
  ld8 r20 = [r15] cls=heap
  add r21 = r20, r10
  adds r15 = 8, r15
  cmp.ne p6, p7 = r20, r0
  (p6) br.cond LOOP
.block POST freq=10
  add r22 = r21, r10
  add r8 = r22, r32
  br.ret b0
.endp
"""


@pytest.fixture(scope="module")
def region():
    fn = parse_function(TEXT)
    cfg = CfgInfo(fn)
    ddg = build_dependence_graph(fn, cfg, compute_liveness(fn))
    return build_region(fn, cfg, ddg, allow_predication=False)


def _find(region, mnemonic, block):
    return next(
        i
        for i in region.instructions
        if i.mnemonic == mnemonic and region.source_block[i] == block
    )


def test_variant_load_confined_to_loop(region):
    """ld [r15] with r15 updated in the loop may move neither direction."""
    load = _find(region, "ld8", "LOOP")
    assert load in region.backedge_variant
    assert region.theta[load] <= {"LOOP"}


def test_self_update_confined(region):
    update = _find(region, "adds", "LOOP")
    assert update in region.backedge_variant
    assert region.theta[update] == {"LOOP"}


def test_forward_fed_consumer_is_dependence_guarded(region):
    """add r21 = r20, r10 reads a *forward* in-loop value: Θ may be wider
    (sinking below the loop computes the identical final value), but the
    true dependence on the confined load makes any hoist above the loop
    infeasible in the model."""
    from repro.ir.ddg import DepKind

    consumer = _find(region, "add", "LOOP")
    load = _find(region, "ld8", "LOOP")
    assert consumer not in region.backedge_variant
    assert any(
        e.src is load and e.dst is consumer and e.kind is DepKind.TRUE
        for e in region.ddg.edges
    )
    assert region.theta[load] <= {"LOOP"}  # the anchor it cannot outrun


def test_invariant_computation_not_dragged_into_loop(region):
    """PRE's add r10 must not enter the loop: its consumer set is wider,
    and re-execution buys nothing — but crucially, placement *into* the
    loop is only allowed for operand-invariant instructions anyway."""
    invariant = _find(region, "add", "PRE")
    # r32/r33 are not written in the loop, so into-loop placement is
    # permitted by the Sec. 5.2 rule (speculative + multiply-executable).
    assert region.speculative[invariant]


def test_post_loop_reader_cannot_enter_loop(region):
    """POST's add r22 reads r21 (written in the loop): no loop placement."""
    reader = _find(region, "add", "POST")
    assert "LOOP" not in region.theta[reader]


def test_escaping_value_dependence_exists(region):
    """The loop-written r21 read in POST keeps a true edge even though the
    DAG has no forward path from the loop latch to POST's block."""
    from repro.ir.ddg import DepKind

    producer = _find(region, "add", "LOOP")
    consumer = _find(region, "add", "POST")
    assert any(
        e.src is producer and e.dst is consumer and e.kind is DepKind.TRUE
        for e in region.ddg.edges
    )


STORES = """
.proc stores
.livein r32, r33, r34
.liveout r8
.block PRE freq=10
  mov r1 = 0
.block LOOP freq=120 succ=LOOP:0.9,POST:0.1
  ld8 r7 = [r34+24] cls=heap
  shr.u r9 = r7, 14
  st8 [r7] = r9 cls=stack
  adds r10 = r32, 32
  st8 [r10+16] = r10 cls=glob
  adds r34 = r34, 8
  adds r1 = r1, 1
  cmp.lt p18, p19 = r1, 12
  (p18) br.cond LOOP
.block POST freq=10
  ld8 r8 = [r9+16] cls=glob
  br.ret b0
.endp
"""


@pytest.fixture(scope="module")
def store_region():
    fn = parse_function(STORES)
    cfg = CfgInfo(fn)
    ddg = build_dependence_graph(fn, cfg, compute_liveness(fn))
    return build_region(fn, cfg, ddg, allow_predication=False)


def _store_at(region, base):
    return next(
        i for i in region.instructions if i.is_store and i.mem.base.name == base
    )


def test_store_with_per_iteration_address_confined(store_region):
    """st8 [r7] with r7 loaded every iteration: sunk below the loop it
    would write only the last of twelve addresses."""
    store = _store_at(store_region, "r7")
    assert store not in store_region.backedge_variant
    assert store_region.theta[store] == {"LOOP"}


def test_loop_invariant_store_may_leave_loop():
    """st8 [r10+16] = r10 with r10 = r32 + 32 writes the same value to the
    same address every iteration, and nothing else in the loop writes
    memory: running it once keeps the memory image."""
    text = STORES.replace("  st8 [r7] = r9 cls=stack\n", "")
    assert text != STORES
    fn = parse_function(text)
    cfg = CfgInfo(fn)
    ddg = build_dependence_graph(fn, cfg, compute_liveness(fn))
    region = build_region(fn, cfg, ddg, allow_predication=False)
    store = _store_at(region, "r10")
    assert "POST" in region.theta[store]


def test_invariant_store_kept_in_loop_with_a_call():
    """A call may write any address, so the invariant store stays put."""
    text = STORES.replace("  st8 [r7] = r9 cls=stack\n", "  br.call helper\n")
    assert text != STORES
    fn = parse_function(text)
    cfg = CfgInfo(fn)
    ddg = build_dependence_graph(fn, cfg, compute_liveness(fn))
    region = build_region(fn, cfg, ddg, allow_predication=False)
    assert region.theta[_store_at(region, "r10")] == {"LOOP"}


def test_invariant_store_kept_beside_may_alias_store(store_region):
    """The same invariant store stays in the loop once the loop also holds
    st8 [r7]: different alias classes do not prove the two addresses
    disjoint, so each iteration may overwrite it (generator seed 905)."""
    store = _store_at(store_region, "r10")
    assert store_region.theta[store] == {"LOOP"}
