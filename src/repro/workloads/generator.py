"""Seeded synthetic routine generator.

Routines are built in three stages:

1. a structured CFG skeleton (chains, triangles, diamonds, loops) sized
   to the requested block and loop counts — always reducible, like the
   compiler output the paper consumes;
2. profile annotation: branch probabilities and loop trip counts yield
   block frequencies the way ``-prof_use`` annotations do;
3. instruction filling: each block receives a mix of loads, stores, ALU
   ops, shifts and compares whose operands are drawn from recently
   defined registers (dependence depth is controlled by how far back the
   generator reaches), with a compare feeding each conditional branch.
   A configurable number of load+check pairs is emitted as ``ld.s``/
   ``chk.s`` to model the input compiler's own speculation (undone by the
   postpass driver and reported as Table 2's "Spec. in").

All randomness comes from one seeded ``random.Random`` so a spec always
produces the identical routine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.ir.parser import parse_function
from repro.ir.registers import reg


@dataclass(frozen=True)
class RoutineSpec:
    """Recipe for one synthetic routine."""

    name: str
    instructions: int = 80
    blocks: int = 10
    loops: int = 1
    seed: int = 1
    load_fraction: float = 0.22
    store_fraction: float = 0.10
    shift_fraction: float = 0.12
    input_spec_loads: int = 0  # ld.s/chk.s pairs planted in the input
    weight: float = 0.10  # routine weight in its program (Table 1)
    miss_rate: float = 0.03  # D-cache behaviour for the simulator
    base_freq: float = 1000.0
    trip_count: tuple = (4, 16)  # loop trip count range
    alias_classes: tuple = ("heap", "stack", "glob")
    program: str = ""  # e.g. "gzip" (report column)
    input_set: str = ""  # e.g. "program" (report column)


# -- CFG skeleton ------------------------------------------------------------------


@dataclass
class _SkelBlock:
    name: str
    freq: float = 0.0
    succs: list = field(default_factory=list)  # (target, prob) pairs
    is_latch: bool = False
    loop_header: str | None = None
    in_loop: str | None = None  # innermost loop header this block belongs to
    iv: str | None = None  # loop induction register (latches update it)
    idom: str | None = None  # immediate dominator (for operand availability)
    init_counters: list = field(default_factory=list)  # counters to zero here
    counter: tuple | None = None  # (reg name, trips) for the exit test
    counter_bump: str | None = None  # latch increments this counter


def _build_skeleton(spec, rng):
    """Structured CFG: list of _SkelBlock in layout order."""
    blocks = []
    counter = [0]

    def new_block():
        name = f"B{counter[0]}"
        counter[0] += 1
        block = _SkelBlock(name)
        blocks.append(block)
        return block

    budget = [spec.blocks - 2]  # entry and exit reserved
    loops_left = [spec.loops]
    loop_counter = [0]

    def build_region(entry_freq):
        """Emit a region; returns (first block, last block). Linear chain of
        shapes: plain block / triangle / diamond / loop."""
        first = new_block()
        first.freq = entry_freq
        current = first
        while budget[0] > 0:
            budget[0] -= 1
            choice = rng.random()
            if loops_left[0] > 0 and (choice < 0.35 or budget[0] <= loops_left[0] * 2):
                loops_left[0] -= 1
                current = _attach_loop(current, rng)
            elif choice < 0.6 and budget[0] >= 2:
                budget[0] -= 2
                current = _attach_diamond(current, rng)
            elif choice < 0.8 and budget[0] >= 1:
                budget[0] -= 1
                current = _attach_triangle(current, rng)
            else:
                nxt = new_block()
                nxt.freq = current.freq
                nxt.idom = current.name
                current.succs.append((nxt.name, 1.0))
                current = nxt
            if rng.random() < 0.15 and budget[0] <= 0:
                break
        return first, current

    def _attach_triangle(current, rng_):
        side = new_block()
        join = new_block()
        side.idom = current.name
        join.idom = current.name
        p_side = rng_.uniform(0.2, 0.8)
        current.succs.append((side.name, p_side))
        current.succs.append((join.name, 1.0 - p_side))
        side.succs.append((join.name, 1.0))
        side.freq = current.freq * p_side
        join.freq = current.freq
        return join

    def _attach_diamond(current, rng_):
        left = new_block()
        right = new_block()
        join = new_block()
        left.idom = current.name
        right.idom = current.name
        join.idom = current.name
        p_left = rng_.uniform(0.15, 0.85)
        current.succs.append((left.name, p_left))
        current.succs.append((right.name, 1.0 - p_left))
        left.succs.append((join.name, 1.0))
        right.succs.append((join.name, 1.0))
        left.freq = current.freq * p_left
        right.freq = current.freq * (1.0 - p_left)
        join.freq = current.freq
        return join

    def _attach_loop(current, rng_):
        header = new_block()
        body = None
        if budget[0] > 0:
            budget[0] -= 1
            body = new_block()
            body.idom = header.name
        exit_block = new_block()
        header.idom = current.name
        exit_block.idom = header.name
        trips = rng_.randint(*spec.trip_count)
        header.freq = current.freq * trips
        current.succs.append((header.name, 1.0))
        p_exit = 1.0 / trips
        # Each loop gets an induction register updated in the latch; loads
        # inside the loop prefer it as their base, creating the loop-carried
        # chain every real loop has (and that blocks wholesale hoisting).
        iv = f"r{34 + (loop_counter[0] % 6)}"
        # A dedicated trip counter makes every generated loop *counted* —
        # like compiled for-loops — so interpreter executions terminate.
        counter_reg = f"r{121 + (loop_counter[0] % 7)}"
        loop_counter[0] += 1
        current.init_counters.append(counter_reg)
        header.in_loop = header.name
        header.iv = iv
        header.counter = (counter_reg, trips)
        if body is not None:
            body.freq = header.freq * (1.0 - p_exit)
            header.succs.append((body.name, 1.0 - p_exit))
            header.succs.append((exit_block.name, p_exit))
            body.succs.append((header.name, 1.0))
            body.is_latch = True
            body.loop_header = header.name
            body.in_loop = header.name
            body.iv = iv
            body.counter_bump = counter_reg
        else:
            header.succs.append((header.name, 1.0 - p_exit))
            header.succs.append((exit_block.name, p_exit))
            header.is_latch = True
            header.loop_header = header.name
            header.counter_bump = counter_reg
        exit_block.freq = current.freq
        return exit_block

    entry_freq = spec.base_freq
    first, last = build_region(entry_freq)
    exit_block = new_block()
    exit_block.freq = last.freq
    exit_block.idom = last.name
    last.succs.append((exit_block.name, 1.0))
    return blocks


# -- instruction filling -------------------------------------------------------------


class _RegPool:
    """Operand pool for one block: registers whose definitions dominate it.

    Using only dominating definitions guarantees the generated code never
    reads a register that is undefined on some path — exactly like
    compiler output from a source language — which keeps differential
    semantic testing of the scheduler meaningful (a speculated definition
    may legally change an *undefined* value, so such reads must not
    exist).
    """

    def __init__(self, rng, available, counters):
        self.rng = rng
        self.recent = list(available)
        self.block_defs = []
        self.counters = counters  # shared {"gr": int, "pr": int}

    def fresh_gr(self):
        name = reg(f"r{self.counters['gr']}")
        self.counters["gr"] += 1
        if self.counters["gr"] > 120:
            self.counters["gr"] = 40
        return name

    def fresh_pr_pair(self):
        a = reg(f"p{self.counters['pr']}")
        b = reg(f"p{self.counters['pr'] + 1}")
        self.counters["pr"] += 2
        if self.counters["pr"] > 60:
            self.counters["pr"] = 16
        return a, b

    def define(self, register):
        self.recent.append(register)
        self.block_defs.append(register)

    def pick(self, depth=6):
        """A recently available register — small depth = long dep chains."""
        window = self.recent[-depth:] if self.recent else []
        if not window:
            return reg("r32")
        return self.rng.choice(window)


def generate_routine(spec):
    """Build the routine for ``spec``; returns a validated Function."""
    rng = random.Random(spec.seed)
    skeleton = _build_skeleton(spec, rng)
    return _emit_routine(spec, skeleton, rng)


def _emit_routine(spec, skeleton, rng):
    """Instruction-fill ``skeleton`` and parse the emitted routine text."""
    live_in = [reg(f"r{i}") for i in range(32, 40)]
    fn_lines = [f".proc {spec.name}"]
    fn_lines.append(".livein " + ", ".join(r.name for r in live_in))

    total_freq = sum(b.freq for b in skeleton) or 1.0
    body_budget = max(spec.instructions - 2 * len(skeleton), len(skeleton))
    counters = {"gr": 40, "pr": 16}
    avail_entry = {}  # block name -> ordered dominating definitions
    block_defs = {}
    produced = []
    spec_loads_left = spec.input_spec_loads

    for index, skel in enumerate(skeleton):
        if skel.idom is None:
            avail_entry[skel.name] = list(live_in)
        else:
            avail_entry[skel.name] = avail_entry[skel.idom] + block_defs[skel.idom]
        # Cap the operand window so dependence chains stay plausible.
        avail_entry[skel.name] = avail_entry[skel.name][-24:]
        pool = _RegPool(rng, avail_entry[skel.name], counters)
        share = max(1, round(body_budget * (1.0 / len(skeleton))))
        jitter = rng.randint(-1, 2)
        count = max(1, share + jitter)
        succ_text = ""
        if skel.succs:
            succ_text = " succ=" + ",".join(
                f"{name}:{prob:.3f}" for name, prob in skel.succs
            )
        fn_lines.append(f".block {skel.name} freq={skel.freq:.6g}{succ_text}")

        lines, new_spec_loads = _fill_block(
            spec, rng, pool, count, produced, spec_loads_left, iv=skel.iv
        )
        spec_loads_left -= new_spec_loads
        block_defs[skel.name] = list(pool.block_defs)
        if skel.is_latch and skel.iv is not None:
            lines.append(f"adds {skel.iv} = 8, {skel.iv}")
        if skel.counter_bump is not None:
            lines.append(f"adds {skel.counter_bump} = 1, {skel.counter_bump}")
        for counter in skel.init_counters:
            lines.append(f"mov {counter} = 0")
        fn_lines.extend("    " + line for line in lines)

        # Terminator. For two-way blocks the layout-next successor takes the
        # fall-through edge; the conditional branch targets the other one.
        next_name = skeleton[index + 1].name if index + 1 < len(skeleton) else None
        if len(skel.succs) > 1:
            p_true, p_false = pool.fresh_pr_pair()
            target = next(
                (name for name, _p in skel.succs if name != next_name),
                skel.succs[0][0],
            )
            if skel.counter is not None:
                # Counted loop exit: branch back while counter < trips, or
                # leave once it reaches the trip count.
                counter, trips = skel.counter
                relation = "cmp.lt" if target == skel.name else "cmp.ge"
                fn_lines.append(
                    f"    {relation} {p_true.name}, {p_false.name} = "
                    f"{counter}, {trips}"
                )
            else:
                lhs = pool.pick()
                cond = rng.choice(["cmp.eq", "cmp.lt", "cmp.ne"])
                fn_lines.append(
                    f"    {cond} {p_true.name}, {p_false.name} = {lhs.name}, r0"
                )
            fn_lines.append(f"    ({p_true.name}) br.cond {target}")
        elif len(skel.succs) == 1:
            target = skel.succs[0][0]
            next_name = skeleton[index + 1].name if index + 1 < len(skeleton) else None
            if target != next_name:
                fn_lines.append(f"    br {target}")
        else:
            fn_lines.append("    br.ret b0")

    # Live-outs must be defined on every path: pick from definitions that
    # dominate the exit block (plus r8, which callers conventionally read).
    exit_name = skeleton[-1].name
    dominating = avail_entry[exit_name] + block_defs.get(exit_name, [])
    candidates = [r for r in dominating if r.bank.value == "r"]
    live_out = sorted({r.name for r in candidates[-3:]} | {"r8"})
    fn_lines.insert(2, ".liveout " + ", ".join(live_out))
    fn_lines.append(".endp")
    text = "\n".join(fn_lines) + "\n"
    fn = parse_function(text)
    return fn


# -- multi-region routines ----------------------------------------------------


@dataclass(frozen=True)
class MultiRegionSpec:
    """Recipe for a multi-region routine: segments joined by corridors.

    The standing workload for :mod:`repro.sched.decompose`. Each segment
    is a structured sub-CFG (triangles, diamonds, loops) built by the
    ordinary skeleton machinery; segments are chained through
    *corridors* of straight-line blocks at the uniform base frequency.
    A corridor longer than the scheduler's ``max_hops`` guarantees the
    decomposition legality rule finds a frequency-neutral boundary
    inside it, so ``segments - 1`` joins yield that many articulation
    points (``segments >= 4`` gives the required three or more).
    """

    name: str
    segments: int = 4
    segment_instructions: int = 36
    segment_blocks: int = 6
    corridor_blocks: int = 5  # > max_hops keeps at least one boundary legal
    loops_per_segment: int = 1
    seed: int = 1
    base_freq: float = 1000.0
    load_fraction: float = 0.22
    store_fraction: float = 0.10
    shift_fraction: float = 0.12
    trip_count: tuple = (4, 16)
    alias_classes: tuple = ("heap", "stack", "glob")
    weight: float = 0.10
    miss_rate: float = 0.03


def _segment_skeleton(spec, rng, segment):
    """One segment's structured skeleton, block names prefixed ``S<i>``."""
    seg_spec = RoutineSpec(
        name=f"{spec.name}_s{segment}",
        instructions=spec.segment_instructions,
        blocks=spec.segment_blocks,
        loops=spec.loops_per_segment,
        seed=rng.randrange(1 << 30),
        base_freq=spec.base_freq,
        trip_count=spec.trip_count,
    )
    skeleton = _build_skeleton(seg_spec, rng)
    rename = {blk.name: f"S{segment}{blk.name}" for blk in skeleton}
    for blk in skeleton:
        blk.name = rename[blk.name]
        blk.succs = [(rename[t], p) for t, p in blk.succs]
        if blk.idom is not None:
            blk.idom = rename.get(blk.idom, blk.idom)
        if blk.loop_header is not None:
            blk.loop_header = rename[blk.loop_header]
        if blk.in_loop is not None:
            blk.in_loop = rename[blk.in_loop]
        if blk.counter is not None or blk.counter_bump is not None:
            # Counter registers are shared state; nothing to rename.
            pass
    return skeleton


def _multi_region_skeleton(spec, rng):
    """Chain segment skeletons through equal-frequency corridors."""
    blocks = []
    tail = None
    for segment in range(spec.segments):
        seg = _segment_skeleton(spec, rng, segment)
        if tail is not None:
            for position in range(spec.corridor_blocks):
                corridor = _SkelBlock(
                    f"S{segment}J{position}", freq=spec.base_freq
                )
                corridor.idom = tail.name
                tail.succs.append((corridor.name, 1.0))
                blocks.append(corridor)
                tail = corridor
            tail.succs.append((seg[0].name, 1.0))
            seg[0].idom = tail.name
        blocks.extend(seg)
        tail = seg[-1]
    return blocks


def generate_multi_region(spec):
    """Build the multi-region routine for ``spec``."""
    rng = random.Random(spec.seed)
    skeleton = _multi_region_skeleton(spec, rng)
    emit_spec = RoutineSpec(
        name=spec.name,
        instructions=spec.segments * spec.segment_instructions,
        blocks=len(skeleton),
        loops=spec.segments * spec.loops_per_segment,
        seed=spec.seed,
        load_fraction=spec.load_fraction,
        store_fraction=spec.store_fraction,
        shift_fraction=spec.shift_fraction,
        base_freq=spec.base_freq,
        trip_count=spec.trip_count,
        alias_classes=spec.alias_classes,
        weight=spec.weight,
        miss_rate=spec.miss_rate,
    )
    return _emit_routine(emit_spec, skeleton, rng)


def multi_region_family(count=3, scale=1.0, seed=1):
    """Yield ``count`` multi-region routines, one at a time.

    ``scale`` multiplies segment size and (mildly) segment count, so a
    sweep driver can dial the family from smoke-test to the ≥10k-row
    models the decompose benchmark gates on. Generation is *streaming* —
    each routine is built only when the consumer asks for it, so a 10×
    corpus never holds more than one routine in memory.
    """
    for position in range(count):
        spec = MultiRegionSpec(
            name=f"mr{position}",
            segments=max(4, int(round(4 + position + (scale - 1.0)))),
            segment_instructions=max(12, int(round(36 * scale))),
            segment_blocks=max(4, min(10, int(round(5 + scale)))),
            seed=seed + 97 * position,
        )
        yield spec, generate_multi_region(spec)


# -- loop-dominated routines --------------------------------------------------


@dataclass(frozen=True)
class LoopDominatedSpec:
    """Recipe for a loop-dominated routine: one hot counted inner loop.

    The standing workload for :mod:`repro.sched.modulo` (Table-2-style
    sweeps with a software-pipelining column).  The routine is
    preheader / single-block counted loop / exit, shaped exactly like
    compiled ``for``-loop output so :func:`recognize_counted_loop`
    accepts it: counter from 0 by 1 to a literal trip count, compare and
    backedge branch at the bottom, counter dead outside the loop.  The
    body mixes address-chained loads (through the induction register),
    ALU work, loop-carried accumulator recurrences, and optionally a
    store — the knobs that move ResMII vs RecMII against each other.
    """

    name: str
    body_instructions: int = 8
    accumulators: int = 1  # loop-carried ``acc = acc op x`` recurrences
    trips: int = 13
    stores: int = 1  # st8s in the body (invariant base, glob class)
    seed: int = 1
    base_freq: float = 100.0
    alias_classes: tuple = ("heap", "stack")


def generate_loop_dominated(spec):
    """Build the loop-dominated routine for ``spec``."""
    rng = random.Random(spec.seed)
    live_in = [f"r{i}" for i in range(32, 40)]
    iv = "r15"
    counter = "r9"
    accs = [f"r{40 + k}" for k in range(max(0, spec.accumulators))]
    lines = [f".proc {spec.name}"]
    lines.append(".livein " + ", ".join(live_in))
    lines.append(".liveout r8")

    lines.append(f".block PRE freq={spec.base_freq:g} succ=LOOP:1.0")
    lines.append(f"    mov {counter} = 0")
    lines.append(f"    add {iv} = {rng.choice(live_in)}, 0")
    for acc in accs:
        lines.append(f"    add {acc} = {rng.choice(live_in)}, 0")

    trips = max(1, spec.trips)
    p_back = 1.0 - 1.0 / (trips + 1)
    lines.append(
        f".block LOOP freq={spec.base_freq * trips:g} "
        f"succ=LOOP:{p_back:.4f},POST:{1.0 - p_back:.4f}"
    )
    # Operand pool: registers defined *earlier* this iteration (or in
    # PRE), so every read is defined on the first trip too — accumulator
    # and induction recurrences are the only loop-carried value flow.
    window = list(live_in) + [iv] + accs
    fresh = 50
    stores_left = max(0, spec.stores)
    body = []
    for position in range(max(1, spec.body_instructions)):
        draw = rng.random()
        if draw < 0.30:
            dest = f"r{fresh}"
            fresh += 1
            offset = rng.choice((0, 8, 16, 24))
            cls = rng.choice(spec.alias_classes)
            body.append(f"ld8 {dest} = [{iv}+{offset}] cls={cls}")
            window.append(dest)
        elif draw < 0.45 and accs:
            acc = rng.choice(accs)
            op = rng.choice(("add", "xor", "or"))
            body.append(f"{op} {acc} = {acc}, {rng.choice(window[-8:])}")
        elif stores_left > 0 and draw < 0.58:
            stores_left -= 1
            base = rng.choice(("r33", "r34"))
            offset = rng.choice((0, 8, 16))
            body.append(
                f"st8 [{base}+{offset}] = {rng.choice(window[-6:])} cls=glob"
            )
        else:
            dest = f"r{fresh}"
            fresh += 1
            op = rng.choice(("add", "sub", "and", "or", "xor", "shladd"))
            src1 = rng.choice(window[-6:])
            src2 = rng.choice(window[-10:])
            body.append(f"{op} {dest} = {src1}, {src2}")
            window.append(dest)
    body.append(f"adds {iv} = 8, {iv}")
    body.append(f"adds {counter} = 1, {counter}")
    body.append(f"cmp.lt p16, p17 = {counter}, {trips}")
    body.append("(p16) br.cond LOOP")
    lines.extend("    " + line for line in body)

    lines.append(f".block POST freq={spec.base_freq:g}")
    result = accs[0] if accs else window[-1]
    lines.append(f"    add r8 = {result}, 0")
    lines.append("    br.ret b0")
    lines.append(".endp")
    return parse_function("\n".join(lines) + "\n")


def loop_dominated_family(count=8, scale=1.0, seed=1):
    """Yield ``count`` loop-dominated routines, one at a time.

    ``scale`` multiplies body size, so the sweep driver can dial the
    family from smoke kernels to bodies whose modulo ILPs stress the
    solver.  Position varies trip counts, accumulator depth, and store
    mix — spreading routines across the ResMII-bound / RecMII-bound
    spectrum.  Streaming like :func:`multi_region_family`: each routine
    is built only when the consumer asks for it.
    """
    for position in range(count):
        spec = LoopDominatedSpec(
            name=f"loop{position}",
            body_instructions=max(4, int(round((6 + 2 * position) * scale))),
            accumulators=1 + position % 3,
            trips=5 + 3 * position,
            stores=position % 2,
            seed=seed + 97 * position,
        )
        yield spec, generate_loop_dominated(spec)


def _fill_block(spec, rng, pool, count, produced, spec_loads_left, iv=None):
    """Generate ``count`` instruction lines for one block.

    ``iv`` is the surrounding loop's induction register: loads prefer it
    as base so loop iterations are chained through memory addressing.
    """
    lines = []
    spec_loads = 0
    pending_check = None
    for position in range(count):
        draw = rng.random()
        if draw < spec.load_fraction:
            dest = pool.fresh_gr()
            from repro.ir.registers import reg as _reg
            base = _reg(iv) if (iv is not None and rng.random() < 0.6) else pool.pick(depth=10)
            offset = rng.choice((0, 8, 16, 24, 32))
            cls = rng.choice(spec.alias_classes)
            if spec_loads_left - spec_loads > 0 and rng.random() < 0.5:
                lines.append(
                    f"ld8.s {dest.name} = [{base.name}+{offset}] cls={cls}"
                )
                pending_check = dest
                spec_loads += 1
            else:
                lines.append(
                    f"ld8 {dest.name} = [{base.name}+{offset}] cls={cls}"
                )
            pool.define(dest)
            produced.append(dest)
        elif draw < spec.load_fraction + spec.store_fraction:
            base = pool.pick(depth=12)
            value = pool.pick(depth=4)
            offset = rng.choice((0, 8, 16))
            cls = rng.choice(spec.alias_classes)
            lines.append(f"st8 [{base.name}+{offset}] = {value.name} cls={cls}")
        elif draw < spec.load_fraction + spec.store_fraction + spec.shift_fraction:
            dest = pool.fresh_gr()
            src = pool.pick(depth=4)
            op = rng.choice(("shl", "shr.u", "extr.u", "zxt4", "dep.z"))
            if op in ("shl", "shr.u", "extr.u", "dep.z"):
                lines.append(f"{op} {dest.name} = {src.name}, {rng.randint(1, 15)}")
            else:
                lines.append(f"{op} {dest.name} = {src.name}")
            pool.define(dest)
            produced.append(dest)
        else:
            dest = pool.fresh_gr()
            op = rng.choice(("add", "sub", "and", "or", "xor", "shladd", "adds"))
            src1 = pool.pick(depth=4)
            if op == "adds":
                lines.append(f"{op} {dest.name} = {rng.randint(-64, 64)}, {src1.name}")
            else:
                src2 = pool.pick(depth=8)
                lines.append(f"{op} {dest.name} = {src1.name}, {src2.name}")
            pool.define(dest)
            produced.append(dest)
        if pending_check is not None and rng.random() < 0.6:
            lines.append(f"chk.s {pending_check.name}, recover_{pending_check.name}")
            pending_check = None
    if pending_check is not None:
        lines.append(f"chk.s {pending_check.name}, recover_{pending_check.name}")
    return lines, spec_loads
