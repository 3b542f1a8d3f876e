"""Software pipelining: the paper's future-work extension, realized.

Run:  python examples/software_pipelining.py

Section 8 closes with "currently we are studying ... how [the model] can
be modified to support software pipelining". This example runs the
repository's modulo ILP on the Fig. 5 loop and compares
three treatments of the same loop body:

* plain global scheduling         (body length without cyclic motion),
* cyclic code motion (Sec. 5.2)   (body length with the latch copy),
* modulo scheduling               (kernel II — one iteration every II
                                   cycles at steady state).
"""

from repro import optimize_function, parse_function
from repro.ir.cfg import CfgInfo
from repro.ir.ddg import build_dependence_graph
from repro.ir.liveness import compute_liveness
from repro.sched.scheduler import ScheduleFeatures
from repro.sched.modulo import modulo_schedule
from repro.sched.swp import build_modulo_edges, loop_body
from repro.workloads.samples import fig5_cyclic_sample


def schedule(fn):
    """Analyze ``fn`` and modulo-schedule its (single) loop."""
    cfg = CfgInfo(fn)
    ddg = build_dependence_graph(fn, cfg, compute_liveness(fn))
    loop = cfg.loops[0]
    body = loop_body(fn, loop)
    edges = build_modulo_edges(fn, loop, body, ddg)
    return cfg, ddg, loop, modulo_schedule(loop, body, edges)


def main():
    text = fig5_cyclic_sample()

    plain = optimize_function(
        parse_function(text), ScheduleFeatures(time_limit=45, cyclic=False)
    )
    cyclic = optimize_function(
        parse_function(text), ScheduleFeatures(time_limit=45)
    )

    _cfg, _ddg, _loop, swp = schedule(parse_function(text))

    print("cycles per loop iteration (lower is better):")
    print(f"  global scheduling only   : {plain.output_schedule.block_length('LOOP')}")
    print(f"  + cyclic code motion     : {cyclic.output_schedule.block_length('LOOP')}")
    print(f"  modulo scheduling (II)   : {swp.ii}")
    print()
    print(
        f"bounds: ResMII={swp.mii_resource}, RecMII={swp.mii_recurrence} "
        f"-> II={swp.ii} is provably optimal; {swp.stages} stages"
    )
    print()
    print("kernel:")
    for slot, row in enumerate(swp.kernel()):
        text_row = "; ".join(f"{i.mnemonic} (stage {s})" for i, s in row)
        print(f"  [{slot}] {text_row}")

    # Full code generation needs a *counted* loop (modulo variable
    # expansion; see repro.sched.swp_materialize). Pipeline one and prove
    # the rewrite semantically equivalent with the interpreter.
    from repro.ir.interp import Interpreter, initial_registers
    from repro.sched.swp_materialize import materialize_counted_loop

    counted_text = """
.proc counted
.livein r32, r33
.liveout r8
.block PRE freq=10
  add r15 = r32, 0
  mov r9 = 0
.block LOOP freq=130 succ=LOOP:0.92,POST:0.08
  add r20 = r15, r33
  ld8 r21 = [r20] cls=heap
  add r15 = r21, r32
  xor r23 = r21, r33
  st8 [r33+8] = r23 cls=glob
  adds r9 = 1, r9
  cmp.lt p16, p17 = r9, 13
  (p16) br.cond LOOP
.block POST freq=10
  add r8 = r15, 0
  br.ret b0
.endp
"""
    fn2 = parse_function(counted_text)
    cfg2, ddg2, loop2, msched = schedule(fn2)
    pipelined = materialize_counted_loop(fn2, cfg2, ddg2, loop2, msched)
    print()
    print(f"materialized counted loop at II={msched.ii}:")
    for block in pipelined.blocks:
        print(f"  {block.name}: {len(block.instructions)} instructions")
    interp = Interpreter(max_blocks=2000)
    registers = initial_registers(fn2, 1)
    want = interp.run_function(fn2, registers, seed=1)
    got = interp.run_function(pipelined, registers, seed=1)
    same = (
        want.live_out_state(fn2) == got.live_out_state(pipelined)
        and want.memory == got.memory
    )
    print(f"interpreter differential: {'EQUAL' if same else 'MISMATCH'} "
          f"(original {want.instructions_executed} dynamic instructions, "
          f"pipelined {got.instructions_executed})")


if __name__ == "__main__":
    main()
