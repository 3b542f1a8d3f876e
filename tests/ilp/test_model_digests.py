"""Golden digests of the matrices the scheduler hands to the solver.

The solver's search path depends on the exact model it is given: the
CSR ``indptr``/``indices``/``data``, the objective ``c``, the variable
bounds, the integrality mask and the row bounds. Any change to how rows
are built must leave these arrays identical, so schedules, quality
metrics and serve cache keys cannot move. The digests below were
recorded from the ``LinExpr``-built models and must never be
re-recorded to make a change pass.

One entry moved on purpose. The ``loop2`` modulo digest was recorded
from the full-grid modulo ILP, which now lives in
``tests/sched/modulo_reference.py``; it stays pinned against that
builder. The production ``ModuloIlp`` creates variables only inside each
instruction's start window and leaves out the rows those windows imply,
so it has its own pin (``windowed``), recorded when the windows came in.
Every acyclic entry is unchanged.

The phase-1 model later gained rows of two kinds: the per-path
dependence-chain rows (``chain_*``), emitted after every other family,
and the precedence rows of the edges that order the speculation groups
of chained loads (``speculation._wire_chained_groups``). The acyclic
digests are taken over the other rows, so they stay pinned to the table
as recorded; the added rows have their own pin (``ADDED_GOLDEN``),
recorded when they came in.

The models are built in a subprocess with ``PYTHONHASHSEED=0``, because
a few row families iterate sets of block names. Values are hashed as
float64/int64 with ``-0.0`` folded into ``0.0`` (both are the same
number to every backend).
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

# Speculation (ld8 r15 in C), partial-ready motion (r20 is ready on the
# A->C path only) and cyclic motion (the LOOP body) all fire here.
COMBO = """
.proc combo
.livein r32, r33, r34
.liveout r8
.block A freq=100 succ=B:0.1,C:0.9
  add r20 = r32, r33
  cmp.eq p6, p7 = r32, r0
  (p6) br.cond C
.block B freq=10
  mov r20 = r34
.block C freq=100
  ld8 r15 = [r20] cls=heap
  add r16 = r15, r33
  add r17 = r16, 0
.block LOOP freq=1000 succ=LOOP:0.99,POST:0.01
  add r22 = r17, r33
  ld8 r21 = [r22] cls=heap
  add r17 = r21, r32
  xor r23 = r21, r33
  and r24 = r23, r21
  or r25 = r24, r23
  cmp.ne p8, p9 = r25, r0
  (p8) br.cond LOOP
.block POST freq=100
  add r8 = r17, r16
  br.ret b0
.endp
"""

SCRIPT = "COMBO = " + repr(COMBO) + textwrap.dedent(
    """
    import hashlib, json

    import numpy as np

    from repro.ir.cfg import CfgInfo
    from repro.ir.ddg import build_dependence_graph
    from repro.ir.liveness import compute_liveness
    from repro.ir.rename import rename_registers
    from repro.machine.itanium2 import ITANIUM2
    from repro.sched import phase2
    from repro.sched.cycles import lengths_from_input
    from repro.sched.list_scheduler import ListScheduler
    from repro.sched.modulo.bounds import recurrence_mii, resource_mii
    from repro.sched.modulo.formulation import ModuloIlp
    from repro.sched.regions import build_region
    from repro.sched.scheduler import IlpScheduler, ScheduleFeatures
    from repro.sched.swp import build_modulo_edges, loop_body
    from repro.sched.swp_materialize import recognize_counted_loop
    from repro.workloads.generator import (
        RoutineSpec, generate_routine, loop_dominated_family,
    )
    from repro.workloads.spec_routines import build_spec_routine
    from repro.ir.parser import parse_function
    from repro.sched.prep import clone_function, undo_speculation
    from tests.sched.modulo_reference import ReferenceModuloIlp

    def digest(arrays):
        h = hashlib.sha256()
        matrix = arrays["A"]
        parts = [
            np.asarray(matrix.shape, dtype=np.int64),
            np.asarray(matrix.indptr, dtype=np.int64),
            np.asarray(matrix.indices, dtype=np.int64),
        ]
        floats = [matrix.data, arrays["c"], arrays["b_lo"], arrays["b_hi"],
                  arrays["lb"], arrays["ub"]]
        parts += [np.asarray(v, dtype=np.float64) + 0.0 for v in floats]
        parts.append(np.asarray(arrays["integrality"], dtype=np.int8))
        for part in parts:
            h.update(np.ascontiguousarray(part).tobytes())
            h.update(b"|")
        return h.hexdigest()

    from repro.sched import speculation

    wire_chained = speculation._wire_chained_groups
    spec_pairs = set()  # (src uid, dst uid) of the chained-group edges

    def recording(ilp, groups):
        start = len(ilp.extra_edges)
        wire_chained(ilp, groups)
        spec_pairs.update(
            (e.src.uid, e.dst.uid) for e in ilp.extra_edges[start:])

    speculation._wire_chained_groups = recording

    # (digest without the added rows, digest of the added rows alone,
    # chain row count, chained-group row count); a bundling cut or
    # phase-2 pin appended after generate() stays in the first part.
    def split(model):
        arrays = model.to_arrays()
        chain, spec = [], []
        for i, name in enumerate(model._row_names):
            if name[0] == "chain":
                chain.append(i)
            elif name[0] in ("gprec", "lprec") and name[1:3] in spec_pairs:
                spec.append(i)
        added = sorted(chain + spec)
        rest = sorted(set(range(model.num_constraints)) - set(added))
        def rows(index):
            return dict(arrays, A=arrays["A"][index],
                        b_lo=arrays["b_lo"][index], b_hi=arrays["b_hi"][index])
        return digest(rows(rest)), digest(rows(added)), len(chain), len(spec)

    class Captured(Exception):
        pass

    def models(fn, features=ScheduleFeatures(max_hops=4)):
        work = clone_function(fn)
        undo_speculation(work)
        rename_registers(work)
        cfg = CfgInfo(work)
        ddg = build_dependence_graph(work, cfg, compute_liveness(work))
        region = build_region(work, cfg, ddg, max_hops=features.max_hops,
                              freq_cap=5.0, allow_predication=True)
        schedule = ListScheduler(ITANIUM2).schedule(work, ddg)
        lengths = lengths_from_input(schedule, work, reserve=features.reserve)
        spec_pairs.clear()
        ilp, _ = IlpScheduler(features=features)._build_ilp(
            region, lengths, [])
        model = ilp.generate()
        out = {}
        (out["phase1"], out["added"], out["chain_rows"],
         out["spec_chain_rows"]) = split(model)
        hosted = {}
        for (instr, block, t) in ilp.x:
            hosted.setdefault(block, [])
            if instr not in hosted[block]:
                hosted[block].append(instr)
        block = max(sorted(hosted), key=lambda b: len(hosted[b]))
        ilp.append_bundling_cut([(i, block) for i in hosted[block][:3]])
        out["cut"] = split(model)[0]

        def capture(model, **kwargs):
            out["phase2"] = split(model)[0]
            raise Captured

        phase2.solve_model = capture
        try:
            phase2.minimize_instruction_count(ilp, dict(lengths))
        except Captured:
            pass
        added = out["chain_rows"] + out["spec_chain_rows"]
        out["size"] = [model.num_constraints - added, model.num_variables]
        out["cyc"] = sum(v.name.startswith("cyc_") for v in model.variables)
        out["usespec"] = sum(
            v.name.startswith("usespec_") for v in model.variables)
        out["once"] = sum(
            c.name.startswith("once_") for c in model.constraints)
        return out

    def modulo(fn):
        cfg = CfgInfo(fn)
        ddg = build_dependence_graph(fn, cfg, compute_liveness(fn))
        for loop in cfg.loops:
            if recognize_counted_loop(fn, loop) is None:
                continue
            body = loop_body(fn, loop)
            edges = build_modulo_edges(fn, loop, body, ddg)
            mii = max(resource_mii(body, ITANIUM2),
                      recurrence_mii(body, edges))
            ref = ReferenceModuloIlp(body, edges, mii + 1)
            milp = ModuloIlp(body, edges, mii + 1)
            return {"modulo": digest(ref.model.to_arrays()),
                    "size": [ref.model.num_constraints,
                             ref.model.num_variables],
                    "windowed": digest(milp.model.to_arrays()),
                    "windowed_size": [milp.model.num_constraints,
                                      milp.model.num_variables]}
        raise SystemExit("no counted loop")

    result = {}
    for name in ("firstone", "get_heap_head", "send_bits"):
        result[name] = models(build_spec_routine(name, scale=0.2))
    for seed, count, blocks in ((901, 24, 5), (907, 32, 7)):
        spec = RoutineSpec(name=f"g{seed}", seed=seed,
                           instructions=count, blocks=blocks)
        result[spec.name] = models(generate_routine(spec))
    result["combo"] = models(parse_function(COMBO))
    spec, fn = list(loop_dominated_family(count=3, seed=1))[2]
    result[spec.name] = modulo(fn)
    print(json.dumps(result, sort_keys=True))
    """
)


def _build_digests():
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


GOLDEN = {
    "combo": {
        "cut": "72431e537e92e7d727ea039f181e9a80861f766046d3aabf3dba20a5f17e2cba",
        "cyc": 1,
        "once": 4,
        "phase1": "bed0d52bcd5834b90c310a45514765f45225deda1116056dd800b1055bfdcc93",
        "phase2": "51c961aabcfb8b1509743fd1083ce26c42f7760454b5a988d9c7bf58de8e88f9",
        "size": [838, 357],
        "usespec": 1,
    },
    "firstone": {
        "cut": "6f54470d5142e2e3149179372b24c1bfc56211014a3e582657041783748d6654",
        "cyc": 0,
        "once": 0,
        "phase1": "6bd64fabd8a69ac6587eb987295d105f1f7717b93e6e24c68daa10d14c70c290",
        "phase2": "c56003276d7724193f8d6a3381a0c8462c4301ef32015fe9bce51b943735c036",
        "size": [155, 98],
        "usespec": 0,
    },
    "g901": {
        "cut": "61cd1e7ee8e13aa85ec4760bd23a8ec11c0441dd20296521d5cbaa85c3461c5b",
        "cyc": 0,
        "once": 0,
        "phase1": "2363703ab64eda1d4f4206ecdd66809168f26cdb9fe312ca0c8c86e7e55b3e6d",
        "phase2": "f3703be4c99a6024e3091ec5e4fa081c926b37e6efa4895181abe266c75e9506",
        "size": [1238, 561],
        "usespec": 4,
    },
    "g907": {
        "cut": "1ccce7d8bfa3264cdafff2c3693b45f39f3bf54d21a1bb1b696c070d318df240",
        "cyc": 0,
        "once": 0,
        "phase1": "fadbd795ad7ab2b1c121a8f73c1ac9d7a9b488664a1def467d7ccf28b74fe84a",
        "phase2": "3add7acb70a67c756eae4e2bd684ce84078b96784ed0e9ba11c12316bf119889",
        "size": [1101, 515],
        "usespec": 4,
    },
    "get_heap_head": {
        "cut": "3ea5a2a8e2306d230d5820ad7bb5bc285db5c90e2b77eb0e6f1875b22c83d26f",
        "cyc": 0,
        "once": 0,
        "phase1": "fef1654cdbee8b6922babe5f43146513cc0829b43407fbfc2939caac1ad82134",
        "phase2": "f8569685fb3805a285f62b28c4b92060d03131578e537607374572c41ed41a64",
        "size": [870, 330],
        "usespec": 1,
    },
    "loop2": {
        "modulo": "5863f38508393d14a37cc6d57299c9acea226a34b54fc61b1782ed79c83f593e",
        "size": [69, 208],
        "windowed": "39031883f44c14f66680b102bb08b44bffb4c0800ae1c3cb76e9835be6a2e192",
        "windowed_size": [52, 189],
    },
    "send_bits": {
        "cut": "cbd2644d3ceea80e6474dd441639b34fb326453f79c550c8fdde33b644aa806f",
        "cyc": 0,
        "once": 0,
        "phase1": "321593c239a3cfc30a9d3bb7cbf61cf15c48591e84cd6bb966bf12e8946229f3",
        "phase2": "002e16aea962f912979272e64e4fa95d8e1f8558cedb3ce16a18653354fd122e",
        "size": [394, 181],
        "usespec": 1,
    },
}


ADDED_GOLDEN = {
    "combo": {
        "added": "4cc60037f0ef5cbf21698242b7c37ada26940079c8d2cd22e6a0e087d25f1176",
        "chain_rows": 2,
        "spec_chain_rows": 0,
    },
    "firstone": {
        "added": "843f7db05d9f79651f1dceb1a472c2793b8bfd4a029f2beec4db5a57d1dd3b30",
        "chain_rows": 1,
        "spec_chain_rows": 0,
    },
    "g901": {
        "added": "8aaeb713da0157b9385c06049ab380dc4df512ae3c62934c4a756288a408ac85",
        "chain_rows": 2,
        "spec_chain_rows": 26,
    },
    "g907": {
        "added": "996b03ca813bbb880753f944daf699fac3f12d085658fc7c85c1edc091ef2e9c",
        "chain_rows": 4,
        "spec_chain_rows": 0,
    },
    "get_heap_head": {
        "added": "783e200b5dee7093190462d4a86340e3b36540c2d7ec6c6249a6c31c818543bf",
        "chain_rows": 1,
        "spec_chain_rows": 0,
    },
    "send_bits": {
        "added": "731524f969313645970c4dfed971153a9989c238107358eeeca942bd5e0581aa",
        "chain_rows": 1,
        "spec_chain_rows": 0,
    },
}


def test_models_are_array_identical_to_the_recorded_digests():
    digests = _build_digests()
    combo = digests["combo"]
    assert combo["cyc"] and combo["usespec"] and combo["once"]
    added = {
        name: {
            key: entry.pop(key)
            for key in ("added", "chain_rows", "spec_chain_rows")
        }
        for name, entry in digests.items()
        if "added" in entry
    }
    assert digests == GOLDEN
    assert added == ADDED_GOLDEN
