"""tia-opt CLI."""

import pytest

from repro.ir.parser import parse_function
from repro.tools.optimize import main
from repro.workloads.samples import fig4_speculation_sample


@pytest.fixture
def asm_file(tmp_path):
    path = tmp_path / "fig4.tia"
    path.write_text(fig4_speculation_sample())
    return path


def test_optimizes_to_stdout(asm_file, capsys):
    rc = main([str(asm_file), "--time-limit", "30"])
    assert rc == 0
    captured = capsys.readouterr()
    assert ".proc speculation_demo" in captured.out
    assert "verification passed" in captured.err
    # Output parses back and preserves structure (plus recovery blocks
    # for any used speculation groups).
    fn = parse_function(captured.out)
    names = [b.name for b in fn.blocks]
    assert names[:3] == ["A", "B", "C"]
    assert all(n.startswith("recover_") for n in names[3:])


def test_output_file(asm_file, tmp_path, capsys):
    out = tmp_path / "opt.tia"
    rc = main([str(asm_file), "-o", str(out), "--time-limit", "30"])
    assert rc == 0
    fn = parse_function(out.read_text())
    mnemonics = {i.mnemonic for i in fn.all_instructions()}
    assert "ld8.s" in mnemonics  # speculation applied


def test_feature_flags(asm_file, capsys):
    rc = main(
        [
            str(asm_file),
            "--no-speculation",
            "--no-data-speculation",
            "--time-limit",
            "30",
        ]
    )
    assert rc == 0
    captured = capsys.readouterr()
    fn = parse_function(captured.out)
    mnemonics = {i.mnemonic for i in fn.all_instructions()}
    assert "ld8.s" not in mnemonics


def test_schedule_flag(asm_file, capsys):
    rc = main([str(asm_file), "--schedule", "--time-limit", "30"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "length" in captured.err


def test_trace_and_metrics_exports(asm_file, tmp_path, capsys):
    import json

    from repro.obs import core as obs
    from repro.obs.export import validate_chrome_trace, validate_metrics

    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    events_path = tmp_path / "events.jsonl"
    try:
        rc = main(
            [
                str(asm_file),
                "--time-limit", "30",
                "--trace", str(trace_path),
                "--metrics", str(metrics_path),
                "--events", str(events_path),
            ]
        )
    finally:
        obs.disable()
    assert rc == 0
    trace = json.loads(trace_path.read_text())
    assert validate_chrome_trace(trace) == []
    names = {e["name"] for e in trace["traceEvents"] if e.get("ph") == "X"}
    assert {"optimize", "solve.phase1", "ilp.solve"} <= names
    metrics = json.loads(metrics_path.read_text())
    assert validate_metrics(metrics) == []
    assert any(
        k.startswith("routine_fallback_total") for k in metrics["counters"]
    )
    lines = events_path.read_text().splitlines()
    assert json.loads(lines[0])["type"] == "meta"


def test_prom_metrics_suffix(asm_file, tmp_path, capsys):
    from repro.obs import core as obs

    prom = tmp_path / "metrics.prom"
    try:
        rc = main([str(asm_file), "--time-limit", "30", "--metrics", str(prom)])
    finally:
        obs.disable()
    assert rc == 0
    assert "# TYPE" in prom.read_text()


def test_report_includes_phase_breakdown(asm_file, capsys):
    rc = main([str(asm_file), "--time-limit", "30"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "phases:" in captured.err
    assert "phase 1" in captured.err


# B holds one movable add and an unconditional branch to D; C, not D,
# follows it in layout. Once the solver hoists the add and empties B, the
# branch is dropped (Sec. 5.4), so the emitted B must branch to D itself.
# B and C weigh 60 each against A's 100, so hoisting both adds into A
# (one more cycle of A) beats keeping them (a cycle each of B and C);
# with weights that sum to A's the two schedules tie.
LOST_FALL_THROUGH = """
.proc ft
.livein r32, r33
.liveout r8
.block A freq=100 succ=B:0.5,C:0.5
  add r14 = r32, r33
  cmp.eq p6, p7 = r14, r0
  (p6) br.cond C
.block B freq=60
  add r15 = r32, 1
  br D
.block C freq=60
  add r15 = r33, 2
.block D freq=100
  add r8 = r15, r14
  br.ret b0
.endp
"""


def test_emptied_block_keeps_its_successor(tmp_path, capsys):
    path = tmp_path / "ft.tia"
    path.write_text(LOST_FALL_THROUGH)
    assert main([str(path), "--time-limit", "30"]) == 0
    emitted = parse_function(capsys.readouterr().out)
    source = parse_function(LOST_FALL_THROUGH)
    assert [i.mnemonic for i in emitted.block("B").instructions] == ["br"]
    for block in source.blocks:
        assert set(emitted.successors(block.name)) == set(
            source.successors(block.name)
        ), block.name
