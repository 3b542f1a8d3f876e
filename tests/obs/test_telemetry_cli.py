"""``tia-telemetry``: rollup correctness, SLO gating, CLI plumbing.

The rollup is tested against hand-built journals (every outcome kind,
multiple replicas, drain summaries), the SLO engine against both
rule syntaxes and the gate exit codes, and the counter reconstruction
against the documented exit-path mapping.
"""

import json

import pytest

from repro.obs import telemetry
from repro.obs.journal import TelemetryJournal, request_record, seal_record


def _write_journal(root, records):
    journal = TelemetryJournal(root)
    for record in records:
        assert journal.append(record)
    journal.close()


def _mixed_records():
    return [
        request_record(
            "ok",
            trace_id="t1",
            request_id="r1",
            family="famA",
            routines=[
                {"routine": "x", "kind": "miss", "quality": "optimal"}
            ],
            timings={"queue_wait": 0.01, "solve": 0.2, "total": 0.25},
            cache_kinds={"miss": 1},
            replica="a:1",
        ),
        request_record(
            "ok",
            trace_id="t2",
            request_id="r2",
            family="famA",
            routines=[
                {"routine": "x", "kind": "exact", "quality": "optimal"}
            ],
            timings={"queue_wait": 0.02, "solve": 0.0, "total": 0.05},
            cache_kinds={"exact": 1},
            replica="a:1",
        ),
        request_record(
            "busy", trace_id="t3", shed_reason="overload", replica="a:1"
        ),
        request_record(
            "error", request_id="r4", error="no routines in payload",
            replica="a:1",
        ),
        request_record("drained", shed_reason="draining", replica="a:1"),
        request_record("fault", fault="serve.accept", replica="a:1"),
        request_record("probe", request_id="h1", replica="a:1"),
        seal_record(
            {
                "kind": "portfolio_summary",
                "ts": 99.0,
                "replica": "a:1",
                "counters": {
                    "completed": 2, "shed": 1, "drained": 1,
                    "probes": 1, "accept_errors": 1, "rejected": 4,
                },
                "drain_reason": "max-requests",
                "write_errors": 0,
            }
        ),
    ]


class TestRollup:
    def test_counters_reconstruct_exit_paths(self, tmp_path):
        _write_journal(tmp_path / "j", _mixed_records())
        rollup = telemetry.journal_rollup(tmp_path / "j")
        assert rollup["counters"] == {
            "completed": 2,
            "shed": 1,
            "drained": 1,
            "probes": 1,
            "accept_errors": 1,
            "rejected": 4,
        }
        # ... and matches what the replica itself reported at drain.
        assert rollup["reported_counters"] == rollup["counters"]

    def test_rollup_facets(self, tmp_path):
        _write_journal(tmp_path / "j", _mixed_records())
        rollup = telemetry.journal_rollup(tmp_path / "j")
        assert rollup["requests"] == 6  # probe excluded
        assert rollup["cache_kinds"] == {"miss": 1, "exact": 1}
        assert rollup["cache_hit_rate"] == 0.5
        assert rollup["shed_reasons"] == {"overload": 1, "draining": 1}
        assert rollup["faults"] == {"serve.accept": 1}
        assert rollup["distinct_traces"] == 3
        fam = rollup["families"]["famA"]
        assert fam["requests"] == 2
        assert fam["latency"]["count"] == 2
        assert rollup["latency"]["total"]["count"] == 2

    def test_empty_journal(self, tmp_path):
        rollup = telemetry.journal_rollup(tmp_path / "missing")
        assert rollup["records"] == 0
        assert rollup["counters"]["completed"] == 0
        assert rollup["cache_hit_rate"] is None


class TestOldFormatJournal:
    """Journals written while the solver race existed carry a request
    ``portfolio`` member and drain-record ``families`` tallies; both must
    still verify, roll up and report."""

    @staticmethod
    def _old_records():
        records = _mixed_records()
        records[0]["portfolio"] = {
            "races": 1, "winner": "highs", "seed_transfers": 2,
        }
        records[-1]["families"] = {"famA": {"highs#0": 1}}
        return [seal_record(record) for record in records]

    def test_verify_accepts_old_members(self, tmp_path, capsys):
        _write_journal(tmp_path / "j", self._old_records())
        assert telemetry.main(["verify", str(tmp_path / "j")]) == 0
        out = capsys.readouterr().out
        assert "0 bad line(s), 0 shard(s) quarantined" in out

    def test_report_still_matches(self, tmp_path, capsys):
        _write_journal(tmp_path / "j", self._old_records())
        assert telemetry.main(["report", str(tmp_path / "j")]) == 0
        assert "[matches]" in capsys.readouterr().out
        rollup = telemetry.journal_rollup(tmp_path / "j")
        assert rollup["requests"] == 6
        assert set(rollup["families"]["famA"]) == {
            "requests", "cache_kinds", "quality_tiers", "latency",
        }
        assert rollup["drain_summaries"][0]["counters"]["completed"] == 2


class TestSloRules:
    def test_parse_rule_forms(self):
        assert telemetry.parse_rule("ok_rate>=0.9") == {
            "metric": "ok_rate", "min": 0.9,
        }
        assert telemetry.parse_rule("p99_total <= 2.5") == {
            "metric": "p99_total", "max": 2.5,
        }

    def test_parse_rule_rejects_garbage(self):
        for expr in ("ok_rate=0.9", "nope>=1", "ok_rate>=fast", ""):
            with pytest.raises(telemetry.SloRuleError):
                telemetry.parse_rule(expr)

    def test_check_slos(self, tmp_path):
        _write_journal(tmp_path / "j", _mixed_records())
        rollup = telemetry.journal_rollup(tmp_path / "j")
        results = telemetry.check_slos(
            rollup,
            [
                {"metric": "ok_rate", "min": 0.2},
                {"metric": "ok_rate", "min": 0.99},
                {"metric": "requests", "min": 1},
                {"metric": "write_errors", "max": 0},
            ],
        )
        oks = [r["ok"] for r in results]
        assert oks == [True, False, True, True]
        assert "min" in results[1]["reason"]

    def test_unmeasurable_metric_fails_closed(self, tmp_path):
        _write_journal(
            tmp_path / "j", [request_record("busy", shed_reason="overload")]
        )
        rollup = telemetry.journal_rollup(tmp_path / "j")
        results = telemetry.check_slos(
            rollup, [{"metric": "p99_total", "max": 1.0}]
        )
        assert results[0]["ok"] is False
        assert "not measurable" in results[0]["reason"]

    def test_rules_file(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(
            json.dumps([{"metric": "ok_rate", "min": 0.5}])
        )
        assert telemetry.load_rules(str(path)) == [
            {"metric": "ok_rate", "min": 0.5}
        ]
        path.write_text(json.dumps([{"metric": "bogus", "min": 1}]))
        with pytest.raises(telemetry.SloRuleError):
            telemetry.load_rules(str(path))


class TestCli:
    def test_report_and_families(self, tmp_path, capsys):
        _write_journal(tmp_path / "j", _mixed_records())
        assert telemetry.main(["report", str(tmp_path / "j")]) == 0
        out = capsys.readouterr().out
        assert "counters (reconstructed)" in out
        assert "[matches]" in out
        assert telemetry.main(["families", str(tmp_path / "j")]) == 0
        out = capsys.readouterr().out
        assert "famA" in out

    def test_report_json_roundtrips(self, tmp_path, capsys):
        _write_journal(tmp_path / "j", _mixed_records())
        assert telemetry.main(["report", str(tmp_path / "j"), "--json"]) == 0
        rollup = json.loads(capsys.readouterr().out)
        assert rollup["counters"]["completed"] == 2

    def test_tail(self, tmp_path, capsys):
        _write_journal(tmp_path / "j", _mixed_records())
        assert telemetry.main(
            ["tail", str(tmp_path / "j"), "-n", "3"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[-1])["kind"] == "portfolio_summary"
        assert telemetry.main(
            ["tail", str(tmp_path / "j"), "--kind", "request", "-n", "99"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(
            json.loads(line)["kind"] == "request" for line in lines
        )

    def test_slo_gate_exit_codes(self, tmp_path, capsys):
        _write_journal(tmp_path / "j", _mixed_records())
        root = str(tmp_path / "j")
        assert telemetry.main(
            ["slo", root, "--rule", "ok_rate>=0.1", "--gate"]
        ) == 0
        assert telemetry.main(
            ["slo", root, "--rule", "ok_rate>=0.99", "--gate"]
        ) == 1
        # Violation without --gate still exits 0 (report-only).
        assert telemetry.main(
            ["slo", root, "--rule", "ok_rate>=0.99"]
        ) == 0
        # Malformed rules are config errors: rc 2.
        assert telemetry.main(
            ["slo", root, "--rule", "bogus>=1", "--gate"]
        ) == 2
        assert telemetry.main(["slo", root, "--gate"]) == 2
        capsys.readouterr()

    def test_slo_json_output(self, tmp_path, capsys):
        _write_journal(tmp_path / "j", _mixed_records())
        assert telemetry.main(
            ["slo", str(tmp_path / "j"), "--rule", "ok_rate>=0.99", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == 1

    def test_gc_and_verify(self, tmp_path, capsys):
        journal = TelemetryJournal(tmp_path / "j", shard_bytes=200)
        for i in range(30):
            journal.append(seal_record({"kind": "note", "ts": float(i)}))
        journal.close()
        assert telemetry.main(
            ["gc", str(tmp_path / "j"), "--budget", "400"]
        ) == 0
        assert "evicted" in capsys.readouterr().out
        assert telemetry.main(["verify", str(tmp_path / "j")]) == 0
        assert "quarantined" in capsys.readouterr().out
