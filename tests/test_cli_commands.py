"""CLI command coverage beyond the smoke tests in test_extensions.

The heavier commands run real scenarios, so each is exercised once with
its fastest configuration.  ``fig12`` and ``table1`` only print what a
scenario returns — test_scenarios_smoke checks the scenarios — so here
their entry points are patched down to quick shapes and the tests check
wiring and rendering.
"""

import functools
import json
import pathlib

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_all_listed_experiments_have_descriptions(self):
        assert all(desc for desc in EXPERIMENTS.values())

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig12_case_choices(self):
        args = build_parser().parse_args(["fig12", "--case", "buggy_nfs"])
        assert args.case == "buggy_nfs"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig12", "--case", "nope"])

    def test_obs_flags(self):
        assert not build_parser().parse_args(["obs"]).json
        assert build_parser().parse_args(["obs", "--json"]).json

    def test_obs_in_inventory(self, capsys):
        assert main(["list"]) == 0
        assert "obs" in capsys.readouterr().out
        assert "obs" in EXPERIMENTS

    def test_fleet_flags(self):
        args = build_parser().parse_args(["fleet"])
        assert args.agents == 4 and args.latency_ms == 10.0 and not args.json
        args = build_parser().parse_args(
            ["fleet", "--agents", "2", "--latency-ms", "1", "--json"]
        )
        assert args.agents == 2 and args.latency_ms == 1.0 and args.json
        assert "fleet" in EXPERIMENTS

    def test_watch_flags(self):
        args = build_parser().parse_args(["watch"])
        assert args.machines == 6 and args.zones == 2
        assert args.rounds == 16 and args.fault_round == 4
        assert args.fault == "drop" and not args.json and not args.quick
        args = build_parser().parse_args(
            ["watch", "--fault", "crash", "--quick", "--json"]
        )
        assert args.fault == "crash" and args.quick and args.json
        with pytest.raises(SystemExit):
            build_parser().parse_args(["watch", "--fault", "nope"])
        assert "watch" in EXPERIMENTS


@pytest.mark.slow
class TestHeavyCommands:
    def test_fig12_single_case(self, capsys, monkeypatch):
        from repro.scenarios import fig12_propagation

        monkeypatch.setattr(
            fig12_propagation,
            "build_and_run",
            functools.partial(fig12_propagation.build_and_run, settle_s=0.5),
        )
        assert main(["fig12", "--case", "underloaded_client"]) == 0
        out = capsys.readouterr().out
        assert "== underloaded_client" in out
        assert "b/t_in" in out and "b/t_out" in out
        assert "root causes: ['client'] (paper: client)" in out

    def test_table1(self, capsys, monkeypatch):
        from repro.scenarios import table1_rulebook

        monkeypatch.setattr(
            table1_rulebook,
            "run_all",
            lambda: [
                table1_rulebook.run_scenario(
                    "outgoing_small_packets", duration_s=1.0
                )
            ],
        )
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "resource in shortage" in out
        assert "outgoing-bandwidth" in out
        assert "pcpu_backlog" in out

    def test_scale_json_verdicts_equal_flat(self, capsys):
        assert main(["scale", "--machines", "6", "--zones", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdicts_equal_flat"] is True
        assert sum(doc["shard_sizes"].values()) == 6
        assert doc["wire_reports_accepted"] == 2

    def test_chaos_json_self_heals_and_writes_nothing(self, capsys):
        out_dir = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "out"
        before = sorted(out_dir.iterdir())
        code = main(
            ["chaos", "--machines", "4", "--zones", "2", "--arcs", "1", "--json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["ok"] is True
        (arc,) = doc["arcs"]
        assert arc["only_dead_shard_moved"] and arc["healed"]
        assert "bench" not in doc and "bench_path" not in doc
        assert sorted(out_dir.iterdir()) == before

    def test_obs_human_report(self, capsys):
        assert main(["obs"]) == 0
        out = capsys.readouterr().out
        assert "ROOT CAUSE" in out and "proxy" in out
        assert "^wire" in out  # the span tree shows the wire crossing
        assert "health.transition" in out
        assert "perfsight_channel_read_latency_seconds" in out

    def test_obs_json_document(self, capsys):
        assert main(["obs", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["root_causes"] == ["proxy"]
        assert doc["trace_id"]
        span_names = {s["name"] for s in doc["spans"]}
        assert {"diagnosis.propagation", "wire.call", "wire.serve"} <= span_names
        assert "perfsight_channel_read_latency_seconds_bucket" in doc["prometheus"]
        assert any(e["name"] == "health.transition" for e in doc["events"])

    def test_fleet_json_document(self, capsys):
        assert main(["fleet", "--agents", "2", "--latency-ms", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["agents"] == 2
        assert doc["peak_workers"] >= 2
        assert set(doc["machines"]) == {"host-0", "host-1"}
        assert all(m["ok"] for m in doc["machines"].values())
        assert doc["diagnosis"]["degraded_machines"] == []

    def test_watch_json_detects_injected_fault(self, capsys):
        assert main(["watch", "--quick", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["detected"]
        assert doc["detection_rounds"] <= 3
        assert doc["victim"] == "host-000"
        (incident,) = [
            i for i in doc["incidents"] if i["machine"] == doc["victim"]
        ]
        assert incident["reason"] == "loss_rate"
        assert incident["trace_id"]
        assert incident["verdicts"]
        assert doc["wire_reports_accepted"] > 0
        assert "perfsight_daemon_incidents_total" in doc["prometheus"]
        assert any(e["name"] == "incident.opened" for e in doc["events"])

    def test_watch_human_report_renders_the_trace(self, capsys):
        assert main(["watch", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "OPEN host-000" in out
        assert "incident #1: host-000" in out
        assert "incident.detector" in out
        assert "incident.escalation" in out
        assert "incident.diagnosis" in out
        assert "incident.verdict" in out
        assert "perfsight_daemon_escalations_total" in out
