"""CLI command coverage: the parser, and every command's printers.

Each demo (``obs``, ``fleet``, ``scale``, ``chaos``, ``watch``) runs its
scenario once, in a module-scoped fixture, and its ``--json`` and text
printers are both checked against that one result.  ``fig10``,
``fig12`` and ``table1`` only print what a scenario returns —
test_scenarios_smoke checks the scenarios — so their entry points are
patched down to quick shapes and the tests check wiring and rendering.
"""

import functools
import json
import pathlib

import pytest

from repro import cli, obs
from repro.cli import EXPERIMENTS, build_parser, main
from repro.scenarios import demo_chaos, demo_fleet, demo_obs, demo_scale, demo_watch

OUT_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "out"


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

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [
            "scale --machines 0",
            "chaos --zones 1 --quick",
            "watch --fault-round 0",
            "watch --rounds 0",
            "fleet --agents 0",
        ],
    )
    def test_bad_count_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        errors = [x for x in capsys.readouterr().err.splitlines() if "error:" in x]
        assert len(errors) == 1
        assert f"argument {argv.split()[1]}: must be at least" in errors[0]

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


class Stop(Exception):
    """Raised by a recording stand-in to end a command after its call."""


def recorder(calls, result=None):
    """A scenario stand-in: records its arguments and the installed obs
    hub, then returns ``result`` (or raises :class:`Stop` if None)."""

    def run(*args, **kwargs):
        calls.append((args, kwargs, obs.current()))
        if result is None:
            raise Stop
        return result

    return run


class TestDemoWiring:
    """``main`` turns argv into each scenario's arguments.  The scenarios
    are replaced by recorders, so no demo runs again here."""

    def test_scale_chaos_fleet_arguments(self, monkeypatch, capsys):
        calls = []
        for module, name, result in [
            (demo_scale, "run_scale", {"verdicts_equal_flat": True}),
            (demo_chaos, "run_chaos", {"ok": True}),
            (demo_fleet, "run_fleet", {"agents": 3}),
        ]:
            monkeypatch.setattr(module, name, recorder(calls, result))
        for argv in [
            "scale --machines 9 --zones 3",
            "chaos --quick --machines 20 --zones 3 --arcs 5",
            "chaos --machines 20 --arcs 2 --window-s 0.5",
            "fleet --agents 3 --latency-ms 2",
        ]:
            assert main(argv.split() + ["--json"]) == 0
        assert [args for args, _, _ in calls] == [
            (9, 3, 0.5), (8, 3, 0.25, 1), (20, 4, 0.5, 2), (3, 0.002),
        ]
        assert '"agents": 3' in capsys.readouterr().out

    def test_watch_and_obs_run_under_an_installed_hub(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(
            demo_watch, "run_watch", recorder(calls, ({"detected": True}, []))
        )
        assert main("watch --quick --json --machines 9 --zones 3 --rounds 20 "
                    "--fault-round 30 --fault crash".split()) == 0
        assert "prometheus" in json.loads(capsys.readouterr().out)
        # Without --json every round is printed live as it closes.
        monkeypatch.setattr(demo_watch, "run_watch", recorder(calls))
        monkeypatch.setattr(demo_obs, "run_obs", recorder(calls))
        for argv in ["watch --rounds 7", "obs --json"]:
            with pytest.raises(Stop):
                main(argv.split())
        assert [(args, kwargs) for args, kwargs, _ in calls] == [
            ((4, 3, 12, 12, 0.25), {"fault": "crash", "on_round": None}),
            ((6, 2, 7, 4, 0.25),
             {"fault": "drop", "on_round": cli.print_watch_round}),
            ((), {}),
        ]
        assert all(hub is not None for _, _, hub in calls)
        assert obs.current() is None


class TestLightCommands:
    def test_fig16_command(self, capsys):
        assert main(["fig16"]) == 0
        assert "agent CPU" in capsys.readouterr().out

    def test_fig10_command(self, capsys, monkeypatch):
        from repro.scenarios import fig10_backlog_contention as fig10

        flow1 = [(5.0, 500.0), (20.0, 170.0)]  # (t, Mbps): before, during
        result = fig10.Fig10Result(flow1, [], {"pnic": 3.0}, False)
        monkeypatch.setattr(fig10, "build_and_run", lambda: result)
        assert main(["fig10"]) == 0
        out = capsys.readouterr().out
        assert "flow1: 500 Mbps before the flood, 170 Mbps during" in out
        assert "NIC saturated: False\ndrop locations: {}" in out


@pytest.fixture(scope="module")
def obs_run():
    hub = obs.Observability()
    with obs.installed(hub):
        report, quality = demo_obs.run_obs()
    return report, quality, hub


@pytest.fixture(scope="module")
def fleet_run():
    return demo_fleet.run_fleet(2, 0.002)  # fleet --agents 2 --latency-ms 2


@pytest.fixture(scope="module")
def scale_run():
    return demo_scale.run_scale(6, 2, 0.5)  # scale --machines 6 --zones 2


@pytest.fixture(scope="module")
def chaos_run():
    before = sorted(OUT_DIR.iterdir())
    # chaos --machines 4 --zones 2 --arcs 1
    return demo_chaos.run_chaos(4, 2, 0.25, 1), before


@pytest.fixture(scope="module")
def watch_run():
    hub = obs.Observability()
    with obs.installed(hub):
        result, incidents = demo_watch.run_watch(4, 2, 12, 4, 0.25)  # watch --quick
    return result, incidents, hub


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

    def test_scale_json_verdicts_equal_flat(self, capsys, scale_run):
        assert cli.print_scale(scale_run, as_json=True) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdicts_equal_flat"] is True
        assert sum(doc["shard_sizes"].values()) == 6
        assert doc["wire_reports_accepted"] == 2
        rollup = doc["rollup"]
        droppers = rollup["top_droppers"]
        assert 0 < len(droppers) <= 5
        losses = [pkts for _m, pkts in droppers]
        assert losses == sorted(losses, reverse=True)
        assert droppers[0][0] == rollup["worst_machine"]
        assert 0.0 <= rollup["loss_rate_p99"] <= 1.0
        # The rebalance round reads every moved machine from full data.
        assert doc["rebalance_moves"] and rollup["degraded_machines"] == []

    def test_scale_human_report(self, capsys, scale_run):
        assert cli.print_scale(scale_run, as_json=False) == 0
        out = capsys.readouterr().out
        assert "hierarchical control plane: 6 machines across 2 zone(s)" in out
        assert "verdicts vs flat controller on the same window: EQUAL" in out
        assert "rebalance: last zone left" in out
        assert f"top droppers (pkts): {scale_run['rollup']['worst_machine']} " in out

    def test_scale_exits_1_on_a_degraded_rollup(self, capsys, scale_run):
        degraded = {
            **scale_run,
            "rollup": {**scale_run["rollup"], "degraded_machines": ["host-002"]},
        }
        assert cli.print_scale(degraded, as_json=False) == 1
        capsys.readouterr()

    def test_chaos_json_self_heals_and_writes_nothing(self, capsys, chaos_run):
        result, before = chaos_run
        assert cli.print_chaos(result, as_json=True) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        (arc,) = doc["arcs"]
        assert arc["only_dead_shard_moved"] and arc["healed"]
        partition = doc["partition"]
        assert sorted(partition) == ["healed_without_failover", "stale_zones"]
        assert partition["stale_zones"] and partition["healed_without_failover"]
        assert "bench" not in doc and "bench_path" not in doc
        assert sorted(OUT_DIR.iterdir()) == before

    def test_chaos_human_report(self, capsys, chaos_run):
        assert cli.print_chaos(chaos_run[0], as_json=False) == 0
        out = capsys.readouterr().out
        assert "baseline verdicts vs flat controller: EQUAL" in out
        assert "== kill/restart arc 0: victim zone-0" in out
        assert "only the dead shard moved" in out
        assert "!!" not in out  # every arc step healed
        assert out.rstrip().endswith("== RECONVERGED")

    def test_obs_human_report(self, capsys, obs_run):
        assert cli.print_obs(*obs_run, as_json=False) == 0
        out = capsys.readouterr().out
        assert "ROOT CAUSE" in out and "proxy" in out
        assert "^wire" in out  # the span tree shows the wire crossing
        assert "health.transition" in out
        assert "perfsight_channel_read_latency_seconds" in out

    def test_obs_json_document(self, capsys, obs_run):
        assert cli.print_obs(*obs_run, as_json=True) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["root_causes"] == ["proxy"]
        assert doc["trace_id"]
        span_names = {s["name"] for s in doc["spans"]}
        assert {"diagnosis.propagation", "wire.call", "wire.serve"} <= span_names
        assert "perfsight_channel_read_latency_seconds_bucket" in doc["prometheus"]
        assert any(e["name"] == "health.transition" for e in doc["events"])

    def test_fleet_json_document(self, capsys, fleet_run):
        assert cli.print_fleet(fleet_run, as_json=True) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["agents"] == 2
        # Overlap itself is proven deterministically in test_fleet.py
        # (a two-party barrier); two 2 ms sleeps need not overlap here.
        assert type(doc["peak_workers"]) is int
        assert 1 <= doc["peak_workers"] <= doc["agents"]
        assert set(doc["machines"]) == {"host-0", "host-1"}
        assert all(m["ok"] for m in doc["machines"].values())
        assert doc["diagnosis"]["degraded_machines"] == []

    def test_fleet_human_report(self, capsys, fleet_run):
        assert cli.print_fleet(fleet_run, as_json=False) == 0
        out = capsys.readouterr().out
        assert "concurrent fleet collection: 2 TCP agents, 2 ms emulated RTT" in out
        assert "  host-0: " in out and "  host-1: " in out
        assert "FAILED" not in out
        assert "Fleet diagnosis over 2 machine(s)" in out

    def test_watch_json_detects_injected_fault(self, capsys, watch_run):
        assert cli.print_watch(*watch_run, as_json=True) == 0
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

    def test_watch_human_report_renders_the_trace(self, capsys, watch_run):
        result, _, _ = watch_run
        for entry in result["rounds"]:  # the live feed, replayed
            cli.print_watch_round(entry)
        assert cli.print_watch(*watch_run, as_json=False) == 0
        out = capsys.readouterr().out
        assert "OPEN host-000" in out
        assert "incident #1: host-000" in out
        assert "incident.detector" in out
        assert "incident.escalation" in out
        assert "incident.diagnosis" in out
        assert "incident.verdict" in out
        assert "perfsight_daemon_escalations_total" in out
