"""Hierarchical control plane: zones, fleet roll-ups, push-on-change.

The contract under test is the one that makes the hierarchy safe to
deploy: a fleet diagnosed through zone aggregators reaches verdicts
*equal* to a flat single-controller baseline on the same injected
faults (the split-phase scan shares one time advance across every
tier), the root never materializes per-machine mirrors, shard
rebalances move only the departed zone's machines, and the agents'
push path is a pure optimization over poll — overlapping the two can
never duplicate or lose state.
"""

import json

import pytest

from repro.core.agent import DEFAULT_PUSH_PERIOD_S
from repro.core.controller import AgentMirror, FleetController, ZoneController
from repro.core.diagnosis.report import (
    FleetRollup,
    MachineSummary,
    ZoneAggregates,
    ZoneReport,
)
from repro.core.net import FleetServer, ZoneClient
from repro.core.rulebook import VM_BOTTLENECK, Verdict
from repro.middleboxes.http import HttpServer
from repro.scenarios.common import Harness
from repro.scenarios.fleet import (
    EVERY_THIRD_OVERDRIVEN,
    ZoneTarget,
    add_receivers,
    shard,
    split_round,
)
from repro.simnet.packet import Flow
from repro.workloads.traffic import ExternalTrafficSource

WINDOW_S = 0.5


def receivers(n_machines, two_vms=()):
    """``host-000``.. receivers, polled once.  Every third is overdriven
    past its vNIC cap: a VM_BOTTLENECK verdict among clean machines.

    Each machine named in ``two_vms`` also hosts a clean ``vm1``
    receiver beside ``vm0``, so its summary rolls up several VMs.
    """
    h = Harness()
    add_receivers(h, n_machines, EVERY_THIRD_OVERDRIVEN)
    for name in two_vms:
        machine = h.machines[name]
        vm = machine.add_vm("vm1", vcpu_cores=1.0)
        app = HttpServer(h.sim, vm, f"app1-{name}", cpu_per_byte=1e-9)
        flow = Flow(f"rx1-{name}", dst_vm="vm1", kind="udp")
        vm.bind_udp(flow, app.socket)
        ExternalTrafficSource(
            h.sim, f"src1-{name}", flow, machine.inject, rate_bps=100e6
        )
    h.advance(0.5)
    for agent in h.agents.values():
        agent.poll_once()
    return h


class TestHierarchyEqualsFlat:
    def test_zone_rollup_verdicts_equal_flat_controller(self):
        # The faulted machines carry a second, clean VM: their loss rate
        # and verdict scope are rolled up over more than one VM.
        h = receivers(6, two_vms=("host-000", "host-003"))
        fleet = FleetController("root")
        zones, _ = shard(fleet, h.agents, 2)
        assert all(z.machines() for z in zones.values()), "degenerate shard"

        # Split-phase scan: every tier opens its windows, ONE shared
        # advance moves time, every tier closes.  All reports measure
        # the exact same interval — the equality below is exact, not
        # approximate.  h.controller is registered with every agent by
        # the harness: it is the flat baseline.
        flat_diag, reports = split_round(h, zones, WINDOW_S)
        for report in reports.values():
            assert fleet.ingest_zone_report(report)
        rollup = fleet.rollup()
        summaries = {
            m: s for report in reports.values() for m, s in report.machines.items()
        }
        assert summaries["host-000"].elements > summaries["host-001"].elements

        assert isinstance(rollup, FleetRollup)
        assert rollup.machines == flat_diag.machines
        assert rollup.verdicts == flat_diag.verdicts  # exact, incl. order
        assert [m for m, _ in rollup.verdicts], "fault injection produced nothing"
        assert rollup.degraded_machines == flat_diag.degraded_machines
        for machine, loss in flat_diag.loss_by_machine.items():
            assert rollup.loss_by_machine[machine] == pytest.approx(loss)
        assert rollup.worst_machine == flat_diag.worst_machine
        # The faulted machines really are the ones carrying verdicts.
        assert {m for m, _ in rollup.verdicts} == {"host-000", "host-003"}
        for _, verdict in rollup.verdicts:
            assert isinstance(verdict, Verdict)
            assert VM_BOTTLENECK in verdict.resources

    def test_root_never_materializes_per_machine_state(self):
        h = receivers(4)
        fleet = FleetController("root")
        zones, _ = shard(fleet, h.agents, 2)
        for zc in zones.values():
            diag = zc.diagnose_fleet(h.advance, window_s=0.25)
            fleet.ingest_zone_report(zc.build_zone_report(diag))

        # The root has no agent registry at all — mirrors stop at the
        # zone tier by construction, not by restraint.
        assert not hasattr(fleet, "register_agent")
        assert not hasattr(fleet, "mirror_for")
        assert all(isinstance(m, str) for m in fleet.fleet_machines())
        for value in vars(fleet).values():
            leaves = value.values() if isinstance(value, dict) else [value]
            for leaf in leaves:
                assert not isinstance(leaf, AgentMirror)
                latest = getattr(leaf, "latest", None)
                if latest is not None:
                    assert isinstance(latest, ZoneReport)
                    for summary in latest.machines.values():
                        assert isinstance(summary, MachineSummary)
        # ... yet the roll-up still answers fleet-wide questions.
        rollup = fleet.rollup()
        assert rollup.machines == sorted(h.agents)
        assert rollup.throughput_pps > 0

    def test_root_holds_scalars_zones_hold_series(self):
        """The memory split the hierarchy exists for: the root keeps a
        bounded roll-up per machine, the zones keep the time series."""
        h = receivers(4)
        fleet = FleetController("root")
        zones, _ = shard(fleet, h.agents, 2)
        _, reports = split_round(h, zones, WINDOW_S, flat=False)
        for report in reports.values():
            assert fleet.ingest_zone_report(report)

        machines = len(h.agents)
        root_bytes = sum(
            len(json.dumps(fleet.zone_record(z).latest.to_wire()))
            for z in fleet.zones()
        )
        assert root_bytes / machines < 2048
        zone_rows = sum(
            len(zc.mirror_for(m).store)
            for zc in zones.values() for m in zc.machines()
        )
        assert zone_rows > machines

    def test_zone_leave_rebalances_only_departed_shard(self):
        h = receivers(6)
        fleet = FleetController("root")
        zones, _ = shard(fleet, h.agents, 3)

        victim = next(z for z in fleet.zones() if zones[z].machines())
        departed = set(zones[victim].machines())
        moves = fleet.remove_zone(victim)
        assert set(moves) == departed  # nothing else shuffled
        for name, (old, new) in moves.items():
            assert old == victim and new != victim
            zones[new].register_agent(name, zones[old].unregister_agent(name))
        assert not zones[victim].machines()

        # The survivors between them still cover the whole fleet, and a
        # post-rebalance diagnosis runs end to end.
        survivors = [zones[z] for z in fleet.zones()]
        covered = sorted(m for z in survivors for m in z.machines())
        assert covered == sorted(h.agents)
        for zc in survivors:
            diag = zc.diagnose_fleet(h.advance, window_s=0.25)
            fleet.ingest_zone_report(zc.build_zone_report(diag))
        assert fleet.rollup().machines == sorted(h.agents)

    def test_coarse_and_zone_reports_read_the_same_window(self):
        """Both report kinds summarize one trailing mirror window per
        machine: over the same mirrors and window their rates, element
        counts and health are equal, and they share one seq."""
        h = receivers(4)
        zone = ZoneController("z1")
        for agent in h.agents.values():
            zone.register_local_agent(agent)
        full = zone.build_zone_report(zone.diagnose_fleet(h.advance, WINDOW_S))
        coarse = zone.build_coarse_report(WINDOW_S)
        assert coarse.seq == full.seq + 1
        assert sorted(coarse.machines) == sorted(full.machines) == sorted(h.agents)
        fields = ("throughput_pps", "pkt_loss_rate", "avg_pkt_size", "elements",
                  "health")
        for machine, summary in full.machines.items():
            for name in fields:
                assert getattr(coarse.machines[machine], name) == getattr(
                    summary, name
                ), (machine, name)
        assert all(s.throughput_pps > 0 for s in full.machines.values())
        assert any(s.pkt_loss_rate > 0 for s in full.machines.values())


def lossy_summary(machine, loss_pkts, rate):
    return MachineSummary(
        machine=machine, health="healthy", loss_pkts=loss_pkts, pkt_loss_rate=rate
    )


def rollup_of(*reports):
    """The root's roll-up after it accepted each zone report once."""
    fleet = FleetController("root")
    for report in reports:
        fleet.register_zone(report.zone)
        assert fleet.ingest_zone_report(report)
    return fleet.rollup()


class TestFleetAggregates:
    """Top droppers and loss-rate quantiles, read exactly from the
    machine summaries the root already holds."""

    def test_top_droppers_and_quantiles_are_exact(self):
        # More lossy machines than a 10-entry top-k sketch tracks.
        losses = {f"m{i:02d}": 111.0 - i for i in range(12)}
        rates = {m: loss / 1000 for m, loss in losses.items()}
        report = ZoneReport(
            zone="z0",
            seq=1,
            window_s=WINDOW_S,
            machines={m: lossy_summary(m, losses[m], rates[m]) for m in losses},
        )
        rollup = rollup_of(report)

        assert rollup.top_droppers(3) == [
            ("m00", 111.0), ("m01", 110.0), ("m02", 109.0)
        ]
        assert rollup.top_droppers(0) == []
        assert len(rollup.top_droppers(20)) == 12
        # Nearest rank: the ceil(q * 12)-th smallest rate (the first at q=0).
        assert rollup.loss_rate_quantile(0.0) == rates["m11"]
        assert rollup.loss_rate_quantile(0.5) == rates["m06"]
        assert rollup.loss_rate_quantile(0.99) == rates["m00"]
        assert rollup.loss_rate_quantile(1.0) == rates["m00"]
        for q in (-0.01, 1.01, float("nan")):
            with pytest.raises(ValueError):
                rollup.loss_rate_quantile(q)
        with pytest.raises(ValueError):
            rollup.top_droppers(-1)

    def test_from_summaries(self):
        agg = ZoneAggregates.from_summaries(
            {
                "m1": lossy_summary("m1", 100.0, 0.01),
                "m2": lossy_summary("m2", 0.0, 0.0),
                "m3": lossy_summary("m3", 500.0, 0.2),
                "m4": lossy_summary("m4", 100.0, -0.5),
            }
        )
        # Loss-free machines are not droppers; ties go by name.
        assert agg.losses == (("m3", 500.0), ("m1", 100.0), ("m4", 100.0))
        # Every machine has a rate; a negative one counts as zero.
        assert agg.loss_rates == (0.0, 0.0, 0.01, 0.2)
        assert ZoneAggregates.from_summaries({}).quantile(0.5) is None

    def test_merge_across_zones(self):
        rollup = rollup_of(
            ZoneReport(zone="z1", seq=1, window_s=WINDOW_S,
                       machines={"m1": lossy_summary("m1", 10.0, 0.1)}),
            ZoneReport(zone="z2", seq=1, window_s=WINDOW_S,
                       machines={"m2": lossy_summary("m2", 30.0, 0.3)}),
        )
        assert rollup.top_droppers() == [("m2", 30.0), ("m1", 10.0)]
        assert rollup.loss_rate_quantile(0.0) == 0.1
        assert rollup.loss_rate_quantile(1.0) == 0.3

    def test_root_answers_fleet_aggregates_exactly(self):
        """Zone reports from a real two-zone diagnosis round: the root's
        fleet answers equal what its per-machine summaries say."""
        h = receivers(6)
        fleet = FleetController("root")
        zones, _ = shard(fleet, h.agents, 2)
        _, reports = split_round(h, zones, 0.25, flat=False)
        for report in reports.values():
            assert fleet.ingest_zone_report(report)

        rollup = fleet.rollup()
        assert len(rollup.zones) == 2
        by_machine = rollup.loss_by_machine
        expected = sorted(
            ((m, loss) for m, loss in by_machine.items() if loss > 0),
            key=lambda pair: (-pair[1], pair[0]),
        )
        assert rollup.top_droppers(len(by_machine)) == expected
        # Only the overdriven machines (every third) lose whole packets;
        # the rest carry floating-point residue at most.
        lossy = {m for m, pkts in rollup.top_droppers(5) if pkts >= 1.0}
        assert lossy == {"host-000", "host-003"}
        rates = sorted(
            rollup.summary_for(m).pkt_loss_rate for m in rollup.machines
        )
        assert rollup.loss_rate_quantile(0.5) == rates[2]
        assert rollup.loss_rate_quantile(1.0) == rates[-1] > 0


class TestPushOnChange:
    def test_push_ships_deltas_and_skips_when_clean(self):
        h = receivers(1)
        agent = h.agents["host-000"]
        zone = ZoneController("z1")
        zone.register_local_agent(agent)

        assert agent.push_once() == 0  # no target yet
        handle = agent.start_pushing(zone, period_s=0.05)
        assert handle is not None and agent.pushing
        # start_pushing fires one immediate catch-up push.
        assert agent.total_pushes == 1
        mirror = zone.mirror_for("host-000")
        assert mirror.acked == agent.store.cursor()

        # Nothing changed since: the next tick skips, no rows cross.
        shipped_before = agent.total_pushed_rows
        assert agent.push_once() == 0
        assert agent.total_push_skips >= 1
        assert agent.total_pushed_rows == shipped_before

        # Traffic moves -> scheduled pushes drain the change stream.
        h.advance(0.5)
        agent.push_once()  # deterministic final catch-up
        assert agent.total_pushed_rows > shipped_before
        assert mirror.acked == agent.store.cursor()
        assert zone.pushed_rows == agent.total_pushed_rows

        agent.stop_pushing()
        assert not agent.pushing

    def test_poll_after_push_is_harmless_catchup(self):
        # The poll path stays on as fallback; after a push converged
        # the mirror, a full refresh finds nothing new to apply.
        h = receivers(1)
        agent = h.agents["host-000"]
        zone = ZoneController("z1")
        zone.register_local_agent(agent)
        agent.start_pushing(zone, period_s=0.05)
        h.advance(0.3)
        agent.push_once()
        assert zone.refresh() == 0  # mirror seq-dedup: overlap is free
        agent.stop_pushing()

    def test_push_failure_keeps_cursor_for_retry(self):
        h = receivers(1)
        agent = h.agents["host-000"]

        down = ZoneTarget(ZoneController("z1"))
        down.alive = False
        agent.start_pushing(down, period_s=0.05)
        assert agent.total_push_errors == 1
        assert agent._push_acked == {}  # cursor not advanced past failure

        # Re-point at a live zone: the very next push replays everything.
        agent.stop_pushing()
        zone = ZoneController("z1")
        zone.register_local_agent(agent)
        agent.start_pushing(zone, period_s=0.05)
        assert zone.mirror_for("host-000").acked == agent.store.cursor()
        agent.stop_pushing()

    def test_push_period_defaults(self):
        h = receivers(1)
        agent = h.agents["host-000"]
        zone = ZoneController("z1")
        zone.register_local_agent(agent)
        assert agent.start_pushing(zone, period_s=0.25) is not None
        assert agent.push_period_s == 0.25
        agent.stop_pushing()
        agent.start_pushing(zone)
        assert agent.push_period_s == DEFAULT_PUSH_PERIOD_S
        agent.stop_pushing()


def sample_report(seq=1):
    return ZoneReport(
        zone="z1",
        seq=seq,
        window_s=1.0,
        machines={
            "m0": MachineSummary(
                machine="m0",
                loss_pkts=12.0,
                throughput_pps=1000.0,
                pkt_loss_rate=0.012,
                avg_pkt_size=900.0,
                elements=5,
                verdicts=(Verdict("tun", [VM_BOTTLENECK], "individual", []),),
            ),
            "m1": MachineSummary(machine="m1", throughput_pps=500.0, elements=4),
        },
    )


class TestZoneWire:
    def test_roundtrip_bin1(self):
        fleet = FleetController("root")
        fleet.register_zone("z1")
        with FleetServer(fleet) as server:
            host, port = server.address
            with ZoneClient(host, port) as link:
                assert link.ping() == "root"
                assert link.subscribe("z1") == 0
                assert link.push_report(sample_report(seq=1).to_wire())
                # Blind retry of the same seq: dropped as replay.
                assert not link.push_report(sample_report(seq=1).to_wire())
                assert link.push_report(sample_report(seq=2).to_wire())
                assert link.subscribe("z1") == 2
        rollup = fleet.rollup()
        assert rollup.machines == ["m0", "m1"]
        assert rollup.verdicts == [
            ("m0", Verdict("tun", [VM_BOTTLENECK], "individual", []))
        ]
        assert rollup.summary_for("m0").avg_pkt_size == pytest.approx(900.0)

    def test_unknown_zone_is_refused(self):
        fleet = FleetController("root")
        with FleetServer(fleet) as server:
            host, port = server.address
            with ZoneClient(host, port) as link:
                with pytest.raises(RuntimeError):
                    link.subscribe("ghost")
