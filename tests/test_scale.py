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

import pytest

from repro.core.agent import DEFAULT_PUSH_PERIOD_S, PUSH_DISABLE_ENV, PUSH_PERIOD_ENV
from repro.core.controller import AgentMirror, FleetController, ZoneController
from repro.core.diagnosis.report import (
    FleetRollup,
    MachineSummary,
    ZoneReport,
)
from repro.core.net import FleetServer, ZoneClient
from repro.core.rulebook import VM_BOTTLENECK, Verdict
from repro.core.sharding import HashRing
from repro.middleboxes.http import HttpServer
from repro.scenarios.common import Harness
from repro.simnet.packet import Flow
from repro.workloads.traffic import ExternalTrafficSource

WINDOW_S = 0.5


def receiver(h, machine, vm_id, rate_bps, vnic_bps=None):
    vm = machine.add_vm(vm_id, vcpu_cores=1.0, vnic_bps=vnic_bps)
    app = HttpServer(h.sim, vm, f"app-{vm_id}", cpu_per_byte=1e-9)
    flow = Flow(f"rx-{vm_id}", dst_vm=vm_id, kind="udp")
    vm.bind_udp(flow, app.socket)
    ExternalTrafficSource(
        h.sim, f"src-{vm_id}", flow, machine.inject, rate_bps=rate_bps
    )
    return vm


def build_world(n_machines=6, faulty_every=3):
    """A fleet where every ``faulty_every``-th machine has a capped VM.

    The capped vNIC produces an individual-scope VM_BOTTLENECK verdict
    (the Table-1 arc the equality test needs to be non-trivial: some
    machines verdict-clean, some not).
    """
    h = Harness()
    for i in range(n_machines):
        name = f"m{i:02d}"
        machine = h.add_machine(name)
        if i % faulty_every == 0:
            receiver(h, machine, f"v-{name}", 200e6, vnic_bps=50e6)
            receiver(h, machine, f"w-{name}", 100e6)
        else:
            receiver(h, machine, f"v-{name}", 100e6)
    h.advance(0.5)
    for agent in h.agents.values():
        agent.poll_once()
    return h


def shard_into_zones(h, zone_names):
    """Zone controllers owning consistent-hash shards of the harness."""
    ring = HashRing()
    for zone in zone_names:
        ring.add_node(zone)
    zones = {zone: ZoneController(zone) for zone in zone_names}
    for name, agent in h.agents.items():
        zones[ring.node_for(name)].register_local_agent(agent)
    return ring, zones


class TestHierarchyEqualsFlat:
    def test_zone_rollup_verdicts_equal_flat_controller(self):
        h = build_world(n_machines=6)
        flat = h.controller  # registered with every agent by the harness
        _, zones = shard_into_zones(h, ["z1", "z2"])
        assert all(z.machines() for z in zones.values()), "degenerate shard"

        # Split-phase scan: every tier opens its windows, ONE shared
        # advance moves time, every tier closes.  All reports measure
        # the exact same interval — the equality below is exact, not
        # approximate.
        flat_scan = flat.begin_fleet_scan(WINDOW_S)
        zone_scans = {z: zc.begin_fleet_scan(WINDOW_S) for z, zc in zones.items()}
        h.advance(WINDOW_S)
        flat_diag = flat.finish_fleet_scan(flat_scan)
        zone_diags = {
            z: zones[z].finish_fleet_scan(scan) for z, scan in zone_scans.items()
        }

        fleet = FleetController("root")
        fleet.track_machines(h.agents)
        for zone in zones:
            fleet.register_zone(zone)
        for zone, diag in zone_diags.items():
            assert fleet.ingest_zone_report(zones[zone].build_zone_report(diag))
        rollup = fleet.rollup()

        assert isinstance(rollup, FleetRollup)
        assert rollup.machines == flat_diag.machines
        assert rollup.verdicts == flat_diag.verdicts  # exact, incl. order
        assert [m for m, _ in rollup.verdicts], "fault injection produced nothing"
        assert rollup.degraded_machines == flat_diag.degraded_machines
        for machine, loss in flat_diag.loss_by_machine.items():
            assert rollup.loss_by_machine[machine] == pytest.approx(loss)
        assert rollup.worst_machine == flat_diag.worst_machine
        # The faulted machines really are the ones carrying verdicts.
        assert {m for m, _ in rollup.verdicts} == {"m00", "m03"}
        for _, verdict in rollup.verdicts:
            assert isinstance(verdict, Verdict)
            assert VM_BOTTLENECK in verdict.resources

    def test_root_never_materializes_per_machine_state(self):
        h = build_world(n_machines=4, faulty_every=100)
        _, zones = shard_into_zones(h, ["z1", "z2"])
        fleet = FleetController("root")
        fleet.track_machines(h.agents)
        for zone, zc in zones.items():
            fleet.register_zone(zone)
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

    def test_zone_leave_rebalances_only_departed_shard(self):
        h = build_world(n_machines=6, faulty_every=100)
        fleet = FleetController("root")
        fleet.track_machines(h.agents)
        zones = {z: ZoneController(z) for z in ("z1", "z2", "z3")}
        for zone in zones:
            fleet.register_zone(zone)
        for zone, machines in fleet.shards().items():
            for name in machines:
                zones[zone].register_local_agent(h.agents[name])

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


class TestPushOnChange:
    def test_push_ships_deltas_and_skips_when_clean(self):
        h = build_world(n_machines=1, faulty_every=100)
        agent = h.agents["m00"]
        zone = ZoneController("z1")
        zone.register_local_agent(agent)

        assert agent.push_once() == 0  # no target yet
        handle = agent.start_pushing(zone, period_s=0.05)
        assert handle is not None and agent.pushing
        # start_pushing fires one immediate catch-up push.
        assert agent.total_pushes == 1
        mirror = zone.mirror_for("m00")
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
        h = build_world(n_machines=1, faulty_every=100)
        agent = h.agents["m00"]
        zone = ZoneController("z1")
        zone.register_local_agent(agent)
        agent.start_pushing(zone, period_s=0.05)
        h.advance(0.3)
        agent.push_once()
        assert zone.refresh() == 0  # mirror seq-dedup: overlap is free
        agent.stop_pushing()

    def test_push_failure_keeps_cursor_for_retry(self):
        h = build_world(n_machines=1, faulty_every=100)
        agent = h.agents["m00"]

        class DownZone:
            def ingest_push(self, machine_name, blocks, cursor=None, trace=None):
                raise ConnectionError("zone link down")

        agent.start_pushing(DownZone(), period_s=0.05)
        assert agent.total_push_errors == 1
        assert agent._push_acked == {}  # cursor not advanced past failure

        # Re-point at a live zone: the very next push replays everything.
        agent.stop_pushing()
        zone = ZoneController("z1")
        zone.register_local_agent(agent)
        agent.start_pushing(zone, period_s=0.05)
        assert zone.mirror_for("m00").acked == agent.store.cursor()
        agent.stop_pushing()

    def test_push_disable_env_knob(self, monkeypatch):
        monkeypatch.setenv(PUSH_DISABLE_ENV, "1")
        h = build_world(n_machines=1, faulty_every=100)
        agent = h.agents["m00"]
        zone = ZoneController("z1")
        zone.register_local_agent(agent)
        assert agent.start_pushing(zone) is None
        assert not agent.pushing
        assert agent.total_pushes == 0

    def test_push_period_env_knob(self, monkeypatch):
        monkeypatch.setenv(PUSH_PERIOD_ENV, "0.25")
        h = build_world(n_machines=1, faulty_every=100)
        agent = h.agents["m00"]
        zone = ZoneController("z1")
        zone.register_local_agent(agent)
        agent.start_pushing(zone)
        assert agent.push_period_s == 0.25  # env beats the default
        agent.stop_pushing()
        monkeypatch.delenv(PUSH_PERIOD_ENV)
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
