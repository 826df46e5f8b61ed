"""Integration tests for the diagnostic applications (Algorithms 1 & 2)."""

import pytest

from repro.cluster.chains import build_chain
from repro.cluster.topology import Tenant
from repro.core.controller import FleetController, ZoneController
from repro.core.daemon import DaemonConfig, DiagnosisDaemon
from repro.core.diagnosis import (
    BottleneckDetector,
    ContentionDetector,
    RootCauseLocator,
)
from repro.core.diagnosis.operator import OperatorConsole
from repro.core.diagnosis.report import CONFIDENCE_FULL, CONFIDENCE_MISSING
from repro.core.query import QueryRunner
from repro.core.rulebook import INCOMING_BANDWIDTH, VM_BOTTLENECK
from repro.middleboxes.http import HttpClient, HttpServer
from repro.middleboxes.proxy import Proxy
from repro.scenarios.common import Harness
from repro.scenarios.fleet import ALL_UNDER_CAP, add_receivers, shard, stop_cadences
from repro.simnet.packet import Flow
from repro.workloads.faults import inject_perf_bug
from repro.workloads.stress import CpuHog
from repro.workloads.traffic import ExternalTrafficSource


def receiver(h, machine, vm_id, rate_bps, vnic_bps=None):
    vm = machine.add_vm(vm_id, vcpu_cores=1.0, vnic_bps=vnic_bps)
    app = HttpServer(h.sim, vm, f"app-{vm_id}", cpu_per_byte=1e-9)
    flow = Flow(f"rx-{vm_id}", dst_vm=vm_id, kind="udp")
    vm.bind_udp(flow, app.socket)
    ExternalTrafficSource(h.sim, f"src-{vm_id}", flow, machine.inject, rate_bps=rate_bps)
    return vm, app


class TestAlgorithm1:
    def test_healthy_machine_reports_no_loss(self):
        h = Harness()
        machine = h.add_machine("m1")
        receiver(h, machine, "v1", 200e6)
        h.advance(1.0)
        det = ContentionDetector(h.controller, h.advance, window_s=1.0)
        report = det.run("m1")
        assert report.worst.loss_pkts == pytest.approx(0.0, abs=2.0)
        assert report.verdicts == []

    def test_incoming_flood_ranked_first_and_mapped(self):
        h = Harness()
        machine = h.add_machine("m1")
        # Flood spread over several VMs (as in the paper), so each VM can
        # absorb its share and the pNIC line rate is the binding element.
        for i in range(4):
            receiver(h, machine, f"v{i}", 200e6)
            flood = Flow(
                f"flood{i}", dst_vm=f"v{i}", kind="udp", packet_bytes=9000.0
            )
            ExternalTrafficSource(
                h.sim, f"flood{i}", flood, machine.inject, rate_bps=3.2e9
            )
        h.advance(1.0)
        det = ContentionDetector(h.controller, h.advance, window_s=1.0)
        report = det.run("m1")
        assert report.worst.element_id == "pnic@m1"
        assert INCOMING_BANDWIDTH in report.verdicts[0].resources

    def test_single_vm_bottleneck_detected_individual(self):
        h = Harness()
        machine = h.add_machine("m1")
        receiver(h, machine, "v1", 200e6, vnic_bps=50e6)  # capped VM
        receiver(h, machine, "v2", 200e6)  # healthy neighbor
        h.advance(1.0)
        det = ContentionDetector(h.controller, h.advance, window_s=1.0)
        report = det.run("m1")
        assert report.worst.element_id == "tun-v1@m1"
        verdict = report.verdicts[0]
        assert verdict.resources == [VM_BOTTLENECK]
        assert verdict.scope == "individual"

    def test_per_flow_attribution_present(self):
        h = Harness()
        machine = h.add_machine("m1")
        receiver(h, machine, "v1", 200e6, vnic_bps=50e6)
        h.advance(1.0)
        det = ContentionDetector(h.controller, h.advance, window_s=1.0)
        report = det.run("m1")
        assert "rx-v1" in report.worst.drops_by_flow

    def test_summary_renders(self):
        h = Harness()
        machine = h.add_machine("m1")
        receiver(h, machine, "v1", 100e6)
        h.advance(0.5)
        det = ContentionDetector(h.controller, h.advance, window_s=0.5)
        text = det.run("m1").summary()
        assert "m1" in text


def three_hop(h, machine, client_rate=None, proxy_slow=1.0):
    client = HttpClient(
        h.sim, machine.add_vm("vm-c", vnic_bps=100e6), "client", rate_bps=client_rate
    )
    proxy = Proxy(h.sim, machine.add_vm("vm-p", vnic_bps=100e6), "proxy")
    proxy.slowdown = proxy_slow
    server = HttpServer(
        h.sim, machine.add_vm("vm-s", vnic_bps=100e6), "server", cpu_per_byte=2e-9
    )
    tenant = h.add_tenant("t1")
    build_chain([client, proxy, server], tenant.vnet)
    for app in (client, proxy, server):
        h.register_app(app)
    return client, proxy, server


class TestAlgorithm2:
    def test_overloaded_middlebox_is_root_cause(self):
        h = Harness()
        machine = h.add_machine("m1")
        three_hop(h, machine, proxy_slow=100.0)
        h.advance(5.0)
        locator = RootCauseLocator(h.controller, h.advance, window_s=2.0)
        report = locator.run("t1")
        assert report.root_causes == ["proxy"]
        assert report.verdict("client").state.write_blocked
        assert report.verdict("server").state.read_blocked
        assert report.verdict("proxy").label == "overloaded"

    def test_underloaded_source_is_root_cause(self):
        h = Harness()
        machine = h.add_machine("m1")
        three_hop(h, machine, client_rate=3e6)
        h.advance(5.0)
        locator = RootCauseLocator(h.controller, h.advance, window_s=2.0)
        report = locator.run("t1")
        assert report.root_causes == ["client"]
        assert report.verdict("client").label == "underloaded"

    def test_healthy_chain_blames_capacity_edge(self):
        """Saturated-but-healthy chain: the client saturating the vNIC is
        WriteBlocked-free at theta=0.9, nothing gets eliminated wrongly."""
        h = Harness()
        machine = h.add_machine("m1")
        three_hop(h, machine)
        h.advance(5.0)
        locator = RootCauseLocator(h.controller, h.advance, window_s=2.0)
        report = locator.run("t1")
        # The proxy and server run at link speed: not blocked.
        assert not report.verdict("proxy").state.read_blocked
        assert not report.verdict("server").state.read_blocked

    def test_missing_capacity_raises(self):
        h = Harness()
        machine = h.add_machine("m1")
        client = HttpClient(h.sim, machine.add_vm("vm-c"), "client")  # no vNIC cap
        server = HttpServer(h.sim, machine.add_vm("vm-s"), "server")
        tenant = h.add_tenant("t1")
        build_chain([client, server], tenant.vnet)
        for app in (client, server):
            h.register_app(app)
        locator = RootCauseLocator(h.controller, h.advance, window_s=0.2)
        with pytest.raises(RuntimeError, match="capacity"):
            locator.run("t1")


class TestBottleneckDetector:
    def test_confirms_cpu_bound_middlebox(self):
        h = Harness()
        machine = h.add_machine("m1")
        _, proxy, _ = three_hop(h, machine, proxy_slow=100.0)
        h.advance(5.0)
        det = BottleneckDetector(h.controller, h.advance, window_s=2.0)
        out = det.run("t1", suspicious=["proxy", "server"])
        assert out["proxy"]["is_bottleneck"]
        assert out["proxy"]["cpu_bound"]
        assert not out["server"]["is_bottleneck"]


class TestDegradedDiagnosis:
    """Algorithms keep producing (flagged) answers on partial data."""

    def chain_with_unserved_proxy(self, h, machine):
        """The Figure-12 chain, but the proxy's counters are never
        exposed through the agent — a collection gap, not a dataplane
        one (the proxy still forwards traffic)."""
        client = HttpClient(
            h.sim, machine.add_vm("vm-c", vnic_bps=100e6), "client"
        )
        proxy = Proxy(h.sim, machine.add_vm("vm-p", vnic_bps=100e6), "proxy")
        server = HttpServer(
            h.sim, machine.add_vm("vm-s", vnic_bps=100e6), "server",
            cpu_per_byte=2e-9,
        )
        tenant = h.add_tenant("t1")
        build_chain([client, proxy, server], tenant.vnet)
        for app in (client, server):  # proxy deliberately left out
            h.register_app(app)
        return client, proxy, server

    def test_missing_middlebox_flagged_not_blamed(self):
        h = Harness()
        machine = h.add_machine("m1")
        self.chain_with_unserved_proxy(h, machine)
        h.advance(5.0)
        locator = RootCauseLocator(h.controller, h.advance, window_s=2.0)
        report = locator.run("t1")
        assert report.missing == ["proxy"]
        verdict = report.verdict("proxy")
        assert verdict.state is None
        assert verdict.label == "no-data"
        assert verdict.confidence == CONFIDENCE_MISSING
        assert not verdict.is_root_cause  # absence of data is not evidence
        assert report.degraded
        assert "no data" in report.summary()
        # The reachable middleboxes were still classified normally.
        assert report.verdict("client").state is not None
        assert report.verdict("client").confidence == CONFIDENCE_FULL

    def test_bottleneck_detector_reports_missing_entries(self):
        h = Harness()
        machine = h.add_machine("m1")
        self.chain_with_unserved_proxy(h, machine)
        h.advance(5.0)
        det = BottleneckDetector(h.controller, h.advance, window_s=2.0)
        out = det.run("t1", suspicious=["proxy", "server"])
        assert out["proxy"]["confidence"] == CONFIDENCE_MISSING
        assert out["proxy"]["state"] is None
        assert not out["proxy"]["is_bottleneck"]  # unconfirmed, not acquitted
        assert out["server"]["confidence"] == CONFIDENCE_FULL


class TestOperatorConsole:
    def test_migrate_task_stops_workload(self):
        h = Harness()
        machine = h.add_machine("m1")
        receiver(h, machine, "v1", 100e6)
        hog = CpuHog(h.sim, "hog", machine.cpu, threads=200.0)
        console = OperatorConsole(h.controller, h.advance, h.placement)
        console.migrate_task(hog.stop, "cpu hog")
        assert not hog.enabled
        assert ("migrate_task", "cpu hog") in console.actions_log

    def test_scale_out_doubles_capacity(self):
        h = Harness()
        machine = h.add_machine("m1")
        vm = machine.add_vm("v1", vcpu_cores=1.0, vnic_bps=100e6)
        console = OperatorConsole(h.controller, h.advance, h.placement)
        console.scale_out_vnic(vm, factor=2.0)
        assert vm.vnic_bps == pytest.approx(200e6)
        assert vm.vcpu.capacity_per_s == pytest.approx(2.0)
        with pytest.raises(ValueError):
            console.scale_out_vnic(vm, factor=1.0)

    def test_diagnose_methods_log(self):
        h = Harness()
        machine = h.add_machine("m1")
        three_hop(h, machine)
        h.advance(1.0)
        console = OperatorConsole(h.controller, h.advance, h.placement, window_s=0.5)
        console.diagnose_machine("m1")
        console.diagnose_tenant("t1")
        kinds = [entry[0] for entry in console.actions_log]
        assert kinds == ["diagnose_machine", "diagnose_tenant"]


class TestCrossZoneChain:
    """A tenant chain that spans two zones' shards.

    Each zone owns only some of the chain's machines; a hop on a
    machine the zone does not own is missing data for that zone, so
    Algorithm 2 returns a labelled partial report instead of raising.
    """

    def build(self):
        h = Harness()
        sources = add_receivers(h, 8, ALL_UNDER_CAP)
        fleet = FleetController("test-root", clock=lambda: h.sim.now)
        zones, _ = shard(fleet, h.agents, 2)
        shards = fleet.shards()
        c_host, (p_host, s_host) = shards["zone-0"][0], shards["zone-1"][:2]
        client = HttpClient(
            h.sim, h.machines[c_host].add_vm("vm-c", vnic_bps=100e6), "client"
        )
        proxy = Proxy(
            h.sim, h.machines[p_host].add_vm("vm-p", vnic_bps=100e6), "proxy"
        )
        server = HttpServer(
            h.sim, h.machines[s_host].add_vm("vm-s", vnic_bps=100e6), "server",
            cpu_per_byte=2e-9,
        )
        tenant = Tenant("t1")
        build_chain([client, proxy, server], tenant.vnet, fabric=h.fabric)
        for app in (client, proxy, server):
            h.register_app(app)
        for zone in zones.values():
            zone.register_tenant(tenant)
        inject_perf_bug(server, 20.0)
        return h, sources, zones, fleet, (c_host, p_host, s_host)

    def test_foreign_hop_is_missing_not_an_exception(self):
        h, _, zones, _, (c_host, p_host, s_host) = self.build()
        h.advance(3.0)
        near = RootCauseLocator(zones["zone-0"], h.advance, window_s=1.0).run("t1")
        assert near.missing == ["proxy", "server"]
        assert near.verdict("client").state is not None
        # Only owned machines are refreshed and annotated.
        assert sorted(near.data_quality) == [c_host]
        far = RootCauseLocator(zones["zone-1"], h.advance, window_s=1.0).run("t1")
        assert far.missing == ["client"]
        client = far.verdict("client")
        assert client.label == "no-data"
        assert client.confidence == CONFIDENCE_MISSING
        assert not client.is_root_cause
        assert far.verdict("proxy").state is not None
        assert far.verdict("server").state is not None
        assert sorted(far.data_quality) == sorted([p_host, s_host])
        checked = BottleneckDetector(zones["zone-1"], h.advance, window_s=1.0).run("t1")
        assert checked["client"]["confidence"] == CONFIDENCE_MISSING
        assert not checked["client"]["is_bottleneck"]
        assert checked["server"]["state"] is not None

    def test_daemon_round_returns_the_partial_verdicts(self):
        h, sources, zones, fleet, (_, _, victim) = self.build()
        h.advance(0.5)
        for zone in zones.values():
            for name in zone.machines():
                h.agents[name].start_pushing(zone, period_s=0.05)
        try:
            h.advance(0.2)
            daemon = DiagnosisDaemon(
                zones,
                h.advance,
                fleet=fleet,
                config=DaemonConfig(window_s=0.25),
                agents=h.agents,
                tenant_for=lambda m: "t1" if m == victim else None,
                clock=lambda: h.sim.now,
            )
            sources[victim].set_rate(rate_bps=400e6)
            diagnosed = False
            for _ in range(6):
                diagnosed = victim in daemon.tick().diagnosed
                if diagnosed:
                    break
            assert diagnosed
            (incident,) = daemon.incidents
            assert incident.machine == victim
            chain = [v for v in incident.verdicts if v.startswith("MiddleboxVerdict")]
            assert any("name='client'" in v and "no-data" in v for v in chain)
            for name in ("proxy", "server"):
                (v,) = [v for v in chain if f"name='{name}'" in v]
                assert "state=None" not in v
        finally:
            stop_cadences(h.agents)


class CountingHandle:
    """An in-process agent handle that counts its collection exchanges."""

    def __init__(self, agent):
        self.agent = agent
        self.name = agent.name
        self.syncs = 0

    def element_ids(self):
        return self.agent.element_ids()

    def collect_blocks(self, acked=None):
        self.syncs += 1
        return self.agent.collect_blocks(acked)


class TestOneExchangePerWindowEdge:
    """A window over k elements on m machines costs 2·m exchanges."""

    def test_three_hops_on_two_machines_cost_four_syncs(self):
        h = Harness()
        m1, m2 = h.add_machine("m1"), h.add_machine("m2")
        client = HttpClient(h.sim, m1.add_vm("vm-c", vnic_bps=100e6), "client")
        proxy = Proxy(h.sim, m1.add_vm("vm-p", vnic_bps=100e6), "proxy")
        server = HttpServer(
            h.sim, m2.add_vm("vm-s", vnic_bps=100e6), "server", cpu_per_byte=2e-9
        )
        tenant = h.add_tenant("t1")
        build_chain([client, proxy, server], tenant.vnet, fabric=h.fabric)
        for app in (client, proxy, server):
            h.register_app(app)
        zone = ZoneController("counted")
        handles = {m: CountingHandle(h.agents[m]) for m in ("m1", "m2")}
        for machine, handle in handles.items():
            zone.register_agent(machine, handle)
        zone.register_tenant(tenant)
        h.advance(1.0)
        zone.refresh()  # warm the mirrors: no lazy first-miss syncs below

        def syncs():
            return sum(handle.syncs for handle in handles.values())

        before = syncs()
        report = RootCauseLocator(zone, h.advance, window_s=0.5).run("t1")
        assert report.missing == []
        assert syncs() - before == 4
        before = syncs()
        QueryRunner(zone, h.advance, interval_s=0.5).get_throughput("t1", "server")
        assert syncs() - before == 2
