"""Unit tests for the controller and the Figure-6 query routines."""

import pytest

from repro.cluster.topology import Tenant
from repro.core.agent import Agent
from repro.core.controller import ZoneController
from repro.core.query import QueryRunner
from repro.dataplane.machine import PhysicalMachine
from repro.middleboxes.http import HttpServer
from repro.simnet.packet import Flow
from repro.workloads.traffic import ExternalTrafficSource


@pytest.fixture
def world(sim_with_transport):
    sim = sim_with_transport
    machine = PhysicalMachine(sim, "m1")
    vm = machine.add_vm("v1", vcpu_cores=1.0)
    app = HttpServer(sim, vm, "app", cpu_per_byte=1e-9)
    flow = Flow("rx", dst_vm="v1", kind="udp")
    vm.bind_udp(flow, app.socket)
    ExternalTrafficSource(sim, "src", flow, machine.inject, rate_bps=80e6)
    agent = Agent(sim, machine)
    agent.register(app)
    controller = ZoneController()
    controller.register_local_agent(agent)
    tenant = Tenant("t1")
    tenant.vnet.register_element("pnic", "m1", "pnic@m1")
    tenant.vnet.register_element("tun", "m1", "tun-v1@m1")
    tenant.vnet.add_middlebox("app", "m1", "app", vm_id="v1")
    # An element that never sees traffic in these tests (no VM egress).
    tenant.vnet.register_element("idle", "m1", "qemu-tx-v1@m1")
    controller.register_tenant(tenant)
    runner = QueryRunner(controller, advance=lambda t: sim.run(t), interval_s=0.5)
    return sim, machine, controller, runner


class TestController:
    def test_get_attr_resolves_location(self, world):
        sim, _, controller, _ = world
        sim.run(0.5)
        rec = controller.get_attr("t1", "pnic", ["rx_bytes"])
        assert rec.element_id == "pnic@m1"
        assert list(rec.attrs) == ["rx_bytes"] and rec.attrs["rx_bytes"] > 0

    def test_unknown_tenant(self, world):
        _, _, controller, _ = world
        with pytest.raises(KeyError):
            controller.get_attr("ghost", "pnic")

    def test_unknown_element(self, world):
        _, _, controller, _ = world
        with pytest.raises(KeyError):
            controller.get_attr("t1", "ghost")

    def test_duplicate_registrations_rejected(self, world):
        sim, machine, controller, _ = world
        with pytest.raises(ValueError):
            controller.register_agent("m1", Agent(sim, machine, name="other"))
        with pytest.raises(ValueError):
            controller.register_tenant(Tenant("t1"))

    def test_machines_listing(self, world):
        _, _, controller, _ = world
        assert controller.machines() == ["m1"]


class TestQueryRoutines:
    def test_get_throughput(self, world):
        sim, _, _, runner = world
        sim.run(0.5)  # let the pipeline fill
        rate = runner.get_throughput("t1", "pnic", attr="rx_bytes")
        assert rate == pytest.approx(80e6 / 8, rel=0.05)

    def test_get_pkt_loss_zero_when_healthy(self, world):
        sim, _, _, runner = world
        sim.run(0.5)
        loss = runner.get_pkt_loss("t1", "tun")
        assert loss == pytest.approx(0.0, abs=2.0)

    def test_get_pkt_loss_sees_drops(self, sim_with_transport):
        sim = sim_with_transport
        machine = PhysicalMachine(sim, "m1")
        vm = machine.add_vm("v1", vcpu_cores=1.0, vnic_bps=20e6)  # tight vNIC
        app = HttpServer(sim, vm, "app", cpu_per_byte=1e-9)
        flow = Flow("rx", dst_vm="v1", kind="udp")
        vm.bind_udp(flow, app.socket)
        ExternalTrafficSource(sim, "src", flow, machine.inject, rate_bps=200e6)
        agent = Agent(sim, machine)
        controller = ZoneController()
        controller.register_local_agent(agent)
        tenant = Tenant("t1")
        tenant.vnet.register_element("tun", "m1", "tun-v1@m1")
        controller.register_tenant(tenant)
        runner = QueryRunner(controller, advance=lambda t: sim.run(t), interval_s=0.5)
        sim.run(0.5)
        loss = runner.get_pkt_loss("t1", "tun")
        # 180 Mbps of overflow over 0.5 s at 1500 B = ~7500 pkts.
        assert loss == pytest.approx(7500, rel=0.15)

    def test_get_avg_pkt_size(self, world):
        sim, _, _, runner = world
        sim.run(0.5)
        size = runner.get_avg_pkt_size("t1", "pnic")
        assert size == pytest.approx(1500, rel=0.01)

    def test_get_drops_breakdown(self, sim_with_transport):
        sim = sim_with_transport
        machine = PhysicalMachine(sim, "m1")
        vm = machine.add_vm("v1", vcpu_cores=1.0, vnic_bps=20e6)
        app = HttpServer(sim, vm, "app", cpu_per_byte=1e-9)
        flow = Flow("rx", dst_vm="v1", kind="udp")
        vm.bind_udp(flow, app.socket)
        ExternalTrafficSource(sim, "src", flow, machine.inject, rate_bps=200e6)
        agent = Agent(sim, machine)
        controller = ZoneController()
        controller.register_local_agent(agent)
        tenant = Tenant("t1")
        tenant.vnet.register_element("tun", "m1", "tun-v1@m1")
        controller.register_tenant(tenant)
        sim.run(0.5)
        located = tenant.vnet.locate("tun")
        opened = controller.open_window([located])
        sim.run(0.5)
        windows, missing, quality = controller.close_window(opened)
        assert missing == [] and list(quality) == ["m1"]
        window = windows[located]
        assert any(k.startswith("tun-v1") for k in window.drops_by_location())
        assert any(k.startswith("rx") for k in window.drops_by_flow())

    def test_interval_validation(self, world):
        _, _, controller, _ = world
        with pytest.raises(ValueError):
            QueryRunner(controller, advance=lambda t: None, interval_s=0.0)

    def test_avg_pkt_size_zero_without_traffic(self, world):
        _, _, _, runner = world
        size = runner.get_avg_pkt_size("t1", "idle")
        assert size == 0.0


class TestHistoricalRoutines:
    """Fig-6 answers about the past, stitched across the tiered store."""

    def test_stitched_history_answers_past_windows(self, sim_with_transport):
        from repro.core.tiers import TierConfig, TieredWindowStore

        sim = sim_with_transport
        machine = PhysicalMachine(sim, "m1")
        vm = machine.add_vm("v1", vcpu_cores=1.0)
        app = HttpServer(sim, vm, "app", cpu_per_byte=1e-9)
        flow = Flow("rx", dst_vm="v1", kind="udp")
        vm.bind_udp(flow, app.socket)
        ExternalTrafficSource(sim, "src", flow, machine.inject, rate_bps=80e6)
        agent = Agent(sim, machine)
        agent.register(app)
        cfg = TierConfig(fine_slots=8, fanout=2, coarse_slots=4, coarse_tiers=2)
        controller = ZoneController(
            store_factory=lambda: TieredWindowStore(config=cfg)
        )
        controller.register_local_agent(agent)
        tenant = Tenant("t1")
        tenant.vnet.register_element("pnic", "m1", "pnic@m1")
        controller.register_tenant(tenant)
        runner = QueryRunner(controller, advance=lambda t: sim.run(t), interval_s=0.5)
        # 10 s of history at a 0.1 s mirror cadence — far beyond the
        # 8-slot fine ring, so old samples live only in the coarse tiers.
        for _ in range(100):
            sim.run(0.1)
            agent.poll_once()
            controller.refresh("m1")
        store = controller.mirror_for("m1").store
        assert store.coarse_buckets("pnic@m1"), "history should have coarsened"
        now = sim.now
        # A window reaching well past the fine ring still answers with
        # the true line rate (counters are monotone, retained rows raw).
        rate = runner.get_throughput_between("t1", "pnic", now - 3.0, now)
        assert rate == pytest.approx(80e6 / 8, rel=0.05)
        # And the full-retention ask falls back to the oldest retained
        # sample instead of failing.
        w = controller.window("t1", "pnic", 0.0, now)
        assert w.duration_s > 1.0
        assert w.rate("rx_bytes") == pytest.approx(80e6 / 8, rel=0.05)

    def test_loss_and_pkt_size_between(self, world):
        sim, _, controller, runner = world
        for _ in range(20):
            sim.run(0.1)
            controller.refresh("m1")
        now = sim.now
        assert runner.get_pkt_loss_between(
            "t1", "tun", now - 1.0, now
        ) == pytest.approx(0.0, abs=2.0)
        assert controller.window(
            "t1", "pnic", now - 1.5, now
        ).avg_pkt_size() == pytest.approx(1500, rel=0.01)
