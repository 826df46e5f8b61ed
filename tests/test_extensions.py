"""Tests for operator-defined counter extensions and ticket aggregation."""

import pytest

from repro.cluster.placement import Placement
from repro.core.diagnosis.tickets import TicketAggregator, TicketQueue
from repro.core.extensions import FlowActivityCounter, PacketSizeHistogram
from repro.dataplane.machine import PhysicalMachine
from repro.middleboxes.http import HttpServer
from repro.simnet.element import Element
from repro.simnet.engine import SimError
from repro.simnet.packet import Flow, PacketBatch
from repro.workloads.traffic import ExternalTrafficSource


def batch(pkts, size, flow_id="f"):
    return PacketBatch(Flow(flow_id, packet_bytes=size), pkts, pkts * size)


class TestPacketSizeHistogram:
    def test_buckets_by_size(self):
        h = PacketSizeHistogram()
        h.observe(batch(10, 64))
        h.observe(batch(5, 1500))
        assert h.total_pkts == 15
        assert h.fraction_below(64) == pytest.approx(10 / 15)
        assert h.fraction_below(2048) == pytest.approx(1.0)

    def test_snapshot_attrs(self):
        h = PacketSizeHistogram()
        h.observe(batch(4, 200))
        snap = h.snapshot()
        assert snap["total_pkts"] == 4
        assert snap["avg_bytes"] == pytest.approx(200)
        assert any(k.startswith("le_") for k in snap)

    def test_empty(self):
        h = PacketSizeHistogram()
        assert h.fraction_below(1e9) == 0.0
        assert h.snapshot()["avg_bytes"] == 0.0

    def test_oversized_packets_clamped_to_last_bucket(self):
        h = PacketSizeHistogram(max_bytes=4096)
        h.observe(batch(1, 1e6))
        assert h.counts[-1] == 1


class TestFlowActivityCounter:
    def test_tracks_flows_and_shares(self):
        c = FlowActivityCounter(top_k=2)
        c.observe(batch(10, 100, "elephant"))
        c.observe(batch(10, 100, "elephant"))
        c.observe(batch(1, 100, "mouse"))
        snap = c.snapshot()
        assert snap["active_flows"] == 2
        assert snap["max_flow_share"] == pytest.approx(2000 / 2100)
        assert snap["top0_bytes"] == 2000

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowActivityCounter(top_k=0)
        with pytest.raises(ValueError):
            PacketSizeHistogram(name="")


class TestElementIntegration:
    def test_custom_counter_appears_in_agent_records(self, sim_with_transport):
        """The Section-4.2 extension path: counter added to the element,
        fetched by the agent, visible in the unified record."""
        from repro.core.agent import Agent

        sim = sim_with_transport
        machine = PhysicalMachine(sim, "m1")
        vm = machine.add_vm("v1", vcpu_cores=1.0)
        app = HttpServer(sim, vm, "app", cpu_per_byte=1e-9)
        flow = Flow("rx", dst_vm="v1", kind="udp", packet_bytes=256.0)
        vm.bind_udp(flow, app.socket)
        ExternalTrafficSource(sim, "src", flow, machine.inject, rate_bps=40e6)
        hist = PacketSizeHistogram()
        machine.backlog.add_custom_counter(hist)
        sim.run(0.5)
        agent = Agent(sim, machine)
        snap, _ = agent.channel("backlog@m1").read_versioned(sim.now)
        assert snap.attrs["pkt_size_hist.total_pkts"] > 0
        assert snap.attrs["pkt_size_hist.avg_bytes"] == pytest.approx(256, rel=0.01)

    def test_small_packet_disambiguation(self, sim_with_transport):
        """The rule book's secondary signal: small avg size at the
        backlog implicates packet rate, not byte bandwidth."""
        from repro.simnet.packet import MIN_PACKET_BYTES
        from repro.workloads.traffic import VmUdpSender

        sim = sim_with_transport
        machine = PhysicalMachine(sim, "m1", backlog_queues=1)
        vm = machine.add_vm("v1", vcpu_cores=1.0)
        hist = PacketSizeHistogram()
        machine.backlog.add_custom_counter(hist)
        f = Flow("small", src_vm="v1", kind="udp", packet_bytes=MIN_PACKET_BYTES)
        VmUdpSender(sim, "snd", vm, f)
        sim.run(0.5)
        assert hist.fraction_below(64) > 0.99

    def test_duplicate_counter_rejected(self, sim):
        e = Element(sim, "e")
        e.add_custom_counter(PacketSizeHistogram())
        with pytest.raises(SimError):
            e.add_custom_counter(PacketSizeHistogram())


class TestTicketAggregation:
    def make_world(self):
        p = Placement()
        # tenants t1 and t2 overlap on m1; t3 is alone on m2.
        p.place("t1-lb", "m1", tenant_id="t1")
        p.place("t1-srv", "m3", tenant_id="t1")
        p.place("t2-lb", "m1", tenant_id="t2")
        p.place("t3-app", "m2", tenant_id="t3")
        return p

    def test_overlapping_tickets_share_a_machine_pass(self):
        p = self.make_world()
        q = TicketQueue()
        q.open("t1", "slow traffic")
        q.open("t2", "latency spike")
        steps = TicketAggregator(p).plan(q)
        kinds = [(s.kind, s.target) for s in steps]
        assert ("machine_contention", "m1") in kinds
        shared = next(s for s in steps if s.kind == "machine_contention")
        assert shared.tenant_ids == ["t1", "t2"]
        # Both tenants covered: no redundant per-tenant passes.
        assert not any(s.kind == "tenant_root_cause" for s in steps)

    def test_lone_ticket_gets_tenant_pass(self):
        p = self.make_world()
        q = TicketQueue()
        q.open("t3", "drops")
        steps = TicketAggregator(p).plan(q)
        assert [(s.kind, s.target) for s in steps] == [
            ("tenant_root_cause", "t3")
        ]

    def test_cost_estimate_shows_aggregation_win(self):
        p = self.make_world()
        q = TicketQueue()
        q.open("t1", "a")
        q.open("t1", "b")
        q.open("t2", "c")
        est = TicketAggregator(p).cost_estimate(q)
        assert est["naive_passes"] == 3
        assert est["planned_passes"] == 1

    def test_always_tenant_pass_mode(self):
        p = self.make_world()
        q = TicketQueue()
        q.open("t1", "a")
        q.open("t2", "b")
        steps = TicketAggregator(p, always_tenant_pass=True).plan(q)
        kinds = sorted(s.kind for s in steps)
        assert kinds == [
            "machine_contention",
            "tenant_root_cause",
            "tenant_root_cause",
        ]

    def test_resolution_lifecycle(self):
        q = TicketQueue()
        t = q.open("t1", "slow")
        assert q.open_tickets() == [t]
        t.resolve("scaled out the LB")
        assert q.open_tickets() == []
        assert q.get(t.ticket_id).resolution == "scaled out the LB"
        with pytest.raises(KeyError):
            q.get("ghost")


class TestCli:
    def test_list_command(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out and "table1" in out
