"""Unit tests for the Element base class (simnet/element.py)."""

import pytest

from repro.core.counters import CounterOverheadModel
from repro.simnet.buffers import Buffer
from repro.simnet.element import Element
from repro.simnet.engine import Simulator
from repro.simnet.packet import Flow, PacketBatch
from repro.simnet.resources import Resource


def feed(buf, pkts, size=100.0, flow_id="f"):
    buf.push(PacketBatch(Flow(flow_id, packet_bytes=size), pkts, pkts * size))


class TestWiring:
    def test_make_input_owns_buffer(self, sim):
        # A slow consumer (2 pkts/tick) behind a 10-pkt queue: the burst
        # of 50 overflows, and the drops land on the element's counters.
        e = Element(sim, "e", rate_pps=2000)
        buf = e.make_input("e.q", capacity_pkts=10)
        feed(buf, 50)
        sim.step()
        assert e.counters.drops["e.q"] == pytest.approx(50 - 10 - 2)

    def test_attach_unowned_does_not_commit(self, sim):
        e = Element(sim, "e")
        buf = Buffer("ext.q")
        e.attach_input(buf, owned=False)
        feed(buf, 5)
        sim.step()
        # nobody committed: still staged
        assert buf.ready_pkts == 0

    def test_pass_through_without_claims(self, sim):
        e = Element(sim, "e")
        buf = e.make_input("e.q")
        out = Buffer("down.q")
        e.out = out
        feed(buf, 7)
        sim.run(3e-3)
        assert out.pkts + out.ready_pkts >= 7  # arrived downstream
        assert e.counters.rx_pkts == pytest.approx(7)
        assert e.counters.tx_pkts == pytest.approx(7)

    def test_wiring_call_picks_up_an_instance_level_route(self, sim):
        """Whether route/transform/extra_budgets are overridden is part of
        the claim table: any wiring call re-examines it."""
        e = Element(sim, "e")
        e.out = Buffer("default.q")
        detour = Buffer("detour.q")
        e.route = lambda batch: detour
        buf = e.make_input("e.q")
        feed(buf, 7)
        sim.run(3e-3)
        assert detour.pkts == pytest.approx(7)
        assert e.out.pkts == 0


class TestResourceLimits:
    def test_cpu_budget_limits_throughput(self, sim):
        cpu = Resource(sim, "cpu", capacity_per_s=1.0)
        e = Element(sim, "e")
        buf = e.make_input("e.q")
        e.claim(cpu, per_pkt=1e-5, is_cpu=True)  # 100 pkts per tick at 1 core
        feed(buf, 1000)
        sim.step()  # commit
        sim.step()  # process one tick
        assert e.counters.rx_pkts == pytest.approx(100, rel=0.01)

    def test_rate_bps_cap(self, sim):
        e = Element(sim, "e", rate_bps=8e5)  # 100 bytes per tick... 8e5/8*1e-3=100B
        buf = e.make_input("e.q")
        feed(buf, 10, size=100)
        sim.step()
        sim.step()
        assert e.counters.rx_bytes == pytest.approx(100, rel=0.01)

    def test_rate_pps_cap(self, sim):
        e = Element(sim, "e", rate_pps=3000)  # 3 pkts/tick
        buf = e.make_input("e.q")
        feed(buf, 30)
        sim.step()
        sim.step()
        assert e.counters.rx_pkts == pytest.approx(3, rel=0.01)

    def test_contention_splits_capacity(self, sim):
        cpu = Resource(sim, "cpu", capacity_per_s=1.0, policy="proportional")
        elems = []
        for i in range(2):
            e = Element(sim, f"e{i}")
            buf = e.make_input(f"e{i}.q")
            e.claim(cpu, per_pkt=1e-5, is_cpu=True)
            feed(buf, 1000)
            elems.append(e)
        sim.step()
        sim.step()
        for e in elems:
            assert e.counters.rx_pkts == pytest.approx(50, rel=0.02)

    def test_overhead_reduces_effective_budget(self, sim):
        """Counter-update cost is paid out of the CPU grant."""
        cpu = Resource(sim, "cpu", capacity_per_s=1e-3)  # tiny core
        heavy = CounterOverheadModel(
            simple_update_cost_s=1e-7, time_update_cost_s=0.0
        )
        e = Element(sim, "e", overhead=heavy)
        buf = e.make_input("e.q")
        e.claim(cpu, per_pkt=1e-8, is_cpu=True)
        feed(buf, 1e6)
        sim.run(50e-3)
        cheap_sim = Simulator(tick=1e-3)
        cpu2 = Resource(cheap_sim, "cpu", capacity_per_s=1e-3)
        e2 = Element(cheap_sim, "e", overhead=CounterOverheadModel.disabled())
        buf2 = e2.make_input("e.q")
        e2.claim(cpu2, per_pkt=1e-8, is_cpu=True)
        feed(buf2, 1e6)
        cheap_sim.run(50e-3)
        assert e.counters.rx_pkts < e2.counters.rx_pkts


class TestEmitAndDrops:
    def test_emit_to_callable(self, sim):
        got = []
        e = Element(sim, "e")
        buf = e.make_input("e.q")
        e.out = got.append
        feed(buf, 3)
        sim.run(2e-3)
        assert sum(b.pkts for b in got) == pytest.approx(3)

    def test_terminal_emit_counts_tx(self, sim):
        e = Element(sim, "e")
        buf = e.make_input("e.q")
        e.out = None
        feed(buf, 4)
        sim.run(2e-3)
        assert e.counters.tx_pkts == pytest.approx(4)

    def test_explicit_drop(self, sim):
        e = Element(sim, "e")
        b = PacketBatch(Flow("f"), 2, 3000)
        e.drop(b, "e.policy")
        assert e.counters.drops["e.policy"] == 2

    def test_tcp_drop_notifies_registry(self, sim):
        class FakeRegistry:
            def __init__(self):
                self.lost = []

            def on_segment_lost(self, batch):
                self.lost.append(batch)

        sim.transport_registry = FakeRegistry()
        e = Element(sim, "e", rate_pps=1000)  # 1 pkt/tick drain
        buf = e.make_input("e.q", capacity_pkts=1)
        flow = Flow("f", kind="tcp", conn_id="c1")
        buf.push(PacketBatch(flow, 5, 7500))
        sim.step()
        # room = capacity(1) + service credit(1): 3 of 5 segments lost.
        assert sum(b.pkts for b in sim.transport_registry.lost) == pytest.approx(3)

    def test_snapshot_includes_queue_gauges(self, sim):
        e = Element(sim, "e", rate_pps=1000)
        buf = e.make_input("e.q")
        feed(buf, 10)
        snap = e.snapshot()
        assert "queue_pkts" in snap


class TestServiceCredit:
    def test_unused_budget_becomes_admission_room(self, sim):
        """A fast consumer prevents spurious commit-time drops."""
        cpu = Resource(sim, "cpu", capacity_per_s=1.0)
        e = Element(sim, "e")
        buf = e.make_input("e.q", capacity_pkts=10)
        e.claim(cpu, per_pkt=1e-6, is_cpu=True)  # 1000 pkts/tick capacity
        for _ in range(20):
            feed(buf, 100)  # 100/tick >> cap 10, but well under drain rate
            sim.step()
        assert e.counters.drops.get("e.q", 0.0) == 0.0
