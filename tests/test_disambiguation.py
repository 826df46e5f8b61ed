"""Tests for the Section-5.1 disambiguation step (host gauges resolve the
CPU-vs-memory-bandwidth ambiguity of aggregated TUN drops)."""

from repro.core.diagnosis import ContentionDetector
from repro.core.rulebook import CPU, MEMORY_BANDWIDTH
from repro.middleboxes.http import HttpServer
from repro.scenarios.common import Harness
from repro.simnet.packet import Flow
from repro.workloads.stress import CpuHog, MemoryHog
from repro.workloads.traffic import ExternalTrafficSource


def build(case):
    h = Harness()
    machine = h.add_machine("m1")
    for i in range(8):
        vm = machine.add_vm(f"vm{i}", vcpu_cores=1.0)
        app = HttpServer(h.sim, vm, f"app{i}", cpu_per_byte=1e-9)
        flow = Flow(f"rx{i}", dst_vm=f"vm{i}", kind="udp")
        vm.bind_udp(flow, app.socket)
        ExternalTrafficSource(h.sim, f"src{i}", flow, machine.inject, rate_bps=300e6)
    if case == "cpu":
        for i in range(6):
            CpuHog(h.sim, f"hog{i}", machine.cpu, threads=40.0)
    elif case == "membw":
        for i in range(4):
            MemoryHog(h.sim, f"mhog{i}", machine.membus, demand_bytes_per_s=300e9)
    h.advance(2.0)
    det = ContentionDetector(h.controller, h.advance, window_s=1.0)
    return h, det.run("m1")


class TestHostGauges:
    def test_host_stats_record(self):
        h = Harness()
        machine = h.add_machine("m1")
        CpuHog(h.sim, "hog", machine.cpu, threads=100.0)
        h.advance(0.1)
        stats = h.agents["m1"].host_stats()
        assert sorted(stats) == [
            "cpu_utilization", "membus_utilization", "nic_rx_bytes", "nic_tx_bytes"
        ]
        assert stats["cpu_utilization"] > 0.9
        assert stats["membus_utilization"] < 0.5


class TestDisambiguation:
    def test_cpu_contention_implicates_cpu(self):
        _, report = build("cpu")
        ambiguous = [
            v for v in report.verdicts if set(v.resources) == {CPU, MEMORY_BANDWIDTH}
        ]
        assert ambiguous, "aggregated TUN drops should be ambiguous"
        assert report.disambiguated == CPU

    def test_membw_contention_implicates_bus(self):
        _, report = build("membw")
        assert report.disambiguated == MEMORY_BANDWIDTH

    def test_unambiguous_case_has_no_disambiguation(self):
        h = Harness()
        machine = h.add_machine("m1")
        vm = machine.add_vm("vm0", vcpu_cores=1.0)
        app = HttpServer(h.sim, vm, "app0", cpu_per_byte=1e-9)
        flow = Flow("rx0", dst_vm="vm0", kind="udp")
        vm.bind_udp(flow, app.socket)
        ExternalTrafficSource(h.sim, "src0", flow, machine.inject, rate_bps=100e6)
        h.advance(0.5)
        det = ContentionDetector(h.controller, h.advance, window_s=0.5)
        report = det.run("m1")
        assert report.disambiguated is None

    def test_summary_includes_disambiguation(self):
        _, report = build("membw")
        assert "memory-bandwidth" in report.summary()
