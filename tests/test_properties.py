"""Property-based tests for system-wide invariants."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.counters import CounterSnapshot, CounterWindow
from repro.core.diagnosis.states import classify_window
from repro.dataplane.machine import PhysicalMachine
from repro.middleboxes.http import HttpServer
from repro.simnet.engine import Simulator
from repro.simnet.packet import Flow
from repro.simnet.resources import Resource, SubResource, maxmin_fair
from repro.transport.registry import TransportRegistry
from repro.workloads.traffic import ExternalTrafficSource

slow_settings = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@slow_settings
@given(
    rate_mbps=st.floats(min_value=1.0, max_value=2000.0),
    vnic_mbps=st.one_of(st.none(), st.floats(min_value=10.0, max_value=2000.0)),
)
def test_dataplane_conserves_packets(rate_mbps, vnic_mbps):
    """End-to-end conservation: offered = delivered + dropped + queued.

    Holds for any offered rate and any vNIC cap — nothing in the
    pipeline creates or silently destroys traffic.
    """
    sim = Simulator(tick=1e-3)
    TransportRegistry(sim)
    machine = PhysicalMachine(sim, "m1")
    vm = machine.add_vm(
        "v1", vcpu_cores=1.0, vnic_bps=vnic_mbps * 1e6 if vnic_mbps else None
    )
    app = HttpServer(sim, vm, "app", cpu_per_byte=1e-9)
    flow = Flow("rx", dst_vm="v1", kind="udp")
    vm.bind_udp(flow, app.socket)
    src = ExternalTrafficSource(
        sim, "src", flow, machine.inject, rate_bps=rate_mbps * 1e6
    )
    sim.run(0.5)

    offered = src.total_offered_pkts
    delivered = app.counters.rx_pkts * 1500.0 / 1500.0  # io-unit == pkt size
    dropped = sum(e.counters.total_drops for e in machine.all_elements())
    dropped += app.counters.total_drops
    queued = (
        machine.pnic_rx.queue.pkts
        + machine.backlog.queue.pkts
        + vm.tun.queue.pkts
        + vm.vnic_rx_ring.pkts
        + vm.vcpu_backlog.queue.pkts
        + app.socket.buffer.pkts
    )
    # app counts calls at io_unit at 1500B == packets for this flow.
    assert offered == pytest.approx(
        delivered + dropped + queued, rel=0.02, abs=5.0
    )


@slow_settings
@given(
    allocations=st.lists(
        st.floats(min_value=0.1, max_value=4.0), min_size=1, max_size=6
    ),
    demands=st.lists(
        st.floats(min_value=0.0, max_value=8.0), min_size=1, max_size=6
    ),
)
def test_vm_allocations_never_exceeded(allocations, demands):
    """SubResource grants never exceed their static allocation, and the
    host pool never over-commits."""
    n = min(len(allocations), len(demands))
    sim = Simulator()
    host = Resource(sim, "host", capacity_per_s=4.0, policy="proportional")
    vms = [
        SubResource(sim, f"vm{i}", parent=host, cap_per_s=allocations[i])
        for i in range(n)
    ]
    for i in range(n):
        vms[i].request("app", demands[i] * sim.tick)
    sim.step()
    total = 0.0
    for i in range(n):
        g = vms[i].grant("app")
        assert g <= allocations[i] * sim.tick + 1e-12
        assert g <= demands[i] * sim.tick + 1e-12
        total += g
    assert total <= 4.0 * sim.tick + 1e-9


@given(
    d_bi=st.floats(min_value=0, max_value=1e9),
    d_ti=st.floats(min_value=0, max_value=10),
    d_bo=st.floats(min_value=0, max_value=1e9),
    d_to=st.floats(min_value=0, max_value=10),
    capacity=st.floats(min_value=1e6, max_value=1e10),
)
def test_state_classifier_total(d_bi, d_ti, d_bo, d_to, capacity):
    """classify_window is total and consistent with the paper inequality."""
    before = CounterSnapshot(
        "mb", "", 0, 0.0, {"inBytes": 0, "inTime": 0, "outBytes": 0, "outTime": 0}
    )
    after = CounterSnapshot(
        "mb", "", 1, 1.0,
        {"inBytes": d_bi, "inTime": d_ti, "outBytes": d_bo, "outTime": d_to},
    )
    st_ = classify_window(CounterWindow(before, after), capacity, theta=1.0)
    if d_ti > 0:
        assert st_.read_blocked == (8 * d_bi / d_ti < capacity)
    if d_ti == 0 and d_bi == 0:
        assert st_.in_rate_bps is None


@given(
    demands=st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=6),
    capacity=st.floats(min_value=1, max_value=50),
)
def test_maxmin_envy_freeness(demands, capacity):
    """Equal-weight max-min: nobody with unmet demand gets less than
    anyone else (envy-freeness up to demand)."""
    alloc = maxmin_fair(demands, [1.0] * len(demands), capacity)
    for i, (a_i, d_i) in enumerate(zip(alloc, demands)):
        if a_i < d_i - 1e-9:  # i is unsatisfied
            for a_j in alloc:
                assert a_j <= a_i + 1e-6


@slow_settings
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_simulation_is_deterministic(seed):
    """Two runs with the same seed produce identical counters."""

    def run():
        sim = Simulator(tick=1e-3, seed=seed)
        TransportRegistry(sim)
        machine = PhysicalMachine(sim, "m1")
        vm = machine.add_vm("v1", vcpu_cores=1.0, vnic_bps=50e6)
        app = HttpServer(sim, vm, "app", cpu_per_byte=1e-9)
        flow = Flow("rx", dst_vm="v1", kind="udp")
        vm.bind_udp(flow, app.socket)
        ExternalTrafficSource(sim, "src", flow, machine.inject, rate_bps=120e6)
        sim.run(0.3)
        return {e.name: e.counters.snapshot() for e in machine.all_elements()}

    assert run() == run()
