"""Unit tests for collection channels and the per-server agent."""

import pytest

from repro.core.agent import Agent
from repro.core.channels import CHANNEL_SPECS, Channel, CONTROLLER_CHANNEL
from repro.dataplane.machine import PhysicalMachine
from repro.middleboxes.proxy import Proxy
from repro.simnet.element import Element


@pytest.fixture
def agent_world(sim_with_transport):
    sim = sim_with_transport
    machine = PhysicalMachine(sim, "m1")
    vm = machine.add_vm("v1", vcpu_cores=1.0, vnic_bps=100e6)
    app = Proxy(sim, vm, "proxy")
    agent = Agent(sim, machine)
    agent.register(app)
    return sim, machine, agent, app


class TestChannels:
    def test_every_kind_has_a_spec(self):
        for kind in ("netdev", "procfs", "vswitch", "qemu", "middlebox", "guest"):
            assert kind in CHANNEL_SPECS

    def test_netdev_is_slowest_path(self):
        """Figure 9: device files (~2 ms) dominate everything else."""
        netdev = CHANNEL_SPECS["netdev"].median_latency_s
        for kind, spec in CHANNEL_SPECS.items():
            if kind != "netdev":
                assert spec.median_latency_s < netdev
        assert netdev == pytest.approx(2e-3)
        assert CONTROLLER_CHANNEL.median_latency_s <= 5e-4

    def test_channel_read_returns_record_and_latency(self, sim):
        e = Element(sim, "eth0", machine="m1", kind="netdev")
        e.counters.count_rx(5, 7500)
        chan = Channel(e, sim.rng)
        snap, latency = chan.read_versioned(timestamp=1.0)
        assert (snap.element_id, snap.machine, snap.timestamp) == ("eth0", "m1", 1.0)
        assert snap.attrs["rx_bytes"] == 7500
        assert latency > 0
        assert chan.reads == 1

    def test_channel_attr_filter(self, sim):
        e = Element(sim, "e", kind="procfs")
        e.counters.count_rx(1, 100)
        chan = Channel(e, sim.rng)
        snap, _ = chan.read_versioned(0.0)
        assert dict(snap.subset(["rx_pkts"]).attrs) == {"rx_pkts": 1.0}

    def test_unknown_kind_rejected(self, sim):
        e = Element(sim, "e", kind="procfs")
        e.kind = "martian"
        with pytest.raises(ValueError):
            Channel(e, sim.rng)

    def test_latency_distribution_centered_on_median(self, sim):
        e = Element(sim, "e", kind="netdev")
        chan = Channel(e, sim.rng)
        samples = sorted(chan.sample_latency() for _ in range(400))
        median = samples[200]
        assert median == pytest.approx(2e-3, rel=0.2)


class TestAgent:
    def test_discovers_machine_and_registered_elements(self, agent_world):
        _, machine, agent, app = agent_world
        ids = agent.element_ids()
        assert "pnic@m1" in ids
        assert "tun-v1@m1" in ids
        assert "proxy" in ids

    def test_query_all(self, agent_world):
        """One sweep stores a snapshot of every element it serves."""
        _, _, agent, _ = agent_world
        stored, _ = agent.poll_once()
        assert stored == len(agent.element_ids())
        snaps = [agent.store.latest(eid) for eid in agent.element_ids()]
        assert all(s.machine == "m1" for s in snaps)

    def test_query_specific_with_attrs(self, agent_world):
        sim, _, agent, app = agent_world
        app.counters.count_rx(3, 4500)
        snap, _ = agent.channel("proxy").read_versioned(sim.now)
        assert dict(snap.subset(["inBytes"]).attrs) == {"inBytes": 4500}

    def test_query_unknown_element(self, agent_world):
        _, _, agent, _ = agent_world
        with pytest.raises(KeyError):
            agent.channel("ghost")

    def test_duplicate_registration_rejected(self, agent_world):
        _, _, agent, app = agent_world
        with pytest.raises(ValueError):
            agent.register(app)

    def test_registering_over_a_machine_element_is_rejected(self, agent_world):
        """An app named like an element the machine walk serves would
        shadow it in elements() while its channel kept the old object."""
        sim, machine, agent, _ = agent_world
        pnic_channel = agent.channel("pnic@m1")
        impostor = Element(sim.__class__(), "pnic@m1", machine="m1")
        with pytest.raises(ValueError) as err:
            agent.register(impostor)
        assert repr(impostor) in str(err.value)
        assert repr(machine.pnic_rx) in str(err.value)
        assert agent.elements()["pnic@m1"] is machine.pnic_rx
        assert agent.channel("pnic@m1") is pnic_channel

    def test_query_latency_is_max_not_sum(self, agent_world):
        """Channels are read concurrently (independent descriptors)."""
        _, _, agent, _ = agent_world
        _, latency = agent.poll_once()
        # Worst single channel is ~2ms netdev; a serial sum over ~20
        # elements would be far larger.
        assert latency < 10e-3

    def test_cpu_usage_linear_in_frequency(self, agent_world):
        _, _, agent, _ = agent_world
        u10 = agent.cpu_usage_at_frequency(10)
        u100 = agent.cpu_usage_at_frequency(100)
        assert u100 == pytest.approx(10 * u10)
        assert u10 < 0.005  # < 0.5% at 10 Hz, per Figure 16

    def test_cpu_accounting_accumulates(self, agent_world):
        _, _, agent, _ = agent_world
        agent.poll_once()
        agent.poll_once()
        assert agent.total_polls == 2
        assert agent.total_cpu_s > 0

    def test_channel_stats(self, agent_world):
        sim, _, agent, _ = agent_world
        agent.channel("pnic@m1").read_versioned(sim.now)
        stats = agent.channel_stats()
        assert stats["pnic@m1"]["reads"] == 1

    def test_negative_frequency_rejected(self, agent_world):
        _, _, agent, _ = agent_world
        with pytest.raises(ValueError):
            agent.cpu_usage_at_frequency(-1)

    @pytest.mark.parametrize(
        "start, method",
        [
            (lambda agent: agent.start_polling(0.05), "poll_once"),
            (lambda agent: agent.set_poll_period(0.05), "poll_once"),
            (lambda agent: agent.start_pushing(_NullZone(), 0.05), "push_once"),
        ],
        ids=["start_polling", "set_poll_period", "start_pushing"],
    )
    def test_periodic_tick_runs_a_method_patched_after_start(
        self, agent_world, monkeypatch, start, method
    ):
        """A class-level wrapper installed once the cadence runs (a stage
        tracer's) still sees the ticks: each firing looks the method up."""
        sim, _, agent, _ = agent_world
        start(agent)
        original = getattr(Agent, method)
        fired = []

        def wrapped(self):
            fired.append(sim.now)
            return original(self)

        monkeypatch.setattr(Agent, method, wrapped)
        sim.run(0.1)
        assert fired


class _NullZone:
    """A push target that accepts every delivery."""

    def ingest_push(self, machine_name, blocks, cursor=None, trace=None):
        return sum(len(rows) for _, _, _, rows in blocks)
