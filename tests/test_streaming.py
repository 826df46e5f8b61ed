"""The streaming collection plane: versioned element snapshots, agent
cadence polling, delta batches, and the controller's mirror stores."""

import pytest

from repro.cluster.topology import Tenant
from repro.core.agent import Agent
from repro.core.controller import ZoneController
from repro.core.query import QueryRunner
from repro.middleboxes.http import HttpServer
from repro.simnet.packet import Flow
from repro.workloads.traffic import ExternalTrafficSource


@pytest.fixture
def world(sim_with_transport, machine):
    sim = sim_with_transport
    vm = machine.add_vm("v1", vcpu_cores=1.0)
    app = HttpServer(sim, vm, "app", cpu_per_byte=1e-9)
    flow = Flow("rx", dst_vm="v1", kind="udp")
    vm.bind_udp(flow, app.socket)
    ExternalTrafficSource(sim, "src", flow, machine.inject, rate_bps=40e6)
    agent = Agent(sim, machine)
    agent.register(app)
    return sim, machine, agent, vm


class TestVersionedSnapshots:
    def test_seq_advances_only_on_change(self, world):
        sim, machine, _, _ = world
        pnic = machine.pnic_rx
        s1 = pnic.snapshot_versioned(sim.now)
        s2 = pnic.snapshot_versioned(sim.now)
        assert s2 is s1  # unchanged state: cached object, same seq
        sim.run(0.05)
        s3 = pnic.snapshot_versioned(sim.now)
        assert s3.seq == s1.seq + 1
        assert s3.get("rx_bytes") > s1.get("rx_bytes")

    def test_idle_element_restamps_without_new_seq(self, world):
        sim, machine, _, vm = world
        # tun has no traffic until the sim runs; snapshot it while idle.
        tun = vm.tun
        s1 = tun.snapshot_versioned(0.0)
        s2 = tun.snapshot_versioned(1.0)
        assert s2.seq == s1.seq
        assert s2.timestamp == 1.0

    def test_snapshot_attrs_immutable(self, world):
        sim, machine, _, _ = world
        s = machine.pnic_rx.snapshot_versioned(sim.now)
        with pytest.raises(TypeError):
            s.attrs["rx_bytes"] = 0.0  # type: ignore[index]


class TestAgentPolling:
    def test_poll_once_delta_compresses_idle_elements(self, world):
        sim, _, agent, _ = world
        stored, _ = agent.poll_once()
        assert stored == len(agent.elements())  # first sweep stores all
        stored, _ = agent.poll_once()
        assert stored == 0  # nothing moved in zero sim time
        sim.run(0.05)
        stored, _ = agent.poll_once()
        assert 0 < stored < len(agent.elements())

    def test_poll_costs_what_a_query_costs(self, world):
        """A sweep charges one read of every channel, no more."""
        sim, machine, agent, _ = world
        sim.run(0.05)
        agent.poll_once()
        per_read = [agent.channel(e).spec.cpu_cost_s for e in agent.element_ids()]
        assert agent.total_cpu_s == pytest.approx(sum(per_read))

    def test_cadence_polling(self, world):
        sim, _, agent, _ = world
        handle = agent.start_polling(0.01)
        assert agent.polling
        assert agent.total_polls == 1  # immediate first sweep
        sim.run(0.1)
        assert agent.total_polls == pytest.approx(11, abs=1)
        with pytest.raises(RuntimeError, match="already polling"):
            agent.start_polling(0.01)
        agent.stop_polling()
        assert not agent.polling and not handle.active
        polls = agent.total_polls
        sim.run(0.05)
        assert agent.total_polls == polls

    def test_bad_period_rejected(self, world):
        _, _, agent, _ = world
        with pytest.raises(ValueError):
            agent.start_polling(0.0)

    def test_collect_blocks_incremental(self, world):
        sim, _, agent, _ = world
        blocks, cursor = agent.collect_blocks()
        assert len(blocks) == len(agent.elements())
        sim.run(0.05)
        blocks2, cursor2 = agent.collect_blocks(cursor)
        assert 0 < len(blocks2) < len(blocks)
        for eid, _, _, rows in blocks2:
            assert all(seq > cursor.get(eid, -1) for seq, _, _ in rows)
        assert agent.collect_blocks(cursor2)[0] == []


class TestControllerMirror:
    def make_controller(self, agent):
        controller = ZoneController()
        controller.register_local_agent(agent)
        tenant = Tenant("t1")
        tenant.vnet.register_element("pnic", "m1", "pnic@m1")
        controller.register_tenant(tenant)
        return controller

    def test_refresh_converges_mirror(self, world):
        sim, _, agent, _ = world
        controller = self.make_controller(agent)
        controller.refresh()
        sim.run(0.05)
        controller.refresh("m1")
        mirror = controller.mirror_for("m1")
        assert mirror.syncs == 2
        assert [s.to_dict() for s in mirror.store.changed_since({})] == [
            s.to_dict() for s in agent.store.changed_since({})
        ]

    def test_get_attr_answers_from_mirror(self, world):
        sim, _, agent, _ = world
        controller = self.make_controller(agent)
        sim.run(0.05)
        rec = controller.get_attr("t1", "pnic", ["rx_bytes"])  # lazy first sync
        assert list(rec.attrs) == ["rx_bytes"] and rec.attrs["rx_bytes"] > 0
        sim.run(0.05)
        # Without a refresh the mirror still answers — with the old value.
        stale = controller.get_attr("t1", "pnic", ["rx_bytes"])
        assert stale.attrs["rx_bytes"] == rec.attrs["rx_bytes"]
        controller.refresh("m1")
        fresh = controller.get_attr("t1", "pnic", ["rx_bytes"])
        assert fresh.attrs["rx_bytes"] > rec.attrs["rx_bytes"]

    def test_unknown_element_raises(self, world):
        _, _, agent, _ = world
        controller = self.make_controller(agent)
        with pytest.raises(KeyError, match="ghost"):
            controller.mirror_latest("m1", "ghost")

    def test_figure6_routines_from_trailing_window(self, world):
        sim, _, agent, _ = world
        controller = self.make_controller(agent)
        agent.start_polling(0.1)
        sim.run(2.0)
        controller.refresh()
        rate = controller.get_throughput("t1", "pnic", window_s=1.0)
        assert rate == pytest.approx(40e6 / 8, rel=0.2)
        assert controller.get_avg_pkt_size("t1", "pnic", window_s=1.0) > 0
        # Zero loss up to counter-accumulation float noise.
        assert abs(controller.get_pkt_loss("t1", "pnic", window_s=1.0)) < 1e-6

    def test_runner_matches_cadence_and_pull_modes(self, world):
        sim, _, agent, _ = world
        controller = self.make_controller(agent)
        runner = QueryRunner(controller, advance=lambda t: sim.run(t))
        pulled = runner.get_throughput("t1", "pnic", interval_s=1.0)
        agent.start_polling(0.05)
        streamed = runner.get_throughput("t1", "pnic", interval_s=1.0)
        assert pulled == pytest.approx(40e6 / 8, rel=0.2)
        assert streamed == pytest.approx(pulled, rel=0.05)
