"""Integration tests for the agent-controller wire transport (localhost)."""

import socket
import threading

import pytest

from repro.core.agent import Agent
from repro.core.controller import ZoneController
from repro.core.net.client import RemoteAgentHandle
from repro.core.net.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    recv_message,
    send_message,
)
from repro.core.net.server import AgentServer
from repro.dataplane.machine import PhysicalMachine
from repro.middleboxes.http import HttpServer
from repro.simnet.packet import Flow
from repro.workloads.traffic import ExternalTrafficSource


class TestProtocolFraming:
    def make_pair(self):
        a, b = socket.socketpair()
        return a, b

    def test_roundtrip(self):
        a, b = self.make_pair()
        send_message(a, {"op": "ping", "n": 1})
        assert recv_message(b) == {"op": "ping", "n": 1}
        a.close(), b.close()

    def test_multiple_frames_in_order(self):
        a, b = self.make_pair()
        for i in range(5):
            send_message(a, {"i": i})
        for i in range(5):
            assert recv_message(b)["i"] == i
        a.close(), b.close()

    def test_closed_peer_raises_connection_error(self):
        a, b = self.make_pair()
        a.close()
        with pytest.raises(ConnectionError):
            recv_message(b)
        b.close()

    def test_bad_json_raises_protocol_error(self):
        a, b = self.make_pair()
        payload = b"not json!"
        import struct

        a.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(ProtocolError):
            recv_message(b)
        a.close(), b.close()

    def test_non_object_frame_rejected(self):
        a, b = self.make_pair()
        import struct

        payload = b"[1, 2, 3]"
        a.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(ProtocolError, match="not an object"):
            recv_message(b)
        a.close(), b.close()

    def test_oversize_frame_announcement_rejected(self):
        a, b = self.make_pair()
        import struct

        a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError, match="oversize"):
            recv_message(b)
        a.close(), b.close()

    def test_unserializable_payload(self):
        a, b = self.make_pair()
        with pytest.raises(ProtocolError):
            send_message(a, {"x": object()})
        a.close(), b.close()


@pytest.fixture
def served_agent(sim_with_transport):
    sim = sim_with_transport
    machine = PhysicalMachine(sim, "m1")
    vm = machine.add_vm("v1", vcpu_cores=1.0)
    app = HttpServer(sim, vm, "app", cpu_per_byte=1e-9)
    flow = Flow("rx", dst_vm="v1", kind="udp")
    vm.bind_udp(flow, app.socket)
    ExternalTrafficSource(sim, "src", flow, machine.inject, rate_bps=40e6)
    sim.run(0.5)
    agent = Agent(sim, machine)
    agent.register(app)
    server = AgentServer(agent).start()
    yield sim, machine, agent, server
    server.shutdown()


class TestAgentOverTcp:
    def test_ping(self, served_agent):
        _, _, agent, server = served_agent
        host, port = server.address
        with RemoteAgentHandle(host, port) as handle:
            assert handle.ping() == agent.name

    def test_element_listing(self, served_agent):
        _, _, agent, server = served_agent
        host, port = server.address
        with RemoteAgentHandle(host, port) as handle:
            assert handle.element_ids() == agent.element_ids()

    def test_stack_element_listing(self, served_agent):
        _, machine, _, server = served_agent
        host, port = server.address
        with RemoteAgentHandle(host, port) as handle:
            ids = handle.stack_element_ids()
        assert ids == [e.name for e in machine.stack_elements()]

    def test_controller_works_through_remote_handle(self, served_agent):
        sim, _, _, server = served_agent
        from repro.cluster.topology import Tenant

        host, port = server.address
        handle = RemoteAgentHandle(host, port)
        controller = ZoneController()
        controller.register_agent("m1", handle)
        tenant = Tenant("t1")
        tenant.vnet.register_element("pnic", "m1", "pnic@m1")
        controller.register_tenant(tenant)
        rec = controller.get_attr("t1", "pnic", ["rx_bytes"])
        assert rec.attrs["rx_bytes"] > 0
        handle.close()

    def test_concurrent_clients(self, served_agent):
        _, _, _, server = served_agent
        host, port = server.address
        results = []

        def worker():
            with RemoteAgentHandle(host, port) as h:
                for _ in range(10):
                    _, cursor = h.collect_blocks({})
                    results.append(cursor)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        # Simulated time stands still, so every full drain answers the
        # same cursor.
        assert len(results) == 40 and "pnic@m1" in results[0]
        assert all(cursor == results[0] for cursor in results)

    def test_reconnect_after_server_side_close(self, served_agent):
        _, _, _, server = served_agent
        host, port = server.address
        handle = RemoteAgentHandle(host, port)
        handle.ping()
        handle.close()  # drop our side; next call reconnects
        assert handle.ping()
        handle.close()


class TestBatchDeltaOverTcp:
    """The delta-batched collection plane over the real wire transport."""

    def test_batch_delta_roundtrip(self, served_agent):
        sim, _, agent, server = served_agent
        host, port = server.address
        with RemoteAgentHandle(host, port) as handle:
            blocks, cursor = handle.collect_blocks()
            assert len(blocks) == len(agent.elements())
            assert cursor == agent.store.cursor()
            sim.run(0.05)
            blocks2, _ = handle.collect_blocks(cursor)
            assert blocks2  # only the elements traffic moved
            for eid, machine, _, rows in blocks2:
                assert machine == "m1"
                assert all(seq > cursor.get(eid, -1) for seq, _, _ in rows)

    def test_acked_cursor_validated(self, served_agent):
        _, _, _, server = served_agent
        host, port = server.address
        with RemoteAgentHandle(host, port) as handle:
            with pytest.raises(RuntimeError, match="non-negative"):
                handle.collect_blocks({"pnic@m1": -1})

    def test_mirror_matches_agent_store_byte_for_byte(self, served_agent):
        """≥100 snapshots stream through TCP; the controller mirror ends
        up byte-for-byte identical to the agent's own store."""
        import json

        sim, _, agent, server = served_agent
        host, port = server.address
        handle = RemoteAgentHandle(host, port)
        controller = ZoneController()
        controller.register_agent("m1", handle)
        mirror = controller.mirror_for("m1")

        shipped = 0
        for _ in range(40):
            sim.run(0.05)
            shipped += controller.refresh("m1")
            if shipped >= 100 and len(agent.store) >= 100:
                break
        assert shipped >= 100, f"only {shipped} snapshots streamed"
        assert mirror.syncs >= 2  # genuinely incremental, not one big dump

        def dump(store):
            return json.dumps(
                [s.to_dict() for s in store.changed_since({})], sort_keys=True
            ).encode()

        assert dump(mirror.store) == dump(agent.store)
        # The next delta is empty: the mirror is fully caught up.
        assert controller.refresh("m1") == 0
        handle.close()
