"""Failure paths of the wire transport: malformed input, retries, health.

Covers the collection plane's fault tolerance end to end: strict request
validation on both sides of the protocol, the client's bounded
retry/backoff loop with its idempotency gate, clean server shutdown that
severs lingering handler sockets, and the full agent-crash-and-restart
arc observed through the controller's health tracking.
"""

import random
import socket
import struct
import threading
from contextlib import contextmanager

import pytest

from repro.cluster.topology import Tenant
from repro.core.agent import Agent
from repro.core.controller import Controller
from repro.core.diagnosis.contention import ContentionDetector
from repro.core.diagnosis.report import CONFIDENCE_DEGRADED
from repro.core.health import DEAD, DEGRADED, HEALTHY, HealthPolicy
from repro.core.net.client import AgentUnreachable, RemoteAgentHandle, RetryPolicy
from repro.core.net.codec import WireSchema, decode_batch_request
from repro.core.net.protocol import (
    MAX_FRAME_BYTES,
    OP_BATCH_DELTA,
    ProtocolError,
    recv_message,
    send_message,
)
from repro.core.net.server import AgentServer
from repro.dataplane.machine import PhysicalMachine
from repro.middleboxes.http import HttpServer
from repro.simnet.packet import Flow
from repro.workloads.traffic import ExternalTrafficSource

#: A retry policy for tests: full budget, no real waiting.
FAST_RETRY = RetryPolicy(
    max_attempts=3, base_delay_s=0.001, max_delay_s=0.002, deadline_s=30.0
)


def no_sleep(_s):
    pass


def packed_request(count: int, entries: bytes) -> bytes:
    """A hand-packed ``bin1`` BATCH_DELTA request: header, no trace
    context, the announced ack count, then the raw ack entries."""
    return struct.pack("<BBBBHI", 0xB1, 1, 1, 0, 0, count) + entries


def ack_by_name(name: str, seq: int) -> bytes:
    raw = name.encode("utf-8")
    return b"\x01" + struct.pack("<H", len(raw)) + raw + struct.pack("<q", seq)


def ack_by_id(ident: int, seq: int) -> bytes:
    return b"\x00" + struct.pack("<Iq", ident, seq)


def schema_knowing(*element_ids: str) -> WireSchema:
    schema = WireSchema()
    for eid in element_ids:
        schema.elements.assign(eid)
    return schema


class TestParseAcked:
    """The ack vector of a BATCH_DELTA request is validated at decode."""

    def test_valid_vector(self):
        raw = packed_request(2, ack_by_id(0, 0) + ack_by_name("e2", 7))
        acked, trace = decode_batch_request(schema_knowing("e1"), raw)
        assert acked == {"e1": 0, "e2": 7} and trace is None

    def test_missing_or_null_is_empty(self):
        assert decode_batch_request(WireSchema(), packed_request(0, b"")) == ({}, None)

    @pytest.mark.parametrize(
        "acked",
        [
            (1, ack_by_name("e1", -1)),  # negative, by name
            (1, ack_by_id(0, -1)),  # negative, by negotiated id
            (1, ack_by_id(1, 3)),  # an id this connection never negotiated
            (1, b"\x07" + ack_by_id(0, 3)[1:]),  # unknown entry tag
            (2, ack_by_id(0, 3)),  # fewer entries than announced
        ],
    )
    def test_schema_violations_rejected(self, acked):
        with pytest.raises(ProtocolError) as err:
            decode_batch_request(schema_knowing("e1"), packed_request(*acked))
        assert err.value.op == OP_BATCH_DELTA and err.value.offset is not None


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay_s": 0.5, "max_delay_s": 0.1},
            {"base_delay_s": -1.0},
            {"deadline_s": 0.0},
            {"jitter": 1.5},
        ],
    )
    def test_bad_budget_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_backoff_doubles_then_caps(self):
        p = RetryPolicy(base_delay_s=0.05, max_delay_s=0.15, jitter=0.0)
        rng = random.Random(0)
        assert p.backoff_s(0, rng) == pytest.approx(0.05)
        assert p.backoff_s(1, rng) == pytest.approx(0.10)
        assert p.backoff_s(2, rng) == pytest.approx(0.15)  # capped
        assert p.backoff_s(9, rng) == pytest.approx(0.15)

    def test_jitter_only_shrinks(self):
        p = RetryPolicy(base_delay_s=0.1, jitter=0.5)
        rng = random.Random(42)
        delays = [p.backoff_s(0, rng) for _ in range(50)]
        assert all(0.05 <= d <= 0.1 for d in delays)
        assert len(set(delays)) > 1  # actually jittered


@contextmanager
def scripted_server(behavior):
    """A TCP listener whose per-connection behavior the test scripts."""
    lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    lsock.bind(("127.0.0.1", 0))
    lsock.listen(8)
    stop = threading.Event()

    def loop():
        while not stop.is_set():
            try:
                conn, _ = lsock.accept()
            except OSError:
                return
            try:
                behavior(conn)
            except (ConnectionError, OSError):
                pass
            finally:
                conn.close()

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    try:
        yield lsock.getsockname()
    finally:
        stop.set()
        # close() alone does not wake a thread blocked in accept().
        lsock.shutdown(socket.SHUT_RDWR)
        lsock.close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def closed_port() -> int:
    """A localhost port with nothing listening behind it."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestClientRetries:
    def test_connect_refused_exhausts_budget(self):
        sleeps = []
        handle = RemoteAgentHandle(
            "127.0.0.1",
            closed_port(),
            name="gone",
            retry=FAST_RETRY,
            sleep=sleeps.append,
            rng=random.Random(7),
        )
        with pytest.raises(AgentUnreachable) as exc_info:
            handle.ping()
        exc = exc_info.value
        assert exc.agent == "gone" and exc.op == "ping"
        assert exc.attempts == 3
        assert isinstance(exc.last_error, OSError)
        assert "unreachable" in str(exc)
        assert len(sleeps) == 2  # a sleep between attempts, none after the last

    def test_idempotent_op_retries_through_a_crash(self):
        connections = []

        def behavior(conn):
            connections.append(conn)
            if len(connections) == 1:
                return  # crash before answering the first attempt
            recv_message(conn)
            send_message(conn, {"ok": True, "agent": "revived"})

        sleeps = []
        with scripted_server(behavior) as (host, port):
            handle = RemoteAgentHandle(
                host, port, retry=FAST_RETRY, sleep=sleeps.append
            )
            assert handle.ping() == "revived"
            handle.close()
        assert len(connections) == 2 and len(sleeps) == 1

    def test_non_idempotent_op_not_replayed_after_send(self):
        """A QUERY that reached the peer must not be retried blindly —
        the agent may have processed it before crashing."""
        connections = []

        def behavior(conn):
            connections.append(conn)
            recv_message(conn)  # the request arrives ...
            # ... and the agent dies without responding.

        with scripted_server(behavior) as (host, port):
            handle = RemoteAgentHandle(
                host, port, retry=FAST_RETRY, sleep=no_sleep
            )
            with pytest.raises(AgentUnreachable) as exc_info:
                handle.query(["pnic@m1"])
            handle.close()
        assert exc_info.value.attempts == 1
        assert len(connections) == 1  # never replayed

    def test_non_idempotent_op_retried_when_connect_fails(self):
        """A connect failure provably precedes the send, so even QUERY
        may try again (here: against a port that stays dead)."""
        sleeps = []
        handle = RemoteAgentHandle(
            "127.0.0.1", closed_port(), retry=FAST_RETRY, sleep=sleeps.append
        )
        with pytest.raises(AgentUnreachable) as exc_info:
            handle.query()
        assert exc_info.value.attempts == 3
        assert len(sleeps) == 2

    def test_deadline_stops_retrying_early(self):
        clock = [0.0]

        def fake_sleep(s):
            clock[0] += s

        handle = RemoteAgentHandle(
            "127.0.0.1",
            closed_port(),
            retry=RetryPolicy(
                max_attempts=10, base_delay_s=1.0, max_delay_s=1.0,
                deadline_s=0.5, jitter=0.0,
            ),
            sleep=fake_sleep,
            clock=lambda: clock[0],
        )
        with pytest.raises(AgentUnreachable) as exc_info:
            handle.ping()
        # The first backoff (1s) would blow the 0.5s deadline, so the
        # retry is never started.
        assert exc_info.value.attempts == 1

    def test_garbage_response_raises_protocol_error(self):
        def behavior(conn):
            recv_message(conn)
            conn.sendall(struct.pack(">I", 9) + b"not json!")

        with scripted_server(behavior) as (host, port):
            handle = RemoteAgentHandle(host, port, retry=FAST_RETRY, sleep=no_sleep)
            with pytest.raises(ProtocolError):
                handle.ping()
            handle.close()

    def test_truncated_header_from_peer(self):
        """A peer dying mid-header is a connection error (and therefore
        retryable for idempotent ops), not a parse error."""

        def behavior(conn):
            recv_message(conn)
            conn.sendall(b"\x00\x00")  # half a length prefix, then close

        with scripted_server(behavior) as (host, port):
            handle = RemoteAgentHandle(
                host,
                port,
                retry=RetryPolicy(max_attempts=1, deadline_s=5.0),
                sleep=no_sleep,
            )
            with pytest.raises(AgentUnreachable):
                handle.ping()
            handle.close()

    def test_oversized_announcement_from_peer(self):
        def behavior(conn):
            recv_message(conn)
            conn.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))

        with scripted_server(behavior) as (host, port):
            handle = RemoteAgentHandle(host, port, retry=FAST_RETRY, sleep=no_sleep)
            with pytest.raises(ProtocolError, match="oversize"):
                handle.ping()
            handle.close()


@pytest.fixture
def wire_server(machine):
    agent = Agent(machine.sim, machine)
    with AgentServer(agent) as server:
        yield agent, server


def connect_raw(server) -> socket.socket:
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=5)
    sock.settimeout(5)
    return sock


class TestServerMalformedInput:
    """The agent server answers garbage with an error frame, then hangs up."""

    @pytest.mark.parametrize(
        "payload",
        [
            b"not json!",  # undecodable
            b"[1, 2, 3]",  # JSON but not an object
        ],
    )
    def test_bad_payload_gets_error_frame_then_close(self, wire_server, payload):
        _, server = wire_server
        sock = connect_raw(server)
        sock.sendall(struct.pack(">I", len(payload)) + payload)
        response = recv_message(sock)
        assert response["ok"] is False
        with pytest.raises(ConnectionError):
            recv_message(sock)  # the server closed the connection
        sock.close()

    def test_oversized_length_prefix_rejected(self, wire_server):
        _, server = wire_server
        sock = connect_raw(server)
        sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        response = recv_message(sock)
        assert response["ok"] is False and "oversize" in response["error"]
        sock.close()

    def test_truncated_header_does_not_wedge_the_server(self, wire_server):
        agent, server = wire_server
        sock = connect_raw(server)
        sock.sendall(b"\x00\x00")  # half a header ...
        sock.close()  # ... and the client dies
        host, port = server.address
        with RemoteAgentHandle(host, port) as handle:
            assert handle.ping() == agent.name  # still serving

    def test_unknown_op_keeps_connection_alive(self, wire_server):
        _, server = wire_server
        sock = connect_raw(server)
        send_message(sock, {"op": "self_destruct"})
        response = recv_message(sock)
        assert response["ok"] is False and "unknown op" in response["error"]
        send_message(sock, {"op": "ping"})  # same connection still works
        assert recv_message(sock)["ok"] is True
        sock.close()

    @pytest.mark.parametrize(
        "acked",
        [
            (1, ack_by_name("e1", -1)),  # negative seq
            (1, ack_by_id(999, 3)),  # an id never negotiated (no HELLO at all)
            (1, b""),  # truncated: one entry announced, none sent
            (1, ack_by_name("e1", 3) + b"\x00"),  # trailing garbage
        ],
    )
    def test_bad_ack_vector_rejected_server_side(self, wire_server, acked):
        """A malformed ``bin1`` request is answered with a JSON error and
        the connection keeps serving."""
        _, server = wire_server
        sock = connect_raw(server)
        frame = packed_request(*acked)
        sock.sendall(struct.pack(">I", len(frame)) + frame)
        response = recv_message(sock)
        assert response["ok"] is False and "op=batch_delta" in response["error"]
        send_message(sock, {"op": "ping"})
        assert recv_message(sock)["ok"] is True
        sock.close()


class TestServerLifecycle:
    def test_context_manager_releases_port(self, machine):
        agent = Agent(machine.sim, machine)
        with AgentServer(agent) as server:
            assert server.running
            host, port = server.address
            with RemoteAgentHandle(host, port) as handle:
                assert handle.ping() == agent.name
        assert not server.running
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1)

    def test_shutdown_is_idempotent(self, machine):
        server = AgentServer(Agent(machine.sim, machine)).start()
        server.shutdown()
        server.shutdown()  # no-op, no hang

    def test_shutdown_without_start_does_not_hang(self, machine):
        AgentServer(Agent(machine.sim, machine)).shutdown()

    def test_shutdown_severs_lingering_connections(self, machine):
        """Handler threads blocked in recv must be unblocked on shutdown,
        and connected clients must see the death immediately."""
        agent = Agent(machine.sim, machine)
        server = AgentServer(agent).start()
        sock = connect_raw(server)
        send_message(sock, {"op": "ping"})
        assert recv_message(sock)["ok"] is True  # handler is live and idle
        server.shutdown()
        # The severed socket yields EOF or a reset within the 5s socket
        # timeout — not an indefinite hang.
        with pytest.raises((ConnectionError, OSError)):
            while recv_message(sock):
                pass
        sock.close()


class TestCrashRestartArc:
    """The acceptance scenario: an agent dies and comes back mid-collection."""

    @pytest.fixture
    def world(self, sim_with_transport):
        sim = sim_with_transport
        machine = PhysicalMachine(sim, "m1")
        vm = machine.add_vm("v1", vcpu_cores=1.0)
        app = HttpServer(sim, vm, "app", cpu_per_byte=1e-9)
        flow = Flow("rx", dst_vm="v1", kind="udp")
        vm.bind_udp(flow, app.socket)
        ExternalTrafficSource(sim, "src", flow, machine.inject, rate_bps=40e6)
        sim.run(0.5)
        return sim, machine

    def test_health_staleness_and_rebaseline(self, world):
        sim, machine = world
        agent = Agent(sim, machine)
        server = AgentServer(agent).start()
        host, port = server.address

        handle = RemoteAgentHandle(host, port, retry=FAST_RETRY, sleep=no_sleep)
        controller = Controller()
        controller.register_agent(
            "m1",
            handle,
            HealthPolicy(degraded_after=1, dead_after=2, recover_after=1),
        )
        tenant = Tenant("t1")
        tenant.vnet.register_element("pnic", "m1", "pnic@m1")
        controller.register_tenant(tenant)

        # -- Phase 1: healthy collection. -----------------------------------
        assert controller.refresh("m1") > 0
        record, quality = controller.get_attr_with_quality(
            "t1", "pnic", ["rx_pkts"], now=sim.now
        )
        assert not quality.stale and quality.state == HEALTHY
        frozen_rx = record["rx_pkts"]
        assert frozen_rx > 0

        # -- Phase 2: the agent process dies mid-collection. ----------------
        server.shutdown()
        sim.run(0.2)  # the dataplane keeps running during the outage
        assert controller.refresh("m1") == 0  # failure 1 -> DEGRADED
        assert controller.health_for("m1").state == DEGRADED
        assert controller.refresh("m1") == 0  # failure 2 -> DEAD
        health = controller.health_for("m1")
        assert health.state == DEAD
        assert isinstance(health.last_error, AgentUnreachable)

        # Figure-6 queries still answer — from the aging mirror, flagged.
        record, quality = controller.get_attr_with_quality(
            "t1", "pnic", ["rx_pkts"], now=sim.now
        )
        assert record["rx_pkts"] == frozen_rx  # last known, not fresh
        assert quality.stale and quality.state == DEAD
        assert quality.age_s is not None and quality.age_s > 0
        assert "STALE" in quality.describe()

        # Algorithm 1 still runs, flagged degraded instead of crashing.
        detector = ContentionDetector(
            controller, advance=lambda t: sim.run(t), window_s=0.05
        )
        report = detector.run("m1")
        assert report.degraded
        assert report.confidence == CONFIDENCE_DEGRADED
        assert report.data_quality is not None and report.data_quality.stale

        # -- Phase 3: restart on the same port, with reset counters. --------
        machine.pnic_rx.counters.reset()  # the 'reboot' zeroed the kernel
        restarted = Agent(sim, machine, name="agent@m1")
        server2 = AgentServer(restarted, host=host, port=port).start()
        try:
            sim.run(0.2)
            assert controller.refresh("m1") > 0
            health = controller.health_for("m1")
            assert health.state == HEALTHY
            assert health.state_sequence() == [HEALTHY, DEGRADED, DEAD, HEALTHY]

            # The mirror observed the counter regression and re-baselined:
            # no window ever spans the restart, so deltas stay >= 0.
            mirror = controller.mirror_for("m1")
            assert mirror.store.resets.get("pnic@m1", 0) == 1
            sim.run(0.2)
            controller.refresh("m1")
            window = controller.machine_window("m1", "pnic@m1", 0.0, sim.now)
            assert window.delta("rx_pkts") >= 0
            assert window.delta("rx_bytes") >= 0

            record, quality = controller.get_attr_with_quality(
                "t1", "pnic", ["rx_pkts"], now=sim.now
            )
            assert not quality.stale
            assert quality.resets == 1  # the annotation records the restart
            assert record["rx_pkts"] < frozen_rx  # rebaselined, not resumed
        finally:
            server2.shutdown()
            handle.close()
