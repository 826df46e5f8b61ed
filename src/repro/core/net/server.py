"""TCP servers exposing an agent, or the fleet root, to remote peers.

Both tiers run the same code: one request loop
(:class:`_RequestHandler`) and one server lifecycle
(:class:`_WireServer`).  A tier contributes only what differs — which
data op arrives as ``bin1`` frames and how it is served, and which JSON
control ops it dispatches.

Each connection carries its own id tables: a HELLO exchange seeds them
before the first packed frame (:mod:`repro.core.net.codec`).  Data ops
(BATCH_DELTA at an agent, ZONE_REPORT at the root) are ``bin1`` frames
or they are refused; control ops, acks and error replies are JSON.

Agent request concurrency follows a reader/writer discipline
(:class:`~repro.core.concurrency.RWLock`): PING answers lock-free,
the read-only ops (QUERY and the listings) share the read side and run
concurrently with each other *and* with an in-flight collection sweep,
and only the BATCH_DELTA drain — the atomic changed-blocks + cursor
pair — takes the write side, so read-only traffic keeps flowing under a
slow sweep while the store's internal lock keeps its appends safe.
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time
from typing import Optional, Tuple, Union

from repro import obs
from repro.core.agent import Agent
from repro.core.concurrency import RWLock
from repro.core.counters import STANDARD_ATTRS
from repro.core.net import codec as wire_codec
from repro.core.net.codec import WireSchema
from repro.core.net.protocol import (
    OP_BATCH_DELTA,
    OP_HELLO,
    OP_LIST_ELEMENTS,
    OP_PING,
    OP_QUERY,
    OP_STACK_ELEMENTS,
    OP_ZONE_FOR,
    OP_ZONE_REPORT,
    OP_ZONE_SUBSCRIBE,
    ProtocolError,
    TRACE_FIELD,
    is_binary_frame,
    parse_json_frame,
    recv_frame,
    send_frame,
    send_message,
)

#: Self-observability names (``op`` bounded by the protocol inventory).
SERVER_REQUESTS_METRIC = "perfsight_server_requests_total"
SERVER_LATENCY_METRIC = "perfsight_server_request_latency_seconds"


class _RequestHandler(socketserver.BaseRequestHandler):
    """Serves one connection until it closes — the loop both tiers run.

    Holds the connection's id tables, seeded at HELLO and extended by
    dictionary deltas.  A tier subclass names the one op it receives as
    ``bin1`` frames (:attr:`bin_op`), decodes and serves such a frame
    (:meth:`_decode`, :meth:`_serve`), and dispatches its JSON control
    ops (:meth:`_dispatch`).
    """

    bin_op: str

    def setup(self) -> None:
        super().setup()
        self.schema = WireSchema()

    def handle(self) -> None:
        peer = self.server.peer  # type: ignore[attr-defined]
        while True:
            try:
                raw = recv_frame(self.request)
            except (ConnectionError, OSError):
                return
            except ProtocolError as exc:
                self._respond({"ok": False, "error": str(exc)})
                return
            binary = is_binary_frame(raw)
            if binary:
                # The trace context rides in the frame's trace slot, so
                # the request is decoded before the span opens.
                op = self.bin_op
                try:
                    decoded, trace_raw = self._decode(raw)
                except ProtocolError as exc:
                    # Malformed binary frames surface to the client as a
                    # JSON error response; the connection survives.
                    if not self._respond({"ok": False, "error": str(exc)}):
                        return
                    continue
            else:
                try:
                    request = parse_json_frame(raw)
                except ProtocolError as exc:
                    self._respond({"ok": False, "error": str(exc)})
                    return
                op = str(request.get("op"))
                trace_raw = request.get(TRACE_FIELD)
            # The handler span parents on the caller's wire trace
            # context, so a controller-side query span and this span
            # share a trace id across the process boundary.
            wall0 = time.perf_counter()
            with obs.span_from_wire(
                "wire.serve", trace_raw, op=op, agent=peer.name
            ) as sp:
                try:
                    reply = (
                        self._serve(peer, decoded)
                        if binary
                        else self._dispatch(peer, request)
                    )
                except Exception as exc:  # surfaced to client, not server
                    reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                    sp.set("error", f"{type(exc).__name__}: {exc}")
                ok = isinstance(reply, bytes) or bool(reply.get("ok"))
                sp.set("ok", ok)
            if obs.enabled():
                obs.observe(
                    SERVER_LATENCY_METRIC, time.perf_counter() - wall0, op=op
                )
                obs.counter(
                    SERVER_REQUESTS_METRIC, op=op, ok="true" if ok else "false"
                )
            if not self._respond(reply, op):
                return

    def _respond(self, reply: Union[bytes, dict], op: Optional[str] = None) -> bool:
        """Send one reply — packed bytes as they are, a dict as JSON.

        False when the peer is gone.
        """
        try:
            if isinstance(reply, bytes):
                send_frame(self.request, reply, op=op)
            else:
                send_message(self.request, reply)
            return True
        except (ConnectionError, OSError):
            return False


class _AgentRequestHandler(_RequestHandler):
    """The agent tier: packed BATCH_DELTA, JSON query/list ops."""

    bin_op = OP_BATCH_DELTA

    def _decode(self, raw: bytes):
        return wire_codec.decode_batch_request(self.schema, raw)

    def _serve(self, agent: Agent, acked: dict) -> bytes:
        lock: RWLock = self.server.agent_lock  # type: ignore[attr-defined]
        blocks, cursor = _drain(agent, lock, acked)
        return wire_codec.encode_batch_response(
            self.schema, agent.machine.name, blocks, cursor
        )

    def _dispatch(self, agent: Agent, request: dict) -> dict:
        lock: RWLock = self.server.agent_lock  # type: ignore[attr-defined]
        op = request.get("op")
        if op == OP_PING:
            return {"ok": True, "agent": agent.name}
        if op == OP_HELLO:
            with lock.read_locked():
                element_ids = agent.element_ids()
            return wire_codec.make_hello_response(
                agent.name,
                self.schema,
                agent.machine.name,
                element_ids,
                STANDARD_ATTRS,
            )
        if op == OP_LIST_ELEMENTS:
            with lock.read_locked():
                return {"ok": True, "elements": agent.element_ids()}
        if op == OP_STACK_ELEMENTS:
            with lock.read_locked():
                ids = [e.name for e in agent.machine.stack_elements()]
            return {"ok": True, "elements": ids}
        if op == OP_QUERY:
            element_ids = request.get("elements")
            attrs = request.get("attrs")
            with lock.read_locked():
                records = agent.query(element_ids, attrs)
            return {"ok": True, "records": [r.to_dict() for r in records]}
        return {"ok": False, "error": f"unknown op: {op!r}"}


def _drain(agent: Agent, lock: RWLock, acked: dict):
    """Pull-through sweep + atomic columnar drain under the RW discipline.

    The sweep runs on the READ side: the store's internal lock makes its
    appends safe under concurrent readers and the agent's own sweep
    mutex serializes sweeps, so a slow sweep never stalls read-only ops.
    Only the drain — the atomic changed-blocks + cursor pair — takes the
    write side.
    """
    with lock.read_locked():
        if not agent.polling:
            agent.poll_once()
    with lock.write_locked():
        return agent.store.drain_blocks(acked)


class _FleetRequestHandler(_RequestHandler):
    """The root tier: packed ZONE_REPORT, JSON subscribe/lookup ops.

    Every *response* stays JSON — acks are tiny.
    """

    bin_op = OP_ZONE_REPORT

    def _decode(self, raw: bytes):
        return wire_codec.decode_zone_report(self.schema, raw)

    def _serve(self, fleet, report_wire: dict) -> dict:
        # Imported lazily: the diagnosis package (transitively) imports
        # the net package this module belongs to.
        from repro.core.diagnosis.report import ZoneReport

        report = ZoneReport.from_wire(report_wire)
        accepted = fleet.ingest_zone_report(report)
        return {
            "ok": True,
            "accepted": accepted,
            "zone_seq": fleet.zone_record(report.zone).last_seq,
        }

    def _dispatch(self, fleet, request: dict) -> dict:
        op = request.get("op")
        if op == OP_PING:
            return {"ok": True, "agent": fleet.name}
        if op == OP_HELLO:
            return wire_codec.make_hello_response(fleet.name, self.schema)
        if op == OP_ZONE_SUBSCRIBE:
            zone = str(request.get("zone", ""))
            return {"ok": True, **fleet.subscribe_zone(zone)}
        if op == OP_ZONE_FOR:
            machine = str(request.get("machine", ""))
            return {"ok": True, "zone": fleet.zone_for(machine)}
        return {"ok": False, "error": f"unknown op: {op!r}"}


class _AgentTCPServer(socketserver.ThreadingTCPServer):
    """ThreadingTCPServer that can enumerate and sever live connections.

    Handler threads sit blocked in ``recv`` on their connection sockets;
    a plain ``shutdown()`` only stops the accept loop and would leave
    those threads (and their fds) lingering until process exit.  The
    accept path records every connection socket so
    :meth:`close_lingering` can shut them down, which unblocks the
    handlers immediately.

    ``allow_reuse_address`` lets a restarted agent rebind its old port
    right away — the recovery path the controller's health tracking is
    built to observe.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._handler_socks: set = set()
        self._handler_socks_lock = threading.Lock()
        #: Set by the owning server's ``partition()`` / ``heal()``.
        self.partitioned = False

    def process_request(self, request, client_address) -> None:
        if self.partitioned:
            # Emulated network partition: the process is alive but no
            # new connection gets past accept — peers see resets, the
            # same signal a real partition's RSTs/timeouts produce.
            self.shutdown_request(request)
            return
        with self._handler_socks_lock:
            self._handler_socks.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._handler_socks_lock:
            self._handler_socks.discard(request)
        super().shutdown_request(request)

    def close_lingering(self) -> int:
        """Sever every connection still open; returns how many."""
        with self._handler_socks_lock:
            lingering = list(self._handler_socks)
            self._handler_socks.clear()
        for sock in lingering:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        return len(lingering)


class _WireServer:
    """Runs one tier's handler behind a localhost TCP endpoint.

    The lifecycle both tiers share: a daemon serve thread, a shutdown
    that severs live connections, and the partition/heal fault surface.
    """

    handler_class: type

    def __init__(self, peer, host: str = "127.0.0.1", port: int = 0) -> None:
        self.peer = peer
        self._server = _AgentTCPServer(
            (host, port), self.handler_class, bind_and_activate=True
        )
        self._server.peer = peer  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.server_address  # type: ignore[return-value]

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self):
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name=f"{type(self).__name__}-{self.peer.name}",
            daemon=True,
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop accepting, sever live connections, release the port.

        Safe to call more than once.  Severing the handler sockets is
        what keeps tests from leaking blocked threads/fds — and what
        makes a kill look like a crash to connected peers (their next
        read fails immediately instead of hanging).
        """
        if self._thread is not None:
            self._server.shutdown()
        self._server.close_lingering()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def partition(self) -> int:
        """Emulate a network partition: alive, but unreachable.

        Fault-injection surface for the chaos plane — unlike
        :meth:`shutdown` the server keeps running and :meth:`heal`
        restores service without a restart.  The listener keeps
        accepting (so the OS-level port stays bound, exactly like a
        partitioned-but-alive host), but every new connection is closed
        immediately and every in-flight one is cut.  Returns
        connections cut.
        """
        self._server.partitioned = True
        return self._server.close_lingering()

    def heal(self) -> None:
        """Undo :meth:`partition`; new connections are served again."""
        self._server.partitioned = False

    @property
    def partitioned(self) -> bool:
        return self._server.partitioned

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()


class AgentServer(_WireServer):
    """Runs an agent behind a localhost TCP endpoint in a daemon thread."""

    handler_class = _AgentRequestHandler

    def __init__(self, agent: Agent, host: str = "127.0.0.1", port: int = 0) -> None:
        super().__init__(agent, host, port)
        self._server.agent_lock = RWLock()  # type: ignore[attr-defined]

    @property
    def lock(self) -> RWLock:
        """The reader/writer lock gating request dispatch (for tests)."""
        return self._server.agent_lock  # type: ignore[attr-defined]


class FleetServer(_WireServer):
    """Runs a :class:`FleetController` behind a localhost TCP endpoint.

    The root tier's wire surface: zones connect with a
    :class:`~repro.core.net.client.ZoneClient`, subscribe, and push
    roll-ups.
    """

    handler_class = _FleetRequestHandler
