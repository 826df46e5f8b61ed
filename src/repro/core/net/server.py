"""TCP servers exposing an agent, or the fleet root, to remote peers.

Both tiers run the same code: one :class:`_WireServer`, whose single
daemon thread runs a :mod:`selectors` loop.  The loop accepts
connections, buffers each connection's bytes, and serves every whole
frame a connection holds.  A tier contributes only what differs — which
data op arrives as ``bin1`` frames and how it is served, and which JSON
control ops it dispatches.

Each connection carries its own id tables: a HELLO exchange seeds them
before the first packed frame (:mod:`repro.core.net.codec`).  Data ops
(BATCH_DELTA at an agent, ZONE_REPORT at the root) are ``bin1`` frames
or they are refused; control ops, acks and error replies are JSON.  A
binary frame the server rejects — it does not decode, or serving it
fails — gets its JSON error reply and then ends its connection, since
the two ends' codec state may no longer agree; the client reconnects
with a fresh HELLO.  A refused JSON control op carries no codec state
and keeps its connection.

One thread serves every connection, so a server answers one request at
a time and needs no lock to order its requests against each other.  The
one thing that runs beside it is the simulator thread's cadence sweep;
the agent's sweep lock and the store's own lock order the two.  A peer
that sends part of a frame and stalls costs only its buffered bytes:
the loop never waits on one connection's reads.  A reply is sent
blocking, and a peer that does not take it within
:data:`SEND_TIMEOUT_S` loses its connection.
"""

from __future__ import annotations

import selectors
import socket
import threading
import traceback
from typing import Optional, Set, Tuple, Union

from repro import obs
from repro.core.agent import Agent
from repro.core.counters import STANDARD_ATTRS
from repro.core.net import codec as wire_codec
from repro.core.net.codec import WireSchema
from repro.core.net.protocol import (
    OP_BATCH_DELTA,
    OP_HELLO,
    OP_LIST_ELEMENTS,
    OP_PING,
    OP_STACK_ELEMENTS,
    OP_ZONE_FOR,
    OP_ZONE_REPORT,
    OP_ZONE_SUBSCRIBE,
    ProtocolError,
    TRACE_FIELD,
    is_binary_frame,
    parse_json_frame,
    pop_frame,
    send_frame,
    send_message,
)

#: How long one reply may take to leave; past it the connection is cut,
#: so a peer that stops reading cannot hold every other peer's loop.
SEND_TIMEOUT_S = 5.0

_RECV_BYTES = 1 << 16


class _Connection:
    """One accepted socket, its unread bytes and its :class:`WireSchema`.

    The schema holds the connection's id tables, seeded at HELLO and
    extended by dictionary deltas, plus the attr lists, acks and cursor
    a BATCH_DELTA exchange leaves implied.
    """

    __slots__ = ("sock", "buf", "schema")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buf = bytearray()
        self.schema = WireSchema()


def _sever(sock: socket.socket) -> None:
    """Cut a connection so its peer sees EOF or a reset at once."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    sock.close()


class _WireServer:
    """Runs one tier's request serving behind a localhost TCP endpoint.

    A tier subclass names the one op it receives as ``bin1`` frames
    (:attr:`bin_op`), decodes and serves such a frame (:meth:`_decode`,
    :meth:`_serve`), and dispatches its JSON control ops
    (:meth:`_dispatch`).  The lifecycle both tiers share: one daemon
    loop thread, a shutdown that severs live connections, and the
    partition/heal fault surface.

    The loop holds ``_lock`` while it handles one ready socket, and
    :meth:`partition` and :meth:`shutdown` take it too, so once either
    returns no frame is served until :meth:`heal` (or ever).
    """

    bin_op: str

    def __init__(self, peer, host: str = "127.0.0.1", port: int = 0) -> None:
        self.peer = peer
        # create_server sets SO_REUSEADDR, so a restarted agent rebinds
        # its old port right away — the recovery path the controller's
        # health tracking is built to observe.
        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        self._address: Tuple[str, int] = self._listener.getsockname()[:2]
        # Written once by shutdown() to wake the loop out of select().
        self._waker, self._wake = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._selector.register(self._waker, selectors.EVENT_READ)
        self._conns: Set[_Connection] = set()
        self._lock = threading.Lock()
        self._partitioned = False
        self._closed = False
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._address

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self):
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run,
            name=f"{type(self).__name__}-{self.peer.name}",
            daemon=True,
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop accepting, sever live connections, release the port.

        Safe to call more than once.  Severing the connections makes a
        kill look like a crash to connected peers: their next read fails
        immediately instead of hanging.
        """
        with self._lock:
            self._closed = True
            self._cut_all()
        if self._thread is not None:
            self._wake.send(b"\0")
            self._thread.join(timeout=5)
            self._thread = None
        self._selector.close()
        self._listener.close()
        self._waker.close()
        self._wake.close()

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
        with self._lock:
            self._partitioned = True
            return self._cut_all()

    def heal(self) -> None:
        """Undo :meth:`partition`; new connections are served again."""
        self._partitioned = False

    @property
    def partitioned(self) -> bool:
        return self._partitioned

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- the loop ------------------------------------------------------------------

    def _run(self) -> None:
        while True:
            for key, _ in self._selector.select():
                with self._lock:
                    if self._closed:
                        return
                    if key.fileobj is self._listener:
                        self._accept()
                    elif key.data in self._conns:
                        try:
                            self._read(key.data)
                        except Exception:
                            # A fault met serving one peer costs that
                            # peer its connection, not the server its loop.
                            traceback.print_exc()
                            self._cut(key.data)

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:  # the peer gave up before we got to it
            return
        if self._partitioned:
            # Emulated network partition: the process is alive but no
            # new connection gets past accept — peers see resets, the
            # same signal a real partition's RSTs/timeouts produce.
            _sever(sock)
            return
        sock.settimeout(SEND_TIMEOUT_S)
        conn = _Connection(sock)
        self._conns.add(conn)
        self._selector.register(sock, selectors.EVENT_READ, conn)

    def _read(self, conn: _Connection) -> None:
        """Take what the peer sent and serve every whole frame in it."""
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except OSError:
            data = b""
        if not data:
            self._cut(conn)
            return
        conn.buf += data
        while True:
            try:
                raw = pop_frame(conn.buf)
            except ProtocolError as exc:
                self._respond(conn, {"ok": False, "error": str(exc)})
                break
            if raw is None:
                return
            if not self._handle(conn, raw):
                break
        self._cut(conn)

    def _cut(self, conn: _Connection) -> None:
        if conn in self._conns:
            self._conns.discard(conn)
            self._selector.unregister(conn.sock)
            _sever(conn.sock)

    def _cut_all(self) -> int:
        conns = list(self._conns)
        for conn in conns:
            self._cut(conn)
        return len(conns)

    def _handle(self, conn: _Connection, raw: bytes) -> bool:
        """Serve one frame; False when the connection must close."""
        binary = is_binary_frame(raw)
        if binary:
            # The trace context rides in the frame's trace slot, so the
            # request is decoded before the span opens.
            op = self.bin_op
            try:
                decoded, trace_raw = self._decode(conn, raw)
            except ProtocolError as exc:
                self._respond(conn, {"ok": False, "error": str(exc)})
                return False
        else:
            try:
                request = parse_json_frame(raw)
            except ProtocolError as exc:
                self._respond(conn, {"ok": False, "error": str(exc)})
                return False
            op = str(request.get("op"))
            trace_raw = request.get(TRACE_FIELD)
        # The serve span parents on the caller's wire trace context, so
        # a controller-side call span and this span share a trace id
        # across the process boundary.
        with obs.span_from_wire(
            "wire.serve", trace_raw, op=op, agent=self.peer.name
        ) as sp:
            try:
                reply = (
                    self._serve(conn, decoded)
                    if binary
                    else self._dispatch(conn, request)
                )
            except Exception as exc:  # surfaced to client, not server
                reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                sp.set("error", f"{type(exc).__name__}: {exc}")
            ok = isinstance(reply, bytes) or bool(reply.get("ok"))
            sp.set("ok", ok)
        return self._respond(conn, reply, op) and (ok or not binary)

    def _respond(
        self, conn: _Connection, reply: Union[bytes, dict], op: Optional[str] = None
    ) -> bool:
        """Send one reply — packed bytes as they are, a dict as JSON.

        False when the peer is gone.
        """
        try:
            if isinstance(reply, bytes):
                send_frame(conn.sock, reply, op=op)
            else:
                send_message(conn.sock, reply)
            return True
        except (ConnectionError, OSError):
            return False


class AgentServer(_WireServer):
    """Runs an agent behind a localhost TCP endpoint: packed BATCH_DELTA,
    JSON ping, HELLO and element listings."""

    bin_op = OP_BATCH_DELTA

    def __init__(self, agent: Agent, host: str = "127.0.0.1", port: int = 0) -> None:
        super().__init__(agent, host, port)

    def _decode(self, conn: _Connection, raw: bytes):
        return wire_codec.decode_batch_request(conn.schema, raw)

    def _serve(self, conn: _Connection, acked: dict) -> bytes:
        agent = self.peer
        blocks, cursor = agent.collect_blocks(acked)
        return wire_codec.encode_batch_response(
            conn.schema, agent.machine.name, blocks, cursor
        )

    def _dispatch(self, conn: _Connection, request: dict) -> dict:
        agent = self.peer
        op = request.get("op")
        if op == OP_PING:
            return {"ok": True, "agent": agent.name}
        if op == OP_HELLO:
            return wire_codec.make_hello_response(
                agent.name,
                conn.schema,
                agent.machine.name,
                agent.element_ids(),
                STANDARD_ATTRS,
            )
        if op == OP_LIST_ELEMENTS:
            return {"ok": True, "elements": agent.element_ids()}
        if op == OP_STACK_ELEMENTS:
            ids = [e.name for e in agent.machine.stack_elements()]
            return {"ok": True, "elements": ids}
        return {"ok": False, "error": f"unknown op: {op!r}"}


class FleetServer(_WireServer):
    """Runs a :class:`FleetController` behind a localhost TCP endpoint.

    The root tier's wire surface: zones connect with a
    :class:`~repro.core.net.client.ZoneClient`, subscribe, and push
    roll-ups as packed ZONE_REPORT frames.  Every *response* stays
    JSON — acks are tiny.
    """

    bin_op = OP_ZONE_REPORT

    def _decode(self, conn: _Connection, raw: bytes):
        return wire_codec.decode_zone_report(conn.schema, raw)

    def _serve(self, conn: _Connection, report_wire: dict) -> dict:
        # Imported lazily: the diagnosis package (transitively) imports
        # the net package this module belongs to.
        from repro.core.diagnosis.report import ZoneReport

        fleet = self.peer
        report = ZoneReport.from_wire(report_wire)
        accepted = fleet.ingest_zone_report(report)
        return {
            "ok": True,
            "accepted": accepted,
            "zone_seq": fleet.zone_record(report.zone).last_seq,
        }

    def _dispatch(self, conn: _Connection, request: dict) -> dict:
        fleet = self.peer
        op = request.get("op")
        if op == OP_PING:
            return {"ok": True, "agent": fleet.name}
        if op == OP_HELLO:
            return wire_codec.make_hello_response(fleet.name, conn.schema)
        if op == OP_ZONE_SUBSCRIBE:
            zone = str(request.get("zone", ""))
            return {"ok": True, **fleet.subscribe_zone(zone)}
        if op == OP_ZONE_FOR:
            machine = str(request.get("machine", ""))
            return {"ok": True, "zone": fleet.zone_for(machine)}
        return {"ok": False, "error": f"unknown op: {op!r}"}
