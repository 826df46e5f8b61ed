"""TCP client implementing the controller's AgentHandle over the wire.

The management network between controller and agents is not reliable:
connections are refused while an agent restarts, reset when it crashes
mid-exchange, and stall when the network partitions.  The handle
therefore wraps every operation in a bounded retry loop with jittered
exponential backoff and a per-operation deadline.  Every op on the
wire is idempotent (:mod:`repro.core.net.protocol`), so any transport
failure is retried within that budget.  When it is exhausted the caller
gets a typed :class:`AgentUnreachable` so the controller can feed its
health state machine instead of crashing the collection plane.

Concurrency: one handle is safe to share across threads.  Instead of a
single persistent socket (which would serialize concurrent callers),
the handle keeps a small :class:`~repro.core.concurrency.ConnectionPool`
of connections — each operation checks one out for its request/response
exchange and returns it, so up to ``pool_size`` operations against the
same agent run in parallel.  The connection is the unit of failure: a
failed exchange — a transport error, a protocol violation, a refusal —
discards exactly the connection it happened on, codec state and all,
and the rest of the pool keeps serving.

Wire codec: data ops (BATCH_DELTA, ZONE_REPORT) travel as ``bin1``
frames (:mod:`repro.core.net.codec`) and as nothing else.  Each pooled
connection says HELLO lazily before its first data op to seed its id
tables; the tables live on the connection, so pool churn, retries and
reconnects re-handshake transparently.  A peer that refuses HELLO or
answers another codec fails the operation with a typed
:class:`~repro.core.net.protocol.ProtocolError` (``op="hello"``) and
the connection is discarded — there is no other format to fall back to.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import socket

from repro import obs
from repro.core.concurrency import ConnectionPool
from repro.core.net import codec as wire_codec
from repro.core.net.codec import CODEC_BIN1, WireSchema
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
    inject_trace,
    is_binary_frame,
    parse_json_frame,
    recv_frame,
    recv_message,
    send_frame,
    send_message,
    wire_int,
)
from repro.core.store import SeriesBlock

#: Self-observability: retries per op.  The ``op`` label is bounded by
#: the protocol's op inventory.  Pool occupancy and give-ups are kept on
#: the pool (``ConnectionPool.in_use``/``idle``) and in the
#: ``wire.unreachable`` event.
WIRE_RETRIES_METRIC = "perfsight_wire_retries_total"

#: Default connection-pool shape per handle: enough parallelism for a
#: controller's fan-out against one agent without hoarding sockets.
DEFAULT_POOL_SIZE = 4
DEFAULT_POOL_IDLE_S = 60.0

class AgentUnreachable(ConnectionError):
    """An agent stayed unreachable through an operation's retry budget."""

    def __init__(
        self,
        agent: str,
        op: str,
        attempts: int,
        elapsed_s: float,
        last_error: Optional[BaseException],
    ) -> None:
        super().__init__(
            f"agent {agent} unreachable: {op!r} failed after {attempts} "
            f"attempt(s) in {elapsed_s:.3f}s (last error: {last_error!r})"
        )
        self.agent = agent
        self.op = op
        self.attempts = attempts
        self.elapsed_s = elapsed_s
        self.last_error = last_error


class PeerRefused(RuntimeError):
    """The peer answered, but refused the operation (``ok: false``).

    The peer is reachable and the stream is intact up to the refusal;
    what failed is the operation itself — an agent-side fault while
    serving it, a request the peer rejects.  ``error`` is the peer's
    own description.
    """

    def __init__(self, peer: str, op: str, error: str) -> None:
        super().__init__(f"{peer} refused {op!r}: {error}")
        self.peer = peer
        self.op = op
        self.error = error


def _refused(peer: str, op: str, response: Mapping[str, Any]) -> PeerRefused:
    return PeerRefused(peer, op, str(response.get("error", "unknown error")))


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget for one wire operation.

    ``max_attempts`` bounds how often the request is tried in total;
    between attempts the client sleeps ``base_delay_s * 2^n`` capped at
    ``max_delay_s``, shrunk by up to ``jitter`` (a fraction of the
    delay) so a fleet of controllers retrying a rebooted agent does not
    synchronize.  ``deadline_s`` caps the whole operation including the
    sleeps: a retry that cannot finish before the deadline is not
    started.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    deadline_s: float = 10.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts!r}")
        if self.base_delay_s < 0 or self.max_delay_s < self.base_delay_s:
            raise ValueError(
                f"need 0 <= base_delay_s <= max_delay_s: "
                f"{self.base_delay_s!r}, {self.max_delay_s!r}"
            )
        if self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive: {self.deadline_s!r}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be within [0, 1]: {self.jitter!r}")

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Sleep before retry number ``attempt`` (0-based), jittered."""
        delay = min(self.max_delay_s, self.base_delay_s * (2.0 ** attempt))
        if self.jitter > 0:
            delay *= 1.0 - self.jitter * rng.random()
        return delay


class _WireConn:
    """One pooled connection plus its per-connection codec state.

    ``greeted`` is False until the first data op triggers HELLO, which
    seeds ``schema``; its id tables and implied BATCH_DELTA state are
    only ever meaningful to this connection.
    """

    __slots__ = ("sock", "schema", "greeted")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.schema = WireSchema()
        self.greeted = False


class WireClient:
    """Pooled, retrying request/response client for one wire peer.

    The transport core shared by every client in the control plane —
    the controller's per-agent handle and the zone tier's link to the
    fleet root: a small connection pool (``pool_size``) so concurrent
    callers pipeline instead of serializing on one socket, the retry
    loop of :meth:`_exchange` per operation, and the
    lazy per-connection HELLO handshake.  ``sleep``, ``clock`` and
    ``rng`` are injectable so tests can drive the retry loop
    deterministically without real waiting; passing ``seed`` instead of
    ``rng`` makes the backoff jitter reproducible without sharing
    generator state across handles.
    """

    #: Label prefix for the default ``name`` (subclasses override).
    peer_kind = "remote-peer"

    def __init__(
        self,
        host: str,
        port: int,
        name: str = "",
        timeout_s: float = 5.0,
        retry: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        rng: Optional[random.Random] = None,
        seed: Optional[int] = None,
        pool_size: int = DEFAULT_POOL_SIZE,
    ):
        self.host = host
        self.port = port
        self.name = name or f"{self.peer_kind}@{host}:{port}"
        self.timeout_s = timeout_s
        self.retry = retry if retry is not None else RetryPolicy()
        self._sleep = sleep
        self._clock = clock
        self._rng = rng if rng is not None else random.Random(seed)
        self._rng_lock = threading.Lock()
        self.pool = ConnectionPool(
            factory=self._connect,
            closer=self._close_conn,
            max_size=pool_size,
            max_idle_s=DEFAULT_POOL_IDLE_S,
        )

    # -- connection management ----------------------------------------------------

    def _connect(self) -> _WireConn:
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return _WireConn(sock)

    @staticmethod
    def _close_conn(conn: _WireConn) -> None:
        conn.sock.close()

    def close(self) -> None:
        """Close every connection this handle has open.

        Idle connections close now.  In-flight operations keep the
        connection they checked out, and it is closed when they finish
        instead of going back to the pool.  The next call after
        ``close`` simply reconnects — with a fresh HELLO, since the id
        tables die with their connection.
        """
        self.pool.close_all()

    def _backoff(self, attempt: int) -> float:
        # The shared RNG is the one piece of cross-connection state;
        # serialize draws so seeded handles stay reproducible even when
        # two connections retry at once.
        with self._rng_lock:
            return self.retry.backoff_s(attempt, self._rng)

    # -- the retry-looped exchange core --------------------------------------------

    def _exchange(self, op: str, perform: Callable[[_WireConn], Any]) -> Any:
        """Run one request/response exchange under the retry policy.

        ``perform(conn)`` does the actual wire work on a checked-out
        connection.  Transport failures (ConnectionError/OSError)
        discard the connection and retry within budget; any other
        failure (a protocol violation, a refusal) discards the
        connection — its stream and its codec state can no longer be
        trusted — and propagates.
        """
        started = self._clock()
        deadline = started + self.retry.deadline_s
        attempts = 0
        with obs.span("wire.call", op=op, agent=self.name) as sp:
            while True:
                conn: Optional[_WireConn] = None
                try:
                    conn = self.pool.checkout(timeout_s=self.timeout_s)
                    result = perform(conn)
                    self.pool.checkin(conn)
                    break
                except (ConnectionError, OSError) as exc:
                    # Only the connection the failure happened on dies;
                    # concurrent exchanges on pooled siblings are
                    # untouched.  A checkout that itself failed (connect
                    # refused, pool timeout) has nothing to discard.
                    if conn is not None:
                        self.pool.discard(conn)
                    attempts += 1
                    if attempts >= self.retry.max_attempts:
                        self._give_up(op, attempts, started, exc)
                    delay = self._backoff(attempts - 1)
                    if self._clock() + delay > deadline:
                        self._give_up(op, attempts, started, exc)
                    obs.counter(WIRE_RETRIES_METRIC, op=op)
                    self._sleep(delay)
                except BaseException:
                    # A protocol violation, a refusal, anything else:
                    # the two ends may no longer agree on the stream or
                    # on the connection's codec state, so it never goes
                    # back to the pool.
                    if conn is not None:
                        self.pool.discard(conn)
                    raise
            sp.set("attempts", attempts + 1)
        return result

    def _call(self, request: dict) -> dict:
        """One JSON request/response exchange (the control ops)."""
        op = str(request.get("op"))
        # The wire.call span opened by _exchange is the parent the
        # agent-side handler span links to; a retried request keeps the
        # same context, so both server attempts land in one trace.
        inject_trace(request, obs.current_trace())

        def perform(conn: _WireConn) -> dict:
            send_message(conn.sock, request)
            return recv_message(conn.sock)

        response = self._exchange(op, perform)
        if not response.get("ok"):
            raise _refused(self.name, op, response)
        return response

    def _give_up(
        self, op: str, attempts: int, started: float, exc: BaseException
    ) -> None:
        """Exhausted retry budget: record it, raise AgentUnreachable."""
        elapsed = self._clock() - started
        obs.event(
            "wire.unreachable", obs.ERROR,
            agent=self.name, op=op, attempts=attempts, error=repr(exc),
        )
        raise AgentUnreachable(self.name, op, attempts, elapsed, exc) from exc

    # -- HELLO handshake ------------------------------------------------------------

    def _negotiate(self, conn: _WireConn) -> None:
        """HELLO on one connection; seeds its id tables for its lifetime.

        Gets its own ``wire.hello`` span (nested under whatever
        operation triggered it) so each ``wire.call`` span still parents
        exactly one server-side ``wire.serve`` — the handshake's serve
        span links here instead.
        """
        with obs.span("wire.hello", agent=self.name):
            request = inject_trace({"op": OP_HELLO}, obs.current_trace())
            send_message(conn.sock, request)
            response = recv_message(conn.sock)
            if not response.get("ok"):
                raise ProtocolError(
                    f"peer {self.name} refused HELLO: "
                    f"{response.get('error', 'unknown error')}",
                    op=OP_HELLO,
                )
            wire_codec.apply_hello_response(response, conn.schema)
            conn.greeted = True

    # -- generic peer surface ----------------------------------------------------------

    def ping(self) -> str:
        return str(self._call({"op": OP_PING})["agent"])

    def hello(self) -> str:
        """Handshake (on one pooled connection) and report the codec.

        Mostly a diagnostics/testing surface: normal operation says
        HELLO lazily inside the first data op on each connection.
        """

        def perform(conn: _WireConn) -> str:
            if not conn.greeted:
                self._negotiate(conn)
            return CODEC_BIN1

        return self._exchange(OP_HELLO, perform)

    def __enter__(self) -> "WireClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RemoteAgentHandle(WireClient):
    """Controller-side proxy for an agent behind an :class:`AgentServer`.

    The :class:`WireClient` transport core plus the ``AgentHandle``
    surface the controller mirrors against: element listings and the
    packed BATCH_DELTA collection exchange.
    """

    peer_kind = "remote-agent"

    # -- AgentHandle interface ---------------------------------------------------------

    def element_ids(self) -> List[str]:
        return self._listing(OP_LIST_ELEMENTS)

    def stack_element_ids(self) -> List[str]:
        return self._listing(OP_STACK_ELEMENTS)

    def _listing(self, op: str) -> List[str]:
        elements = self._call({"op": op}).get("elements")
        if not isinstance(elements, list):
            raise ProtocolError(f"reply has no elements list: {elements!r}", op=op)
        return [str(e) for e in elements]

    def collect_blocks(
        self, acked: Optional[Mapping[str, int]] = None
    ) -> Tuple[List[SeriesBlock], Dict[str, int]]:
        """One BATCH_DELTA exchange as columnar blocks + new ack cursor.

        The response's value rows decode straight into block tuples
        that :meth:`TimeSeriesStore.apply_blocks` lands in a mirror's
        value arrays — no dicts anywhere between the agent's store and
        the controller's.
        """
        acked = dict(acked) if acked else {}

        def perform(conn: _WireConn) -> Tuple[List[SeriesBlock], Dict[str, int]]:
            if not conn.greeted:
                self._negotiate(conn)
            # Captured here — inside the wire.call span — so the agent's
            # serve span parents on this exchange, not on our caller.
            trace = obs.current_trace()
            trace_wire = trace.to_wire() if trace is not None else None
            raw = wire_codec.encode_batch_request(conn.schema, acked, trace_wire)
            send_frame(conn.sock, raw, op=OP_BATCH_DELTA)
            reply = recv_frame(conn.sock)
            if is_binary_frame(reply):
                payload = wire_codec.decode_batch_response(conn.schema, reply)
                return payload.blocks, payload.cursor
            # The server answers protocol violations (and refusals) in
            # JSON even though the request was binary.
            response = parse_json_frame(reply, op=OP_BATCH_DELTA)
            raise _refused(self.name, OP_BATCH_DELTA, response)

        return self._exchange(OP_BATCH_DELTA, perform)


class ZoneClient(WireClient):
    """Zone-side link to the fleet root behind a :class:`FleetServer`.

    Speaks the ZONE_SUBSCRIBE / ZONE_REPORT op set: subscribe once to
    learn the root's accepted-sequence floor, then push roll-ups.  Both
    ops are idempotent (reports carry the zone's monotonic ``seq``), so
    the full :class:`WireClient` retry machinery applies — a report
    whose ack got lost is blindly re-sent and dropped as a replay at
    the root.  Reports go packed (``bin1`` kind-3 frames); the root's
    acks come back as JSON.
    """

    peer_kind = "zone-link"

    def subscribe(self, zone: str) -> int:
        """Announce the zone; returns the root's last accepted seq."""
        response = self._call({"op": OP_ZONE_SUBSCRIBE, "zone": zone})
        return wire_int(response.get("zone_seq"), "zone_seq", OP_ZONE_SUBSCRIBE)

    def zone_for(self, machine: str) -> str:
        """Ask the root which zone currently owns a machine.

        The re-homing consult: an agent whose push target went dead
        asks here, and the answer reflects the ring *after* any
        failover — i.e. the surviving zone its shard moved to.
        """
        zone = self._call({"op": OP_ZONE_FOR, "machine": machine}).get("zone")
        if not isinstance(zone, str):
            raise ProtocolError(f"reply has no zone name: {zone!r}", op=OP_ZONE_FOR)
        return zone

    def push_report(self, report_wire: Mapping[str, Any]) -> bool:
        """Push one zone roll-up (wire-dict form); True when accepted.

        False means the root already held this ``seq`` — a replayed
        retry, or a report the zone rebuilt after a restart with a
        stale counter.  Either way the root's state is current.
        """

        def perform(conn: _WireConn) -> bool:
            if not conn.greeted:
                self._negotiate(conn)
            trace = obs.current_trace()
            trace_wire = trace.to_wire() if trace is not None else None
            raw = wire_codec.encode_zone_report(conn.schema, report_wire, trace_wire)
            send_frame(conn.sock, raw, op=OP_ZONE_REPORT)
            # Acks are small and always JSON — same convention as
            # BATCH_DELTA errors.
            response = parse_json_frame(recv_frame(conn.sock), op=OP_ZONE_REPORT)
            if not response.get("ok"):
                raise _refused(self.name, OP_ZONE_REPORT, response)
            return bool(response.get("accepted", True))

        return self._exchange(OP_ZONE_REPORT, perform)
