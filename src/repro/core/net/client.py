"""TCP client implementing the controller's AgentHandle over the wire.

The management network between controller and agents is not reliable:
connections are refused while an agent restarts, reset when it crashes
mid-exchange, and stall when the network partitions.  The handle
therefore wraps every operation in a bounded retry loop with jittered
exponential backoff and a per-operation deadline.  Only idempotent ops
(:data:`~repro.core.net.protocol.IDEMPOTENT_OPS` — PING, the listings,
HELLO, and BATCH_DELTA, whose ack vector makes replay safe) are retried
blindly; a non-idempotent op is retried only when the failure provably
happened before the request reached the peer (the connect failed).
When the budget is exhausted the caller gets a typed
:class:`AgentUnreachable` so the controller can feed its health state
machine instead of crashing the collection plane.

Concurrency: one handle is safe to share across threads.  Instead of a
single persistent socket (which would serialize concurrent callers),
the handle keeps a small :class:`~repro.core.concurrency.ConnectionPool`
of connections — each operation checks one out for its request/response
exchange and returns it, so up to ``pool_size`` operations against the
same agent run in parallel.  The retry and idempotency rules above are
enforced *per connection*: a failed exchange discards exactly the
connection it happened on (the rest of the pool keeps serving), and the
"did the request reach the peer" judgment is made against that
connection's own send.

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
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

import socket

from repro import obs
from repro.core.concurrency import ConnectionPool
from repro.core.net import codec as wire_codec
from repro.core.net.codec import CODEC_BIN1, WireSchema
from repro.core.net.protocol import (
    IDEMPOTENT_OPS,
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
    inject_trace,
    is_binary_frame,
    parse_json_frame,
    recv_frame,
    recv_message,
    send_frame,
    send_message,
)
from repro.core.records import StatRecord
from repro.core.store import SeriesBlock

#: Self-observability names; the ``op`` label is bounded by the
#: protocol's op inventory, ``agent`` by the fleet size.
WIRE_OP_LATENCY_METRIC = "perfsight_wire_op_latency_seconds"
WIRE_RETRIES_METRIC = "perfsight_wire_retries_total"
WIRE_UNREACHABLE_METRIC = "perfsight_wire_unreachable_total"
POOL_IN_USE_METRIC = "perfsight_client_pool_in_use"
POOL_IDLE_METRIC = "perfsight_client_pool_idle"

#: Default connection-pool shape per handle: enough parallelism for a
#: controller's fan-out against one agent without hoarding sockets.
DEFAULT_POOL_SIZE = 4
DEFAULT_POOL_IDLE_S = 60.0

#: Circuit-breaker observability.  The state gauge encodes
#: closed=0 / half_open=1 / open=2 so dashboards can plot it directly.
CIRCUIT_STATE_METRIC = "perfsight_wire_circuit_state"
CIRCUIT_FASTFAIL_METRIC = "perfsight_wire_circuit_fast_fails_total"
CIRCUIT_OPENS_METRIC = "perfsight_wire_circuit_opens_total"

#: Circuit states, in escalation order.
CIRCUIT_CLOSED = "closed"
CIRCUIT_HALF_OPEN = "half_open"
CIRCUIT_OPEN = "open"

_CIRCUIT_GAUGE = {CIRCUIT_CLOSED: 0.0, CIRCUIT_HALF_OPEN: 1.0, CIRCUIT_OPEN: 2.0}


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


class CircuitOpenError(AgentUnreachable):
    """Fast-fail: the endpoint's circuit is open, no attempt was made.

    Subclasses :class:`AgentUnreachable` deliberately — callers that
    feed collection failures into health tracking (``COLLECTION_ERRORS``
    in the controller) handle a fast-fail identically to an exhausted
    retry ladder; the only difference is that this one cost
    microseconds instead of the full backoff schedule.
    """

    def __init__(
        self,
        agent: str,
        op: str,
        retry_after_s: float,
        last_error: Optional[BaseException] = None,
    ) -> None:
        ConnectionError.__init__(
            self,
            f"agent {agent} circuit open: {op!r} fast-failed "
            f"(next probe in {max(0.0, retry_after_s):.3f}s; "
            f"last error: {last_error!r})",
        )
        self.agent = agent
        self.op = op
        self.attempts = 0
        self.elapsed_s = 0.0
        self.last_error = last_error
        self.retry_after_s = retry_after_s


@dataclass(frozen=True)
class CircuitPolicy:
    """Thresholds of a per-endpoint circuit breaker.

    The breaker watches the last ``window`` *operation* outcomes (an
    operation = one :meth:`WireClient._exchange`, i.e. the whole retry
    ladder, not each attempt).  Once at least ``min_calls`` outcomes
    are in the window and the failure fraction reaches
    ``failure_threshold``, the circuit OPENs: further calls fast-fail
    without touching the socket.  After ``cooldown_s`` the circuit goes
    HALF_OPEN and admits exactly one probe; a successful probe CLOSEs
    it, a failed one re-OPENs it and restarts the cooldown.
    """

    window: int = 8
    failure_threshold: float = 0.5
    min_calls: int = 2
    cooldown_s: float = 1.0

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1: {self.window!r}")
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ValueError(
                f"failure_threshold must be within (0, 1]: "
                f"{self.failure_threshold!r}"
            )
        if not 1 <= self.min_calls <= self.window:
            raise ValueError(
                f"need 1 <= min_calls <= window: "
                f"{self.min_calls!r}, {self.window!r}"
            )
        if self.cooldown_s <= 0:
            raise ValueError(f"cooldown_s must be positive: {self.cooldown_s!r}")


class CircuitBreaker:
    """CLOSED / OPEN / HALF_OPEN state machine for one wire endpoint.

    Why this exists: a dead endpoint otherwise costs every caller the
    full retry ladder (attempts × backoff, up to the deadline) on every
    operation.  With the breaker, the ladder is paid once per cooldown
    period — by the single probe — and everyone else fails in
    microseconds, which is what keeps a zone-wide refresh fast while
    one agent is down.

    Outcomes are recorded per *operation*, and only by the operations
    actually admitted: fast-fails do not feed the window (they would
    pin it at 100% failure and the circuit would never see recovery
    evidence).
    """

    def __init__(
        self,
        policy: Optional[CircuitPolicy] = None,
        name: str = "",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy if policy is not None else CircuitPolicy()
        self.name = name
        self._clock = clock
        self._lock = threading.Lock()
        self.state = CIRCUIT_CLOSED
        self._outcomes: List[bool] = []
        self._opened_at = 0.0
        self._probe_in_flight = False
        self.fast_fails = 0
        self.opens = 0
        #: Every (from_state, to_state) edge taken, in order.
        self.transitions: List[Tuple[str, str]] = []
        # Export the initial CLOSED state so a scraped exposition shows
        # every endpoint's breaker, not just the ones that tripped.
        obs.gauge(
            CIRCUIT_STATE_METRIC, _CIRCUIT_GAUGE[self.state], agent=self.name
        )

    def allow(self) -> Tuple[bool, float]:
        """May a call proceed?  Returns (allowed, cooldown remaining).

        An OPEN circuit whose cooldown elapsed flips to HALF_OPEN and
        admits the caller as the probe; while a probe is in flight every
        other caller keeps fast-failing — one probe pays the ladder for
        everyone.
        """
        with self._lock:
            if self.state == CIRCUIT_CLOSED:
                return True, 0.0
            remaining = self._opened_at + self.policy.cooldown_s - self._clock()
            if self.state == CIRCUIT_OPEN and remaining <= 0:
                self._transition(CIRCUIT_HALF_OPEN)
            if self.state == CIRCUIT_HALF_OPEN and not self._probe_in_flight:
                self._probe_in_flight = True
                return True, 0.0
            self.fast_fails += 1
            return False, max(0.0, remaining)

    def record_success(self) -> None:
        """The admitted operation reached the peer."""
        with self._lock:
            self._probe_in_flight = False
            if self.state != CIRCUIT_CLOSED:
                # Recovery proven: close with a fresh window so stale
                # pre-outage failures cannot immediately re-trip it.
                self._outcomes.clear()
                self._transition(CIRCUIT_CLOSED)
            self._record(True)

    def record_failure(self) -> None:
        """The admitted operation exhausted its retry budget."""
        with self._lock:
            self._probe_in_flight = False
            if self.state == CIRCUIT_HALF_OPEN:
                self._opened_at = self._clock()
                self.opens += 1
                self._transition(CIRCUIT_OPEN)
                return
            self._record(False)
            if self.state == CIRCUIT_CLOSED:
                n = len(self._outcomes)
                failures = sum(1 for ok in self._outcomes if not ok)
                if (
                    n >= self.policy.min_calls
                    and failures / n >= self.policy.failure_threshold
                ):
                    self._opened_at = self._clock()
                    self.opens += 1
                    self._transition(CIRCUIT_OPEN)

    def _record(self, ok: bool) -> None:
        self._outcomes.append(ok)
        if len(self._outcomes) > self.policy.window:
            del self._outcomes[0]

    def _transition(self, new_state: str) -> None:
        self.transitions.append((self.state, new_state))
        severity = obs.ERROR if new_state == CIRCUIT_OPEN else obs.INFO
        obs.event(
            "wire.circuit_transition", severity,
            agent=self.name, from_state=self.state, to_state=new_state,
        )
        obs.gauge(
            CIRCUIT_STATE_METRIC, _CIRCUIT_GAUGE[new_state], agent=self.name
        )
        self.state = new_state

    def state_sequence(self) -> List[str]:
        """The states visited so far, starting from CLOSED."""
        return [CIRCUIT_CLOSED] + [to for _, to in self.transitions]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CircuitBreaker(name={self.name!r}, state={self.state!r})"


class _WireConn:
    """One pooled connection plus its per-connection id tables.

    ``greeted`` is False until the first data op triggers HELLO, which
    seeds ``schema``; the tables are only ever meaningful to this
    connection.
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
    callers pipeline instead of serializing on one socket, the
    retry/idempotency loop of :meth:`_exchange` per operation, and the
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
        pool_idle_s: Optional[float] = DEFAULT_POOL_IDLE_S,
        circuit: Optional[CircuitPolicy] = None,
    ):
        self.host = host
        self.port = port
        self.name = name or f"{self.peer_kind}@{host}:{port}"
        self.timeout_s = timeout_s
        self.retry = retry if retry is not None else RetryPolicy()
        # Off unless asked for: a default-on breaker would fast-fail the
        # immediate reconnect after a deliberate agent restart, which
        # crash-recovery deployments (and their tests) rely on.
        self.circuit = (
            CircuitBreaker(circuit, name=self.name, clock=clock)
            if circuit is not None
            else None
        )
        self._sleep = sleep
        self._clock = clock
        self._rng = rng if rng is not None else random.Random(seed)
        self._rng_lock = threading.Lock()
        self.pool = ConnectionPool(
            factory=self._connect,
            closer=self._close_conn,
            max_size=pool_size,
            max_idle_s=pool_idle_s,
            on_change=self._export_pool_gauges,
        )

    # -- connection management ----------------------------------------------------

    def _connect(self) -> _WireConn:
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return _WireConn(sock)

    @staticmethod
    def _close_conn(conn: _WireConn) -> None:
        conn.sock.close()

    def _export_pool_gauges(self, in_use: int, idle: int) -> None:
        obs.gauge(POOL_IN_USE_METRIC, float(in_use), agent=self.name)
        obs.gauge(POOL_IDLE_METRIC, float(idle), agent=self.name)

    def close(self) -> None:
        """Close every pooled connection.

        In-flight operations keep the connection they checked out (it is
        closed when they finish); the next call after ``close`` simply
        reconnects — with a fresh HELLO, since the id tables die with
        their connection.
        """
        self.pool.close_all()
        self.pool.reopen()

    def _backoff(self, attempt: int) -> float:
        # The shared RNG is the one piece of cross-connection state;
        # serialize draws so seeded handles stay reproducible even when
        # two connections retry at once.
        with self._rng_lock:
            return self.retry.backoff_s(attempt, self._rng)

    # -- the retry-looped exchange core --------------------------------------------

    def _exchange(self, op: str, perform: Callable[[_WireConn, List[bool]], Any]) -> Any:
        """Run one request/response exchange under the retry policy.

        ``perform(conn, sent)`` does the actual wire work on a
        checked-out connection; it must flip ``sent[0]`` once its
        request bytes have hit the socket, which is what the
        idempotency judgment keys on.  Transport failures
        (ConnectionError/OSError) discard the connection and retry
        within budget; protocol violations discard the connection —
        its stream can no longer be trusted — and propagate.

        With a circuit breaker configured, an OPEN circuit fast-fails
        here — one :class:`CircuitOpenError`, no socket touched, no
        retry ladder — and the breaker's window is fed by operation
        outcomes: success when the exchange completed, failure when the
        whole budget was exhausted.  (Protocol violations do not feed
        it: a peer speaking garbage is reachable, just wrong.)
        """
        breaker = self.circuit
        if breaker is not None:
            allowed, remaining = breaker.allow()
            if not allowed:
                obs.counter(CIRCUIT_FASTFAIL_METRIC, op=op, agent=self.name)
                raise CircuitOpenError(self.name, op, remaining)
        try:
            result = self._exchange_once(op, perform)
        except AgentUnreachable:
            if breaker is not None:
                breaker.record_failure()
                if breaker.state == CIRCUIT_OPEN:
                    obs.counter(CIRCUIT_OPENS_METRIC, agent=self.name)
            raise
        except ProtocolError:
            # A peer speaking garbage is reachable: liveness evidence
            # for the breaker (and it must release a half-open probe).
            if breaker is not None:
                breaker.record_success()
            raise
        if breaker is not None:
            breaker.record_success()
        return result

    def _exchange_once(
        self, op: str, perform: Callable[[_WireConn, List[bool]], Any]
    ) -> Any:
        """The pre-breaker exchange core: retry loop + give-up."""
        blind_retry = op in IDEMPOTENT_OPS
        started = self._clock()
        deadline = started + self.retry.deadline_s
        attempts = 0
        with obs.span("wire.call", op=op, agent=self.name) as sp:
            while True:
                sent = [False]
                conn: Optional[_WireConn] = None
                try:
                    conn = self.pool.checkout(timeout_s=self.timeout_s)
                    result = perform(conn, sent)
                    self.pool.checkin(conn)
                    break
                except ProtocolError:
                    # The framing on this connection is no longer
                    # trustworthy; never return it to the pool.
                    if conn is not None:
                        self.pool.discard(conn)
                    raise
                except (ConnectionError, OSError) as exc:
                    # Only the connection the failure happened on dies;
                    # concurrent exchanges on pooled siblings are
                    # untouched.  A checkout that itself failed (connect
                    # refused, pool timeout) has nothing to discard.
                    if conn is not None:
                        self.pool.discard(conn)
                    attempts += 1
                    # A non-idempotent request that may have reached the peer
                    # must not be replayed: the failure is terminal.
                    retryable = blind_retry or not sent[0]
                    if not retryable or attempts >= self.retry.max_attempts:
                        self._give_up(op, attempts, started, exc)
                    delay = self._backoff(attempts - 1)
                    if self._clock() + delay > deadline:
                        self._give_up(op, attempts, started, exc)
                    obs.counter(WIRE_RETRIES_METRIC, op=op)
                    self._sleep(delay)
            sp.set("attempts", attempts + 1)
            obs.observe(WIRE_OP_LATENCY_METRIC, self._clock() - started, op=op)
        return result

    def _call(self, request: dict) -> dict:
        """One JSON request/response exchange (the control ops)."""
        op = str(request.get("op"))
        # The wire.call span opened by _exchange is the parent the
        # agent-side handler span links to; a retried request keeps the
        # same context, so both server attempts land in one trace.
        inject_trace(request, obs.current_trace())

        def perform(conn: _WireConn, sent: List[bool]) -> dict:
            send_message(conn.sock, request)
            sent[0] = True
            return recv_message(conn.sock)

        response = self._exchange(op, perform)
        if not response.get("ok"):
            raise RuntimeError(
                f"agent {self.name} refused {request.get('op')!r}: "
                f"{response.get('error', 'unknown error')}"
            )
        return response

    def _give_up(
        self, op: str, attempts: int, started: float, exc: BaseException
    ) -> None:
        """Exhausted retry budget: record it, raise AgentUnreachable."""
        elapsed = self._clock() - started
        obs.counter(WIRE_UNREACHABLE_METRIC, op=op)
        obs.event(
            "wire.unreachable", obs.ERROR,
            agent=self.name, op=op, attempts=attempts, error=repr(exc),
        )
        raise AgentUnreachable(self.name, op, attempts, elapsed, exc) from exc

    # -- HELLO handshake ------------------------------------------------------------

    def _negotiate(self, conn: _WireConn, sent: List[bool]) -> None:
        """HELLO on one connection; seeds its id tables for its lifetime.

        Gets its own ``wire.hello`` span (nested under whatever
        operation triggered it) so each ``wire.call`` span still parents
        exactly one server-side ``wire.serve`` — the handshake's serve
        span links here instead.
        """
        with obs.span("wire.hello", agent=self.name):
            request = inject_trace({"op": OP_HELLO}, obs.current_trace())
            send_message(conn.sock, request)
            sent[0] = True
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

        def perform(conn: _WireConn, sent: List[bool]) -> str:
            if not conn.greeted:
                self._negotiate(conn, sent)
            return CODEC_BIN1

        return self._exchange(OP_HELLO, perform)

    def __enter__(self) -> "WireClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RemoteAgentHandle(WireClient):
    """Controller-side proxy for an agent behind an :class:`AgentServer`.

    The :class:`WireClient` transport core plus the ``AgentHandle``
    surface the controller mirrors against: element listings, raw
    queries, and the packed BATCH_DELTA collection exchange.
    """

    peer_kind = "remote-agent"

    # -- AgentHandle interface ---------------------------------------------------------

    def element_ids(self) -> List[str]:
        return [str(e) for e in self._call({"op": OP_LIST_ELEMENTS})["elements"]]

    def stack_element_ids(self) -> List[str]:
        return [str(e) for e in self._call({"op": OP_STACK_ELEMENTS})["elements"]]

    def query(
        self,
        element_ids: Optional[Iterable[str]] = None,
        attrs: Optional[Iterable[str]] = None,
    ) -> List[StatRecord]:
        request = {
            "op": OP_QUERY,
            "elements": list(element_ids) if element_ids is not None else None,
            "attrs": list(attrs) if attrs is not None else None,
        }
        response = self._call(request)
        records = response.get("records")
        if not isinstance(records, list):
            raise ProtocolError("query response missing records", op=OP_QUERY)
        return [StatRecord.from_dict(r) for r in records]

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

        def perform(
            conn: _WireConn, sent: List[bool]
        ) -> Tuple[List[SeriesBlock], Dict[str, int]]:
            if not conn.greeted:
                self._negotiate(conn, sent)
                sent[0] = False  # the delta request itself not yet sent
            # Captured here — inside the wire.call span — so the agent's
            # serve span parents on this exchange, not on our caller.
            trace = obs.current_trace()
            trace_wire = trace.to_wire() if trace is not None else None
            raw = wire_codec.encode_batch_request(conn.schema, acked, trace_wire)
            send_frame(conn.sock, raw, op=OP_BATCH_DELTA)
            sent[0] = True
            reply = recv_frame(conn.sock)
            if is_binary_frame(reply):
                payload = wire_codec.decode_batch_response(conn.schema, reply)
                return payload.blocks, payload.cursor
            # The server answers protocol violations (and refusals) in
            # JSON even though the request was binary.
            response = parse_json_frame(reply, op=OP_BATCH_DELTA)
            raise RuntimeError(
                f"agent {self.name} refused {OP_BATCH_DELTA!r}: "
                f"{response.get('error', 'unknown error')}"
            )

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
        return int(response.get("zone_seq", 0))

    def zone_for(self, machine: str) -> str:
        """Ask the root which zone currently owns a machine.

        The re-homing consult: an agent whose push target went dead
        asks here, and the answer reflects the ring *after* any
        failover — i.e. the surviving zone its shard moved to.
        """
        response = self._call({"op": OP_ZONE_FOR, "machine": machine})
        return str(response["zone"])

    def push_report(self, report_wire: Mapping[str, Any]) -> bool:
        """Push one zone roll-up (wire-dict form); True when accepted.

        False means the root already held this ``seq`` — a replayed
        retry, or a report the zone rebuilt after a restart with a
        stale counter.  Either way the root's state is current.
        """

        def perform(conn: _WireConn, sent: List[bool]) -> bool:
            if not conn.greeted:
                self._negotiate(conn, sent)
                sent[0] = False  # the report itself not yet sent
            trace = obs.current_trace()
            trace_wire = trace.to_wire() if trace is not None else None
            raw = wire_codec.encode_zone_report(conn.schema, report_wire, trace_wire)
            send_frame(conn.sock, raw, op=OP_ZONE_REPORT)
            sent[0] = True
            # Acks are small and always JSON — same convention as
            # BATCH_DELTA errors.
            response = parse_json_frame(recv_frame(conn.sock), op=OP_ZONE_REPORT)
            if not response.get("ok"):
                raise RuntimeError(
                    f"fleet root {self.name} refused {OP_ZONE_REPORT!r}: "
                    f"{response.get('error', 'unknown error')}"
                )
            return bool(response.get("accepted", True))

        return self._exchange(OP_ZONE_REPORT, perform)
