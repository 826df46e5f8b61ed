"""Framing and op inventory for the agent-controller channel.

Frame layout: 4-byte big-endian payload length, then the payload.  Two
payload encodings share the framing, split by what they carry:

* **JSON** for control: a UTF-8 JSON object.  Requests carry an ``op``
  (see the ``OP_*`` constants), responses carry ``ok`` plus either
  results or ``error``.  PING, the listings, HELLO, ZONE_SUBSCRIBE,
  ZONE_FOR, every ack and every error reply are JSON.
* **Packed binary** (``bin1``, :mod:`repro.core.net.codec`) for data:
  ``BATCH_DELTA`` requests and responses and ``ZONE_REPORT`` requests
  travel as fixed-width element-id/attr-id/value records and as
  nothing else.  Binary payloads start with :data:`BIN_MAGIC`
  (``0xB1``), which can never open a JSON object (``{`` is ``0x7B``),
  so either side classifies every received frame with one byte test
  (:func:`is_binary_frame`).

The ``HELLO`` op (:data:`OP_HELLO`) is the per-connection handshake
that seeds both ends' id tables before the first binary frame.  There
is nothing to negotiate: a peer that refuses HELLO, or answers with any
codec but :data:`CODEC_BIN1`, fails the exchange with a typed
:class:`ProtocolError` instead of being spoken to in some other format.

A maximum frame size guards both sides against a corrupt or hostile
peer: the length header is validated **before** any payload read, so a
flipped bit in the header can cost at most :data:`MAX_FRAME_BYTES` of
buffering, never an unbounded read.  Malformed frames surface as
:class:`ProtocolError` carrying the offending op and byte offset when
known.

The workhorse op is ``BATCH_DELTA``: the controller sends its
per-element acknowledged sequence numbers and the agent replies with one
machine-batched frame holding only the counter rows that changed
since — the streaming collection pipeline of the statistics plane, and
the only way counters cross the wire.

Every op is idempotent: PING, the listings, HELLO, ZONE_SUBSCRIBE and
ZONE_FOR are pure reads, a replayed BATCH_DELTA carries the same ack
vector (at worst the mirror dedupes re-sent rows), and the root drops a
ZONE_REPORT whose sequence it already holds.  So a client may retry any
request after a transport failure.

Every request frame may additionally carry a :data:`TRACE_FIELD`
holding the caller's serialized trace context
(:class:`~repro.obs.spans.TraceContext`), so a controller-side span and
the agent-side handler span link into one trace across the wire.  The
field is pure telemetry: absent, malformed or garbled contexts never
affect request handling (:meth:`TraceContext.from_wire`, behind the
server's ``obs.span_from_wire``, degrades to None).  Binary request frames carry
the same context in their trace slot.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Optional

from repro.obs.spans import TraceContext

#: Refuse frames above 16 MiB — a full-machine stat sweep is ~100 KiB.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: First byte of every packed-binary payload.  JSON payloads start with
#: ``{`` (0x7B), so this single byte discriminates the two encodings.
BIN_MAGIC = 0xB1

#: Request op names understood by the agent server.
OP_PING = "ping"
OP_LIST_ELEMENTS = "list_elements"
OP_STACK_ELEMENTS = "stack_elements"
OP_BATCH_DELTA = "batch_delta"
OP_HELLO = "hello"

#: Zone -> root ops of the hierarchical control plane.  A zone
#: SUBSCRIBEs once per connection (learning the root's accepted report
#: sequence floor), then pushes ZONE_REPORT roll-ups — per-machine
#: scalars only, never mirror contents.
OP_ZONE_SUBSCRIBE = "zone_subscribe"
OP_ZONE_REPORT = "zone_report"

#: Shard-ownership lookup at the root: "which zone owns this machine
#: *now*?"  The re-homing consult an agent (or its deployment shim)
#: makes after its push target dies — the root answers from the hash
#: ring, which failover keeps current.
OP_ZONE_FOR = "zone_for"

#: The one data codec: packed binary BATCH_DELTA / ZONE_REPORT payloads
#: (frame version 3, see :mod:`repro.core.net.codec`).  HELLO responses name it so a client can tell a peer
#: that speaks something else apart from one it can talk to.
CODEC_BIN1 = "bin1"

#: Optional request field carrying the caller's trace context.
TRACE_FIELD = "trace"

_HEADER = struct.Struct(">I")


def inject_trace(
    request: Dict[str, Any], ctx: Optional[TraceContext]
) -> Dict[str, Any]:
    """Stamp the caller's trace context into a request frame (in place).

    A None context leaves the frame untouched, so uninstrumented
    callers produce byte-identical requests to pre-tracing builds.
    """
    if ctx is not None:
        request[TRACE_FIELD] = ctx.to_wire()
    return request


class ProtocolError(Exception):
    """Framing or schema violation on the agent-controller channel.

    ``op`` names the operation whose frame was malformed and ``offset``
    the byte position inside the payload where decoding failed, when
    known — so "bare ProtocolError" log lines became actionable: which
    exchange, and where in the frame.
    """

    def __init__(
        self,
        message: str,
        *,
        op: Optional[str] = None,
        offset: Optional[int] = None,
    ) -> None:
        context = []
        if op is not None:
            context.append(f"op={op}")
        if offset is not None:
            context.append(f"byte offset {offset}")
        super().__init__(
            f"{message} ({', '.join(context)})" if context else message
        )
        self.op = op
        self.offset = offset


def wire_int(value: Any, what: str, op: str) -> int:
    """``value`` when it is a non-negative int (never a bool), else a
    :class:`ProtocolError`: a garbled reply is a typed error, not a crash."""
    if type(value) is not int or value < 0:
        raise ProtocolError(
            f"{what} must be a non-negative int, got {value!r}", op=op
        )
    return value


def is_binary_frame(raw: bytes) -> bool:
    """True when a received payload is packed binary (vs JSON)."""
    return bool(raw) and raw[0] == BIN_MAGIC


def send_frame(sock: socket.socket, raw: bytes, op: Optional[str] = None) -> None:
    """Send one length-prefixed frame of pre-encoded payload bytes."""
    if len(raw) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame too large: {len(raw)} bytes", op=op)
    sock.sendall(_HEADER.pack(len(raw)) + raw)


def recv_frame(sock: socket.socket) -> bytes:
    """Receive one frame's payload bytes; the caller classifies them.

    The length header is validated against :data:`MAX_FRAME_BYTES`
    before any payload byte is read, so a corrupt header cannot trigger
    an unbounded read.  Raises ConnectionError on a cleanly closed peer.
    """
    header = _recv_exact(sock, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"peer announced oversized frame: {length} bytes")
    return _recv_exact(sock, length)


def pop_frame(buf: bytearray) -> Optional[bytes]:
    """Take one whole frame's payload off the front of ``buf``.

    The non-blocking counterpart of :func:`recv_frame`, for a reader
    that buffers whatever bytes have arrived: returns None while ``buf``
    holds less than one whole frame.  The length header is validated
    against :data:`MAX_FRAME_BYTES` as soon as it is complete, before
    the caller keeps buffering that frame's payload.
    """
    if len(buf) < _HEADER.size:
        return None
    (length,) = _HEADER.unpack_from(buf)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"peer announced oversized frame: {length} bytes")
    end = _HEADER.size + length
    if len(buf) < end:
        return None
    raw = bytes(buf[_HEADER.size:end])
    del buf[:end]
    return raw


def parse_json_frame(raw: bytes, op: Optional[str] = None) -> Dict[str, Any]:
    """Decode one JSON payload; raises ProtocolError on malformed input."""
    if is_binary_frame(raw):
        raise ProtocolError("binary frame where JSON was expected", op=op)
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        offset = getattr(exc, "pos", None)
        if offset is None:
            offset = getattr(exc, "start", None)
        raise ProtocolError(f"bad JSON frame: {exc}", op=op, offset=offset) from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame is not an object: {type(payload).__name__}", op=op
        )
    return payload


def send_message(sock: socket.socket, payload: Dict[str, Any]) -> None:
    """Serialize and send one JSON frame."""
    op = payload.get("op") if isinstance(payload.get("op"), str) else None
    try:
        raw = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unserializable payload: {exc}", op=op) from exc
    send_frame(sock, raw, op=op)


def recv_message(sock: socket.socket) -> Dict[str, Any]:
    """Receive one JSON frame; raises ProtocolError on malformed input and
    ConnectionError on a cleanly closed peer."""
    return parse_json_frame(recv_frame(sock))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
