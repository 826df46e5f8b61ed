"""Packed binary payloads for the data ops (codec ``bin1``).

The one encoding of the exchanges that move volume — the agent sweep →
``BATCH_DELTA`` encode → controller mirror apply pipeline, and the
zone → root ``ZONE_REPORT`` push: binary records that encode straight
out of the store's columnar value arrays
(:meth:`~repro.core.store.TimeSeriesStore.drain_blocks`) and apply
straight back into a mirror's
(:meth:`~repro.core.store.TimeSeriesStore.apply_blocks`), with zero
intermediate dicts on either side.  Control ops, acks and error replies
stay JSON (:mod:`repro.core.net.protocol`).

**Id negotiation.**  Strings cross the wire once per connection: the
``HELLO`` exchange returns the agent's current element/attribute/
machine id tables, and names first seen later (a new ``drops.<loc>``
attribute, a hot-plugged element) ride as dictionary-delta entries in
the frame that first uses them.  Ids are per-connection state — each
pooled connection negotiates its own tables — so there is no global
registry to corrupt or leak across agents.

**Frame layout** (all fixed-width integers little-endian; ``varint`` is
unsigned LEB128 of at most 32 bits; outer 4-byte length framing and the
16 MiB cap live in :mod:`repro.core.net.protocol`)::

    header   := magic u8 (0xB1) | version u8 (3) | kind u8 | flags u8
                # flags is 0 on every kind; any set bit is refused

    request  (kind 1, controller -> agent):
      trace_len u16 | trace utf8-json           # 0 = no trace context
      ack_count u32
        ack := tag u8
               tag 0: elem_id u32 | seq i64     # ack, id known to both ends
               tag 1: name_len u16 | name utf8 | seq i64
               tag 2: elem_id u32               # drop the cursor's entry
               tag 3: name_len u16 | name utf8

    response (kind 2, agent -> controller):
      dict_count u32
        entry := space u8 (0 elem / 1 attr / 2 machine)
                 | id u32 | name_len u16 | name utf8
      machine_id u32
      class_count varint                # one per value of every row
      classes u8[(class_count + 3) / 4] # 2 bits a value, low bits first
      deltas16 i16[#class 1] | deltas32 i32[#class 2] | raw f64[#class 3]
      block_count u32
        block := flags u8 | elem_id varint | row_count varint
                 | machine_id u32                     # flag 0x02 only
                 | attr_count u16 | attr_ids u32[n]   # flag 0x01 only
                 | row*
        row   := row_flags u8
                 | seq i64                            # row flag 0x01 only
                 | ts f64                             # row flag 0x02 only
      drop_count u32 | elem_id u32[drop_count]
      cursor_count u32
        cur := elem_id u32 | seq i64

    zone report (kind 3, zone -> root):
      trace_len u16 | trace utf8-json
      dict_count u32 | entry*           # as in the response; space 3 = label
      zone_label u32 | seq i64 | window_s f64 | generated_ts f64
      machine_count u32
        summary := machine_id u32 | health_label u32 | confidence_label u32
                   | loss_pkts f64 | throughput_pps f64 | pkt_loss_rate f64
                   | avg_pkt_size f64 | age_s f64
                   | elements u32 | missing_elements u32
                   | verdict_count u16 | verdict*
        verdict := location_label u32 | scope_label u32
                   | resource_count u16 | resource_label u32[n]
                   | signal_count u16 | signal_label u32[n]

A block hoists the element id and the attr-id vector over all its rows.
A row is sent *against a base*: the last row this connection carried
for the element.  Its seq is implied when it is the base's + 1, its
timestamp when it is bit-identical to the base's plus the base's step
(the base's timestamp minus the one before it), and each value gets a
class — the base's value (0, decoded as ``base + 0``), the base's plus
an integer delta that fits i16 (1) or i32 (2), or raw f64 (3).  A delta
class is used only when ``base + delta`` gives back the value's exact
bits; every other value rides raw — NaN (ABSENT cells, see
:mod:`repro.core.store`), ±inf, −0.0 and non-integral steps among them.
The classes and the three value runs of every row in the frame are
packed once, ahead of the blocks that consume them in order.  An
element with no base — its first row on the connection, or its first
since its attr list changed — is sent against a row of NaNs with no
timestamp step: nothing is implied, so its seq (unless it is 1), its
timestamp and every value ride explicitly.

**Implied facts.**  A BATCH_DELTA exchange sends each fact once per
connection; both ends keep the rest in :class:`WireSchema`:

* a block carries its element's attr-id list (flag ``BLOCK_ATTRS``)
  only when the list differs from the last one sent for that element,
  and its own machine id (flag ``BLOCK_MACHINE``) only when it is not
  the frame's;
* a row carries what its element's base (``bases``: the last row's
  seq, timestamp, timestamp step and values) does not imply; a block
  that carries an attr list resets its element's base to the NaN row;
* the response cursor defaults, per element, to the last row seq of its
  block, else to the request's ack; only entries that differ from that
  ride the frame, plus the ids of defaulted keys the cursor lacks;
* the request's ack vector defaults to the cursor of the connection's
  last response; only acks that differ ride the frame (all of them on
  a fresh connection), plus drops for keys the vector lacks.

Both ends write that state as they walk a frame, and HELLO resets it.
A failed encode or a rejected frame can leave the two ends out of step,
so it ends its connection (:mod:`repro.core.net.server`); the next
connection starts over at HELLO.  A frame of any other version is
refused with a typed error.

Decode errors raise :class:`~repro.core.net.protocol.ProtocolError`
carrying the op and the byte offset where parsing failed; every count
field is validated against the bytes actually remaining, so a corrupt
or bit-flipped frame is rejected in O(1) without speculative
allocation.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from array import array
from itertools import compress, count, repeat
from operator import add, ne
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.net.protocol import (
    BIN_MAGIC,
    CODEC_BIN1,
    OP_BATCH_DELTA,
    OP_HELLO,
    OP_ZONE_REPORT,
    ProtocolError,
    wire_int,
)
from repro.core.store import SeriesBlock

#: Binary codec version carried in every frame header.
BIN_VERSION = 3

#: Frame kinds.
KIND_BATCH_REQUEST = 1
KIND_BATCH_RESPONSE = 2
KIND_ZONE_REPORT = 3

#: Block flags of a BATCH_DELTA response: the element's attr-id list
#: follows (it differs from the last one this connection carried), and
#: the block's own machine id follows (it is not the frame's).
BLOCK_ATTRS = 0x01
BLOCK_MACHINE = 0x02
_BLOCK_FLAGS = BLOCK_ATTRS | BLOCK_MACHINE

#: Row flags of a row sent against its element's base: the seq follows
#: (it is not the base's + 1), the timestamp follows (it is not the
#: base's plus the base's step).
ROW_SEQ = 0x01
ROW_TS = 0x02
_ROW_FLAGS = ROW_SEQ | ROW_TS

#: Value classes of a row sent against a base, two bits each: the
#: base's value, the base's plus an i16 / i32 integer delta, raw f64.
VALUE_SAME = 0
VALUE_I16 = 1
VALUE_I32 = 2
VALUE_F64 = 3

#: Request ack tag bits: the element rides by name (it has no id on
#: this connection yet), and the entry drops the element from the
#: implied vector (no seq follows).
ACK_NAMED = 0x01
ACK_DROP = 0x02

#: Dictionary-entry namespaces.  ``SPACE_LABEL`` holds the hierarchy's
#: enumerated strings — zone names, health states, confidence levels,
#: verdict location classes / scopes / resources / signals — which
#: repeat across every ZONE_REPORT frame and so cross the wire once
#: per connection, like element and attr names do.
SPACE_ELEMENT = 0
SPACE_ATTR = 1
SPACE_MACHINE = 2
SPACE_LABEL = 3

_HEADER = struct.Struct("<BBBB")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_ID_SEQ = struct.Struct("<Iq")
_DICT_HEAD = struct.Struct("<BIH")
#: One machine summary's fixed scalar section: health id, confidence
#: id, five f64 rates (incl. sample age), element/missing counts,
#: verdict count.
_SUMMARY_HEAD = struct.Struct("<IIdddddIIH")

#: Offset of the sign-and-exponent byte in a native ``array("d")``
#: item, and a ``bytes.translate`` table marking 0x80 there: -0.0, or
#: a negative below 2**-1007 (so the test can only over-report).
_SIGN_BYTE = 7 if sys.byteorder == "little" else 0
_NEGATIVE_TINY = bytes(int(b == 0x80) for b in range(256))
#: A packed class byte -> its four classes, one byte each.
_CLASS_QUADS = [bytes((b >> s) & 3 for s in (0, 2, 4, 6)) for b in range(256)]

#: An element's base on one connection: the last row's seq, timestamp,
#: timestamp step (NaN until it has a predecessor) and values.
_Base = Tuple[int, float, float, Sequence[float]]


def _no_base(width: int) -> _Base:
    """The base of an element with none: a NaN row predicts no
    timestamp and no value, so the first row after it rides raw."""
    return (0, math.nan, math.nan, array("d", [math.nan]) * width)


class _Table:
    """One id namespace: dense ids, bidirectional, append-only."""

    __slots__ = ("names", "ids")

    def __init__(self) -> None:
        self.names: List[str] = []
        self.ids: Dict[str, int] = {}

    def assign(self, name: str) -> Tuple[int, bool]:
        """Return ``(id, is_new)``, assigning the next dense id on miss."""
        ident = self.ids.get(name)
        if ident is not None:
            return ident, False
        ident = len(self.names)
        self.names.append(name)
        self.ids[name] = ident
        return ident, True

    def learn(self, ident: int, name: str, op: str, offset: int) -> None:
        """Install a peer-announced ``id -> name`` mapping.

        Ids are assigned densely by the announcing side, so an entry may
        only extend the table by exactly one or re-state an existing
        mapping verbatim; anything else is a corrupt or hostile frame.
        """
        if ident < len(self.names):
            if self.names[ident] != name:
                raise ProtocolError(
                    f"dictionary entry remaps id {ident} from "
                    f"{self.names[ident]!r} to {name!r}",
                    op=op,
                    offset=offset,
                )
            return
        if ident != len(self.names):
            raise ProtocolError(
                f"non-dense dictionary id {ident} (table holds {len(self.names)})",
                op=op,
                offset=offset,
            )
        self.names.append(name)
        self.ids[name] = ident

    def name_of(self, ident: int, op: str, offset: int) -> str:
        try:
            return self.names[ident]
        except IndexError:
            raise ProtocolError(
                f"unknown id {ident} (table holds {len(self.names)})",
                op=op,
                offset=offset,
            ) from None

    def to_wire(self) -> Dict[str, int]:
        return dict(self.ids)

    def load_wire(self, raw: Mapping[str, Any]) -> None:
        entries = sorted(
            (wire_int(v, f"hello id of {k!r}", OP_HELLO), str(k))
            for k, v in raw.items()
        )
        for ident, name in entries:
            self.learn(ident, name, OP_HELLO, 0)


class WireSchema:
    """The per-connection state both peers keep in lockstep.

    The id tables, plus what a BATCH_DELTA exchange leaves implied:
    ``attr_lists`` (element -> the attr-name list its last block on
    this connection carried), ``bases`` (element -> the last row sent
    under that list, as ``(seq, ts, ts step, values)``, or a row of NaNs
    while none has been: what the next row is encoded against),
    ``acked`` (the last request's ack vector)
    and ``cursor`` (the last response's cursor).  Each side writes them
    as it encodes or decodes a frame; HELLO resets them.
    """

    __slots__ = (
        "elements", "attrs", "machines", "labels",
        "attr_lists", "bases", "acked", "cursor",
    )

    def __init__(self) -> None:
        self.elements = _Table()
        self.attrs = _Table()
        self.machines = _Table()
        self.labels = _Table()
        self.reset_deltas()

    def reset_deltas(self) -> None:
        self.attr_lists: Dict[str, Tuple[str, ...]] = {}
        self.bases: Dict[str, _Base] = {}
        self.acked: Dict[str, int] = {}
        self.cursor: Dict[str, int] = {}

    def _space(self, space: int, op: str, offset: int) -> _Table:
        if space == SPACE_ELEMENT:
            return self.elements
        if space == SPACE_ATTR:
            return self.attrs
        if space == SPACE_MACHINE:
            return self.machines
        if space == SPACE_LABEL:
            return self.labels
        raise ProtocolError(
            f"unknown dictionary namespace {space}", op=op, offset=offset
        )

    def to_wire(self) -> Dict[str, Dict[str, int]]:
        return {
            "elements": self.elements.to_wire(),
            "attrs": self.attrs.to_wire(),
            "machines": self.machines.to_wire(),
            "labels": self.labels.to_wire(),
        }

    def load_wire(self, raw: Mapping[str, Any]) -> None:
        for key, table in (
            ("elements", self.elements),
            ("attrs", self.attrs),
            ("machines", self.machines),
            ("labels", self.labels),
        ):
            part = raw.get(key)
            if not isinstance(part, Mapping):
                raise ProtocolError(
                    f"hello schema {key!r} must be a mapping", op=OP_HELLO
                )
            table.load_wire(part)


class _Reader:
    """Bounds-checked cursor over one frame's payload bytes.

    Every primitive read validates the remaining length first, so a
    truncated or bit-flipped frame fails with the exact byte offset
    instead of an IndexError deep inside struct.
    """

    __slots__ = ("raw", "view", "pos", "op")

    def __init__(self, raw: bytes, op: str) -> None:
        self.raw = raw
        self.view = memoryview(raw)
        self.pos = 0
        self.op = op

    def fail(self, message: str) -> "ProtocolError":
        return ProtocolError(message, op=self.op, offset=self.pos)

    def need(self, n: int, what: str) -> int:
        if self.pos + n > len(self.raw):
            raise self.fail(
                f"truncated frame: need {n} byte(s) for {what}, "
                f"{len(self.raw) - self.pos} left"
            )
        at = self.pos
        self.pos += n
        return at

    def u16(self, what: str) -> int:
        return _U16.unpack_from(self.view, self.need(2, what))[0]

    def u32(self, what: str) -> int:
        return _U32.unpack_from(self.view, self.need(4, what))[0]

    def i64(self, what: str) -> int:
        return _I64.unpack_from(self.view, self.need(8, what))[0]

    def f64(self, what: str) -> float:
        return _F64.unpack_from(self.view, self.need(8, what))[0]

    def u8(self, what: str) -> int:
        return self.raw[self.need(1, what)]

    def varint(self, what: str) -> int:
        """An unsigned LEB128 integer of at most 32 bits."""
        raw, at = self.raw, self.pos
        if at < len(raw) and raw[at] < 0x80:
            self.pos = at + 1
            return raw[at]
        value = shift = 0
        for pos in range(at, min(at + 5, len(raw))):
            byte = raw[pos]
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                if value > 0xFFFFFFFF:
                    raise ProtocolError(
                        f"{what} {value} does not fit 32 bits", op=self.op, offset=at
                    )
                self.pos = pos + 1
                return value
            shift += 7
        if at + 5 <= len(raw):
            raise ProtocolError(
                f"{what} runs past 5 varint bytes", op=self.op, offset=at
            )
        raise ProtocolError(
            f"truncated frame: {what} runs past the last byte", op=self.op, offset=at
        )

    def text(self, what: str) -> str:
        n = self.u16(f"{what} length")
        at = self.need(n, what)
        try:
            return str(self.view[at: at + n], "utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(
                f"bad UTF-8 in {what}: {exc}", op=self.op, offset=at
            ) from exc

    def bound_count(self, count: int, unit_bytes: int, what: str) -> int:
        """Reject a count the remaining bytes cannot possibly satisfy."""
        remaining = len(self.raw) - self.pos
        if count * unit_bytes > remaining:
            raise self.fail(
                f"implausible {what} count {count}: needs >= "
                f"{count * unit_bytes} byte(s), {remaining} left"
            )
        return count

    def done(self) -> None:
        if self.pos != len(self.raw):
            raise self.fail(
                f"{len(self.raw) - self.pos} trailing byte(s) after frame body"
            )


def _check_header(r: _Reader, expected_kind: int) -> None:
    """Validate the frame header.

    No kind defines a header flag, so any non-zero flags byte is a
    corrupt frame.  The format grows by :data:`BIN_VERSION`, and a
    frame of any other version is refused.
    """
    at = r.need(4, "frame header")
    magic, version, kind, flags = _HEADER.unpack_from(r.view, at)
    if magic != BIN_MAGIC:
        raise ProtocolError(
            f"bad binary magic 0x{magic:02x}", op=r.op, offset=at
        )
    if version != BIN_VERSION:
        raise ProtocolError(
            f"unsupported binary codec version {version} "
            f"(this end speaks {BIN_VERSION} only)",
            op=r.op,
            offset=at + 1,
        )
    if kind != expected_kind:
        raise ProtocolError(
            f"unexpected frame kind {kind} (wanted {expected_kind})",
            op=r.op,
            offset=at + 2,
        )
    if flags:
        raise ProtocolError(
            f"unknown header flag bits 0x{flags:02x}",
            op=r.op,
            offset=at + 3,
        )


def _put_text(buf: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ProtocolError(f"string too long for wire: {len(raw)} bytes")
    buf += _U16.pack(len(raw))
    buf += raw


def _put_trace(buf: bytearray, trace_wire: Optional[Mapping[str, str]]) -> None:
    if trace_wire:
        _put_text(buf, json.dumps(trace_wire, separators=(",", ":")))
    else:
        buf += _U16.pack(0)


def _read_trace(r: _Reader) -> Optional[Mapping[str, Any]]:
    trace_text = r.text("trace context")
    if not trace_text:
        return None
    try:
        parsed = json.loads(trace_text)
    except json.JSONDecodeError:
        return None  # trace is best-effort telemetry, never fatal
    return parsed if isinstance(parsed, Mapping) else None


def _put_dictionary(
    buf: bytearray, pending: Sequence[Tuple[int, int, str]], op: str
) -> None:
    buf += _U32.pack(len(pending))
    for space, ident, name in pending:
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ProtocolError(f"name too long for wire: {len(raw)} bytes", op=op)
        buf += _DICT_HEAD.pack(space, ident, len(raw))
        buf += raw


def _read_dictionary(r: _Reader, schema: WireSchema) -> None:
    dict_count = r.bound_count(r.u32("dictionary count"), 7, "dictionary")
    for _ in range(dict_count):
        at = r.need(7, "dictionary entry")
        space, ident, name_len = _DICT_HEAD.unpack_from(r.view, at)
        name_at = r.need(name_len, "dictionary name")
        try:
            name = str(r.view[name_at: name_at + name_len], "utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(
                f"bad UTF-8 in dictionary name: {exc}", op=r.op, offset=name_at
            ) from exc
        schema._space(space, r.op, at).learn(ident, name, r.op, at)


def _put_varint(buf: bytearray, value: int) -> None:
    while value > 0x7F:
        buf.append(value & 0x7F | 0x80)
        value >>= 7
    buf.append(value)


def _pack_classes(classes: Sequence[int]) -> bytes:
    """Two bits a value class, four a byte, the first in the low bits.

    Each of the four interleaved byte strides becomes one big integer
    whose bytes hold classes 0..3; shifted into place they cannot carry
    into a neighbour, so the whole bitmap is a handful of C-level ops.
    """
    raw = bytes(classes) + bytes(-len(classes) % 4)
    packed = 0
    for k in range(4):
        packed |= int.from_bytes(raw[k::4], "little") << (2 * k)
    return packed.to_bytes(len(raw) // 4, "little")


def _unpack_classes(packed: bytes) -> bytearray:
    """Invert :func:`_pack_classes`: one byte per class, padding included."""
    return bytearray(b"".join(map(_CLASS_QUADS.__getitem__, packed)))


def _classify(
    values: array, bases: array
) -> Tuple[bytearray, Tuple[List[int], List[int], List[float]]]:
    """Class each value against its base; returns (classes, value runs).

    The decoder rebuilds a value as ``base + 0`` (same) or ``base +
    delta``, and such a sum is bit-exact whenever it is ``==`` the value
    — NaN never is — unless the value is -0.0 (the sum gives +0.0).
    Such values (found by their sign byte, which can only over-report)
    are classed against NaN, which sends them raw.  Equal values are
    found in C; only the ones that differ take the Python loop, and keep
    class 1 (i16) unless reclassed.
    """
    signs = values.tobytes()[_SIGN_BYTE::8]
    if 0x80 in signs:
        bases = array("d", bases)
        for k in compress(count(), signs.translate(_NEGATIVE_TINY)):
            bases[k] = math.nan
    classes = bytearray(map(ne, values, bases))
    deltas16: List[float] = []
    deltas32: List[float] = []
    raw64: List[float] = []
    add16, add32, add64 = deltas16.append, deltas32.append, raw64.append
    for k, v, b in compress(zip(count(), values, bases), classes):
        d = v - b
        if -32768.0 <= d < 32768.0 and d.is_integer() and b + d == v:
            add16(d)
        elif -2147483648.0 <= d < 2147483648.0 and d.is_integer() and b + d == v:
            classes[k] = VALUE_I32
            add32(d)
        else:
            classes[k] = VALUE_F64
            add64(v)
    return classes, (list(map(int, deltas16)), list(map(int, deltas32)), raw64)


# -- request (controller -> agent) ---------------------------------------------


def encode_batch_request(
    schema: WireSchema,
    acked: Mapping[str, int],
    trace_wire: Optional[Mapping[str, str]] = None,
) -> bytes:
    """Pack the collector's ack vector (and trace context) as ``bin1``.

    Only the acks that differ from the connection's last response
    cursor ride the frame, and a drop for each cursor key the vector
    lacks; on a fresh connection that is the whole vector.  Negotiated
    elements ride by id, names the client has no id for inline.
    """
    buf = bytearray(_HEADER.pack(BIN_MAGIC, BIN_VERSION, KIND_BATCH_REQUEST, 0))
    _put_trace(buf, trace_wire)
    base = schema.cursor
    ids = schema.elements.ids
    entries = bytearray()
    count = 0
    for name, seq in acked.items():
        if base.get(name) == seq:
            continue
        count += 1
        ident = ids.get(name)
        if ident is not None:
            entries.append(0)
            entries += _ID_SEQ.pack(ident, seq)
        else:
            entries.append(ACK_NAMED)
            _put_text(entries, name)
            entries += _I64.pack(seq)
    for name in base:
        if name not in acked:
            count += 1
            ident = ids.get(name)
            if ident is not None:
                entries.append(ACK_DROP)
                entries += _U32.pack(ident)
            else:
                entries.append(ACK_DROP | ACK_NAMED)
                _put_text(entries, name)
    buf += _U32.pack(count)
    buf += entries
    schema.acked = dict(acked)
    return bytes(buf)


def decode_batch_request(
    schema: WireSchema, raw: bytes
) -> Tuple[Dict[str, int], Optional[Mapping[str, Any]]]:
    """Unpack a ``bin1`` BATCH_DELTA request into (acked, trace context).

    The acks are applied over the cursor this end last sent on the
    connection.  Sequence numbers must be non-negative, ids must have
    been negotiated on this connection, and a drop must name a key the
    cursor holds.
    """
    r = _Reader(raw, OP_BATCH_DELTA)
    _check_header(r, KIND_BATCH_REQUEST)
    trace = _read_trace(r)
    count = r.bound_count(r.u32("ack count"), 5, "ack")
    acked = dict(schema.cursor)
    for _ in range(count):
        tag = r.u8("ack tag")
        if tag & ~(ACK_NAMED | ACK_DROP):
            raise r.fail(f"unknown ack tag {tag}")
        if tag & ACK_NAMED:
            name = r.text("ack element name")
        else:
            at = r.need(4, "ack element id")
            name = schema.elements.name_of(_U32.unpack_from(r.view, at)[0], r.op, at)
        if tag & ACK_DROP:
            if acked.pop(name, None) is None:
                raise r.fail(f"ack drop for {name!r}, which the cursor does not hold")
            continue
        seq = r.i64("ack seq")
        if seq < 0:
            raise r.fail(f"acked seq for {name!r} must be non-negative, got {seq}")
        acked[name] = seq
    r.done()
    schema.acked = acked
    return dict(acked), trace


# -- response (agent -> controller) --------------------------------------------


def encode_batch_response(
    schema: WireSchema,
    machine: str,
    blocks: Iterable[SeriesBlock],
    cursor: Mapping[str, int],
) -> bytes:
    """Pack a drained delta batch straight from the store's columns.

    ``blocks`` is exactly what :meth:`TimeSeriesStore.drain_blocks`
    returns — no dicts, no snapshot objects.  Names receiving an id for
    the first time on this connection are announced in this frame's
    dictionary section, so the decoder's tables stay in lockstep; attr
    lists, block machine ids and cursor entries the decoder already
    holds or can derive are left out, and each row is sent against its
    element's base.  A block whose rows do not match its attr count
    raises :class:`ProtocolError`.
    """
    pending: List[Tuple[int, int, str]] = []

    def ident_for(space: int, table: _Table, name: str) -> int:
        ident, is_new = table.assign(name)
        if is_new:
            pending.append((space, ident, name))
        return ident

    elements = schema.elements
    lists, bases = schema.attr_lists, schema.bases
    implied = dict(schema.acked)
    # Every value of every row, beside the base value it is sent
    # against; classified in one pass once the blocks are written.
    flat_values = array("d")
    flat_bases = array("d")
    machine_id = ident_for(SPACE_MACHINE, schema.machines, machine)
    block_list = list(blocks)
    body = bytearray(_U32.pack(len(block_list)))
    for element_id, block_machine, attr_names, rows in block_list:
        attr_names = tuple(attr_names)
        flags = 0
        if block_machine != machine:
            flags |= BLOCK_MACHINE
        if lists.get(element_id) != attr_names:
            flags |= BLOCK_ATTRS
        body.append(flags)
        _put_varint(body, ident_for(SPACE_ELEMENT, elements, element_id))
        _put_varint(body, len(rows))
        if flags & BLOCK_MACHINE:
            body += _U32.pack(ident_for(SPACE_MACHINE, schema.machines, block_machine))
        if flags & BLOCK_ATTRS:
            attr_ids = [
                ident_for(SPACE_ATTR, schema.attrs, name) for name in attr_names
            ]
            body += _U16.pack(len(attr_ids))
            body += struct.pack(f"<{len(attr_ids)}I", *attr_ids)
            lists[element_id] = attr_names
            base = _no_base(len(attr_names))
        else:
            base = bases[element_id]
        width = len(attr_names)
        for seq, ts, values in rows:
            ts = float(ts)
            if values.__class__ is not array or values.typecode != "d":
                values = array("d", values)
            if len(values) != width:
                raise ProtocolError(
                    f"row of {element_id!r} carries {len(values)} value(s) "
                    f"for {width} attr(s)",
                    op=OP_BATCH_DELTA,
                )
            base_seq, base_ts, step, base_values = base
            row_flags = 0 if seq == base_seq + 1 else ROW_SEQ
            # ts must be bit-identical to its prediction: a zero could
            # differ from it in sign alone.
            if not ts or ts != base_ts + step:
                row_flags |= ROW_TS
            body.append(row_flags)
            if row_flags:
                if row_flags & ROW_SEQ:
                    body += _I64.pack(seq)
                if row_flags & ROW_TS:
                    body += _F64.pack(ts)
            flat_values += values
            flat_bases += base_values
            base = (seq, ts, ts - base_ts, values)
        bases[element_id] = base
        if rows:
            implied[element_id] = rows[-1][0]

    dropped = [name for name in implied if name not in cursor]
    body += _U32.pack(len(dropped))
    for name in dropped:
        body += _U32.pack(ident_for(SPACE_ELEMENT, elements, name))
    explicit = [(name, seq) for name, seq in cursor.items() if implied.get(name) != seq]
    body += _U32.pack(len(explicit))
    for name, seq in explicit:
        body += _ID_SEQ.pack(ident_for(SPACE_ELEMENT, elements, name), seq)

    buf = bytearray(_HEADER.pack(BIN_MAGIC, BIN_VERSION, KIND_BATCH_RESPONSE, 0))
    _put_dictionary(buf, pending, OP_BATCH_DELTA)
    buf += _U32.pack(machine_id)
    classes, runs = _classify(flat_values, flat_bases)
    _put_varint(buf, len(classes))
    buf += _pack_classes(classes)
    for code, run in zip("hid", runs):
        buf += struct.pack(f"<{len(run)}{code}", *run)
    buf += body
    schema.cursor = dict(cursor)
    return bytes(buf)


class BatchPayload:
    """A decoded BATCH_DELTA response: blocks ready to apply to a mirror."""

    __slots__ = ("machine", "cursor", "blocks")

    def __init__(
        self,
        machine: str,
        cursor: Dict[str, int],
        blocks: List[SeriesBlock],
    ) -> None:
        self.machine = machine
        self.cursor = cursor
        self.blocks = blocks


def _read_value_runs(r: _Reader) -> Tuple[bytearray, List[Any]]:
    """The frame's value section, one class and one operand per value.

    The operand is what the decoder adds to the base — 0 for a value
    the same as its base, the delta for an i16/i32 one — or, for a raw
    value, the value itself.  The runs' sizes follow from the classes,
    so a bitmap that claims more than the frame holds is refused before
    any run is read.
    """
    class_count = r.varint("value class count")
    size = (class_count + 3) // 4
    at = r.need(size, "value classes")
    classes = _unpack_classes(r.view[at: at + size])
    if any(classes[class_count:]):
        raise ProtocolError(
            "value class bitmap has non-zero padding", op=r.op, offset=r.pos - 1
        )
    del classes[class_count:]
    counts = [classes.count(c) for c in (VALUE_I16, VALUE_I32, VALUE_F64)]
    r.bound_count(
        2 * counts[0] + 4 * counts[1] + 8 * counts[2], 1, "value delta byte"
    )
    sources = [repeat(0)]  # indexed by class: VALUE_SAME adds 0
    for code, n, size in zip("hid", counts, (2, 4, 8)):
        at = r.need(n * size, "value run")
        sources.append(iter(struct.unpack_from(f"<{n}{code}", r.view, at)))
    # Each class draws the next item of its source, all in C.
    return classes, list(map(next, map(sources.__getitem__, classes)))


def decode_batch_response(schema: WireSchema, raw: bytes) -> BatchPayload:
    """Unpack a ``bin1`` BATCH_DELTA response, learning new ids as announced.

    Omitted attr lists come from the connection's last ones, rows sent
    against a base from the element's base and the frame's value runs,
    and the cursor is rebuilt from the last request's acks, the blocks'
    last row seqs and the frame's drops and explicit entries.
    """
    r = _Reader(raw, OP_BATCH_DELTA)
    _check_header(r, KIND_BATCH_RESPONSE)
    _read_dictionary(r, schema)
    elements = schema.elements
    machine = schema.machines.name_of(r.u32("machine id"), r.op, r.pos - 4)
    classes, operands = _read_value_runs(r)
    class_count = len(classes)
    any_raw = VALUE_F64 in classes
    used = 0
    block_count = r.bound_count(r.u32("block count"), 3, "block")
    lists, bases = schema.attr_lists, schema.bases
    cursor = dict(schema.acked)
    blocks: List[SeriesBlock] = []
    for _ in range(block_count):
        at = r.pos
        flags = r.u8("block flags")
        elem_ident = r.varint("block element id")
        row_count = r.varint("row count")
        if flags & ~_BLOCK_FLAGS:
            raise ProtocolError(
                f"unknown block flag bits 0x{flags & ~_BLOCK_FLAGS:02x}",
                op=r.op,
                offset=at,
            )
        element_id = elements.name_of(elem_ident, r.op, at + 1)
        block_machine = machine
        if flags & BLOCK_MACHINE:
            block_machine = schema.machines.name_of(
                r.u32("block machine id"), r.op, r.pos - 4
            )
        if flags & BLOCK_ATTRS:
            attr_count = r.u16("attr count")
            ids_at = r.need(4 * attr_count, "block attr ids")
            attr_names = tuple(
                schema.attrs.name_of(ident, r.op, ids_at)
                for ident in struct.unpack_from(f"<{attr_count}I", r.view, ids_at)
            )
            lists[element_id] = attr_names
            base = _no_base(attr_count)
        else:
            attr_names = lists.get(element_id)
            if attr_names is None:
                raise ProtocolError(
                    f"block for {element_id!r} omits its attr list, and none "
                    f"was negotiated on this connection",
                    op=r.op,
                    offset=at,
                )
            base = bases[element_id]
        width = len(attr_names)
        # Every row is at least its flags byte.
        r.bound_count(row_count, 1, "row")
        rows: List[Tuple[int, float, Sequence[float]]] = []
        for _ in range(row_count):
            base_seq, base_ts, step, base_values = base
            at = r.pos
            row_flags = r.u8("row flags")
            if row_flags & ~_ROW_FLAGS:
                raise ProtocolError(
                    f"unknown row flag bits 0x{row_flags & ~_ROW_FLAGS:02x}",
                    op=r.op,
                    offset=at,
                )
            seq = r.i64("row seq") if row_flags & ROW_SEQ else base_seq + 1
            if row_flags & ROW_TS:
                ts = r.f64("row timestamp")
            else:
                ts = base_ts + step
                if ts != ts:  # the encoder never implies a NaN
                    raise ProtocolError(
                        f"row of {element_id!r} implies its timestamp, but its "
                        f"base predicts none",
                        op=r.op,
                        offset=at,
                    )
            end = used + width
            if end > class_count:
                raise ProtocolError(
                    f"value classes run out at a row of {element_id!r}: "
                    f"{class_count - used} left, {width} needed",
                    op=r.op,
                    offset=at,
                )
            values = tuple(map(add, base_values, operands[used:end]))
            if any_raw and VALUE_F64 in classes[used:end]:
                values = tuple([
                    operand if c == VALUE_F64 else value
                    for c, operand, value in zip(
                        classes[used:end], operands[used:end], values
                    )
                ])
            used = end
            base = (seq, ts, ts - base_ts, values)
            rows.append((seq, ts, values))
        bases[element_id] = base
        if rows:
            cursor[element_id] = rows[-1][0]
        blocks.append((element_id, block_machine, attr_names, rows))
    if used != class_count:
        raise r.fail(f"{class_count - used} value class(es) no row used")

    drop_count = r.bound_count(r.u32("cursor drop count"), 4, "cursor drop")
    for _ in range(drop_count):
        at = r.need(4, "cursor drop")
        name = elements.name_of(_U32.unpack_from(r.view, at)[0], r.op, at)
        if cursor.pop(name, None) is None:
            raise ProtocolError(
                f"cursor drop for {name!r}, which the cursor does not imply",
                op=r.op,
                offset=at,
            )
    cursor_count = r.bound_count(r.u32("cursor count"), 12, "cursor")
    for _ in range(cursor_count):
        at = r.need(12, "cursor entry")
        ident, seq = _ID_SEQ.unpack_from(r.view, at)
        cursor[elements.name_of(ident, r.op, at)] = seq
    r.done()
    schema.cursor = dict(cursor)
    return BatchPayload(machine, cursor, blocks)


# -- zone report (zone -> root) --------------------------------------------------
#
# Operates on the *wire-dict* form of a zone report (what
# ``ZoneReport.to_wire()`` produces and ``ZoneReport.from_wire()``
# consumes) rather than the dataclasses themselves: the diagnosis
# package imports the controller, which imports the net client, which
# imports this module — the dict boundary keeps the codec layer free of
# that cycle.


def encode_zone_report(
    schema: WireSchema,
    report: Mapping[str, Any],
    trace_wire: Optional[Mapping[str, str]] = None,
) -> bytes:
    """Pack one zone roll-up as ``bin1`` (kind 3).

    Enumerated strings — zone name, health states, confidence levels,
    verdict vocabulary — ride the connection's label table and cross
    the wire once; machine names use the machine table.  The per-frame
    steady state is pure fixed-width scalars.
    """
    pending: List[Tuple[int, int, str]] = []

    def ident_for(space: int, table: _Table, name: str) -> int:
        ident, is_new = table.assign(name)
        if is_new:
            pending.append((space, ident, name))
        return ident

    labels = schema.labels
    body = bytearray()
    body += _U32.pack(ident_for(SPACE_LABEL, labels, str(report["zone"])))
    body += _I64.pack(int(report["seq"]))
    body += _F64.pack(float(report.get("window_s", 0.0)))
    body += _F64.pack(float(report.get("generated_ts", 0.0)))
    machines = list(report.get("machines", ()))
    body += _U32.pack(len(machines))
    for summary in machines:
        verdicts = list(summary.get("verdicts", ()))
        if len(verdicts) > 0xFFFF:
            raise ProtocolError(
                f"too many verdicts for wire: {len(verdicts)}", op=OP_ZONE_REPORT
            )
        body += _U32.pack(
            ident_for(SPACE_MACHINE, schema.machines, str(summary["machine"]))
        )
        body += _SUMMARY_HEAD.pack(
            ident_for(SPACE_LABEL, labels, str(summary.get("health", ""))),
            ident_for(SPACE_LABEL, labels, str(summary.get("confidence", ""))),
            float(summary.get("loss_pkts", 0.0)),
            float(summary.get("throughput_pps", 0.0)),
            float(summary.get("pkt_loss_rate", 0.0)),
            float(summary.get("avg_pkt_size", 0.0)),
            float(summary.get("age_s", 0.0)),
            int(summary.get("elements", 0)),
            int(summary.get("missing_elements", 0)),
            len(verdicts),
        )
        for verdict in verdicts:
            location_class, resources, scope, signals = verdict
            body += _U32.pack(ident_for(SPACE_LABEL, labels, str(location_class)))
            body += _U32.pack(ident_for(SPACE_LABEL, labels, str(scope)))
            body += _U16.pack(len(resources))
            for res in resources:
                body += _U32.pack(ident_for(SPACE_LABEL, labels, str(res)))
            body += _U16.pack(len(signals))
            for sig in signals:
                body += _U32.pack(ident_for(SPACE_LABEL, labels, str(sig)))

    buf = bytearray(
        _HEADER.pack(BIN_MAGIC, BIN_VERSION, KIND_ZONE_REPORT, 0)
    )
    _put_trace(buf, trace_wire)
    _put_dictionary(buf, pending, OP_ZONE_REPORT)
    buf += body
    return bytes(buf)


def decode_zone_report(
    schema: WireSchema, raw: bytes
) -> Tuple[Dict[str, Any], Optional[Mapping[str, Any]]]:
    """Unpack a ``bin1`` zone report into (wire dict, trace context)."""
    r = _Reader(raw, OP_ZONE_REPORT)
    _check_header(r, KIND_ZONE_REPORT)
    trace = _read_trace(r)
    _read_dictionary(r, schema)

    labels = schema.labels
    zone = labels.name_of(r.u32("zone id"), r.op, r.pos - 4)
    seq = r.i64("report seq")
    if seq < 0:
        raise r.fail(f"zone report seq must be non-negative, got {seq}")
    window_s = r.f64("window_s")
    generated_ts = r.f64("generated_ts")
    machine_count = r.bound_count(
        r.u32("machine count"), 4 + _SUMMARY_HEAD.size, "machine summary"
    )
    machines: List[Dict[str, Any]] = []
    for _ in range(machine_count):
        machine = schema.machines.name_of(r.u32("machine id"), r.op, r.pos - 4)
        at = r.need(_SUMMARY_HEAD.size, "machine summary")
        (
            health_id,
            confidence_id,
            loss_pkts,
            throughput_pps,
            pkt_loss_rate,
            avg_pkt_size,
            age_s,
            elements,
            missing,
            verdict_count,
        ) = _SUMMARY_HEAD.unpack_from(r.view, at)
        verdicts: List[List[Any]] = []
        for _ in range(r.bound_count(verdict_count, 12, "verdict")):
            location_class = labels.name_of(r.u32("verdict location"), r.op, r.pos - 4)
            scope = labels.name_of(r.u32("verdict scope"), r.op, r.pos - 4)
            resources = [
                labels.name_of(r.u32("verdict resource"), r.op, r.pos - 4)
                for _ in range(r.bound_count(r.u16("resource count"), 4, "resource"))
            ]
            signals = [
                labels.name_of(r.u32("verdict signal"), r.op, r.pos - 4)
                for _ in range(r.bound_count(r.u16("signal count"), 4, "signal"))
            ]
            verdicts.append([location_class, resources, scope, signals])
        machines.append(
            {
                "machine": machine,
                "health": labels.name_of(health_id, r.op, at),
                "confidence": labels.name_of(confidence_id, r.op, at),
                "loss_pkts": loss_pkts,
                "throughput_pps": throughput_pps,
                "pkt_loss_rate": pkt_loss_rate,
                "avg_pkt_size": avg_pkt_size,
                "age_s": age_s,
                "elements": elements,
                "missing_elements": missing,
                "verdicts": verdicts,
            }
        )
    r.done()
    return {
        "zone": zone,
        "seq": seq,
        "window_s": window_s,
        "generated_ts": generated_ts,
        "machines": machines,
    }, trace


# -- HELLO handshake --------------------------------------------------------------


def make_hello_response(
    peer_name: str,
    schema: WireSchema,
    machine: Optional[str] = None,
    element_ids: Sequence[str] = (),
    attr_names: Sequence[str] = (),
) -> Dict[str, Any]:
    """Build the HELLO response, seeding the connection's id tables.

    An agent assigns dense ids for everything it currently knows —
    elements, the standard attribute set, its machine name — so the
    very first binary frame usually needs no dictionary deltas at all.
    The fleet root knows no names up front and seeds nothing.  Either
    way the connection's implied BATCH_DELTA state starts over.
    """
    schema.reset_deltas()
    for eid in element_ids:
        schema.elements.assign(eid)
    for attr in attr_names:
        schema.attrs.assign(attr)
    if machine is not None:
        schema.machines.assign(machine)
    return {
        "ok": True,
        "agent": peer_name,
        "codec": CODEC_BIN1,
        "schema": schema.to_wire(),
    }


def apply_hello_response(response: Mapping[str, Any], schema: WireSchema) -> None:
    """Prime the client's tables from a HELLO response.

    A peer that answers with any codec but ``bin1`` is one this client
    has no data format in common with: a typed error, never a downgrade.
    """
    codec = response.get("codec")
    if codec != CODEC_BIN1:
        raise ProtocolError(
            f"peer answered HELLO with codec {codec!r}, not {CODEC_BIN1!r}",
            op=OP_HELLO,
        )
    raw_schema = response.get("schema", {})
    if not isinstance(raw_schema, Mapping):
        raise ProtocolError("hello schema must be a mapping", op=OP_HELLO)
    schema.load_wire(raw_schema)
    schema.reset_deltas()
