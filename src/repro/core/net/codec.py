"""Packed binary payloads for the data ops (codec ``bin1``).

The one encoding of the exchanges that move volume — the agent sweep →
``BATCH_DELTA`` encode → controller mirror apply pipeline, and the
zone → root ``ZONE_REPORT`` push: fixed-width binary records that
encode straight out of the store's columnar value arrays
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

**Frame layout** (all integers little-endian; outer 4-byte length
framing and the 16 MiB cap live in :mod:`repro.core.net.protocol`)::

    header   := magic u8 (0xB1) | version u8 (1) | kind u8 | flags u8

    request  (kind 1, controller -> agent):
      trace_len u16 | trace utf8-json           # 0 = no trace context
      acked_count u32
        ack := tag u8
               tag 0: elem_id u32 | seq i64     # id known to both ends
               tag 1: name_len u16 | name utf8 | seq i64

    response (kind 2, agent -> controller):
      dict_count u32
        entry := space u8 (0 elem / 1 attr / 2 machine)
                 | id u32 | name_len u16 | name utf8
      machine_id u32
      cursor_count u32
        cur := elem_id u32 | seq i64
      block_count u32
        block := elem_id u32 | machine_id u32
                 | attr_count u16 | attr_ids u32[attr_count]
                 | row_count u32
                 | rows := (seq i64 | ts f64 | values f64[attr_count])*

    zone report (kind 3, zone -> root): machine summaries + verdicts;
      header flag bit 0 (``FLAG_ZONE_AGGREGATES``) appends a sketch
      section after the summaries:
        topk_k u16 | entry_count u16
          | (machine_id u32 | count f64 | error f64)*
        | lo f64 | hi f64 | cell_count u16 | cells f64[cell_count]

Every row is a run of fixed-width (element-id, attr-id, value) triples
with the ids hoisted to the block header: the element id and the attr
id column vector apply to all rows of the block, so the per-row bytes
are pure ``i64 + f64 + f64*n`` and pack/unpack as a single precompiled
:class:`struct.Struct` per stride.  ABSENT cells travel as NaN (see
:mod:`repro.core.store`).

Decode errors raise :class:`~repro.core.net.protocol.ProtocolError`
carrying the op and the byte offset where parsing failed; every count
field is validated against the bytes actually remaining, so a corrupt
or bit-flipped frame is rejected in O(1) without speculative
allocation.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.net.protocol import (
    BIN_MAGIC,
    CODEC_BIN1,
    OP_BATCH_DELTA,
    OP_HELLO,
    OP_ZONE_REPORT,
    ProtocolError,
)
from repro.core.store import SeriesBlock

#: Binary codec version carried in every frame header.
BIN_VERSION = 1

#: Frame kinds.
KIND_BATCH_REQUEST = 1
KIND_BATCH_RESPONSE = 2
KIND_ZONE_REPORT = 3

#: Header flag on KIND_ZONE_REPORT frames: a sketch-aggregates section
#: (top-k droppers + loss-rate quantile histogram) follows the machine
#: summaries.  Frames without the bit decode exactly as before, so
#: pre-sketch peers interoperate both ways.
FLAG_ZONE_AGGREGATES = 0x01

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
_BLOCK_HEAD = struct.Struct("<IIH")
#: One machine summary's fixed scalar section: health id, confidence
#: id, five f64 rates (incl. sample age), element/missing counts,
#: verdict count.
_SUMMARY_HEAD = struct.Struct("<IIdddddIIH")

#: Precompiled row codecs keyed by attrs-per-row stride.
_ROW_STRUCTS: Dict[int, struct.Struct] = {}


def _row_struct(stride: int) -> struct.Struct:
    st = _ROW_STRUCTS.get(stride)
    if st is None:
        st = _ROW_STRUCTS[stride] = struct.Struct(f"<qd{stride}d" if stride else "<qd")
    return st


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
        entries = sorted(((int(v), str(k)) for k, v in raw.items()))
        for ident, name in entries:
            self.learn(ident, name, OP_HELLO, 0)


class WireSchema:
    """The per-connection id tables both peers keep in lockstep."""

    __slots__ = ("elements", "attrs", "machines", "labels")

    def __init__(self) -> None:
        self.elements = _Table()
        self.attrs = _Table()
        self.machines = _Table()
        self.labels = _Table()

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
        # "labels" is absent from pre-hierarchy peers; get() keeps the
        # HELLO exchange compatible in both directions.
        for key, table in (
            ("elements", self.elements),
            ("attrs", self.attrs),
            ("machines", self.machines),
            ("labels", self.labels),
        ):
            part = raw.get(key, {})
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


def _check_header(r: _Reader, expected_kind: int) -> int:
    """Validate the frame header; returns its ``flags`` byte.

    Flags are per-kind feature bits (``FLAG_ZONE_AGGREGATES`` on zone
    reports); bits a decoder does not know are ignored, which is what
    lets the format grow without a version bump.
    """
    at = r.need(4, "frame header")
    magic, version, kind, flags = _HEADER.unpack_from(r.view, at)
    if magic != BIN_MAGIC:
        raise ProtocolError(
            f"bad binary magic 0x{magic:02x}", op=r.op, offset=at
        )
    if version != BIN_VERSION:
        raise ProtocolError(
            f"unsupported binary codec version {version}", op=r.op, offset=at + 1
        )
    if kind != expected_kind:
        raise ProtocolError(
            f"unexpected frame kind {kind} (wanted {expected_kind})",
            op=r.op,
            offset=at + 2,
        )
    return flags


def _put_text(buf: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ProtocolError(f"string too long for wire: {len(raw)} bytes")
    buf += _U16.pack(len(raw))
    buf += raw


# -- request (controller -> agent) ---------------------------------------------


def encode_batch_request(
    schema: WireSchema,
    acked: Mapping[str, int],
    trace_wire: Optional[Mapping[str, str]] = None,
) -> bytes:
    """Pack the collector's ack vector (and trace context) as ``bin1``.

    Element ids the connection already negotiated ride as fixed-width
    id/seq pairs; names the client has not yet seen an id for (only
    possible before the first response on a fresh connection) ride
    inline once.
    """
    buf = bytearray(_HEADER.pack(BIN_MAGIC, BIN_VERSION, KIND_BATCH_REQUEST, 0))
    if trace_wire:
        _put_text(buf, json.dumps(trace_wire, separators=(",", ":")))
    else:
        buf += _U16.pack(0)
    buf += _U32.pack(len(acked))
    ids = schema.elements.ids
    for name, seq in acked.items():
        ident = ids.get(name)
        if ident is not None:
            buf += b"\x00"
            buf += _ID_SEQ.pack(ident, seq)
        else:
            buf += b"\x01"
            _put_text(buf, name)
            buf += _I64.pack(seq)
    return bytes(buf)


def decode_batch_request(
    schema: WireSchema, raw: bytes
) -> Tuple[Dict[str, int], Optional[Mapping[str, Any]]]:
    """Unpack a ``bin1`` BATCH_DELTA request into (acked, trace context).

    Sequence numbers must be non-negative, and ids must have been
    negotiated on this connection.
    """
    r = _Reader(raw, OP_BATCH_DELTA)
    _check_header(r, KIND_BATCH_REQUEST)
    trace: Optional[Mapping[str, Any]] = None
    trace_text = r.text("trace context")
    if trace_text:
        try:
            parsed = json.loads(trace_text)
        except json.JSONDecodeError:
            parsed = None  # trace is best-effort telemetry, never fatal
        if isinstance(parsed, Mapping):
            trace = parsed
    count = r.bound_count(r.u32("acked count"), 9, "acked")
    acked: Dict[str, int] = {}
    for _ in range(count):
        tag = r.u8("ack tag")
        if tag == 0:
            at = r.need(12, "ack id/seq")
            ident, seq = _ID_SEQ.unpack_from(r.view, at)
            name = schema.elements.name_of(ident, r.op, at)
        elif tag == 1:
            name = r.text("ack element name")
            seq = r.i64("ack seq")
        else:
            raise r.fail(f"unknown ack tag {tag}")
        if seq < 0:
            raise r.fail(f"acked seq for {name!r} must be non-negative, got {seq}")
        acked[name] = seq
    r.done()
    return acked, trace


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
    dictionary section, so the decoder's tables stay in lockstep.
    """
    pending: List[Tuple[int, int, str]] = []

    def ident_for(space: int, table: _Table, name: str) -> int:
        ident, is_new = table.assign(name)
        if is_new:
            pending.append((space, ident, name))
        return ident

    body = bytearray()
    body += _U32.pack(ident_for(SPACE_MACHINE, schema.machines, machine))
    body += _U32.pack(len(cursor))
    for name, seq in cursor.items():
        body += _ID_SEQ.pack(ident_for(SPACE_ELEMENT, schema.elements, name), seq)
    block_list = list(blocks)
    body += _U32.pack(len(block_list))
    for element_id, block_machine, attr_names, rows in block_list:
        body += _BLOCK_HEAD.pack(
            ident_for(SPACE_ELEMENT, schema.elements, element_id),
            ident_for(SPACE_MACHINE, schema.machines, block_machine),
            len(attr_names),
        )
        attr_ids = [
            ident_for(SPACE_ATTR, schema.attrs, name) for name in attr_names
        ]
        body += struct.pack(f"<{len(attr_ids)}I", *attr_ids)
        body += _U32.pack(len(rows))
        pack = _row_struct(len(attr_names)).pack
        for seq, timestamp, values in rows:
            body += pack(seq, timestamp, *values)

    buf = bytearray(_HEADER.pack(BIN_MAGIC, BIN_VERSION, KIND_BATCH_RESPONSE, 0))
    buf += _U32.pack(len(pending))
    for space, ident, name in pending:
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ProtocolError(
                f"name too long for wire: {len(raw)} bytes", op=OP_BATCH_DELTA
            )
        buf += _DICT_HEAD.pack(space, ident, len(raw))
        buf += raw
    buf += body
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


def decode_batch_response(schema: WireSchema, raw: bytes) -> BatchPayload:
    """Unpack a ``bin1`` BATCH_DELTA response, learning new ids as announced."""
    r = _Reader(raw, OP_BATCH_DELTA)
    _check_header(r, KIND_BATCH_RESPONSE)
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

    machine = schema.machines.name_of(r.u32("machine id"), r.op, r.pos - 4)
    cursor_count = r.bound_count(r.u32("cursor count"), 12, "cursor")
    cursor: Dict[str, int] = {}
    for _ in range(cursor_count):
        at = r.need(12, "cursor entry")
        ident, seq = _ID_SEQ.unpack_from(r.view, at)
        cursor[schema.elements.name_of(ident, r.op, at)] = seq

    block_count = r.bound_count(r.u32("block count"), 14, "block")
    blocks: List[SeriesBlock] = []
    for _ in range(block_count):
        at = r.need(10, "block header")
        elem_ident, machine_ident, attr_count = _BLOCK_HEAD.unpack_from(r.view, at)
        element_id = schema.elements.name_of(elem_ident, r.op, at)
        block_machine = schema.machines.name_of(machine_ident, r.op, at)
        ids_at = r.need(4 * attr_count, "block attr ids")
        attr_ids = struct.unpack_from(f"<{attr_count}I", r.view, ids_at)
        attr_names = tuple(
            schema.attrs.name_of(ident, r.op, ids_at) for ident in attr_ids
        )
        row_struct = _row_struct(attr_count)
        row_count = r.bound_count(
            r.u32("row count"), row_struct.size, f"{element_id} row"
        )
        rows_at = r.need(row_struct.size * row_count, "rows")
        rows: List[Tuple[int, float, Sequence[float]]] = [
            (rec[0], rec[1], rec[2:])
            for rec in row_struct.iter_unpack(
                r.view[rows_at: rows_at + row_struct.size * row_count]
            )
        ]
        blocks.append((element_id, block_machine, attr_names, rows))
    r.done()
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

    # Sketch aggregates (flagged): top-k droppers as (machine id,
    # count, error) rows, then the loss-rate quantile histogram.  The
    # machine names were just written by the summaries loop, so the
    # steady state adds no dictionary entries.
    aggregates = report.get("aggregates")
    flags = 0
    if aggregates:
        flags |= FLAG_ZONE_AGGREGATES
        topk = aggregates["topk"]
        entries = list(topk.get("entries", ()))
        if len(entries) > 0xFFFF:
            raise ProtocolError(
                f"too many top-k entries for wire: {len(entries)}",
                op=OP_ZONE_REPORT,
            )
        body += _U16.pack(int(topk["k"]))
        body += _U16.pack(len(entries))
        for key, count, err in entries:
            body += _U32.pack(
                ident_for(SPACE_MACHINE, schema.machines, str(key))
            )
            body += _F64.pack(float(count))
            body += _F64.pack(float(err))
        qsketch = aggregates["loss_rate"]
        counts = list(qsketch.get("counts", ()))
        if len(counts) > 0xFFFF:
            raise ProtocolError(
                f"too many quantile cells for wire: {len(counts)}",
                op=OP_ZONE_REPORT,
            )
        body += _F64.pack(float(qsketch["lo"]))
        body += _F64.pack(float(qsketch["hi"]))
        body += _U16.pack(len(counts))
        for cell in counts:
            body += _F64.pack(float(cell))

    buf = bytearray(
        _HEADER.pack(BIN_MAGIC, BIN_VERSION, KIND_ZONE_REPORT, flags)
    )
    if trace_wire:
        _put_text(buf, json.dumps(trace_wire, separators=(",", ":")))
    else:
        buf += _U16.pack(0)
    buf += _U32.pack(len(pending))
    for space, ident, name in pending:
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ProtocolError(
                f"name too long for wire: {len(raw)} bytes", op=OP_ZONE_REPORT
            )
        buf += _DICT_HEAD.pack(space, ident, len(raw))
        buf += raw
    buf += body
    return bytes(buf)


def decode_zone_report(
    schema: WireSchema, raw: bytes
) -> Tuple[Dict[str, Any], Optional[Mapping[str, Any]]]:
    """Unpack a ``bin1`` zone report into (wire dict, trace context)."""
    r = _Reader(raw, OP_ZONE_REPORT)
    flags = _check_header(r, KIND_ZONE_REPORT)
    trace: Optional[Mapping[str, Any]] = None
    trace_text = r.text("trace context")
    if trace_text:
        try:
            parsed = json.loads(trace_text)
        except json.JSONDecodeError:
            parsed = None  # trace is best-effort telemetry, never fatal
        if isinstance(parsed, Mapping):
            trace = parsed

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
    aggregates: Optional[Dict[str, Any]] = None
    if flags & FLAG_ZONE_AGGREGATES:
        k = r.u16("top-k k")
        entries: List[List[Any]] = []
        for _ in range(r.bound_count(r.u16("top-k entry count"), 20, "top-k entry")):
            key = schema.machines.name_of(r.u32("top-k machine id"), r.op, r.pos - 4)
            entries.append([key, r.f64("top-k count"), r.f64("top-k error")])
        lo = r.f64("quantile lo")
        hi = r.f64("quantile hi")
        counts_len = r.bound_count(r.u16("quantile cell count"), 8, "quantile cell")
        counts = [r.f64("quantile cell") for _ in range(counts_len)]
        aggregates = {
            "topk": {"k": k, "entries": entries},
            "loss_rate": {
                "lo": lo,
                "hi": hi,
                "buckets": counts_len - 2,
                "counts": counts,
            },
        }
    r.done()
    report = {
        "zone": zone,
        "seq": seq,
        "window_s": window_s,
        "generated_ts": generated_ts,
        "machines": machines,
    }
    if aggregates is not None:
        report["aggregates"] = aggregates
    return report, trace


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
    The fleet root knows no names up front and seeds nothing.
    """
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
