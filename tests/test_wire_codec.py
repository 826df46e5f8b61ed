"""Binary wire codec: round-trips, fuzzed frames, the HELLO handshake.

Three layers of assurance for the packed ``bin1`` BATCH_DELTA path:

* **Property round-trips** — randomized sweep sequences pushed through
  encode → decode → mirror apply must land a mirror byte-for-byte equal
  to a dict-shaped oracle built from the same source store, including
  attr sets that evolve mid-stream (dictionary deltas) and agent
  restarts (seq re-baselines).
* **Fuzzing** — every truncation of a valid frame, and random bit
  flips, must be rejected with :class:`ProtocolError` (op + byte
  offset) and never anything else: no IndexError deep in struct, no
  giant speculative allocation, no silent garbage.
* **Lockstep** — random exchange sequences over one connection's
  schema pair (acks and cursors that regress, skip and drop keys,
  attr lists that widen and permute, fresh connections, re-HELLOs)
  must decode to exactly what was encoded, with the implied state
  (attr lists, acks, cursor) equal on both ends.
* **Bit-exact values** — rows sent as deltas against their element's
  base (NaN payloads, ±0.0, ±inf, subnormals, integers past 2**53,
  deltas past i32, seq and timestamp irregularities, attr lists that
  change) decode to the encoded bits, and both ends hold the same
  bases.
* **Handshake** — ``bin1`` is the only data codec: a peer that refuses
  HELLO or answers another codec gets a typed error at once (and a
  health failure through a mirror sync), and a data op sent as JSON is
  refused without costing the connection.  A packed frame either end
  rejects — a malformed request or report, a serve that fails, a
  corrupt response — ends its connection on both ends, and the client
  carries on over a fresh one with a fresh HELLO.
* **Malformed control replies** — a HELLO, listing or zone reply with
  a missing or mistyped field is a typed :class:`ProtocolError`, and
  through a mirror one recorded health failure, never a crash.

The acceptance scenario at the bottom drives the full TCP stack — a
mirror over the wire beside an in-process one, against one faulty
polling agent with a server restart mid-sequence — and requires both to
equal the agent's own store, byte for byte.
"""

from __future__ import annotations

import json
import math
import random
import socket
import struct
import threading
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.agent import Agent
from repro.core.channels import ChannelFaultPlan
from repro.core.controller import AgentMirror, FleetController, ZoneController
from repro.core.counters import ABSENT, STANDARD_ATTRS, CounterSnapshot
from repro.core.net import codec as wire_codec
from repro.core.health import DEGRADED, HEALTHY
from repro.core.net.client import (
    PeerRefused,
    RemoteAgentHandle,
    RetryPolicy,
    ZoneClient,
)
from repro.core.net.codec import CODEC_BIN1, WireSchema
from repro.core.net.protocol import (
    OP_BATCH_DELTA,
    OP_HELLO,
    OP_LIST_ELEMENTS,
    OP_STACK_ELEMENTS,
    OP_ZONE_FOR,
    OP_ZONE_REPORT,
    OP_ZONE_SUBSCRIBE,
    ProtocolError,
    recv_message,
    send_message,
)
from repro.core.net.server import AgentServer, FleetServer
from repro.core.store import TimeSeriesStore
from repro.dataplane.machine import PhysicalMachine
from repro.middleboxes.http import HttpServer
from repro.simnet.packet import Flow
from repro.workloads.traffic import ExternalTrafficSource

FAST_RETRY = RetryPolicy(
    max_attempts=4, base_delay_s=0.001, max_delay_s=0.002, deadline_s=30.0
)

#: Attribute pool for randomized sweeps: the standard set plus the kind
#: of late-appearing names that exercise dictionary deltas.
EXTRA_ATTRS = ("drops.queue", "drops.ttl", "cache_hits")


def dump(store: TimeSeriesStore) -> str:
    """Canonical byte-for-byte digest of everything a store holds."""
    return json.dumps(
        [s.to_dict() for s in store.changed_since({})], sort_keys=True
    )


def random_sweeps(rng: random.Random, rounds: int, elements: int):
    """A reproducible sweep sequence: per-round snapshot lists.

    Seqs advance per element; occasionally an element "restarts"
    (seq re-baselines from 1), occasionally a round repeats an element's
    previous seq (the dedup case), and attr sets both shrink and grow
    so decoders see every column-mapping path.
    """
    eids = [f"elem{i}" for i in range(elements)]
    seqs = {eid: 0 for eid in eids}
    t = 0.0
    out = []
    for _ in range(rounds):
        t += rng.uniform(0.01, 0.2)
        batch = []
        for eid in eids:
            roll = rng.random()
            if roll < 0.05 and seqs[eid] > 2:
                seqs[eid] = 1  # agent restart: seq regression
            elif roll < 0.15 and seqs[eid] > 0:
                pass  # unchanged seq: dedup territory
            else:
                seqs[eid] += 1
            names = [a for a in STANDARD_ATTRS if rng.random() < 0.8]
            names += [a for a in EXTRA_ATTRS if rng.random() < 0.2]
            if not names:
                names = [STANDARD_ATTRS[0]]
            attrs = {name: float(rng.randrange(0, 10**9)) for name in names}
            batch.append(CounterSnapshot(eid, "m1", seqs[eid], t, attrs))
        out.append(batch)
    return out


def paired_schemas(elements=("elem0", "elem1")):
    """Server + client schemas as HELLO would leave them."""
    server = WireSchema()
    response = wire_codec.make_hello_response(
        "agent@m1", server, "m1", list(elements), STANDARD_ATTRS
    )
    client = WireSchema()
    wire_codec.apply_hello_response(response, client)
    return server, client


class TestRoundTripProperty:
    @pytest.mark.parametrize("seed", [1, 7, 2026])
    def test_binary_mirror_equals_json_mirror(self, seed):
        """The defining property: the packed path lands the mirror a
        dict-shaped JSON round-trip of the same sweeps lands."""
        rng = random.Random(seed)
        source = TimeSeriesStore()
        server_schema, client_schema = paired_schemas()
        mirror_bin = TimeSeriesStore()
        mirror_json = TimeSeriesStore()
        acked_bin: dict = {}
        acked_json: dict = {}
        for batch in random_sweeps(rng, rounds=40, elements=4):
            for snap in batch:
                source.append(snap)

            blocks, cursor = source.drain_blocks(acked_bin)
            raw = wire_codec.encode_batch_response(
                server_schema, "m1", blocks, cursor
            )
            payload = wire_codec.decode_batch_response(client_schema, raw)
            assert payload.machine == "m1"
            mirror_bin.apply_blocks(payload.blocks)
            acked_bin = payload.cursor

            # the oracle: snapshots as dicts through a full JSON
            # serialize/deserialize, appended one by one
            batch_json = source.changed_since(acked_json)
            wire = json.loads(json.dumps([s.to_dict() for s in batch_json]))
            for entry in wire:
                mirror_json.append(CounterSnapshot.from_dict(entry))
            acked_json = source.cursor()

        assert dump(mirror_bin) == dump(mirror_json)
        assert len(mirror_bin) > 0

    def test_late_attrs_ride_dictionary_deltas(self):
        """Names unseen at HELLO are announced in-frame, exactly once."""
        server_schema, client_schema = paired_schemas()
        t0 = len(client_schema.attrs.names)
        blocks = [
            ("elem0", "m1", ("rx_pkts", "weird.new_attr"), [(1, 0.5, [3.0, 4.0])])
        ]
        raw = wire_codec.encode_batch_response(
            server_schema, "m1", blocks, {"elem0": 1}
        )
        payload = wire_codec.decode_batch_response(client_schema, raw)
        assert payload.blocks[0][2] == ("rx_pkts", "weird.new_attr")
        assert len(client_schema.attrs.names) == t0 + 1
        # the next frame reuses the id with no re-announcement
        raw2 = wire_codec.encode_batch_response(
            server_schema, "m1",
            [("elem0", "m1", ("weird.new_attr",), [(2, 0.6, [5.0])])],
            {"elem0": 2},
        )
        assert len(raw2) < len(raw)  # no dict section the second time
        payload2 = wire_codec.decode_batch_response(client_schema, raw2)
        assert payload2.blocks[0][2] == ("weird.new_attr",)

    def test_request_roundtrip_known_and_unknown_ids(self):
        server_schema, client_schema = paired_schemas()
        acked = {"elem0": 17, "never-negotiated": 3}
        trace = {"trace_id": "t" * 16, "span_id": "s" * 8}
        raw = wire_codec.encode_batch_request(client_schema, acked, trace)
        got_acked, got_trace = wire_codec.decode_batch_request(server_schema, raw)
        assert got_acked == acked
        assert got_trace == trace

    def test_request_rejects_negative_seq(self):
        server_schema, client_schema = paired_schemas()
        raw = wire_codec.encode_batch_request(client_schema, {"elem0": -1}, None)
        with pytest.raises(ProtocolError, match="non-negative"):
            wire_codec.decode_batch_request(server_schema, raw)


def valid_response_blocks():
    """A first frame: elem0's second row rides on its first."""
    return [
        ("elem0", "m1", ("rx_pkts", "tx_pkts"), [(1, 0.5, [1.0, 2.0]),
                                                 (2, 1.0, [3.0, 4.0])]),
        ("elem1", "m1", ("drops", "late.attr"), [(5, 0.3, [0.0, 9.0])]),
    ]


def valid_response_frame():
    """One representative encoded response, plus a fresh decoder factory.

    The decoder schema must be re-primed per attempt because a decode
    that succeeds (a flip in a value byte) moves the connection's
    state on.
    """
    server_schema, _ = paired_schemas()
    raw = wire_codec.encode_batch_response(
        server_schema, "m1", valid_response_blocks(), {"elem0": 2, "elem1": 5}
    )

    def fresh_schema():
        return paired_schemas()[1]

    return raw, fresh_schema


def steady_response_frame():
    """A second frame on a warm connection: attr lists and most of the
    cursor implied, one block on another machine, one cursor drop and
    one explicit cursor entry.  elem0's row is the steady state (seq and
    ts implied, one value the same and one an i16 delta); elem1's base
    has no ts step yet and its values take the i32 and raw classes.
    Returns (raw, decoder factory); each decoder has replayed the
    connection's first exchange."""
    elements = ("elem0", "elem1", "elem2")
    server, client = paired_schemas(elements)
    first_acked = {}
    acked = {"elem0": 2, "elem1": 5, "elem2": 7}
    wire_codec.decode_batch_request(
        server, wire_codec.encode_batch_request(client, first_acked)
    )
    first = wire_codec.encode_batch_response(
        server, "m1", valid_response_blocks(), {"elem0": 2, "elem1": 5}
    )
    wire_codec.decode_batch_response(client, first)
    wire_codec.decode_batch_request(
        server, wire_codec.encode_batch_request(client, acked)
    )
    raw = wire_codec.encode_batch_response(
        server, "m1", steady_blocks(), {"elem0": 3, "elem1": 9}
    )

    def primed_schema():
        schema = paired_schemas(elements)[1]
        wire_codec.encode_batch_request(schema, first_acked)
        wire_codec.decode_batch_response(schema, first)
        wire_codec.encode_batch_request(schema, acked)
        return schema

    return raw, primed_schema


def steady_blocks():
    return [
        ("elem0", "m1", ("rx_pkts", "tx_pkts"), [(3, 1.5, [5.0, 4.0])]),
        ("elem1", "m2", ("drops", "late.attr"), [(6, 0.5, [1e6, 9.5])]),
    ]


def f64_bits(value) -> bytes:
    return struct.pack("<d", value)


def bases_state(schema: WireSchema):
    """The value bases as bytes: ``==`` on floats would pass NaN-for-
    NaN only by identity and +0.0-for--0.0 always."""
    return {
        element: (
            seq,
            f64_bits(ts),
            f64_bits(step),
            b"".join(map(f64_bits, values)),
        )
        for element, (seq, ts, step, values) in schema.bases.items()
    }


def schema_state(schema: WireSchema):
    """Everything a connection's schema holds, as comparable values."""
    tables = [
        (list(t.names), dict(t.ids))
        for t in (schema.elements, schema.attrs, schema.machines, schema.labels)
    ]
    return (
        tables,
        dict(schema.attr_lists),
        bases_state(schema),
        dict(schema.acked),
        dict(schema.cursor),
    )


def frame_with_version(raw: bytes, version: int) -> bytes:
    return raw[:1] + bytes([version]) + raw[2:]


class TestFrameFuzz:
    def test_every_truncation_rejected_with_offset(self):
        raw, fresh_schema = valid_response_frame()
        for cut in range(len(raw)):
            with pytest.raises(ProtocolError) as err:
                wire_codec.decode_batch_response(fresh_schema(), raw[:cut])
            assert err.value.op == OP_BATCH_DELTA
            assert err.value.offset is not None
            assert 0 <= err.value.offset <= cut

    def test_trailing_garbage_rejected(self):
        raw, fresh_schema = valid_response_frame()
        with pytest.raises(ProtocolError, match="trailing"):
            wire_codec.decode_batch_response(fresh_schema(), raw + b"\x00")

    def test_bit_flips_never_escape_protocol_error(self):
        """A flipped bit either still decodes (it hit a value byte) or
        raises ProtocolError — never any other exception, and never a
        huge allocation (the bounded-count rule)."""
        raw, fresh_schema = valid_response_frame()
        rng = random.Random(99)
        survived = 0
        for _ in range(400):
            at = rng.randrange(len(raw))
            bit = 1 << rng.randrange(8)
            mutated = bytearray(raw)
            mutated[at] ^= bit
            try:
                wire_codec.decode_batch_response(fresh_schema(), bytes(mutated))
                survived += 1
            except ProtocolError:
                pass
        # plenty of flips land in f64 value bytes and decode fine;
        # the point is that nothing else ever leaks out
        assert survived > 0

    def test_request_truncations_rejected(self):
        server_schema, client_schema = paired_schemas()
        raw = wire_codec.encode_batch_request(
            client_schema, {"elem0": 4, "inline-name": 2}, {"trace_id": "x"}
        )
        for cut in range(len(raw)):
            with pytest.raises(ProtocolError) as err:
                wire_codec.decode_batch_request(paired_schemas()[0], raw[:cut])
            assert err.value.op == OP_BATCH_DELTA
            assert err.value.offset is not None

    def test_implausible_count_rejected_cheaply(self):
        """A corrupt count header must be refused against the bytes
        actually present, not trusted into a giant loop."""
        raw, fresh_schema = valid_response_frame()
        # dict_count lives right after the 4-byte header
        mutated = bytearray(raw)
        mutated[4:8] = (0x7FFFFFFF).to_bytes(4, "little")
        with pytest.raises(ProtocolError, match="implausible"):
            wire_codec.decode_batch_response(fresh_schema(), bytes(mutated))

    def test_dictionary_remap_rejected(self):
        """A frame re-announcing an existing id under a new name is
        corrupt or hostile, not mergeable."""
        schema = WireSchema()
        schema.attrs.learn(0, "rx_pkts", OP_HELLO, 0)
        with pytest.raises(ProtocolError, match="remaps"):
            schema.attrs.learn(0, "tx_pkts", OP_BATCH_DELTA, 10)
        with pytest.raises(ProtocolError, match="non-dense"):
            schema.attrs.learn(5, "gap", OP_BATCH_DELTA, 10)

    def test_steady_frame_is_small_and_decodes(self):
        raw, primed_schema = steady_response_frame()
        payload = wire_codec.decode_batch_response(primed_schema(), raw)
        assert payload.cursor == {"elem0": 3, "elem1": 9}
        assert payload.blocks[1][1:3] == ("m2", ("drops", "late.attr"))
        assert normalized(payload.blocks) == normalized(steady_blocks())
        # one dictionary entry (machine "m2"); a value section of four
        # 2-bit classes and one i16, one i32 and one raw f64; two
        # 3-byte block heads, one block machine id, two row-flag bytes
        # and elem1's explicit ts (its base has no step yet); one drop
        # and one explicit cursor entry: no attr list rides again
        assert raw[4:8] == (1).to_bytes(4, "little")
        dictionary = 4 + 7 + len("m2")
        values = 1 + 1 + 2 + 4 + 8
        blocks = (3 + 1) + (3 + 4 + 1 + 8)
        assert len(raw) == (
            4 + dictionary + 4 + values + 4 + blocks + (4 + 4) + (4 + 12)
        )
        # The steady-state row is its 3-byte block head (flags,
        # element id, row count) and a zero row-flags byte; its values
        # cost 2 bits each plus their deltas.
        elem0 = 0  # first element id HELLO assigned
        assert bytes([0, elem0, 1, 0]) in raw

    def test_every_truncation_rejected_and_schema_untouched(self):
        for raw, make_schema in (steady_response_frame(), valid_response_frame()):
            for cut in range(len(raw)):
                with pytest.raises(ProtocolError) as err:
                    wire_codec.decode_batch_response(make_schema(), raw[:cut])
                assert err.value.op == OP_BATCH_DELTA
                assert err.value.offset is not None and 0 <= err.value.offset <= cut

    def test_bit_flips_raise_with_offset_and_leave_schema_untouched(self):
        rng = random.Random(2028)
        for raw, make_schema in (steady_response_frame(), valid_response_frame()):
            for _ in range(300):
                mutated = bytearray(raw)
                mutated[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
                try:
                    wire_codec.decode_batch_response(make_schema(), bytes(mutated))
                except ProtocolError as exc:
                    assert exc.offset is not None

    def test_request_truncations_and_flips_leave_schema_untouched(self):
        server_schema, client_schema = paired_schemas()
        client_schema.cursor = {"elem0": 1, "elem1": 2, "gone": 4}
        server_schema.cursor = dict(client_schema.cursor)
        raw = wire_codec.encode_batch_request(
            client_schema, {"elem0": 1, "elem1": 3, "inline-name": 2}, {"t": "x"}
        )
        before = schema_state(server_schema)
        for cut in range(len(raw)):
            with pytest.raises(ProtocolError) as err:
                wire_codec.decode_batch_request(server_schema, raw[:cut])
            assert err.value.offset is not None
        rng = random.Random(5)
        for _ in range(300):
            mutated = bytearray(raw)
            mutated[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
            try:
                wire_codec.decode_batch_request(server_schema, bytes(mutated))
            except ProtocolError as exc:
                assert exc.offset is not None
                assert schema_state(server_schema) == before
            else:
                server_schema.acked = before[2]
        acked, _ = wire_codec.decode_batch_request(server_schema, raw)
        assert acked == {"elem0": 1, "elem1": 3, "inline-name": 2}

    @pytest.mark.parametrize("flag", [0x04, 0x80])
    def test_unknown_block_flag_rejected(self, flag):
        raw, primed_schema = steady_response_frame()
        # header, dictionary ("m2"), machine id, value section (class
        # count, classes, i16 + i32 + f64), block count
        at = 4 + (4 + 7 + 2) + 4 + (1 + 1 + 2 + 4 + 8) + 4
        mutated = bytearray(raw)
        mutated[at] |= flag
        with pytest.raises(ProtocolError, match="unknown block flag") as err:
            wire_codec.decode_batch_response(primed_schema(), bytes(mutated))
        assert err.value.offset == at

    @staticmethod
    def _value_section_frame(class_count: int, classes: bytes, rest: bytes = b""):
        """A response on a fresh connection: no dictionary, machine id
        0, then the given value section and whatever follows."""
        head = bytes([0xB1, wire_codec.BIN_VERSION, wire_codec.KIND_BATCH_RESPONSE, 0])
        count = bytearray()
        wire_codec._put_varint(count, class_count)
        return head + struct.pack("<II", 0, 0) + bytes(count) + classes + rest

    def test_class_bitmap_claiming_more_than_the_frame_rejected_cheaply(self):
        """200 classes that all claim a raw f64: 1 600 bytes the frame
        does not have, refused from the counts before any run is read."""
        raw = self._value_section_frame(200, b"\xff" * 50)
        schema = paired_schemas()[1]
        before = schema_state(schema)
        with pytest.raises(ProtocolError, match="implausible value delta") as err:
            wire_codec.decode_batch_response(schema, raw)
        assert err.value.offset == len(raw)
        assert schema_state(schema) == before

    @pytest.mark.parametrize(
        "class_count, classes, rest, message",
        [
            (1, b"\x04", b"", "padding"),
            (4, b"\x00", struct.pack("<III", 0, 0, 0), "no row used"),
            (300, b"", b"", "truncated"),
        ],
        ids=["padding", "unused", "truncated"],
    )
    def test_inconsistent_value_section_rejected(
        self, class_count, classes, rest, message
    ):
        raw = self._value_section_frame(class_count, classes, rest)
        schema = paired_schemas()[1]
        before = schema_state(schema)
        with pytest.raises(ProtocolError, match=message) as err:
            wire_codec.decode_batch_response(schema, raw)
        assert err.value.offset is not None
        assert schema_state(schema) == before

    def test_rows_outrunning_the_classes_rejected(self):
        """A steady frame whose class count was cut: the rows need more
        classes than the section holds."""
        raw, primed_schema = steady_response_frame()
        at = 4 + (4 + 7 + 2) + 4  # the class count
        assert raw[at] == 4
        mutated = bytearray(raw)
        mutated[at] = 2  # same bitmap byte, two fewer classes
        mutated[at + 1] &= 0x0F  # whose padding must be zero
        del mutated[at + 2 + 2: at + 2 + 2 + 4 + 8]  # their i32 and f64
        with pytest.raises(ProtocolError, match="run out") as err:
            wire_codec.decode_batch_response(primed_schema(), bytes(mutated))
        assert err.value.offset is not None

    def test_first_row_rides_raw_against_the_nan_base(self):
        """An element with no base is sent against a row of NaNs: its
        values all take the raw class, its ts rides explicitly, and its
        seq is implied only when it is 1."""
        server, client = paired_schemas()
        blocks = [
            ("elem0", "m1", ("rx_pkts", "tx_pkts"), [(5, 0.5, [1.0, 2.0])]),
            ("elem1", "m1", ("rx_pkts",), [(1, 0.25, [3.0])]),
        ]
        raw = wire_codec.encode_batch_response(server, "m1", blocks, {"elem0": 5, "elem1": 1})
        at = 4 + 4 + 4  # header, empty dictionary, machine id
        raw_class = wire_codec.VALUE_F64
        assert raw[at: at + 2] == bytes([3, raw_class | raw_class << 2 | raw_class << 4])
        assert raw[at + 2: at + 2 + 24] == struct.pack("<3d", 1.0, 2.0, 3.0)
        elem0_row = bytes([wire_codec.ROW_SEQ | wire_codec.ROW_TS]) + struct.pack("<qd", 5, 0.5)
        elem1_row = bytes([wire_codec.ROW_TS]) + struct.pack("<d", 0.25)
        assert elem0_row in raw and elem1_row in raw
        payload = wire_codec.decode_batch_response(client, raw)
        assert_rows_bit_exact(payload.blocks, blocks)
        assert bases_state(client) == bases_state(server)
        # The NaN base predicts no timestamp: a row that implies one
        # anyway is refused.
        at = raw.index(elem1_row)
        mutated = raw[:at] + b"\x00" + raw[at + len(elem1_row):]
        with pytest.raises(ProtocolError, match="predicts none") as err:
            wire_codec.decode_batch_response(paired_schemas()[1], mutated)
        assert err.value.offset == at

    def test_multibyte_varints_round_trip_and_truncate(self):
        """Element ids and row counts past 127 take multi-byte varints;
        a cut inside one is a truncation like any other."""
        server, client = paired_schemas()
        blocks = [(f"e{i:03d}", "m1", ("x",), [(1, 0.5, [float(i)])]) for i in range(140)]
        blocks.append(("e000", "m1", ("x",), [(n, 0.5 * n, [float(n)]) for n in range(2, 202)]))
        first = wire_codec.encode_batch_response(server, "m1", blocks[:140], {})
        wire_codec.decode_batch_response(client, first)
        raw = wire_codec.encode_batch_response(server, "m1", blocks[139:], {})

        def warm_client():
            schema = paired_schemas()[1]
            wire_codec.decode_batch_response(schema, first)
            return schema

        for cut in range(0, len(raw), 7):
            with pytest.raises(ProtocolError) as err:
                wire_codec.decode_batch_response(warm_client(), raw[:cut])
            assert err.value.offset is not None
        payload = wire_codec.decode_batch_response(client, raw)
        assert_rows_bit_exact(payload.blocks, blocks[139:])
        assert bases_state(client) == bases_state(server)

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"\x80\x80\x80\x80\x80\x01", "past 5 varint bytes"),
            (b"\xff\xff\xff\xff\x1f", "does not fit 32 bits"),
            (b"\x80\x80", "truncated"),
        ],
        ids=["too_long", "too_wide", "truncated"],
    )
    def test_varint_limits(self, raw, message):
        reader = wire_codec._Reader(raw, OP_BATCH_DELTA)
        with pytest.raises(ProtocolError, match=message) as err:
            reader.varint("row count")
        assert err.value.offset == 0

    @pytest.mark.parametrize("which", ["request", "response", "zone_report"])
    def test_unknown_header_flag_rejected(self, which):
        raw, decode = self._frame(which)
        mutated = bytearray(raw)
        mutated[3] |= 0x40
        with pytest.raises(ProtocolError, match="unknown header flag") as err:
            decode(bytes(mutated))
        assert err.value.offset == 3

    def test_block_without_negotiated_attr_list_rejected(self):
        """A steady frame decoded on a connection that never saw the
        element's list: the omitted list cannot be implied."""
        raw, _ = steady_response_frame()
        fresh = paired_schemas(("elem0", "elem1", "elem2"))[1]
        with pytest.raises(ProtocolError, match="omits its attr list"):
            wire_codec.decode_batch_response(fresh, raw)

    @pytest.mark.parametrize("which", ["request", "response", "zone_report"])
    def test_version_one_frame_typed_error(self, which):
        raw, decode = self._frame(which)
        assert raw[1] == wire_codec.BIN_VERSION == 3
        with pytest.raises(ProtocolError, match="version 1") as err:
            decode(frame_with_version(raw, 1))
        assert err.value.offset == 1

    @pytest.mark.parametrize("which", ["request", "response", "zone_report"])
    def test_version_two_frame_typed_error(self, which):
        """Version 2 sent rows raw; a version-3 end refuses its frames
        by number rather than misreading their layout."""
        raw, decode = self._frame(which)
        with pytest.raises(ProtocolError, match="unsupported binary codec version 2"):
            decode(frame_with_version(raw, 2))

    def test_drops_must_name_held_keys(self):
        """A request drop (or response cursor drop) for a key the
        implied vector does not hold is a corrupt frame."""
        server_schema, client_schema = paired_schemas()
        client_schema.cursor = {"elem1": 4}
        raw = wire_codec.encode_batch_request(client_schema, {})
        assert raw[-5:] == b"\x02" + (1).to_bytes(4, "little")
        with pytest.raises(ProtocolError, match="does not hold"):
            wire_codec.decode_batch_request(server_schema, raw)
        assert server_schema.acked == {}
        server_schema.cursor = {"elem1": 4}
        assert wire_codec.decode_batch_request(server_schema, raw)[0] == {}

    @staticmethod
    def _frame(which):
        server_schema, client_schema = paired_schemas()
        if which == "request":
            raw = wire_codec.encode_batch_request(client_schema, {"elem0": 1})
            return raw, lambda b: wire_codec.decode_batch_request(server_schema, b)
        if which == "response":
            raw, fresh_schema = valid_response_frame()
            return raw, lambda b: wire_codec.decode_batch_response(fresh_schema(), b)
        wire = {"zone": "z1", "seq": 1, "machines": []}
        raw = wire_codec.encode_zone_report(WireSchema(), wire)
        return raw, lambda b: wire_codec.decode_zone_report(WireSchema(), b)


ELEMENTS = ("elem0", "elem1", "elem2", "late-elem")
ATTR_POOL = tuple(STANDARD_ATTRS[:4]) + EXTRA_ATTRS
seqs = st.integers(min_value=0, max_value=12)


@st.composite
def exchanges(draw):
    """One BATCH_DELTA round: the ack vector, the blocks, the cursor.

    Acks and cursor are arbitrary vectors over the element pool (so
    they regress, skip and drop keys); half the time the cursor starts
    from what the decoder can derive and is then perturbed, which is
    where the implied sections earn their keep.
    """
    acked = draw(st.dictionaries(st.sampled_from(ELEMENTS), seqs))
    blocks = []
    for element in draw(st.lists(st.sampled_from(ELEMENTS), unique=True)):
        attrs = tuple(
            draw(st.lists(st.sampled_from(ATTR_POOL), unique=True, max_size=6))
        )
        rows = [
            (seq, float(i), [float(seq * 10 + j) for j in range(len(attrs))])
            for i, seq in enumerate(draw(st.lists(seqs, max_size=3)))
        ]
        machine = draw(st.sampled_from(("m1", "m1", "m2")))
        blocks.append((element, machine, attrs, rows))
    if draw(st.booleans()):
        cursor = dict(acked)
        for element, _, _, rows in blocks:
            if rows:
                cursor[element] = rows[-1][0]
        for element in draw(st.lists(st.sampled_from(ELEMENTS), max_size=2)):
            cursor.pop(element, None)
        cursor.update(draw(st.dictionaries(st.sampled_from(ELEMENTS), seqs, max_size=2)))
    else:
        cursor = draw(st.dictionaries(st.sampled_from(ELEMENTS), seqs))
    return acked, blocks, cursor


def normalized(blocks):
    return [
        (e, m, tuple(attrs), [(s, t, tuple(v)) for s, t, v in rows])
        for e, m, attrs, rows in blocks
    ]


class TestLockstepProperty:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(exchanges(), st.sampled_from(["reconnect", "rehello"])),
                    max_size=10))
    def test_every_exchange_decodes_to_what_was_encoded(self, steps):
        """Random exchanges over one connection's schema pair, with
        fresh connections and re-HELLOs mid-sequence: every decoded
        (acked, blocks, cursor) equals what was encoded."""
        server, client = paired_schemas()
        for step in steps:
            if step == "reconnect":
                server, client = paired_schemas()
                continue
            if step == "rehello":
                wire_codec.apply_hello_response(
                    wire_codec.make_hello_response(
                        "agent@m1", server, "m1", ["elem0", "elem1"], STANDARD_ATTRS
                    ),
                    client,
                )
                continue
            acked, blocks, cursor = step
            got_acked, _ = wire_codec.decode_batch_request(
                server, wire_codec.encode_batch_request(client, acked)
            )
            assert got_acked == acked
            payload = wire_codec.decode_batch_response(
                client, wire_codec.encode_batch_response(server, "m1", blocks, cursor)
            )
            assert payload.machine == "m1"
            assert normalized(payload.blocks) == normalized(blocks)
            assert payload.cursor == cursor
            assert (client.acked, client.cursor) == (server.acked, server.cursor)
            assert client.attr_lists == server.attr_lists


#: Floats no delta can carry, and the edges of the ones a delta can.
AWKWARD_VALUES = (
    ABSENT,
    struct.unpack("<d", b"\x01\x00\x00\x00\x00\x00\xf8\x7f")[0],  # NaN payload
    0.0,
    -0.0,
    math.inf,
    -math.inf,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    2.0**53,
    2.0**53 + 2.0,
    -(2.0**53) - 2.0,
    2.0**63,
    0.5,
    -1.25,
    1e300,
)
VALUE_MOVES = ("same", "same", "small", "wide", "awkward", "any")
SEQ_MOVES = ("next", "next", "next", "skip", "regress", "repeat")
TS_MOVES = ("step", "step", "step", "irregular", "awkward")
BASE_ELEMENTS = ("e0", "e1", "e2")
BASE_ATTRS = ("a0", "a1", "a2", "a3", "a4", "a5")


def next_value(data, prev: float) -> float:
    move = data.draw(st.sampled_from(VALUE_MOVES))
    if move == "same":
        return prev
    if move == "small":  # i16, spilling into i32
        return prev + data.draw(st.integers(-40000, 40000))
    if move == "wide":  # past the i32 range
        return prev + data.draw(st.integers(-(2**40), 2**40))
    if move == "awkward":
        return data.draw(st.sampled_from(AWKWARD_VALUES))
    return data.draw(st.floats())


def next_seq(data, prev: int) -> int:
    move = data.draw(st.sampled_from(SEQ_MOVES))
    if move == "next":
        return prev + 1
    if move == "skip":
        return prev + data.draw(st.integers(2, 50))
    if move == "regress":  # agent restart
        return data.draw(st.integers(0, max(prev - 1, 0)))
    return prev


def next_ts(data, prev: float, step: float) -> float:
    move = data.draw(st.sampled_from(TS_MOVES))
    if move == "step":
        return prev + step
    if move == "irregular":
        return prev + data.draw(st.floats(1e-3, 10.0))
    return data.draw(st.sampled_from((0.0, -0.0, math.nan, math.inf, 1e-310)))


def assert_rows_bit_exact(decoded, encoded):
    assert len(decoded) == len(encoded)
    for (e, m, attrs, rows), (e2, m2, attrs2, rows2) in zip(decoded, encoded):
        assert (e, m, tuple(attrs)) == (e2, m2, tuple(attrs2))
        assert len(rows) == len(rows2)
        for (seq, ts, values), (seq2, ts2, values2) in zip(rows, rows2):
            assert seq == seq2
            assert f64_bits(ts) == f64_bits(ts2)
            assert list(map(f64_bits, values)) == list(map(f64_bits, values2))


def exchange(server: WireSchema, client: WireSchema, blocks):
    """One BATCH_DELTA round trip: acks = the client's last cursor, the
    cursor = each block's last seq.  Returns the decoded payload."""
    acked, _ = wire_codec.decode_batch_request(
        server, wire_codec.encode_batch_request(client, dict(client.cursor))
    )
    cursor = dict(acked)
    cursor.update((e, rows[-1][0]) for e, _, _, rows in blocks if rows)
    return wire_codec.decode_batch_response(
        client, wire_codec.encode_batch_response(server, "m1", blocks, cursor)
    )


class TestValueBasesProperty:
    """Rows sent against their element's base decode bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rows_decode_bit_exact_and_bases_agree(self, data):
        """NaN payloads, ±0.0, ±inf, subnormals, integers at and past
        2**53, non-integral floats, deltas past i32, seq regressions and
        skips, irregular and awkward timestamps, attr lists that widen
        and narrow (dropping the base), elements that vanish and come
        back, fresh connections and re-HELLOs: every decoded row equals
        the encoded one bit for bit, and both ends hold the same bases."""
        server, client = paired_schemas(BASE_ELEMENTS[:1])
        # element -> (attrs, seq, ts, ts step, values): the source's own
        # history, which outlives connections
        source = {}
        for _ in range(data.draw(st.integers(1, 8))):
            step = data.draw(st.sampled_from(("frame",) * 6 + ("rehello", "reconnect")))
            if step == "reconnect":
                server, client = paired_schemas(BASE_ELEMENTS[:1])
                continue
            if step == "rehello":
                wire_codec.apply_hello_response(
                    wire_codec.make_hello_response(
                        "agent@m1", server, "m1", BASE_ELEMENTS[:1], STANDARD_ATTRS
                    ),
                    client,
                )
                assert server.bases == client.bases == {}
                continue
            blocks = []
            for element in data.draw(st.lists(st.sampled_from(BASE_ELEMENTS), unique=True)):
                attrs, seq, ts, ts_step, values = source.get(
                    element, ((BASE_ATTRS[0],), 0, 1.0, 0.25, [0.0])
                )
                shape = data.draw(st.sampled_from(("keep",) * 4 + ("widen", "narrow")))
                if shape == "widen" and len(attrs) < len(BASE_ATTRS):
                    attrs = attrs + (BASE_ATTRS[len(attrs)],)
                    values = values + [data.draw(st.sampled_from(AWKWARD_VALUES))]
                elif shape == "narrow" and len(attrs) > 1:
                    attrs, values = attrs[:-1], values[:-1]
                rows = []
                for _ in range(data.draw(st.integers(0, 3))):
                    seq = next_seq(data, seq)
                    ts = next_ts(data, ts, ts_step)
                    values = [next_value(data, v) for v in values]
                    rows.append((seq, ts, values))
                source[element] = (attrs, seq, ts, ts_step, values)
                blocks.append((element, "m1", attrs, rows))
            payload = exchange(server, client, blocks)
            assert_rows_bit_exact(payload.blocks, blocks)
            assert bases_state(client) == bases_state(server)
            assert client.attr_lists == server.attr_lists

    def test_each_awkward_value_round_trips(self):
        """The escapes one by one: every awkward value against every
        other as its base, so each class boundary and raw escape is hit
        without relying on the search above."""
        server, client = paired_schemas()
        width = len(AWKWARD_VALUES)
        attrs = tuple(f"x{i}" for i in range(width))
        rows = [
            (seq, 0.5 * seq, AWKWARD_VALUES[seq % width:] + AWKWARD_VALUES[:seq % width])
            for seq in range(1, 2 * width + 1)
        ]
        rows.append((len(rows) + 1, 0.5 * (len(rows) + 1), rows[-1][2]))  # all same
        blocks = [("elem0", "m1", attrs, rows)]
        payload = exchange(server, client, blocks)
        assert_rows_bit_exact(payload.blocks, blocks)
        assert bases_state(client) == bases_state(server)
        # the same rows again, one per frame, on the warm connection
        for row in rows:
            blocks = [("elem0", "m1", attrs, [row])]
            assert_rows_bit_exact(exchange(server, client, blocks).blocks, blocks)
            assert bases_state(client) == bases_state(server)

    def test_zero_timestamps_keep_their_sign(self):
        """-0.0 == 0.0, so a -0.0 timestamp predicted as 0.0 (two equal
        zero stamps make a zero step) must still ride explicitly."""
        server, client = paired_schemas()
        stamps = (0.0, 0.0, -0.0, -0.0, 0.0, 0.0)
        rows = [(seq, ts, [1.0]) for seq, ts in enumerate(stamps, 1)]
        for blocks in ([("elem0", "m1", ("x",), rows)],
                       *([("elem1", "m1", ("x",), [row])] for row in rows)):
            assert_rows_bit_exact(exchange(server, client, blocks).blocks, blocks)
            assert bases_state(client) == bases_state(server)


def flaky_server(server_cls):
    """``server_cls`` whose ``_serve`` raises exactly once."""
    left = [1]

    class Flaky(server_cls):
        def _serve(self, conn, decoded):
            if left[0]:
                left[0] -= 1
                raise RuntimeError("injected serve failure")
            return super()._serve(conn, decoded)

    return Flaky


class TestRefusalDiscardsConnection:
    """A JSON refusal of a packed op ends that connection: it is
    discarded, never checked back in half-used, so a one-slot pool keeps
    serving (and no stale per-connection codec state is reused)."""

    def test_batch_delta_refusal(self, world):
        _, _, agent = world
        with flaky_server(AgentServer)(agent) as server:
            with RemoteAgentHandle(
                *server.address, retry=FAST_RETRY, pool_size=1, timeout_s=1.0
            ) as handle:
                with pytest.raises(RuntimeError, match="injected serve failure"):
                    handle.collect_blocks({})
                blocks, cursor = handle.collect_blocks({})
                assert blocks and cursor
                assert (handle.pool.created, handle.pool.discarded) == (2, 1)

    def test_zone_report_refusal(self):
        fleet = FleetController("root")
        fleet.register_zone("z1")
        report = {"zone": "z1", "seq": 1, "machines": []}
        with flaky_server(FleetServer)(fleet) as server:
            with ZoneClient(
                *server.address, retry=FAST_RETRY, pool_size=1, timeout_s=1.0
            ) as link:
                with pytest.raises(RuntimeError, match="injected serve failure"):
                    link.push_report(report)
                assert link.push_report(report) is True
                assert (link.pool.created, link.pool.discarded) == (2, 1)
        assert fleet.zone_record("z1").last_seq == 1


class TestRefusalIsOneFailedSync:
    """An agent-side fault while serving BATCH_DELTA comes back as a
    typed :class:`PeerRefused`, which the mirror records as one failed
    sync: the zone's refresh goes on for every other machine."""

    def test_refusing_agent_degrades_only_its_machine(self, sim_with_transport):
        sim = sim_with_transport
        agents = {m: Agent(sim, PhysicalMachine(sim, m)) for m in ("m1", "m2")}
        sim.run(0.1)
        with AgentServer(agents["m1"]) as good, flaky_server(AgentServer)(
            agents["m2"]
        ) as flaky:
            handles = {
                m: RemoteAgentHandle(*server.address, retry=FAST_RETRY, timeout_s=1.0)
                for m, server in (("m1", good), ("m2", flaky))
            }
            try:
                zone = ZoneController("z1")
                for m, handle in handles.items():
                    zone.register_agent(m, handle)
                report = zone.refresh_report()
                assert report.failed == ["m2"]
                assert zone.mirror_for("m1").syncs == 1
                assert zone.mirror_for("m1").store.element_ids()
                mirror = zone.mirror_for("m2")
                assert mirror.failed_syncs == 1
                assert isinstance(mirror.health.last_error, PeerRefused)
                assert "injected serve failure" in str(mirror.health.last_error)
                assert mirror.health.state == DEGRADED
                assert zone.mirror_for("m1").health.state == HEALTHY
            finally:
                for handle in handles.values():
                    handle.close()


def greeted_socket(server):
    """A raw connection that has said HELLO, and its client schema."""
    sock = socket.create_connection(server.address, timeout=5)
    send_message(sock, {"op": OP_HELLO})
    schema = WireSchema()
    wire_codec.apply_hello_response(recv_message(sock), schema)
    return sock, schema


def assert_error_then_close(sock, raw: bytes, match: str) -> None:
    """Send one packed frame: a JSON error comes back, then EOF."""
    sock.sendall(struct.pack(">I", len(raw)) + raw)
    response = recv_message(sock)
    assert response["ok"] is False and match in response["error"]
    sock.settimeout(2.0)
    with pytest.raises(ConnectionError):
        recv_message(sock)  # the server closed the connection
    sock.close()


class TestRejectedFrameEndsConnection:
    """A packed frame that either end rejects leaves the two ends' codec
    state out of step, so it ends its connection: the server answers
    with a JSON error and hangs up, the client discards the connection,
    and the next exchange starts over on a fresh one with HELLO."""

    def test_malformed_request_closes_agent_connection(self, world):
        _, _, agent = world
        with AgentServer(agent) as server:
            sock, schema = greeted_socket(server)
            raw = wire_codec.encode_batch_request(schema, {"pnic@m1": 1})
            assert_error_then_close(sock, raw[:-1], "op=batch_delta")

    def test_serve_failure_closes_agent_connection(self, world):
        _, _, agent = world
        with flaky_server(AgentServer)(agent) as server:
            sock, schema = greeted_socket(server)
            raw = wire_codec.encode_batch_request(schema, {})
            assert_error_then_close(sock, raw, "injected serve failure")

    def test_malformed_zone_report_closes_fleet_connection(self):
        """A report cut off after its dictionary section: the root has
        learned labels the zone will not announce again on this
        connection, so the connection ends rather than lives on to fail
        the next report with an unknown id."""
        fleet = FleetController("root")
        fleet.register_zone("z1")
        report = {"zone": "z1", "seq": 1, "machines": [{"machine": "m1"}]}
        with FleetServer(fleet) as server:
            sock, schema = greeted_socket(server)
            raw = wire_codec.encode_zone_report(schema, report)
            assert_error_then_close(
                sock, raw[: -wire_codec._SUMMARY_HEAD.size], "op=zone_report"
            )
        assert fleet.zone_record("z1").last_seq == 0

    def test_corrupt_response_rehellos_on_a_fresh_connection(self, world):
        _, _, agent = world
        hellos = []
        corrupt = [1]

        class Corrupting(AgentServer):
            def _dispatch(self, conn, request):
                hellos.append(request.get("op") == OP_HELLO)
                return super()._dispatch(conn, request)

            def _serve(self, conn, acked):
                raw = super()._serve(conn, acked)
                if corrupt:
                    corrupt.pop()
                    return raw[:-1]
                return raw

        with Corrupting(agent) as server:
            with RemoteAgentHandle(
                *server.address, retry=FAST_RETRY, pool_size=1, timeout_s=1.0
            ) as handle:
                with pytest.raises(ProtocolError) as err:
                    handle.collect_blocks({})
                assert err.value.op == OP_BATCH_DELTA
                assert handle.pool.discarded == 1
                mirror = AgentMirror("m1", handle, store=TimeSeriesStore())
                assert mirror.sync() > 0
                assert (handle.pool.created, handle.pool.discarded) == (2, 1)
        assert hellos == [True, True]
        assert dump(mirror.store) == dump(agent.store)
        assert mirror.acked == agent.store.cursor()


#: What a peer that has never heard of HELLO says to it, and what one
#: that speaks some other data codec says.
REFUSES_HELLO = {"ok": False, "error": "unknown op: 'hello'"}
ANSWERS_JSON = {"ok": True, "agent": "old", "codec": "json", "schema": {}}


@contextmanager
def scripted_peer(replies):
    """A peer that answers each op in ``replies`` with its canned reply
    and refuses everything else; yields its address and the ops it was
    asked, in order."""
    lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    lsock.bind(("127.0.0.1", 0))
    lsock.listen(4)
    stop = threading.Event()
    asked = []

    def serve(conn):
        while not stop.is_set():
            op = recv_message(conn).get("op")
            asked.append(op)
            if op in replies:
                send_message(conn, replies[op])
            else:
                send_message(conn, {"ok": False, "error": f"unknown op: {op!r}"})

    def loop():
        while not stop.is_set():
            try:
                conn, _ = lsock.accept()
            except OSError:
                return
            try:
                serve(conn)
            except (ConnectionError, OSError, ProtocolError):
                pass
            finally:
                conn.close()

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    try:
        yield lsock.getsockname(), asked
    finally:
        stop.set()
        # close() alone does not wake a thread blocked in accept().
        lsock.shutdown(socket.SHUT_RDWR)
        lsock.close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture
def world(sim_with_transport):
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
    return sim, machine, agent


def hello_with(schema):
    return {"ok": True, "agent": "a", "codec": CODEC_BIN1, "schema": schema}


NO_TABLES = {"elements": {}, "attrs": {}, "machines": {}, "labels": {}}

#: HELLO replies that name ``bin1`` but carry a garbled schema: each
#: must be a typed error, not a ValueError, TypeError or IndexError that
#: escapes a mirror sync and aborts a zone's whole refresh.
MALFORMED_HELLOS = {
    "id_str": hello_with({**NO_TABLES, "elements": {"e": "x"}}),
    "id_null": hello_with({**NO_TABLES, "elements": {"e": None}}),
    "id_negative": hello_with({**NO_TABLES, "elements": {"e": -1}}),
    "id_bool": hello_with({**NO_TABLES, "elements": {"e": False}}),
    "id_float": hello_with({**NO_TABLES, "elements": {"e": 0.0}}),
    "table_not_mapping": hello_with({**NO_TABLES, "elements": ["e"]}),
    "labels_missing": hello_with({"elements": {}, "attrs": {}, "machines": {}}),
    "schema_missing": {"ok": True, "agent": "a", "codec": CODEC_BIN1},
}

#: Each JSON control op's client and the call that sends it.
CONTROL_CALLS = {
    OP_LIST_ELEMENTS: (RemoteAgentHandle, RemoteAgentHandle.element_ids),
    OP_STACK_ELEMENTS: (RemoteAgentHandle, RemoteAgentHandle.stack_element_ids),
    OP_ZONE_FOR: (ZoneClient, lambda link: link.zone_for("m1")),
    OP_ZONE_SUBSCRIBE: (ZoneClient, lambda link: link.subscribe("z1")),
}

unusable_peers = pytest.mark.parametrize(
    "hello_reply",
    [REFUSES_HELLO, ANSWERS_JSON, *MALFORMED_HELLOS.values()],
    ids=["refuses_hello", "answers_json", *MALFORMED_HELLOS],
)


class TestNegotiation:
    def test_binary_negotiated_by_default(self, world):
        _, _, agent = world
        with AgentServer(agent) as server:
            with RemoteAgentHandle(*server.address, retry=FAST_RETRY) as handle:
                assert handle.hello() == CODEC_BIN1
                blocks, cursor = handle.collect_blocks({})
                assert blocks and cursor

    @unusable_peers
    def test_peer_without_bin1_raises_typed_error(self, hello_reply):
        """No downgrade: a data op fails with a typed HELLO error at
        once — each attempt asks one HELLO on a connection that is then
        discarded; nothing is retried or sent in some other format."""
        with scripted_peer({OP_HELLO: hello_reply}) as (addr, asked):
            with RemoteAgentHandle(*addr, retry=FAST_RETRY) as handle:
                with pytest.raises(ProtocolError) as err:
                    handle.collect_blocks({})
                assert err.value.op == OP_HELLO
                with pytest.raises(ProtocolError):
                    handle.hello()
                assert asked == [OP_HELLO, OP_HELLO]
                assert handle.pool.created == 2

    @unusable_peers
    def test_peer_without_bin1_is_a_health_failure(self, hello_reply):
        """Through a mirror the typed error is one failed sync and one
        recorded health failure, not an exception."""
        with scripted_peer({OP_HELLO: hello_reply}) as (addr, asked):
            with RemoteAgentHandle(*addr, retry=FAST_RETRY) as handle:
                mirror = AgentMirror("m1", handle)
                assert mirror.sync() == 0
        assert asked == [OP_HELLO]
        assert (mirror.syncs, mirror.failed_syncs) == (0, 1)
        assert mirror.health.consecutive_failures == 1
        assert isinstance(mirror.health.last_error, ProtocolError)
        assert mirror.health.last_error.op == OP_HELLO
        assert len(mirror.store) == 0

    @pytest.mark.parametrize(
        "op, reply",
        [
            (OP_LIST_ELEMENTS, {"ok": True}),
            (OP_LIST_ELEMENTS, {"ok": True, "elements": "eth0"}),
            (OP_STACK_ELEMENTS, {"ok": True, "elements": None}),
            (OP_ZONE_FOR, {"ok": True}),
            (OP_ZONE_FOR, {"ok": True, "zone": 3}),
            (OP_ZONE_SUBSCRIBE, {"ok": True}),
            (OP_ZONE_SUBSCRIBE, {"ok": True, "zone_seq": "7"}),
            (OP_ZONE_SUBSCRIBE, {"ok": True, "zone_seq": -1}),
            (OP_ZONE_SUBSCRIBE, {"ok": True, "zone_seq": True}),
        ],
        ids=[
            "listing_missing", "listing_str", "stack_null", "zone_missing",
            "zone_int", "seq_missing", "seq_str", "seq_negative", "seq_bool",
        ],
    )
    def test_malformed_control_reply_is_a_protocol_error(self, op, reply):
        client_cls, call = CONTROL_CALLS[op]
        with scripted_peer({op: reply}) as (addr, _):
            with client_cls(*addr, retry=FAST_RETRY) as client:
                with pytest.raises(ProtocolError) as err:
                    call(client)
        assert err.value.op == op

    def test_json_data_ops_refused_connection_survives(self, world):
        """BATCH_DELTA and ZONE_REPORT exist only as bin1 frames: the
        JSON spellings are refused, and the same connection still
        serves control ops."""
        _, _, agent = world
        fleet = FleetController("root")
        fleet.register_zone("z1")
        report = {"zone": "z1", "seq": 1, "machines": []}
        for server, request in (
            (AgentServer(agent), {"op": "batch_delta", "acked": {}}),
            (FleetServer(fleet), {"op": "zone_report", "report": report}),
        ):
            with server:
                sock = socket.create_connection(server.address, timeout=5)
                try:
                    send_message(sock, request)
                    response = recv_message(sock)
                    assert response["ok"] is False
                    assert "unknown op" in response["error"]
                    send_message(sock, {"op": "ping"})
                    assert recv_message(sock)["ok"] is True
                finally:
                    sock.close()
        assert fleet.zone_record("z1").last_seq == 0  # nothing was ingested


def series_of(store: TimeSeriesStore) -> dict:
    """element id -> its retained snapshots as dicts, oldest first."""
    out: dict = {}
    for snap in store.changed_since({}):
        out.setdefault(snap.element_id, []).append(snap.to_dict())
    return out


class TestMirrorEquivalenceAcceptance:
    def test_tcp_mirror_equals_in_process_with_faults(self, world):
        """The acceptance bar: a mirror fed over TCP ``bin1`` — with
        channel faults firing and a server restart forcing client
        retries mid-run — must be byte-for-byte the mirror an in-process
        handle builds from the same sweeps, and both must hold exactly
        the newest rows of the agent's own store."""
        sim, _, agent = world
        for chan in agent._channels.values():
            chan.set_fault_plan(
                ChannelFaultPlan(error_rate=0.1, timeout_rate=0.05, stale_rate=0.1)
            )
        agent.start_polling(period_s=0.05)
        server = AgentServer(agent).start()
        host, port = server.address
        handle = RemoteAgentHandle(host, port, retry=FAST_RETRY)
        mirror_tcp = AgentMirror("m1", handle)
        mirror_local = AgentMirror("m1", agent)
        try:
            for round_no in range(6):
                sim.run(0.25)  # cadence sweeps append (with faults firing)
                mirror_tcp.sync()
                mirror_local.sync()
                if round_no == 2:
                    # crash + restart between rounds: the next sync
                    # rides the retry path onto the new server and a
                    # fresh HELLO
                    server.shutdown()
                    server = AgentServer(agent, host=host, port=port).start()
        finally:
            handle.close()
            server.shutdown()
            agent.stop_polling()

        assert mirror_tcp.failed_syncs == 0
        assert mirror_tcp.snapshots_received > 0
        assert handle.pool.created == 2  # the restart cost one reconnect
        assert dump(mirror_tcp.store) == dump(mirror_local.store)
        source = series_of(agent.store)
        mirrored = series_of(mirror_tcp.store)
        assert sorted(mirrored) == sorted(source)
        for eid, rows in mirrored.items():
            assert rows == source[eid][-len(rows):]
        assert mirror_tcp.acked == agent.store.cursor()


class TestRestartRenegotiation:
    def test_rehello_rebuilds_id_tables_after_restart(self, world):
        """A server restart must force a fresh HELLO, not just a fresh
        socket: the restarted agent assigns *different* dense ids to the
        surviving elements (one new element sorts before them), so a
        client decoding with its stale ``WireSchema`` tables would
        mis-map every shifted element.  Byte-for-byte store equality
        after the restart proves the tables were rebuilt."""
        sim, machine, agent = world
        agent.poll_once()
        server = AgentServer(agent).start()
        host, port = server.address
        handle = RemoteAgentHandle(host, port, retry=FAST_RETRY)
        try:
            assert handle.hello() == CODEC_BIN1
            blocks, _ = handle.collect_blocks({})
            assert blocks  # the connection's bin1 tables are now warm
            # Captured before the world grows: agents list the machine's
            # elements dynamically, so this is the id order the original
            # HELLO actually put on the wire.
            old_ids = agent.element_ids()

            # Restart on the same port with a grown world: VM "a1" adds
            # an element that sorts before the originals, shifting the
            # dense id of every element after it in HELLO order.
            server.shutdown()
            vm = machine.add_vm("a1", vcpu_cores=1.0)
            app2 = HttpServer(sim, vm, "app2", cpu_per_byte=1e-9)
            flow = Flow("rx2", dst_vm="a1", kind="udp")
            vm.bind_udp(flow, app2.socket)
            ExternalTrafficSource(
                sim, "src2", flow, machine.inject, rate_bps=40e6
            )
            restarted = Agent(sim, machine)
            restarted.register(app2)
            sim.run(0.5)
            restarted.poll_once()
            new_ids = restarted.element_ids()
            shifted = [
                eid for eid in old_ids
                if eid in new_ids and old_ids.index(eid) != new_ids.index(eid)
            ]
            assert shifted, "restart did not shift any dense ids"
            server = AgentServer(restarted, host=host, port=port).start()

            # The next exchange rides the retry path onto the new
            # server; a correct client re-HELLOs and decodes the full
            # dump against the *new* tables.
            probe = TimeSeriesStore()
            blocks, cursor = handle.collect_blocks({})
            probe.apply_blocks(blocks)
            assert dump(probe) == dump(restarted.store)
            assert cursor == restarted.store.cursor()
            assert handle.hello() == CODEC_BIN1
        finally:
            handle.close()
            server.shutdown()


class TestZoneReportAggregates:
    """Kind-3 frames carry machine summaries only and no header flag."""

    @staticmethod
    def sample_report():
        from repro.core.diagnosis.report import MachineSummary, ZoneReport

        summaries = {
            "m1": MachineSummary(
                machine="m1", health="healthy",
                loss_pkts=120.0, pkt_loss_rate=0.012,
            ),
            "m2": MachineSummary(
                machine="m2", health="healthy",
                loss_pkts=0.0, pkt_loss_rate=0.0,
            ),
        }
        return ZoneReport(
            zone="z0", seq=5, window_s=0.5, machines=summaries
        ).to_wire()

    def test_reencode_is_byte_identical(self):
        wire = self.sample_report()
        raw = wire_codec.encode_zone_report(WireSchema(), wire)
        decoded, _ = wire_codec.decode_zone_report(WireSchema(), raw)
        again = wire_codec.encode_zone_report(WireSchema(), decoded)
        assert again == raw

    def test_any_flag_bit_refused(self):
        raw = wire_codec.encode_zone_report(WireSchema(), self.sample_report())
        assert raw[3] == 0
        for bit in range(8):
            mutated = bytearray(raw)
            mutated[3] = 1 << bit
            with pytest.raises(
                ProtocolError, match=f"unknown header flag bits 0x{1 << bit:02x}"
            ) as err:
                wire_codec.decode_zone_report(WireSchema(), bytes(mutated))
            assert err.value.offset == 3
            assert err.value.op == OP_ZONE_REPORT
