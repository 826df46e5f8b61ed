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
  giant speculative allocation, no silent garbage — and a rejected
  frame leaves the connection's :class:`WireSchema` as it was.
* **Lockstep** — random exchange sequences over one connection's
  schema pair (acks and cursors that regress, skip and drop keys,
  attr lists that widen and permute, fresh connections, re-HELLOs)
  must decode to exactly what was encoded, with the implied state
  (attr lists, acks, cursor) equal on both ends.
* **Handshake** — ``bin1`` is the only data codec: a peer that refuses
  HELLO or answers another codec gets a typed error at once (and a
  health failure through a mirror sync), and a data op sent as JSON is
  refused without costing the connection.  A packed op the server
  refuses costs the client exactly that connection.

The acceptance scenario at the bottom drives the full TCP stack — a
mirror over the wire beside an in-process one, against one faulty
polling agent with a server restart mid-sequence — and requires both to
equal the agent's own store, byte for byte.
"""

from __future__ import annotations

import json
import random
import socket
import threading
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.agent import Agent
from repro.core.channels import ChannelFaultPlan
from repro.core.controller import AgentMirror, FleetController
from repro.core.counters import STANDARD_ATTRS, CounterSnapshot
from repro.core.net import codec as wire_codec
from repro.core.net.client import RemoteAgentHandle, RetryPolicy, ZoneClient
from repro.core.net.codec import CODEC_BIN1, WireSchema
from repro.core.net.protocol import (
    OP_BATCH_DELTA,
    OP_HELLO,
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
    return [
        ("elem0", "m1", ("rx_pkts", "tx_pkts"), [(1, 0.1, [1.0, 2.0]),
                                                 (2, 0.2, [3.0, 4.0])]),
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
    one explicit cursor entry.  Returns (raw, decoder factory); each
    decoder has replayed the connection's first exchange."""
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
    blocks = [
        ("elem0", "m1", ("rx_pkts", "tx_pkts"), [(3, 0.4, [5.0, 6.0])]),
        ("elem1", "m2", ("drops", "late.attr"), [(6, 0.5, [1.0, 1.0])]),
    ]
    raw = wire_codec.encode_batch_response(
        server, "m1", blocks, {"elem0": 3, "elem1": 9}
    )

    def primed_schema():
        schema = paired_schemas(elements)[1]
        wire_codec.encode_batch_request(schema, first_acked)
        wire_codec.decode_batch_response(schema, first)
        wire_codec.encode_batch_request(schema, acked)
        return schema

    return raw, primed_schema


def schema_state(schema: WireSchema):
    """Everything a connection's schema holds, as comparable values."""
    tables = [
        (list(t.names), dict(t.ids))
        for t in (schema.elements, schema.attrs, schema.machines, schema.labels)
    ]
    return tables, dict(schema.attr_lists), dict(schema.acked), dict(schema.cursor)


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
        # one dictionary entry (machine "m2"), two 9-byte block heads
        # + one block machine id, rows, one drop and one explicit
        # cursor entry: no attr list rides again
        assert raw[4:8] == (1).to_bytes(4, "little")
        dictionary = 4 + 7 + len("m2")
        blocks = (9 + 32) + (9 + 4 + 32)
        assert len(raw) == 4 + dictionary + 4 + 4 + blocks + (4 + 4) + (4 + 12)

    def test_every_truncation_rejected_and_schema_untouched(self):
        for raw, make_schema in (steady_response_frame(), valid_response_frame()):
            for cut in range(len(raw)):
                schema = make_schema()
                before = schema_state(schema)
                with pytest.raises(ProtocolError) as err:
                    wire_codec.decode_batch_response(schema, raw[:cut])
                assert err.value.op == OP_BATCH_DELTA
                assert err.value.offset is not None and 0 <= err.value.offset <= cut
                assert schema_state(schema) == before

    def test_bit_flips_raise_with_offset_and_leave_schema_untouched(self):
        rng = random.Random(2028)
        for raw, make_schema in (steady_response_frame(), valid_response_frame()):
            for _ in range(300):
                mutated = bytearray(raw)
                mutated[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
                schema = make_schema()
                before = schema_state(schema)
                try:
                    wire_codec.decode_batch_response(schema, bytes(mutated))
                except ProtocolError as exc:
                    assert exc.offset is not None
                    assert schema_state(schema) == before

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
        # header, dictionary ("m2"), machine id, block count
        at = 4 + (4 + 7 + 2) + 4 + 4
        mutated = bytearray(raw)
        mutated[at] |= flag
        with pytest.raises(ProtocolError, match="unknown block flag") as err:
            wire_codec.decode_batch_response(primed_schema(), bytes(mutated))
        assert err.value.offset == at

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
        before = schema_state(fresh)
        with pytest.raises(ProtocolError, match="omits its attr list"):
            wire_codec.decode_batch_response(fresh, raw)
        assert schema_state(fresh) == before

    @pytest.mark.parametrize("which", ["request", "response", "zone_report"])
    def test_version_one_frame_typed_error(self, which):
        raw, decode = self._frame(which)
        assert raw[1] == wire_codec.BIN_VERSION == 2
        with pytest.raises(ProtocolError, match="version 1") as err:
            decode(frame_with_version(raw, 1))
        assert err.value.offset == 1

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


def flaky_server(server_cls):
    """``server_cls`` whose handler's ``_serve`` raises exactly once."""
    left = [1]

    class Handler(server_cls.handler_class):
        def _serve(self, peer, decoded):
            if left[0]:
                left[0] -= 1
                raise RuntimeError("injected serve failure")
            return super()._serve(peer, decoded)

    return type(f"Flaky{server_cls.__name__}", (server_cls,), {"handler_class": Handler})


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


#: What a peer that has never heard of HELLO says to it, and what one
#: that speaks some other data codec says.
REFUSES_HELLO = {"ok": False, "error": "unknown op: 'hello'"}
ANSWERS_JSON = {"ok": True, "agent": "old", "codec": "json", "schema": {}}


@contextmanager
def old_peer(hello_reply):
    """A peer this build has no data codec in common with.

    Answers HELLO with ``hello_reply`` and refuses everything else;
    yields its address and the ops it was asked, in order.
    """
    lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    lsock.bind(("127.0.0.1", 0))
    lsock.listen(4)
    stop = threading.Event()
    asked = []

    def serve(conn):
        while not stop.is_set():
            op = recv_message(conn).get("op")
            asked.append(op)
            if op == OP_HELLO:
                send_message(conn, hello_reply)
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


unusable_peers = pytest.mark.parametrize(
    "hello_reply", [REFUSES_HELLO, ANSWERS_JSON], ids=["refuses_hello", "answers_json"]
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
        with old_peer(hello_reply) as (addr, asked):
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
        with old_peer(hello_reply) as (addr, asked):
            with RemoteAgentHandle(*addr, retry=FAST_RETRY) as handle:
                mirror = AgentMirror("m1", handle)
                assert mirror.sync() == 0
        assert asked == [OP_HELLO]
        assert (mirror.syncs, mirror.failed_syncs) == (0, 1)
        assert mirror.health.total_failures == 1
        assert isinstance(mirror.last_error, ProtocolError)
        assert mirror.last_error.op == OP_HELLO
        assert len(mirror.store) == 0

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
    """The flagged sketch-aggregates section of bin1 zone reports."""

    @staticmethod
    def sample_report(with_aggregates=True):
        from repro.core.diagnosis.report import (
            MachineSummary,
            ZoneAggregates,
            ZoneReport,
        )

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
            zone="z0", seq=5, window_s=0.5, machines=summaries,
            aggregates=(
                ZoneAggregates.from_summaries(summaries)
                if with_aggregates else None
            ),
        ).to_wire()

    def test_roundtrip_preserves_sketches(self):
        from repro.core.diagnosis.report import ZoneReport

        wire = self.sample_report()
        schema_tx, schema_rx = WireSchema(), WireSchema()
        raw = wire_codec.encode_zone_report(schema_tx, wire)
        decoded, trace = wire_codec.decode_zone_report(schema_rx, raw)
        assert trace is None
        back = ZoneReport.from_wire(decoded)
        orig = ZoneReport.from_wire(wire)
        assert back.aggregates is not None
        assert back.aggregates.top_droppers == orig.aggregates.top_droppers
        assert back.aggregates.loss_rate == orig.aggregates.loss_rate

    def test_reencode_is_byte_identical(self):
        wire = self.sample_report()
        raw = wire_codec.encode_zone_report(WireSchema(), wire)
        decoded, _ = wire_codec.decode_zone_report(WireSchema(), raw)
        again = wire_codec.encode_zone_report(WireSchema(), decoded)
        assert again == raw

    def test_aggregate_less_frame_has_no_flag(self):
        wire = self.sample_report(with_aggregates=False)
        raw = wire_codec.encode_zone_report(WireSchema(), wire)
        assert raw[3] == 0  # flags byte
        decoded, _ = wire_codec.decode_zone_report(WireSchema(), raw)
        assert "aggregates" not in decoded

    def test_aggregates_frame_truncations_rejected(self):
        raw = wire_codec.encode_zone_report(WireSchema(), self.sample_report())
        plain = wire_codec.encode_zone_report(
            WireSchema(), self.sample_report(with_aggregates=False)
        )
        for cut in range(len(plain), len(raw)):
            with pytest.raises(ProtocolError):
                wire_codec.decode_zone_report(WireSchema(), raw[:cut])
