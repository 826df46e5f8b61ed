"""Equivalence tests for the change-proportional collection path.

Each fast path (state-stamp short-circuit, early seq-dedup, suffix-walk
drain, hoisted latency constant, the agent's sweep plan, the store's
read-side memos) is checked against a reference written
out here the slow way — rebuild and compare everything, scan every row —
over random interleavings, so the shortcut can only ever agree with the
exact pass it screens for.
"""

import gc
import math
import random
from array import array

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.agent import Agent
from repro.core.channels import (
    CHANNEL_SPECS,
    Channel,
    ChannelError,
    ChannelFault,
    ChannelFaultPlan,
    ChannelTimeout,
)
from repro.core.counters import CounterSnapshot, CounterWindow
from repro.core.extensions import PacketSizeHistogram
from repro.core.store import StoreError, TimeSeriesStore, _ElementSeries
from repro.core.tiers import TierConfig, TieredWindowStore
from repro.dataplane.machine import PhysicalMachine
from repro.dataplane.queue_element import QueueElement
from repro.dataplane.vswitch import VirtualSwitch
from repro.middleboxes.http import HttpServer
from repro.simnet.element import Element
from repro.simnet.engine import Simulator
from repro.simnet.packet import Flow, PacketBatch
from repro.transport.registry import TransportRegistry
from repro.workloads.faults import inject_channel_faults
from repro.workloads.traffic import ExternalTrafficSource

prop = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def batch(pkts, size=100.0, flow_id="f"):
    return PacketBatch(Flow(flow_id, packet_bytes=size), pkts, pkts * size)


# -- (a) snapshot_versioned vs a full compare on every read ---------------------------


class FullCompare:
    """The exact pass: rebuild, float-normalise and compare on every read."""

    def __init__(self):
        self.seq = 0
        self.attrs = None

    def read(self, element, timestamp):
        attrs = {k: float(v) for k, v in element.snapshot().items()}
        if attrs != self.attrs:
            self.seq += 1
            self.attrs = attrs
        return self.seq, self.attrs, timestamp


class Gauged(Element):
    """A subclass whose snapshot() reads a gauge no stamp knows about."""

    level = 0

    def snapshot(self):
        snap = super().snapshot()
        snap["level"] = self.level
        return snap


def _bare(sim):
    return Element(sim, "e"), {}


def _buffered(sim):
    el = Element(sim, "e", rate_bps=1e6)
    buf = el.make_input("e.in", capacity_pkts=50)

    def rate(n):
        el.rate_bps = None if n == 0 else 1e6 * n

    return el, {
        "push": lambda n: buf.push(batch(n)),
        "commit": lambda n: buf.commit(),
        "pop": lambda n: buf.pop_pkts(n),
        "rate": rate,
        "big_int_rate": lambda n: setattr(el, "rate_bps", 2**53 + n),
    }


def _queue(drain):
    def make(sim):
        q = QueueElement(sim, "q", capacity_pkts=8, drain=drain)
        return q, {
            "push": lambda n: q.push(batch(n)),
            "pop": lambda n: q.queue.pop_pkts(n),
            "step": lambda n: sim.step(),
        }

    return make


def _vswitch(sim):
    vs = VirtualSwitch(sim, "vs")
    vs.add_port("p", lambda b: None)
    rule = vs.add_rule("r1", "p")

    def hit(n):
        rule.pkts += n
        rule.nbytes += 100 * n

    return vs, {"rule_hit": hit, "add_rule": lambda n: _add_rule(vs, n)}


def _add_rule(vs, n):
    if f"x{n}" not in vs._rule_ids:
        vs.add_rule(f"x{n}", "p")


def _app(sim):
    TransportRegistry(sim)
    vm = PhysicalMachine(sim, "m1").add_vm("v1", vcpu_cores=1.0)
    app = HttpServer(sim, vm, "app")

    def sock(n):
        app.socket.buffer.push(batch(n))
        app.socket.buffer.commit()

    def vnic(n):
        vm.vnic_bps = None if n == 0 else 1e8 * n

    return app, {"sock": sock, "vnic": vnic}


def _custom(sim):
    el = Element(sim, "e")
    hist = PacketSizeHistogram()
    el.add_custom_counter(hist)
    return el, {"observe": lambda n: hist.observe(batch(n, size=64.0 * (n + 1)))}


def _subclass(sim):
    el = Gauged(sim, "e")
    return el, {"level": lambda n: setattr(el, "level", n)}


def _instance_override(sim):
    el = Element(sim, "e")
    state = {"x": 0}
    el.snapshot = lambda: {"x": state["x"], **Element.snapshot(el)}
    return el, {"x": lambda n: state.update(x=n)}


SUBJECTS = {
    "element": _bare,
    "element_buffered": _buffered,
    "queue_passive": _queue(False),
    "queue_drain": _queue(True),
    "vswitch_rules": _vswitch,
    "app_socket": _app,
    "custom_counter": _custom,
    "snapshot_subclass": _subclass,
    "snapshot_instance_override": _instance_override,
}

COUNTER_OPS = {
    "rx": lambda c, n: c.count_rx(n, 100.0 * n),
    "tx": lambda c, n: c.count_tx(n, 100.0 * n),
    "drop": lambda c, n: c.count_drop(f"loc{n % 2}", n, 100.0 * n, flow_id="f"),
    "in_time": lambda c, n: c.count_in_time(1e-3 * n, n),
    "out_time": lambda c, n: c.count_out_time(1e-3 * n, n),
    "reset": lambda c, n: c.reset(),
}

#: (op name or index into the subject's own ops, small argument incl. 0).
steps = st.lists(
    st.tuples(
        st.one_of(
            st.sampled_from(sorted(COUNTER_OPS) + ["read", "reread"]),
            st.integers(min_value=0, max_value=7),
        ),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=40,
)


@pytest.mark.parametrize("subject", sorted(SUBJECTS))
@prop
@given(steps=steps)
def test_snapshot_versioned_equals_full_compare(subject, steps):
    sim = Simulator(tick=1e-3)
    element, own_ops = SUBJECTS[subject](sim)
    own = sorted(own_ops)
    reference = FullCompare()
    now = 0.0
    for op, n in steps + [("read", 0), ("reread", 0)]:
        if isinstance(op, int):
            if own:
                own_ops[own[op % len(own)]](n)
            continue
        if op in COUNTER_OPS:
            COUNTER_OPS[op](element.counters, n)
            continue
        if op == "read":
            now += 0.1
        snap = element.snapshot_versioned(now)
        assert (snap.seq, dict(snap.attrs), snap.timestamp) == reference.read(
            element, now
        )
        assert (snap.element_id, snap.machine) == (element.name, element.machine)
        assert all(type(v) is float for v in snap.attrs.values())


def test_unchanged_element_reuses_cached_attrs():
    """The short-circuit builds nothing: same attrs object, same seq."""
    el = Element(Simulator(), "e")
    el.counters.count_rx(1, 100)
    first = el.snapshot_versioned(0.1)
    again = el.snapshot_versioned(0.2)
    assert again.attrs is first.attrs
    assert (again.seq, again.timestamp) == (first.seq, 0.2)
    el.counters.count_rx(0, 0)  # version moves, observable state does not
    assert el.snapshot_versioned(0.3).seq == first.seq


# -- (b) suffix-walk drain vs a scan of every retained row ----------------------------


def scan_changed_blocks(store, acked):
    """changed_blocks the slow way: test every retained row against the floor."""
    out = []
    for eid in sorted(store._series):
        series = store._series[eid]
        if not series.count:
            continue
        floor = acked.get(eid, -1)
        if series.seq_at(series.count - 1) < floor:
            floor = -1  # collector acked a previous incarnation: resend all
        rows = [
            (series.seq_at(i), series.stamp_at(i), list(series.row_values(i)))
            for i in range(series.count)
            if series.seq_at(i) > floor
        ]
        if rows:
            out.append((eid, series.machine, series.attr_names, rows))
    return out


def plain(blocks):
    return [
        (eid, machine, names, [(s, t, list(v)) for s, t, v in rows])
        for eid, machine, names, rows in blocks
    ]


def same_cells(a, b):
    """Row equality with ABSENT (NaN) cells matching each other."""
    return repr(a) == repr(b)


STORES = {
    "flat": lambda cap: TimeSeriesStore(capacity_per_element=cap),
    "tiered": lambda cap: TieredWindowStore(
        config=TierConfig(fine_slots=cap, fanout=2, coarse_slots=2, coarse_tiers=2)
    ),
}

#: (element, seq step: 0 re-observes, negative regresses, counter growth,
#: whether a new drop location appears).
ingests = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from([0, 1, 1, 1, 2, 5, -3]),
        st.sampled_from([0.0, 1.0, 7.0, -100.0]),
        st.booleans(),
    ),
    max_size=60,
)
ack_vectors = st.lists(
    st.dictionaries(
        st.sampled_from(["a", "b", "c", "ghost"]),
        st.integers(min_value=-1, max_value=40),
    ),
    min_size=1,
    max_size=4,
)


def ingest(store, feed, via_row=False):
    """Drive ``feed`` into ``store``; returns the per-element latest seqs."""
    seqs, values = {}, {}
    for t, (eid, step, growth, widen) in enumerate(feed):
        seq = max(0, seqs.get(eid, 0) + step)
        seqs[eid] = seq
        values[eid] = max(0.0, values.get(eid, 0.0) + growth)
        attrs = {"rx_pkts": values[eid], "tx_pkts": 1.0}
        if widen:
            attrs[f"drops.loc{t % 3}"] = float(t)
        snap = CounterSnapshot(eid, "m1", seq, 0.1 * t, attrs)
        if via_row:
            names = tuple(snap.attrs)
            store.append_row(
                eid, "m1", seq, snap.timestamp, names, [attrs[n] for n in names]
            )
        else:
            store.append(snap)
    return seqs


@pytest.mark.parametrize("kind", sorted(STORES))
@prop
@given(cap=st.integers(min_value=2, max_value=5), feed=ingests, acks=ack_vectors)
def test_suffix_walk_equals_full_scan(kind, cap, feed, acks):
    store = STORES[kind](cap)
    latest = ingest(store, feed)
    # exact-latest and above-latest (restart) floors, besides the random ones
    acks = acks + [dict(latest), {eid: seq + 1 for eid, seq in latest.items()}, {}]
    for acked in acks:
        expected = scan_changed_blocks(store, acked)
        assert same_cells(plain(store.changed_blocks(acked)), expected)
        blocks, cursor = store.drain_blocks(acked)
        assert same_cells(plain(blocks), expected)
        assert cursor == store.cursor()
        assert [
            (s.element_id, s.seq, s.timestamp, dict(s.attrs))
            for s in store.changed_since(acked)
        ] == [
            (eid, seq, t, {n: v for n, v in zip(names, row) if not math.isnan(v)})
            for eid, _, names, rows in expected
            for seq, t, row in rows
        ]


def test_suffix_walk_after_wrap_and_rebaseline():
    """The named cases, spelled out: wrapped ring, then a producer restart."""
    store = TimeSeriesStore(capacity_per_element=3)
    for seq in range(1, 8):  # wraps twice: rows 5, 6, 7 survive
        store.append(CounterSnapshot("a", "m1", seq, float(seq), {"rx_pkts": seq}))
    assert [r[0] for r in store.changed_blocks({"a": 5})[0][3]] == [6, 7]
    assert store.changed_blocks({"a": 7}) == []
    assert [r[0] for r in store.changed_blocks({"a": 9})[0][3]] == [5, 6, 7]
    store.append(CounterSnapshot("a", "m1", 1, 8.0, {"rx_pkts": 0.0}))  # restart
    assert store.resets == {"a": 1}
    assert [r[0] for r in store.changed_blocks({"a": 7})[0][3]] == [1]


# -- (c) early-dedup append vs append_row ---------------------------------------------


@pytest.mark.parametrize("kind", sorted(STORES))
@prop
@given(cap=st.integers(min_value=2, max_value=5), feed=ingests)
def test_append_equals_append_row(kind, cap, feed):
    by_snapshot, by_row = STORES[kind](cap), STORES[kind](cap)
    ingest(by_snapshot, feed)
    ingest(by_row, feed, via_row=True)
    for counter in ("total_appended", "total_deduped", "total_resets", "resets"):
        assert getattr(by_snapshot, counter) == getattr(by_row, counter)
    assert by_snapshot.total_appended + by_snapshot.total_deduped == len(feed)
    assert same_cells(
        plain(by_snapshot.changed_blocks({})), plain(by_row.changed_blocks({}))
    )
    assert by_snapshot.nbytes() == by_row.nbytes()


# -- (c') the three ingest entrances share one per-row rule ---------------------------

#: One row as every entrance sees it: (element, seq, sentinel value —
#: shrinking ones read as counter resets —, which attrs are present, of
#: which some may be ABSENT cells).  Small ranges on purpose: repeats,
#: regressions and late attrs must collide often.
rows = st.lists(
    st.tuples(
        st.sampled_from(["a", "b"]),
        st.integers(min_value=0, max_value=6),
        st.sampled_from([0.0, 1.0, 5.0, 50.0]),
        st.lists(
            st.sampled_from(["tx_pkts", "drops", "drops.late", "queue_pkts"]),
            unique=True, max_size=3,
        ),
        st.sets(st.integers(min_value=0, max_value=3), max_size=2),
    ),
    max_size=50,
)


def _row(t, eid, seq, rx, extra, absent):
    names = ("rx_pkts", *extra)
    values = [rx] + [float(t + i) for i in range(len(extra))]
    for i in absent:
        if i < len(values):
            values[i] = math.nan
    return eid, seq, 0.1 * t, names, values


@pytest.mark.parametrize("kind", sorted(STORES))
@prop
@given(cap=st.integers(min_value=2, max_value=5), feed=rows, data=st.data())
def test_append_append_row_apply_blocks_agree(kind, cap, feed, data):
    feed = [_row(t, *row) for t, row in enumerate(feed)]
    by_snapshot, by_row, by_block = (STORES[kind](cap) for _ in range(3))
    for eid, seq, ts, names, values in feed:
        by_snapshot.append(
            CounterSnapshot(eid, "m1", seq, ts, dict(zip(names, values)))
        )
        by_row.append_row(eid, "m1", seq, ts, names, values)
    # the same rows as a mirror receives them: arbitrary batches of
    # blocks, each a run of one element's rows under one schema
    at = 0
    while at < len(feed):
        batch = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            if at == len(feed):
                break
            eid, _, _, names, _ = feed[at]
            end = at + 1
            while (
                end < len(feed)
                and (feed[end][0], feed[end][3]) == (eid, names)
                and data.draw(st.booleans())
            ):
                end += 1
            run = [(seq, ts, values) for _, seq, ts, _, values in feed[at:end]]
            batch.append((eid, "m1", names, run))
            at = end
        assert by_block.apply_blocks(batch) == sum(len(b[3]) for b in batch)
    for other in (by_row, by_block):
        for counter in ("total_appended", "total_deduped", "total_resets", "resets"):
            assert getattr(by_snapshot, counter) == getattr(other, counter)
        assert same_cells(
            plain(by_snapshot.changed_blocks({})), plain(other.changed_blocks({}))
        )
        assert by_snapshot.nbytes() == other.nbytes()
    assert by_snapshot.total_appended + by_snapshot.total_deduped == len(feed)


# -- (c'') the unguarded reset check vs the guarded loop ------------------------------


class _LoopSeries(_ElementSeries):
    """The reference reset check: it walks the names itself and guards
    ABSENT cells on both sides explicitly."""

    __slots__ = ()

    def is_reset_against_latest(self, seq, names, row_values):
        last_slot = (self.start + self.count - 1) % self.capacity
        if seq < self.seqs[last_slot]:
            return True
        sentinel = dict(self._sentinel_cols)
        base = last_slot * len(self.attr_names)
        for i, name in enumerate(names):
            if name not in sentinel:
                continue
            new = row_values[i]
            if new != new:
                continue
            old = self.values[base + sentinel[name]]
            if old == old and new < old - 1e-9:
                return True
        return False


class _LoopStore(TimeSeriesStore):
    def _make_series(self, element_id, machine):
        return _LoopSeries(element_id, machine, self.capacity_per_element)


class _LoopTieredStore(TieredWindowStore):
    def _make_series(self, element_id, machine):
        series = _LoopSeries(element_id, machine, self.capacity_per_element)
        series.on_evict = self._absorb_evicted
        series.on_clear = self._drop_coarse
        return series


LOOP_STORES = {
    "flat": lambda cap: _LoopStore(capacity_per_element=cap),
    "tiered": lambda cap: _LoopTieredStore(
        config=TierConfig(fine_slots=cap, fanout=2, coarse_slots=2, coarse_tiers=2)
    ),
}

_ATTRS = ("rx_pkts", "tx_pkts", "drops", "queue_pkts", "drops.late")
#: In order, permuted, subset and widening schemas; the first one is the
#: likeliest first row, so later rows often match the stored schema.
_SCHEMAS = (
    ("rx_pkts", "tx_pkts", "drops"),
    ("tx_pkts", "drops", "rx_pkts"),
    ("rx_pkts", "drops"),
    ("rx_pkts", "tx_pkts", "drops", "queue_pkts"),
    ("queue_pkts", "rx_pkts", "tx_pkts", "drops"),
)


def _as_array(values):
    return array("d", values)


#: (element, seq — repeats dedup, regressions restart —, schema, counter
#: level — a lower one reads as a counter reset —, ABSENT cells, the
#: container the producer hands in).
schema_rows = st.lists(
    st.tuples(
        st.sampled_from(["a", "b"]),
        st.integers(min_value=0, max_value=8),
        st.one_of(
            st.sampled_from(_SCHEMAS),
            st.lists(st.sampled_from(_ATTRS), unique=True, max_size=5).map(tuple),
        ),
        st.sampled_from([0.0, 1.0, 5.0, 50.0]),
        st.sets(st.integers(min_value=0, max_value=4), max_size=2),
        st.sampled_from([list, tuple, _as_array]),
    ),
    max_size=60,
)


def _schema_row(t, eid, seq, names, level, absent, container):
    # Distinct per column, so a value written to the wrong column shows.
    values = [level * (k + 1) + 0.25 * k for k in range(len(names))]
    for k in absent:
        if k < len(values):
            values[k] = math.nan
    return eid, seq, 0.1 * t, names, container(values)


def _rings(store):
    return {
        eid: (
            s.attr_names, s.start, s.count,
            s.seqs.tobytes(), s.stamps.tobytes(), s.values.tobytes(),
        )
        for eid, s in store._series.items()
    }


@pytest.mark.parametrize("kind", sorted(STORES))
@prop
@given(
    cap=st.integers(min_value=2, max_value=5), feed=schema_rows, blocks=st.booleans()
)
def test_unguarded_reset_check_equals_the_guarded_loop(kind, cap, feed, blocks):
    rows = [_schema_row(t, *row) for t, row in enumerate(feed)]
    fast, loop = STORES[kind](cap), LOOP_STORES[kind](cap)
    for store in (fast, loop):
        if not blocks:
            for eid, seq, ts, names, values in rows:
                store.append_row(eid, "m1", seq, ts, names, values)
            continue
        # one block per run of one element's rows under one schema
        at = 0
        while at < len(rows):
            eid, _, _, names, _ = rows[at]
            end = at + 1
            while end < len(rows) and (rows[end][0], rows[end][3]) == (eid, names):
                end += 1
            run = [(seq, ts, values) for _, seq, ts, _, values in rows[at:end]]
            store.apply_blocks([(eid, "m1", names, run)])
            at = end
    assert _rings(fast) == _rings(loop)
    for counter in ("total_appended", "total_deduped", "total_resets", "resets"):
        assert getattr(fast, counter) == getattr(loop, counter)
    assert fast.nbytes() == loop.nbytes()
    if kind == "tiered":
        for eid in loop.element_ids():
            assert fast.coarse_buckets(eid) == loop.coarse_buckets(eid)
    assert fast.newest_timestamp() == max(
        (loop.latest(eid).timestamp for eid in loop.element_ids()), default=None
    )


# -- (d) channel accounting draws the same RNG stream (Figure 9/16) -------------------


class _Probe:
    name, machine, kind = "probe", "m1", "netdev"

    def snapshot_versioned(self, timestamp):
        return CounterSnapshot(self.name, self.machine, 1, timestamp, {})


@pytest.mark.parametrize(
    "plan",
    [
        ChannelFaultPlan(),
        ChannelFaultPlan(error_rate=0.2, timeout_rate=0.2, stale_rate=0.2),
    ],
    ids=["healthy", "faulty"],
)
@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_channel_reads_match_reference_rng_stream(seed, plan):
    """Per read: fault draw, then the lognormal latency draw, in that order."""
    channel = Channel(_Probe(), random.Random(seed))
    channel.set_fault_plan(plan)
    spec = CHANNEL_SPECS["netdev"]
    rng = random.Random(seed)
    reads, latency, cpu = 0, 0.0, 0.0
    for i in range(500):
        try:
            channel.read_versioned(0.1 * i)
        except ChannelFault:
            pass
        fault_draw = rng.random() if plan.active else 1.0
        timed_out = plan.error_rate <= fault_draw < plan.error_rate + plan.timeout_rate
        reads += 1
        latency += (
            channel.timeout_s
            if timed_out
            else rng.lognormvariate(math.log(spec.median_latency_s), spec.sigma)
        )
        cpu += spec.cpu_cost_s
    assert (channel.reads, channel.total_latency_s, channel.total_cpu_s) == (
        reads, latency, cpu
    )
    assert channel.rng.getstate() == rng.getstate()
    if plan.active:
        assert channel.errors and channel.timeouts and channel.stale_reads


# -- (e) the sweep plan vs re-deriving the sweep order every time ---------------------


class FullRewalkAgent(Agent):
    """The exact pass: name map, sort and channel lookups on every sweep."""

    def poll_once(self):
        now = self.sim.now
        stored, worst_latency, cpu = 0, 0.0, 0.0
        elements = self.elements()
        for eid in sorted(elements):
            chan = self._channel(elements[eid])
            cpu += chan.spec.cpu_cost_s
            try:
                snap, latency = chan.read_versioned(now)
            except ChannelTimeout as exc:
                self.total_poll_timeouts += 1
                worst_latency = max(worst_latency, exc.latency_s)
                continue
            except ChannelError:
                self.total_poll_errors += 1
                continue
            if self.store.append(snap):
                stored += 1
            worst_latency = max(worst_latency, latency)
        self.total_cpu_s += cpu
        self.total_polls += 1
        return stored, worst_latency

    def element_ids(self):
        return sorted(self.elements())

    def channel(self, element_id):
        return self._channel(self.elements()[element_id])

    def poll_cpu_cost_s(self):
        return sum(self._channel(e).spec.cpu_cost_s for e in self.elements().values())


def _sweep_world(agent_cls, seed):
    sim = Simulator(tick=1e-3, seed=seed)
    TransportRegistry(sim)
    machine = PhysicalMachine(sim, "m1")
    agent = agent_cls(sim, machine)

    def tenant(vm_id):
        vm = machine.add_vm(vm_id, vcpu_cores=1.0, vnic_bps=100e6)
        app = HttpServer(sim, vm, f"app-{vm_id}", cpu_per_byte=1e-9)
        flow = Flow(f"rx-{vm_id}", dst_vm=vm_id, kind="udp")
        vm.bind_udp(flow, app.socket)
        ExternalTrafficSource(sim, f"src-{vm_id}", flow, machine.inject, rate_bps=150e6)
        return app

    first = tenant("vm0")
    sweeps = []

    def sweep(ticks=20):
        sim.run(ticks * sim.tick)
        sweeps.append(
            (agent.poll_once(), agent.element_ids(), agent.poll_cpu_cost_s())
        )

    sweep()
    sweep()                                # plan reused: nothing changed
    agent.register(first)                  # late register()
    sweep()
    late = tenant("vm-late")               # a VM added after the first sweeps
    sweep()
    agent.register(late)
    undo_some = inject_channel_faults(     # fault plans installed ...
        agent, ["pnic@m1", "tun-vm0@m1", "app-vm0"],
        error_rate=0.3, timeout_rate=0.3, stale_rate=0.3,
    )
    for _ in range(6):
        sweep(5)
    undo_all = inject_channel_faults(agent, error_rate=0.5)
    for _ in range(3):
        sweep(5)
    undo_all()                             # ... and undone between sweeps
    undo_some()
    sweep()
    return {
        "sweeps": sweeps,
        "channels": agent.channel_stats(),
        "faults": (agent.total_poll_errors, agent.total_poll_timeouts),
        "totals": (agent.total_cpu_s, agent.total_polls),
        "rows": plain(agent.store.changed_blocks({})),
        "cursor": agent.store.cursor(),
        "rng": sim.rng.getstate(),
    }


@pytest.mark.parametrize("seed", [0, 11])
def test_sweep_plan_equals_full_rewalk(seed):
    planned = _sweep_world(Agent, seed)
    reference = _sweep_world(FullRewalkAgent, seed)
    for key in reference:
        if key == "rows":
            assert same_cells(planned[key], reference[key])
        else:
            assert planned[key] == reference[key], key
    errors, timeouts = reference["faults"]
    assert errors and timeouts
    assert any(stats["stale_reads"] for stats in reference["channels"].values())
    ids = reference["sweeps"][-1][1]
    assert {"app-vm0", "app-vm-late", "tun-vm-late@m1"} <= set(ids)
    assert "app-vm0" not in reference["sweeps"][1][1]   # before its register()
    assert "tun-vm-late@m1" not in reference["sweeps"][2][1]


def test_sweep_plan_is_reused_until_the_walk_changes():
    sim = Simulator(tick=1e-3, seed=0)
    TransportRegistry(sim)
    machine = PhysicalMachine(sim, "m1")
    agent = Agent(sim, machine)
    agent.poll_once()
    plan = agent._sweep_plan()
    agent.poll_once()
    assert agent._sweep_plan() is plan
    vm = machine.add_vm("v1")
    assert agent._sweep_plan() is not plan
    plan = agent._sweep_plan()
    agent.register(HttpServer(sim, vm, "late-app"))
    assert "late-app" in agent._sweep_plan() and "late-app" not in plan
    machine.remove_vm("v1")
    assert "tun-v1@m1" not in agent._sweep_plan()


# -- (f) the read-side memos vs materializing every read afresh ----------------------


def held(root, kind, skip=None):
    """Distinct ``kind`` objects reachable from ``root``, whatever the
    fields holding them are called.

    Follows containers and ``repro`` objects only (never functions,
    types or modules), so a series' tiering hooks do not lead out into
    the rest of its store.  ``skip`` is one object not to follow.
    """
    seen, found, stack = {id(skip)}, set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, kind):
            found.add(id(obj))
        follow = isinstance(obj, (dict, list, tuple, set))
        if follow or type(obj).__module__.startswith("repro."):
            stack.extend(gc.get_referents(obj))
    return len(found)


def assert_memos_bounded(store):
    for series in store._series.values():
        rows = held(series, CounterSnapshot, skip=series._win_memo)
        assert rows <= 2, f"{series.element_id}: {rows} memoized row snapshots"
        assert held(series._win_memo, CounterWindow) <= 1


def fresh(store, snap):
    """``snap``'s row rebuilt from the store's columns, past every memo."""
    series = store._series[snap.element_id]
    for i in range(series.count):
        if series.seq_at(i) == snap.seq:
            return CounterSnapshot.from_columns(
                snap.element_id, series.machine, snap.seq, series.stamp_at(i),
                series.attr_names, series.row_values(i),
            )
    coarse = getattr(store, "coarse_buckets", lambda eid: [])
    for bucket in coarse(snap.element_id):
        if bucket.last_seq == snap.seq:
            return CounterSnapshot(
                snap.element_id, series.machine, bucket.last_seq, bucket.last_ts,
                bucket.lasts,
            )
    raise AssertionError(f"{snap} is not a row the store holds")


#: One step: an ingest (entrance, element, seq step — 0 re-observes, a
#: negative one restarts —, counter growth — a negative one resets —,
#: whether a new drop location widens the schema, rows) or a read (kind,
#: element, how far back it reaches in seconds).
memo_steps = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["append", "append_row", "apply_blocks"]),
            st.sampled_from(["a", "b"]),
            st.sampled_from([0, 1, 1, 1, 2, -3]),
            st.sampled_from([0.0, 1.0, 7.0, -100.0]),
            st.booleans(),
            st.integers(min_value=1, max_value=3),
        ),
        st.tuples(
            st.sampled_from(
                ["latest", "at_or_before", "window", "window_ending_now",
                 "changed_since"]
            ),
            st.sampled_from(["a", "b"]),
            st.sampled_from([0.05, 0.1, 0.25, 0.7, 3.0]),
        ),
    ),
    max_size=80,
)


@pytest.mark.parametrize("kind", sorted(STORES))
@prop
@given(cap=st.integers(min_value=2, max_value=6), steps=memo_steps)
def test_memoized_reads_equal_fresh_rows(kind, cap, steps):
    store = STORES[kind](cap)
    seqs, levels, t = {}, {}, 0
    for step in steps:
        op, eid = step[0], step[1]
        if len(step) == 6:
            _, _, seq_step, growth, widen, n = step
            rows = []
            for _ in range(n):
                seqs[eid] = seq = max(0, seqs.get(eid, 0) + seq_step)
                levels[eid] = max(0.0, levels.get(eid, 0.0) + growth)
                attrs = {"rx_pkts": levels[eid], "tx_pkts": 1.0}
                if widen:
                    attrs[f"drops.loc{t % 3}"] = float(t)
                rows.append((seq, 0.1 * t, attrs))
                t += 1
            if op == "apply_blocks":
                # one block per run of rows under one schema
                blocks = []
                for seq, ts, attrs in rows:
                    names = tuple(attrs)
                    if not blocks or blocks[-1][2] != names:
                        blocks.append((eid, "m1", names, []))
                    blocks[-1][3].append((seq, ts, list(attrs.values())))
                store.apply_blocks(blocks)
            elif op == "append":
                for seq, ts, attrs in rows:
                    store.append(CounterSnapshot(eid, "m1", seq, ts, attrs))
            else:
                for seq, ts, attrs in rows:
                    store.append_row(
                        eid, "m1", seq, ts, tuple(attrs), list(attrs.values())
                    )
        else:
            back, now = step[2], 0.1 * t
            try:
                if op == "latest":
                    got = [store.latest(eid)]
                elif op == "at_or_before":
                    got = [store.at_or_before(eid, now - back)]
                elif op == "window":
                    win = store.window(eid, now - back, now - back / 2)
                    got = [win.start, win.end]
                elif op == "window_ending_now":
                    win = store.window_ending_now(eid, back)
                    got = [win.start, win.end]
                else:
                    cursor = store.cursor()
                    got = store.changed_since(
                        {e: s - int(back * 3) for e, s in cursor.items()}
                    )
            except StoreError:
                got = []
            for snap in got:
                assert snap == fresh(store, snap)
        assert_memos_bounded(store)


def test_trailing_window_memo_keeps_one_width():
    """Asking at many widths pins one window, not one per width, and a
    re-baseline drops it."""
    store = TimeSeriesStore(capacity_per_element=64)
    for seq in range(50):
        store.append_row("e", "m1", seq, 0.1 * seq, ("rx_pkts",), [float(seq)])
    series, now = store._series["e"], 4.9
    rng = random.Random(3)
    for _ in range(1000):
        width = rng.uniform(0.01, 6.0)
        assert store.window_ending_now("e", width) == store.window("e", now - width, now)
        assert held(series._win_memo, CounterWindow) <= 1
        assert_memos_bounded(store)
    store.append_row("e", "m1", 0, 5.0, ("rx_pkts",), [0.0])  # producer restart
    assert store.resets == {"e": 1}
    assert held(series, CounterWindow) == 0
    assert held(series, CounterSnapshot) == 0


def test_memo_follows_a_re_homed_element():
    """A row memoized before its element moved reads as a fresh build."""
    store = TimeSeriesStore()
    store.append_row("e", "m1", 1, 1.0, ("rx_pkts",), [1.0])
    assert store.latest("e").machine == "m1"
    store.append_row("e", "m2", 2, 2.0, ("rx_pkts",), [2.0])
    first = store.at_or_before("e", 1.0)
    assert first == fresh(store, first) and first.machine == "m2"
