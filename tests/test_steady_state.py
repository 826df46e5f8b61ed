"""The steady-state monitoring path costs what changed, and answers the same.

Two shortcuts are held to the slow pass they replace, over random
histories:

* the coarse zone report reads each mirror's trailing receive deltas
  off the ring columns (``TimeSeriesStore.trailing_rx_deltas``); the
  reference reads one ``window_ending_now`` per element and adds up the
  window's ``delta``/``pkt_loss``, as the report did before;
* a push tick returns in O(1) while the store has taken no row since
  the tick that last found it clean; the reference forgets that key
  before every tick, so it drains every time.

Plus the push path's ack race: a sweep on another thread that lands
while a push collects its blocks must not be acknowledged unshipped,
and the ack cursor belongs to the target that acknowledged it.
"""

import struct
import threading

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.agent import Agent
from repro.core.controller import ZoneController
from repro.core.counters import ABSENT
from repro.core.diagnosis.report import (
    CONFIDENCE_DEGRADED,
    CONFIDENCE_FULL,
    MachineSummary,
)
from repro.core.health import HEALTHY
from repro.core.store import StoreError, TimeSeriesStore
from repro.core.tiers import TierConfig, TieredWindowStore
from repro.simnet.element import Element
from repro.simnet.engine import Simulator

prop = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# -- (a) the coarse report off the columns vs one window per element ------------------


def reference_summary(zone, machine, window_s, now):
    """A coarse-report machine summary built the slow way."""
    store = zone.mirror_for(machine).store
    rx_pkts = rx_bytes = lost = 0.0
    elements = 0
    last_ts = None
    for eid in store.element_ids():
        try:
            win = store.window_ending_now(eid, window_s)
        except StoreError:
            continue
        elements += 1
        rx_pkts += win.delta("rx_pkts")
        rx_bytes += win.delta("rx_bytes")
        lost += max(0.0, win.pkt_loss())
        ts = win.end.timestamp
        last_ts = ts if last_ts is None else max(last_ts, ts)
    dt = max(window_s, 1e-9)
    health = zone.mirror_for(machine).health.state
    age = 0.0
    if now is not None and last_ts is not None:
        age = max(0.0, now - last_ts)
    return MachineSummary(
        machine=machine,
        health=health,
        confidence=CONFIDENCE_FULL if health == HEALTHY else CONFIDENCE_DEGRADED,
        loss_pkts=lost,
        throughput_pps=rx_pkts / dt,
        pkt_loss_rate=(lost / rx_pkts) if rx_pkts > 0 else 0.0,
        avg_pkt_size=(rx_bytes / rx_pkts) if rx_pkts > 0 else 0.0,
        elements=elements,
        age_s=age,
    )


def float_bits(summary):
    return [
        struct.pack("<d", getattr(summary, name))
        for name in (
            "loss_pkts", "throughput_pps", "pkt_loss_rate", "avg_pkt_size", "age_s"
        )
    ]


#: rx/tx columns, plus one a re-export may add late (schema widening).
ATTRS = ("rx_pkts", "rx_bytes", "tx_pkts", "queue_pkts", "drops.late")

cell = st.one_of(
    st.floats(min_value=-5.0, max_value=5000.0, allow_nan=False),
    # decimals whose sums round: the subtraction order shows in the bits
    st.sampled_from([0.0, -0.0, ABSENT, 1e15, 0.1, 0.2, 0.7]),
)

row = st.tuples(
    st.sampled_from([0.001, 0.01, 0.1, 0.25, 1.0]),  # time step
    st.sampled_from([1, 1, 1, 2, 0, -3]),  # seq step: dedup and regressions
    st.lists(st.sampled_from(ATTRS), min_size=0, max_size=5, unique=True),
    st.lists(cell, min_size=5, max_size=5),
)

history = st.dictionaries(
    st.sampled_from(["eth0", "tun-vm0", "qemu-vm0", "app", "vswitch"]),
    st.lists(row, min_size=1, max_size=14),
    max_size=5,
)

stores = {
    "flat": lambda: TimeSeriesStore(capacity_per_element=4),
    "tiered": lambda: TieredWindowStore(
        config=TierConfig(fine_slots=3, coarse_slots=2, coarse_tiers=2)
    ),
}


def fill(store, rows_by_element, machine):
    t = 0.0
    for eid, rows in sorted(rows_by_element.items()):
        seq = 0
        for dt, seq_step, names, values in rows:
            t += dt
            seq = max(0, seq + seq_step)
            store.append_row(eid, machine, seq, t, tuple(names), values[: len(names)])
    return t


class TestCoarseReportColumns:
    @prop
    @given(
        kind=st.sampled_from(sorted(stores)),
        machines=st.lists(history, min_size=1, max_size=3),
        window_s=st.sampled_from([1e-13, 0.0005, 0.01, 0.3, 1.0, 7.5]),
        now_skew=st.one_of(st.none(), st.sampled_from([-1.0, 0.0, 0.5])),
        fail=st.booleans(),
    )
    def test_equals_one_window_per_element(
        self, kind, machines, window_s, now_skew, fail
    ):
        zone = ZoneController("z", store_factory=stores[kind])
        newest = 0.0
        for i, rows in enumerate(machines):
            name = f"m{i}"
            zone.register_agent(name, None)
            newest = max(newest, fill(zone.mirror_for(name).store, rows, name))
        if fail:
            zone.mirror_for("m0").health.record_failure()
        now = None if now_skew is None else newest + now_skew
        report = zone.build_coarse_report(window_s, now=now)
        for name in zone.machines():
            expected = reference_summary(zone, name, window_s, now)
            got = report.machines[name]
            assert got == expected
            assert float_bits(got) == float_bits(expected)

    def test_cells_the_schema_lacks_read_zero(self):
        store = TimeSeriesStore()
        store.append_row("a", "m", 1, 0.0, ("queue_pkts",), [3.0])
        store.append_row("a", "m", 2, 1.0, ("queue_pkts", "rx_pkts"), [4.0, 9.0])
        store.append_row("b", "m", 1, 0.5, ("rx_pkts", "tx_pkts"), [ABSENT, 2.0])
        deltas, last_ts = store.trailing_rx_deltas(1.0)
        assert deltas == [(9.0, 0.0, 9.0), (0.0, 0.0, 0.0)]
        assert last_ts == 1.0
        assert TimeSeriesStore().trailing_rx_deltas(1.0) == ([], None)

    def test_loss_growth_keeps_the_window_subtraction_order(self):
        # (0.7 - 0.2) - (0.1 - 0.1) and (0.7 - 0.1) - (0.2 - 0.1) differ
        # in the last bit; GetPktLoss differences the gaps.
        store = TimeSeriesStore()
        names = ("rx_pkts", "tx_pkts")
        store.append_row("a", "m", 1, 0.0, names, [0.1, 0.1])
        store.append_row("a", "m", 2, 1.0, names, [0.7, 0.2])
        (growth,) = [g for _, _, g in store.trailing_rx_deltas(1.0)[0]]
        assert growth == store.window_ending_now("a", 1.0).pkt_loss()
        assert growth != (0.7 - 0.1) - (0.2 - 0.1)


# -- (b) the O(1) empty push tick vs a tick that always drains -------------------------


class Box:
    """A machine stand-in: the agent sweeps whatever elements it holds."""

    def __init__(self, name):
        self.name = name
        self.elements = []

    def all_elements(self):
        return list(self.elements)


class Target:
    """An in-process push target with a flat mirror that can go down."""

    def __init__(self):
        self.store = TimeSeriesStore()
        self.alive = True

    def ingest_push(self, machine, blocks, cursor=None, trace=None):
        if not self.alive:
            raise ConnectionError("push target is down")
        return self.store.apply_blocks(blocks)

    def rows(self):
        return [
            (s.element_id, s.seq, s.timestamp, dict(s.attrs))
            for s in self.store.changed_since({})
        ]


class DrainingAgent(Agent):
    """The reference: forgets the clean key, so every tick drains."""

    def push_once(self):
        self._push_clean = None
        return super().push_once()


class CountingStore(TimeSeriesStore):
    drains = 0

    def drain_blocks(self, acked):
        self.drains += 1
        return super().drain_blocks(acked)


def push_world(agent_cls, seed):
    sim = Simulator(seed=seed)
    box = Box("m1")
    box.elements.extend(Element(sim, f"e{i}", machine="m1") for i in range(3))
    agent = agent_cls(sim, box)
    first, second = Target(), Target()
    agent.start_pushing(
        first, period_s=0.05, resolver=lambda machine: second, rehome_after=2
    )
    return sim, box, agent, (first, second)


op = st.one_of(
    st.tuples(st.just("bump"), st.integers(0, 2), st.sampled_from([0.0, 1.0, 7.0])),
    st.tuples(st.just("run"), st.sampled_from([0.001, 0.02, 0.05, 0.2])),
    st.tuples(st.just("push")),
    st.tuples(st.just("alive"), st.integers(0, 1), st.booleans()),
    st.tuples(st.just("swap")),
    st.tuples(st.just("poll"), st.booleans()),
)


def apply(world, step):
    sim, box, agent, targets = world
    kind = step[0]
    if kind == "bump":
        box.elements[step[1]].counters.count_rx(step[2], step[2] * 100.0)
    elif kind == "run":
        sim.run(step[1])
    elif kind == "push":
        agent.push_once()
    elif kind == "alive":
        targets[step[1]].alive = step[2]
    elif kind == "swap":
        agent.store = TimeSeriesStore()
    elif step[1] and not agent.polling:
        agent.start_polling(0.03)
    elif not step[1]:
        agent.stop_polling()


def push_state(world):
    _, _, agent, targets = world
    return (
        agent.total_pushes,
        agent.total_push_skips,
        agent.total_push_errors,
        agent.total_push_backoff_skips,
        agent.total_pushed_rows,
        agent.total_rehomes,
        agent._push_acked,
        agent.total_polls,
        [target.rows() for target in targets],
    )


class TestEmptyPushTick:
    @prop
    @given(seed=st.integers(0, 2**16), steps=st.lists(op, max_size=40))
    def test_equals_a_tick_that_always_drains(self, seed, steps):
        fast = push_world(Agent, seed)
        slow = push_world(DrainingAgent, seed)
        for step in steps:
            apply(fast, step)
            apply(slow, step)
            assert push_state(fast) == push_state(slow)
        assert fast[0].rng.getstate() == slow[0].rng.getstate()

    def test_idle_ticks_skip_the_drain(self):
        sim, box, agent, (target, _) = push_world(Agent, 1)
        agent.store = CountingStore()
        box.elements[0].counters.count_rx(1.0, 100.0)
        agent.push_once()  # ships what the fresh store swept
        assert agent.store.drains == 1
        skips = agent.total_push_skips
        for _ in range(5):
            agent.push_once()
        assert agent.store.drains == 1  # every idle tick answered in O(1)
        assert agent.total_push_skips == skips + 5
        assert agent.total_polls == 7  # ...and still swept every time
        box.elements[1].counters.count_rx(1.0, 100.0)
        assert agent.push_once() == 1
        assert agent.store.drains == 2


# -- the push's blocks and cursor come from one lock hold -----------------------------


class RacingStore(TimeSeriesStore):
    """Runs ``race`` on a second thread while a push collects its blocks."""

    race = None
    racer = None

    def changed_blocks(self, acked):
        blocks = super().changed_blocks(acked)
        race, self.race = self.race, None
        if race is not None:
            self.racer = threading.Thread(target=race)
            self.racer.start()
            # Long enough for an unblocked sweep to land; a sweep
            # waiting on the store lock just waits it out.
            self.racer.join(timeout=0.2)
        return blocks


class TestPushAckRace:
    def test_a_concurrent_sweep_is_not_acked_unshipped(self):
        sim, box, agent, (target, _) = push_world(Agent, 1)
        store = agent.store = RacingStore()
        agent.poll_once()
        agent.push_once()
        assert target.store.cursor() == agent._push_acked == store.cursor()

        def sweep():
            box.elements[0].counters.count_rx(1.0, 100.0)
            agent.poll_once()

        store.race = sweep
        box.elements[1].counters.count_rx(1.0, 100.0)
        agent.push_once()
        store.racer.join()
        assert store.cursor()["e0"] == 2  # the racing sweep did land
        # Acknowledged is shipped: nothing the target lacks is acked...
        assert agent._push_acked == target.store.cursor()
        # ...so the next tick ships the racer's row.
        agent.push_once()
        assert target.store.cursor() == store.cursor() == agent._push_acked


class TestPushCursorOwner:
    def test_retarget_replays_retained_rows(self):
        sim, box, agent, (first, _) = push_world(Agent, 1)
        box.elements[0].counters.count_rx(1.0, 100.0)
        agent.push_once()
        assert first.store.cursor() == agent.store.cursor()
        agent.stop_pushing()
        other = Target()
        agent.start_pushing(other, period_s=0.05)
        # The new target acked nothing: it gets the retained history.
        assert other.store.cursor() == agent.store.cursor()
        assert other.rows() == first.rows()
        agent.stop_pushing()

    def test_restart_to_the_same_target_keeps_the_cursor(self):
        sim, box, agent, (first, _) = push_world(Agent, 1)
        box.elements[0].counters.count_rx(1.0, 100.0)
        agent.push_once()
        acked, pushes = agent._push_acked, agent.total_pushes
        agent.stop_pushing()
        agent.start_pushing(first, period_s=0.05)
        assert agent._push_acked is acked
        assert agent.total_pushes == pushes  # nothing new to ship
        agent.stop_pushing()
