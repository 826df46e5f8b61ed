"""Typed snapshots, counter windows, and the agent time-series store."""

import dataclasses
import sys
import threading

import pytest

from repro.core.counters import CounterSet, CounterSnapshot, CounterWindow
from repro.core.store import StoreError, TimeSeriesStore
from repro.core.tiers import TierConfig, TieredWindowStore


def snap(seq, t, element="e1", machine="m1", **attrs):
    return CounterSnapshot(
        element_id=element, machine=machine, seq=seq, timestamp=t, attrs=attrs
    )


class TestCounterSnapshot:
    def test_get_and_contains(self):
        s = snap(1, 0.0, rx_pkts=5.0)
        assert s.get("rx_pkts") == 5.0
        assert s.get("missing") == 0.0
        assert "rx_pkts" in s and "missing" not in s

    def test_at_restamps_sharing_attrs(self):
        s = snap(1, 0.0, rx_pkts=5.0)
        later = s.at(2.5)
        assert later.timestamp == 2.5
        assert later.seq == s.seq
        assert later.attrs is s.attrs
        assert later == CounterSnapshot(s.element_id, s.machine, s.seq, 2.5, s.attrs)
        assert s.timestamp == 0.0  # the copy, not the original, moved
        with pytest.raises(dataclasses.FrozenInstanceError):
            later.timestamp = 3.0
        assert s.at(0.0) is s

    def test_subset_keeps_only_present_attrs(self):
        s = snap(3, 1.0, rx_pkts=5.0, rx_bytes=100.0)
        sub = s.subset(["rx_bytes", "ghost"])
        assert (sub.element_id, sub.machine, sub.seq, sub.timestamp) == (
            "e1", "m1", 3, 1.0
        )
        assert dict(sub.attrs) == {"rx_bytes": 100.0}  # missing: left out

    def test_dict_roundtrip(self):
        s = snap(7, 4.25, rx_pkts=5.0, **{"drops.tun": 2.0})
        assert CounterSnapshot.from_dict(s.to_dict()) == s

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(ValueError):
            CounterSnapshot.from_dict({"element": "e1"})
        with pytest.raises(ValueError):
            CounterSnapshot.from_dict(
                {"element": "e1", "seq": 1, "timestamp": 0.0, "attrs": [1, 2]}
            )


class TestCounterWindow:
    def make(self, dt=2.0, **growth):
        start = snap(1, 10.0, rx_pkts=100.0, rx_bytes=1e4, tx_pkts=90.0)
        end_attrs = dict(start.attrs)
        for k, v in growth.items():
            end_attrs[k] = end_attrs.get(k, 0.0) + v
        return CounterWindow(
            start=start, end=snap(2, 10.0 + dt, **end_attrs)
        )

    def test_delta_and_rate(self):
        w = self.make(dt=2.0, rx_bytes=3000.0)
        assert w.delta("rx_bytes") == 3000.0
        assert w.rate("rx_bytes") == 1500.0
        assert w.duration_s == 2.0

    def test_pkt_loss_is_gap_growth(self):
        w = self.make(dt=1.0, rx_pkts=50.0, tx_pkts=45.0)
        assert w.pkt_loss() == 5.0

    def test_avg_pkt_size(self):
        w = self.make(dt=1.0, rx_pkts=10.0, rx_bytes=15000.0)
        assert w.avg_pkt_size() == 1500.0
        assert self.make(dt=1.0).avg_pkt_size() == 0.0

    def test_growth_prefix_does_not_bleed(self):
        start = snap(1, 0.0, **{"drops.tun": 1.0, "drops_flow.f1": 1.0})
        end = snap(2, 1.0, **{"drops.tun": 4.0, "drops_flow.f1": 2.0})
        w = CounterWindow(start=start, end=end)
        assert w.drops_by_location() == {"tun": 3.0}
        assert w.drops_by_flow() == {"f1": 1.0}

    def test_empty_window(self):
        s = snap(5, 1.0, rx_pkts=1.0)
        w = CounterWindow(start=s, end=s.at(3.0))
        assert w.empty
        assert w.rate("rx_pkts") == 0.0

    def test_mixed_elements_rejected(self):
        with pytest.raises(ValueError, match="mixes elements"):
            CounterWindow(start=snap(1, 0.0), end=snap(2, 1.0, element="other"))


class TestCounterSetVersioning:
    def test_version_advances_on_updates(self):
        c = CounterSet()
        v0 = c.version
        c.count_rx(1.0, 100.0)
        assert c.version > v0
        base = c.snapshot()
        assert c.snapshot() == base
        assert c.snapshot() is not base  # copy-on-read hands out copies
        c.count_drop("tun", 2.0, 200.0, flow_id="f1")
        after = c.snapshot()
        assert after["drops.tun"] == 2.0
        assert after["drops_flow.f1"] == 2.0


class TestTimeSeriesStore:
    def test_append_dedup_and_cursor(self):
        st = TimeSeriesStore()
        assert st.append(snap(1, 0.0, x=1.0))
        assert not st.append(snap(1, 5.0, x=1.0))  # same version: compressed
        assert st.append(snap(2, 1.0, x=2.0))
        assert st.cursor() == {"e1": 2}
        assert st.total_appended == 2 and st.total_deduped == 1
        # The first-observed timestamp is retained for a deduped seq.
        assert st.latest("e1").timestamp == 1.0

    def test_seq_regression_rebaselines_by_default(self):
        """An agent restart re-numbers sequences; the store must restart
        the series instead of raising or diffing across the boundary."""
        st = TimeSeriesStore()
        st.append(snap(5, 0.0, rx_pkts=500.0))
        st.append(snap(6, 1.0, rx_pkts=600.0))
        assert st.append(snap(1, 2.0, rx_pkts=10.0))  # restarted producer
        assert st.latest("e1").seq == 1
        assert [s.seq for s in st.changed_since({})] == [1]
        assert st.resets == {"e1": 1} and st.total_resets == 1
        # Windows can no longer straddle the restart: the fallback start
        # is the post-restart baseline, so deltas never go negative.
        w = st.window("e1", -10.0, 2.0)
        assert w.delta("rx_pkts") == 0.0

    def test_counter_regression_rebaselines_even_with_monotonic_seq(self):
        """Kernel counters zeroed under a surviving element: seq keeps
        advancing but rx_pkts shrinks — still a reset."""
        st = TimeSeriesStore()
        st.append(snap(5, 0.0, rx_pkts=500.0))
        assert st.append(snap(6, 1.0, rx_pkts=3.0))
        assert st.total_resets == 1
        assert [s.seq for s in st.changed_since({})] == [6]
        st.append(snap(7, 2.0, rx_pkts=8.0))
        assert st.window("e1", 0.0, 2.0).delta("rx_pkts") == 5.0

    def test_gauge_shrink_is_not_a_reset(self):
        """Non-monotonic gauges (queue depth) shrink legitimately."""
        st = TimeSeriesStore()
        st.append(snap(1, 0.0, rx_pkts=10.0, queue_pkts=50.0))
        st.append(snap(2, 1.0, rx_pkts=20.0, queue_pkts=5.0))
        assert st.total_resets == 0
        assert len(st) == 2

    def test_changed_since_resends_after_producer_restart(self):
        """A floor above the newest stored seq means the collector acked
        a previous incarnation — everything is resent so the mirror can
        observe the regression and re-baseline itself."""
        st = TimeSeriesStore()
        st.append(snap(1, 10.0, rx_pkts=1.0))
        st.append(snap(2, 11.0, rx_pkts=2.0))
        batch = st.changed_since({"e1": 900})
        assert [s.seq for s in batch] == [1, 2]
        # An exactly-caught-up collector still gets nothing.
        assert st.changed_since({"e1": 2}) == []

    def test_ring_evicts_oldest(self):
        st = TimeSeriesStore(capacity_per_element=3)
        for i in range(1, 6):
            st.append(snap(i, float(i)))
        assert len(st) == 3
        assert [s.seq for s in st.changed_since({})] == [3, 4, 5]

    def test_min_capacity(self):
        with pytest.raises(ValueError):
            TimeSeriesStore(capacity_per_element=1)

    def test_lookups(self):
        st = TimeSeriesStore()
        for i in (1, 2, 3):
            st.append(snap(i, float(i), x=float(i)))
        assert st.at_or_before("e1", 2.5).seq == 2
        assert st.at_or_before("e1", 3.0).seq == 3
        with pytest.raises(StoreError):
            st.at_or_before("e1", 0.5)
        with pytest.raises(StoreError):
            st.latest("ghost")
        assert "e1" in st and "ghost" not in st
        assert st.element_ids() == ["e1"]

    def test_window_and_trailing_window(self):
        st = TimeSeriesStore()
        for i in (1, 2, 3):
            st.append(snap(i, float(i), x=float(i)))
        w = st.window("e1", 1.0, 3.0)
        assert (w.start.seq, w.end.seq) == (1, 3)
        assert w.delta("x") == 2.0
        # Start older than retained history falls back to the oldest sample.
        w = st.window("e1", -10.0, 2.0)
        assert (w.start.seq, w.end.seq) == (1, 2)
        w = st.window_ending_now("e1", 1.0)
        assert (w.start.seq, w.end.seq) == (2, 3)
        with pytest.raises(ValueError):
            st.window("e1", 3.0, 1.0)

    def test_changed_since_is_a_delta(self):
        st = TimeSeriesStore()
        for i in (1, 2):
            st.append(snap(i, float(i)))
            st.append(snap(i, float(i), element="e2"))
        batch = st.changed_since({"e1": 1})
        assert [(s.element_id, s.seq) for s in batch] == [
            ("e1", 2),
            ("e2", 1),
            ("e2", 2),
        ]
        assert st.changed_since(st.cursor()) == []

    def test_mirror_replay_converges(self):
        st = TimeSeriesStore()
        mirror = TimeSeriesStore()
        acked = {}
        for i in range(1, 8):
            st.append(snap(i, float(i), x=float(i)))
            if i % 3 == 0:  # sync every third sample
                mirror.apply_blocks(st.changed_blocks(acked))
                acked = st.cursor()
        mirror.apply_blocks(st.changed_blocks(acked))
        assert [s.to_dict() for s in mirror.changed_since({})] == [
            s.to_dict() for s in st.changed_since({})
        ]


def _ring(series):
    return (
        series.schema.names, series.start, series.count,
        series.seqs.tobytes(), series.stamps.tobytes(), series.values.tobytes(),
    )


class TestSchemaInterning:
    """Series storing the same attr names share one immutable schema."""

    def test_same_names_share_one_schema_across_agent_mirror_and_tiers(self):
        agent = TimeSeriesStore(capacity_per_element=2)
        mirror = TieredWindowStore(
            config=TierConfig(fine_slots=2, fanout=2, coarse_slots=2, coarse_tiers=2)
        )
        for i in range(1, 9):  # a fresh attrs dict per snapshot, as a sweep makes
            for eid in ("e1", "e2", "e3"):
                agent.append(snap(i, float(i), element=eid, rx_pkts=i, tx_pkts=i))
            mirror.apply_blocks(agent.changed_blocks(mirror.cursor()))
        series = [*agent._series.values(), *mirror._series.values()]
        schema = series[0].schema
        assert all(s.schema is schema for s in series)
        assert schema.names == ("rx_pkts", "tx_pkts")
        buckets = [
            bucket
            for tiers in mirror._tiers.values()
            for _, bucket in tiers.samples_oldest_first()
        ]
        assert buckets and all(b.names is schema.names for b in buckets)
        other = TimeSeriesStore()
        other.append(snap(1, 0.0, element="e1", rx_pkts=1.0, drops=0.0))
        assert other._series["e1"].schema is not schema

    def test_widening_one_series_leaves_its_sibling_untouched(self):
        st = TimeSeriesStore(capacity_per_element=4)
        for i in (1, 2):
            for eid in ("e1", "e2"):
                st.append(snap(i, float(i), element=eid, rx_pkts=i, drops=0.0))
        e1, e2 = st._series["e1"], st._series["e2"]
        shared = e2.schema
        before = (
            shared.names, dict(shared.index), shared.stride, shared.sentinel_cols,
            shared.absent_row.tobytes(), dict(shared.layouts), _ring(e2),
        )
        late = {"drops.late": 1.0}
        st.append(snap(3, 3.0, element="e1", rx_pkts=3.0, drops=0.0, **late))
        assert e1.schema is not shared
        assert e1.schema.names == shared.names + ("drops.late",)
        assert e2.schema is shared
        assert (
            shared.names, dict(shared.index), shared.stride, shared.sentinel_cols,
            shared.absent_row.tobytes(), dict(shared.layouts), _ring(e2),
        ) == before
        # the widened series still reads its pre-widen rows
        assert st.at_or_before("e1", 1.0).attrs == {"rx_pkts": 1.0, "drops": 0.0}
        assert st.latest("e1").attrs["drops.late"] == 1.0

    def test_mirror_rings_equal_the_agents_after_a_mid_history_widen(self):
        agent = TimeSeriesStore(capacity_per_element=4)
        mirror = TieredWindowStore(
            config=TierConfig(fine_slots=4, fanout=2, coarse_slots=2, coarse_tiers=2)
        )
        for i in range(1, 12):
            late = {"drops.late": float(i)} if i >= 5 else {}
            for eid in ("e1", "e2"):
                extra = late if eid == "e1" else {}
                agent.append(snap(i, float(i), element=eid, rx_pkts=i, **extra))
            if i % 3 == 0:  # the sync straddles the widen at row 5
                mirror.apply_blocks(agent.changed_blocks(mirror.cursor()))
        mirror.apply_blocks(agent.changed_blocks(mirror.cursor()))
        for eid in ("e1", "e2"):
            mine, theirs = agent._series[eid], mirror._series[eid]
            assert mine.schema is theirs.schema
            assert _ring(mine) == _ring(theirs)
        assert agent._series["e1"].schema is not agent._series["e2"].schema

    def test_concurrent_stores_intern_one_schema(self):
        """Fan-out threads meeting a new attr tuple at once agree on one
        schema and one layout entry; a lost interning race would leave
        two stores holding different ones."""
        tag = f"race{id(self)}"
        names = [("rx_pkts", f"drops.{tag}.{k}") for k in range(100)]
        stores = [TimeSeriesStore() for _ in range(4)]  # more threads than cores
        gate = threading.Barrier(len(stores), timeout=10)

        def write(store):
            gate.wait()
            for k, row_names in enumerate(names):
                store.append_row(f"e{k}", "m1", 1, 0.0, row_names, [1.0, 0.0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write, args=(st,)) for st in stores]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for k in range(len(names)):
            series = [st._series[f"e{k}"] for st in stores]
            assert len({id(s.schema) for s in series}) == 1
            assert len({id(s._memo_layout) for s in series}) == 1
