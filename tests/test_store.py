"""Typed snapshots, counter windows, and the agent time-series store."""

import pytest

from repro.core.counters import CounterSet, CounterSnapshot, CounterWindow
from repro.core.store import StoreError, TimeSeriesStore


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
        assert s.at(0.0) is s

    def test_to_record_subset(self):
        s = snap(3, 1.0, rx_pkts=5.0, rx_bytes=100.0)
        rec = s.to_record(["rx_bytes"])
        assert rec.element_id == "e1"
        assert rec.machine == "m1"
        assert rec["rx_bytes"] == 100.0
        assert "rx_pkts" not in rec

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
