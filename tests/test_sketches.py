"""Mergeable sketches and the sketch-backed zone/fleet aggregates."""

import random

import pytest

from repro.core.controller import FleetController
from repro.core.diagnosis.report import (
    MachineSummary,
    ZoneAggregates,
    ZoneReport,
)
from repro.core.sketches import QuantileSketch, SpaceSavingTopK
from repro.scenarios.common import Harness
from repro.scenarios.fleet import EVERY_THIRD_OVERDRIVEN, add_receivers, shard


class TestSpaceSavingTopK:
    def test_exact_below_capacity(self):
        t = SpaceSavingTopK(4)
        for key, n in [("a", 5.0), ("b", 3.0), ("c", 2.0)]:
            t.add(key, n)
        t.add("a", 1.0)
        assert t.top() == [("a", 6.0, 0.0), ("b", 3.0, 0.0), ("c", 2.0, 0.0)]
        assert t.count("missing") == 0.0

    def test_eviction_carries_error_bound(self):
        t = SpaceSavingTopK(2)
        t.add("a", 10.0)
        t.add("b", 2.0)
        t.add("c", 5.0)  # evicts b (the minimum), inherits its count
        assert t.count("b") == 0.0
        assert t.count("c") == 7.0
        assert t.error("c") == 2.0
        # True total is within [count - error, count].
        assert t.count("c") - t.error("c") <= 5.0 <= t.count("c")

    def test_heavy_hitter_never_lost(self):
        rng = random.Random(7)
        t = SpaceSavingTopK(8)
        true = {}
        for _ in range(2000):
            key = f"m{rng.randrange(40)}"
            amt = 1.0
            if key == "m0":
                amt = 50.0
            true[key] = true.get(key, 0.0) + amt
            t.add(key, amt)
        top = t.top(1)[0]
        assert top[0] == "m0"
        # Space-saving guarantees count >= true count for tracked keys.
        assert top[1] >= true["m0"]

    def test_merge_disjoint_is_exact(self):
        a = SpaceSavingTopK(4)
        b = SpaceSavingTopK(4)
        a.add("x", 5.0)
        a.add("y", 1.0)
        b.add("z", 3.0)
        merged = a.copy().merge(b)
        assert merged.top() == [("x", 5.0, 0.0), ("z", 3.0, 0.0), ("y", 1.0, 0.0)]
        assert merged.error("z") == 0.0

    def test_merge_truncates_to_k(self):
        a = SpaceSavingTopK(2)
        b = SpaceSavingTopK(2)
        a.add("x", 5.0)
        a.add("y", 4.0)
        b.add("z", 3.0)
        b.add("w", 6.0)
        merged = a.merge(b)
        assert len(merged) == 2
        assert [k for k, _c, _e in merged.top()] == ["w", "x"]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            SpaceSavingTopK(0)
        t = SpaceSavingTopK(2)
        with pytest.raises(ValueError):
            t.add("a", -1.0)

    def test_wire_roundtrip(self):
        t = SpaceSavingTopK(3)
        for key, n in [("a", 5.0), ("b", 3.0), ("c", 2.0), ("d", 9.0)]:
            t.add(key, n)
        assert SpaceSavingTopK.from_wire(t.to_wire()) == t
        with pytest.raises(ValueError):
            SpaceSavingTopK.from_wire(
                {"k": 1, "entries": [["a", 1.0, 0.0], ["b", 1.0, 0.0]]}
            )

    def test_nbytes_bounded_by_k(self):
        t = SpaceSavingTopK(4)
        for i in range(1000):
            t.add(f"machine-{i:04d}")
        assert len(t) == 4
        assert t.nbytes() <= 4 * (len("machine-0000") + 16)


class TestQuantileSketch:
    def test_quantile_relative_error(self):
        rng = random.Random(3)
        q = QuantileSketch()
        values = sorted(rng.uniform(1e-3, 0.9) for _ in range(5000))
        for v in values:
            q.add(v)
        for frac in (0.1, 0.5, 0.9, 0.99):
            true = values[int(frac * (len(values) - 1))]
            got = q.quantile(frac)
            assert got >= true * (1 - 1e-9)  # upper-edge answers
            assert got <= true * (1 + q.relative_error) * (1 + 1e-9)

    def test_under_and_overflow(self):
        q = QuantileSketch(lo=0.01, hi=1.0, buckets=8)
        q.add(0.0)
        q.add(0.001)
        q.add(5.0)
        assert q.counts[0] == 2.0
        assert q.counts[-1] == 1.0
        assert q.quantile(0.0) == 0.01
        assert q.quantile(1.0) == 1.0

    def test_empty_and_bad_input(self):
        q = QuantileSketch()
        assert q.quantile(0.5) is None
        with pytest.raises(ValueError):
            q.quantile(1.5)
        with pytest.raises(ValueError):
            q.add(float("nan"))
        with pytest.raises(ValueError):
            q.add(0.5, count=-1.0)
        with pytest.raises(ValueError):
            QuantileSketch(lo=1.0, hi=0.5)

    def test_merge_is_exact_elementwise(self):
        a = QuantileSketch(buckets=16)
        b = QuantileSketch(buckets=16)
        both = QuantileSketch(buckets=16)
        rng = random.Random(11)
        for _ in range(500):
            v = rng.uniform(0.0, 1.0)
            (a if rng.random() < 0.5 else b).add(v)
            both.add(v)
        assert a.copy().merge(b) == both
        with pytest.raises(ValueError):
            a.merge(QuantileSketch(buckets=8))

    def test_wire_roundtrip(self):
        q = QuantileSketch(lo=0.01, hi=2.0, buckets=12)
        for v in (0.0, 0.05, 0.5, 3.0):
            q.add(v)
        assert QuantileSketch.from_wire(q.to_wire()) == q
        with pytest.raises(ValueError):
            QuantileSketch.from_wire(
                {"lo": 0.01, "hi": 2.0, "buckets": 12, "counts": [1.0]}
            )


def summary(machine, loss_pkts, rate):
    return MachineSummary(
        machine=machine,
        health="healthy",
        loss_pkts=loss_pkts,
        pkt_loss_rate=rate,
    )


class TestZoneAggregates:
    def test_from_summaries(self):
        agg = ZoneAggregates.from_summaries(
            {
                "m1": summary("m1", 100.0, 0.01),
                "m2": summary("m2", 0.0, 0.0),
                "m3": summary("m3", 500.0, 0.2),
            }
        )
        assert [k for k, _c, _e in agg.top_droppers.top()] == ["m3", "m1"]
        assert agg.loss_rate.total == 3.0

    def test_merge_across_zones(self):
        a = ZoneAggregates.from_summaries({"m1": summary("m1", 10.0, 0.1)})
        b = ZoneAggregates.from_summaries({"m2": summary("m2", 30.0, 0.3)})
        merged = a.copy().merge(b)
        assert [k for k, _c, _e in merged.top_droppers.top()] == ["m2", "m1"]
        assert merged.loss_rate.total == 2.0
        # copy() means the source zone's sketch was untouched.
        assert a.loss_rate.total == 1.0

    def test_zone_report_json_roundtrip_with_aggregates(self):
        report = ZoneReport(
            zone="z0",
            seq=3,
            window_s=0.5,
            machines={"m1": summary("m1", 42.0, 0.07)},
            aggregates=ZoneAggregates.from_summaries(
                {"m1": summary("m1", 42.0, 0.07)}
            ),
        )
        back = ZoneReport.from_wire(report.to_wire())
        assert back.aggregates is not None
        assert back.aggregates.top_droppers == report.aggregates.top_droppers
        assert back.aggregates.loss_rate == report.aggregates.loss_rate

    def test_aggregate_less_report_stays_aggregate_less(self):
        report = ZoneReport(zone="z0", seq=1, window_s=0.5, machines={})
        wire = report.to_wire()
        assert "aggregates" not in wire
        assert ZoneReport.from_wire(wire).aggregates is None


class TestFleetRollupSketches:
    def test_root_sketches_answer_within_budget(self):
        """Zone reports from a real diagnosis round carry sketches the
        root merges into fleet answers, at a bounded size per machine."""
        h = Harness()
        add_receivers(h, 6, EVERY_THIRD_OVERDRIVEN)
        h.advance(0.25)
        fleet = FleetController("root")
        zones, _ = shard(fleet, h.agents, 2)
        scans = {z: zc.begin_fleet_scan(0.25) for z, zc in zones.items()}
        h.advance(0.25)
        for z, scan in scans.items():
            report = zones[z].build_zone_report(zones[z].finish_fleet_scan(scan))
            assert fleet.ingest_zone_report(report)

        rollup = fleet.rollup()
        # Only the overdriven machines (every third) lose whole packets;
        # the rest carry floating-point residue at most.
        droppers = rollup.top_droppers(5)
        lossy = {m for m, pkts in droppers if pkts >= 1.0}
        assert lossy == {"host-000", "host-003"}
        assert rollup.loss_rate_quantile(0.5) is not None
        agg_bytes = sum(
            fleet.zone_record(z).latest.aggregates.nbytes() for z in fleet.zones()
        )
        assert agg_bytes / len(h.agents) < 256
