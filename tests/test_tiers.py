"""The tiered (coarsening) history store and its flat-store equivalences."""

import random

import pytest

from repro.core.store import StoreError, TimeSeriesStore
from repro.core.tiers import TierConfig, TieredWindowStore


def feed(store, n, element="e1", machine="m1", t0=0.0, dt=1.0, seq0=0):
    """Push n monotone rows; returns the (seq, ts, rx, tx) tuples pushed."""
    rows = []
    for i in range(n):
        seq = seq0 + i
        ts = t0 + i * dt
        rx = float(seq * 10)
        tx = float(seq * 9)
        store.append_row(
            element, machine, seq, ts, ("rx_pkts", "tx_pkts"), [rx, tx]
        )
        rows.append((seq, ts, rx, tx))
    return rows


def small_config(**overrides):
    values = dict(fine_slots=4, fanout=2, coarse_slots=2, coarse_tiers=2)
    values.update(overrides)
    return TierConfig(**values)


class TestTierConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TierConfig(fine_slots=1)
        with pytest.raises(ValueError):
            TierConfig(fanout=1)
        with pytest.raises(ValueError):
            TierConfig(coarse_slots=0)
        with pytest.raises(ValueError):
            TierConfig(coarse_tiers=-1)

    def test_span_and_retention(self):
        cfg = TierConfig(fine_slots=8, fanout=2, coarse_slots=4, coarse_tiers=3)
        assert [cfg.span_slots(level) for level in (1, 2, 3)] == [2, 4, 8]
        # 8 fine + 4*2 + 4*4 + 4*8 coarse-slot-equivalents.
        assert cfg.retention_slots() == 8 + 8 + 16 + 32

    def test_from_env_knobs(self, monkeypatch):
        monkeypatch.setenv("PERFSIGHT_FINE_SLOTS", "16")
        monkeypatch.setenv("PERFSIGHT_TIER_FANOUT", "4")
        monkeypatch.setenv("PERFSIGHT_COARSE_SLOTS", "7")
        monkeypatch.setenv("PERFSIGHT_COARSE_TIERS", "2")
        cfg = TierConfig.from_env()
        assert (cfg.fine_slots, cfg.fanout, cfg.coarse_slots, cfg.coarse_tiers) \
            == (16, 4, 7, 2)
        # Explicit overrides beat the environment.
        assert TierConfig.from_env(fine_slots=32).fine_slots == 32

    def test_from_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("PERFSIGHT_FINE_SLOTS", "lots")
        with pytest.raises(ValueError, match="PERFSIGHT_FINE_SLOTS"):
            TierConfig.from_env()


class TestFineTierEquivalence:
    """Reads answered by the fine ring are identical to a flat store's."""

    def test_hot_path_reads_match_flat(self):
        cfg = small_config(fine_slots=8)
        tiered = TieredWindowStore(config=cfg)
        flat = TimeSeriesStore(capacity_per_element=8)
        feed(tiered, 50)
        feed(flat, 50)
        assert tiered.latest("e1") == flat.latest("e1")
        for dur in (1.0, 3.0, 7.0):
            wt = tiered.window_ending_now("e1", dur)
            wf = flat.window_ending_now("e1", dur)
            assert wt.start == wf.start and wt.end == wf.end

    def test_window_inside_fine_tier_matches_flat(self):
        cfg = small_config(fine_slots=8)
        tiered = TieredWindowStore(config=cfg)
        flat = TimeSeriesStore(capacity_per_element=8)
        feed(tiered, 50)
        feed(flat, 50)
        # Fine ring holds ts 42..49; every span inside it must stitch to
        # exactly the flat answer.
        for t0 in (42.0, 43.5, 45.0):
            for t1 in (46.0, 48.2, 49.0):
                wt = tiered.window("e1", t0, t1)
                wf = flat.window("e1", t0, t1)
                assert wt.start == wf.start
                assert wt.end == wf.end

    def test_changed_blocks_identical_to_flat(self):
        cfg = small_config(fine_slots=8)
        tiered = TieredWindowStore(config=cfg)
        flat = TimeSeriesStore(capacity_per_element=8)
        feed(tiered, 30)
        feed(flat, 30)
        assert tiered.changed_blocks({}) == flat.changed_blocks({})
        assert tiered.cursor() == flat.cursor()


class TestCoarsening:
    def test_coarse_sums_are_exact_merges_of_evicted_rows(self):
        cfg = small_config(fine_slots=4, fanout=2, coarse_slots=2, coarse_tiers=2)
        tiered = TieredWindowStore(config=cfg)
        rows = feed(tiered, 40)
        evicted = rows[: 40 - 4]  # everything no longer in the fine ring
        buckets = tiered.coarse_buckets("e1")
        assert buckets, "eviction should have coarsened something"
        # Buckets are disjoint, ordered, and each one's stats are the
        # exact fold of the evicted rows in its [first_ts, last_ts] span.
        retained = [
            r for b in buckets
            for r in evicted
            if b.first_ts <= r[1] <= b.last_ts
        ]
        covered = set()
        prev_last = float("-inf")
        for b in buckets:
            assert b.first_ts > prev_last
            prev_last = b.last_ts
            mine = [r for r in evicted if b.first_ts <= r[1] <= b.last_ts]
            assert len(mine) == b.samples == b.units
            assert b.sums["rx_pkts"] == pytest.approx(sum(r[2] for r in mine))
            assert b.mins["rx_pkts"] == min(r[2] for r in mine)
            assert b.maxs["rx_pkts"] == max(r[2] for r in mine)
            assert b.lasts["rx_pkts"] == mine[-1][2]
            assert b.last_seq == mine[-1][0]
            covered.update(r[0] for r in mine)
        # Rows older than the retention span may drop; nothing repeats.
        assert len(retained) == len(covered)

    def test_stitched_window_reaches_coarse_history(self):
        cfg = small_config(fine_slots=4, fanout=2, coarse_slots=2, coarse_tiers=2)
        tiered = TieredWindowStore(config=cfg)
        feed(tiered, 40)
        oldest, newest = tiered.retention_span("e1")
        assert newest == 39.0
        assert oldest < 36.0  # reaches past the 4-slot fine ring
        w = tiered.window("e1", 0.0, 39.0)
        # Start collapses onto the oldest *retained* sample; the rate is
        # exact over that span because the counters are monotone.
        assert w.end.timestamp == 39.0
        assert w.start.timestamp < 36.0
        assert w.rate("rx_pkts") == pytest.approx(10.0)

    def test_at_or_before_stitches_and_stays_at_or_before(self):
        cfg = small_config(fine_slots=4, fanout=2, coarse_slots=2, coarse_tiers=2)
        tiered = TieredWindowStore(config=cfg)
        feed(tiered, 40)
        retained_ts = sorted(
            [b.last_ts for b in tiered.coarse_buckets("e1")]
            + [36.0, 37.0, 38.0, 39.0]
        )
        for t in retained_ts:
            snap = tiered.at_or_before("e1", t)
            assert snap.timestamp <= t + 1e-9
            # The answer is the *newest* retained sample at or before t.
            assert snap.timestamp == max(x for x in retained_ts if x <= t)
        # Before every retained sample there is genuinely no answer.
        with pytest.raises(StoreError):
            tiered.at_or_before("e1", retained_ts[0] - 1.0)

    def test_reset_rebaseline_clears_coarse_tiers(self):
        cfg = small_config(fine_slots=4)
        tiered = TieredWindowStore(config=cfg)
        feed(tiered, 40)
        assert tiered.coarse_buckets("e1")
        # Counter regression with an advancing seq: producer restart.
        tiered.append_row(
            "e1", "m1", 1000, 50.0, ("rx_pkts", "tx_pkts"), [1.0, 1.0]
        )
        assert tiered.total_resets == 1
        assert tiered.coarse_buckets("e1") == []
        oldest, newest = tiered.retention_span("e1")
        assert oldest == newest == 50.0

    def test_clear_drops_everything(self):
        tiered = TieredWindowStore(config=small_config())
        feed(tiered, 40)
        tiered.clear()
        assert tiered.element_ids() == []
        assert tiered.nbytes()["total"] == 0

    def test_schema_widening_mid_history(self):
        cfg = small_config(fine_slots=4)
        tiered = TieredWindowStore(config=cfg)
        for i in range(10):
            tiered.append_row(
                "e1", "m1", i, float(i), ("rx_pkts",), [float(i)]
            )
        for i in range(10, 20):
            tiered.append_row(
                "e1", "m1", i, float(i),
                ("rx_pkts", "drops.tun"), [float(i), float(i - 10)],
            )
        buckets = tiered.coarse_buckets("e1")
        pre = [b for b in buckets if b.last_ts < 10.0]
        post = [b for b in buckets if b.first_ts >= 10.0]
        assert pre and post
        # Old buckets never grow the new attr; new ones carry it.
        assert all("drops.tun" not in b.sums for b in pre)
        assert all("drops.tun" in b.sums for b in post)


class TestAccounting:
    def test_nbytes_shape_and_bound(self):
        cfg = small_config(fine_slots=4, coarse_slots=2, coarse_tiers=2)
        tiered = TieredWindowStore(config=cfg)
        n0 = tiered.nbytes()
        assert n0 == {"fine": 0, "tier1": 0, "tier2": 0, "coarse": 0, "total": 0}
        feed(tiered, 1000)
        n = tiered.nbytes()
        assert set(n) == {"fine", "tier1", "tier2", "coarse", "total"}
        assert n["total"] == n["fine"] + n["coarse"]
        assert n["coarse"] == n["tier1"] + n["tier2"]
        # Feeding 10x more history must not grow the footprint.
        feed(tiered, 10000, t0=1000.0, seq0=1000)
        assert tiered.nbytes()["total"] <= n["total"]

    def test_running_nbytes_equal_bucket_walk(self):
        """The per-level running totals against a walk over every bucket,
        through widening, sealing, cascading, dropping and re-baselines."""

        def walk(store):
            per_level = [0] * store.tier_config.coarse_tiers
            for tiers in store._tiers.values():
                for i, tier in enumerate(tiers.tiers):
                    for bucket in tier.buckets_oldest_first():
                        per_level[i] += sum(
                            len(a) * a.itemsize
                            for a in (
                                bucket.vsum, bucket.vmin, bucket.vmax, bucket.vlast
                            )
                        )
            return per_level

        rng = random.Random(5)
        store = TieredWindowStore(config=small_config())
        seqs = {}
        for step in range(3000):
            eid = rng.choice(["a", "b", "c"])
            roll = rng.random()
            if roll < 0.01:
                seqs[eid] = 0  # producer restart: re-baseline drops the tiers
            elif roll < 0.012:
                store.clear()
            seq = seqs[eid] = seqs.get(eid, 0) + 1
            names = ["rx_pkts", "tx_pkts"]
            if rng.random() < 0.05:  # a new drop location widens the schema
                names.append(f"drops.loc{rng.randrange(6)}")
            store.append_row(
                eid, "m1", seq, float(step), tuple(names), [float(seq)] * len(names)
            )
            if step % 7 == 0:
                n = store.nbytes()
                per_level = walk(store)
                assert [n["tier1"], n["tier2"]] == per_level
                assert n["coarse"] == sum(per_level)
                assert n["total"] == n["fine"] + n["coarse"]
        assert store.total_resets > 0 and max(walk(store)) > 0

    def test_flat_store_nbytes(self):
        flat = TimeSeriesStore(capacity_per_element=8)
        feed(flat, 3)
        n = flat.nbytes()
        assert n["fine"] == n["total"] > 0

    def test_bounded_vs_flat_growth(self):
        cfg = small_config(fine_slots=8, fanout=2, coarse_slots=4, coarse_tiers=2)
        tiered = TieredWindowStore(config=cfg)
        flat = TimeSeriesStore(capacity_per_element=2048)
        feed(tiered, 2048)
        feed(flat, 2048)
        assert tiered.nbytes()["total"] * 10 < flat.nbytes()["total"]
