"""Tiered (coarsening) history store — bounded memory for long retention.

A flat :class:`~repro.core.store.TimeSeriesStore` costs O(elements ×
window) per machine: holding an hour of 1 Hz history needs 3600 ring
slots per element, and the zone controllers hit their memory cap long
before they run out of CPU.  PrintQueue's answer — adopted here — is
**coarsening time windows**: keep the most recent N samples at full
resolution, and when a sample falls off the fine ring, merge it into
progressively coarser buckets (2x, 4x, 8x… fine slots per bucket) that
each keep only per-attribute ``sum``/``min``/``max``/``last`` plus the
bucket's last raw row.  Old history degrades in resolution, never in
span, and total memory is a small constant per element.

Layout per element (fanout 2, three coarse tiers)::

    newest ──────────────────────────────────────────────── oldest
    [ fine ring: N raw slots ] [ tier1: 2-slot buckets ]
                               [ tier2: 4-slot buckets ]
                               [ tier3: 8-slot buckets ] (drop)

Invariants the rest of the system depends on:

* **The fine ring is byte-identical to a flat store's.**  Eviction
  copies the dying row into tier 1 *before* the slot is recycled and
  touches nothing else, so every hot-path read — ``latest``,
  ``window_ending_now``, ``changed_blocks``, the Algorithm-1/2
  verdict machinery — sees exactly what a flat
  :class:`TimeSeriesStore` of the same capacity would hold.
* **Each coarse bucket retains its last raw row verbatim** (seq,
  timestamp, values with ABSENT cells preserved), so a stitched
  ``at_or_before``/``window`` read returns *real retained samples* —
  the same latest-sample-at-or-before semantics as the flat store,
  just over a sparser retained set as queries reach further back.
* **Sums/mins/maxes are exact merges** of the evicted fine rows
  (ABSENT cells never vote), so historical trend queries aggregate
  precisely what was measured, not an approximation.
* **No window ever straddles a producer restart**: a counter-reset
  re-baseline clears the coarse tiers along with the fine ring, the
  same guarantee the flat store gives.

Config rides :class:`TierConfig`; the env knobs (``PERFSIGHT_FINE_SLOTS``,
``PERFSIGHT_TIER_FANOUT``, ``PERFSIGHT_COARSE_SLOTS``,
``PERFSIGHT_COARSE_TIERS``) let a deployment trade fine retention
against total footprint without code changes.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.counters import ABSENT, CounterSnapshot, CounterWindow
from repro.core.store import (
    DEFAULT_CAPACITY_PER_ELEMENT,
    StoreError,
    TimeSeriesStore,
    _ElementSeries,
)

__all__ = [
    "TierConfig",
    "TieredWindowStore",
    "BucketStats",
]


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class TierConfig:
    """Shape of one element's tier chain.

    ``fine_slots`` is the full-resolution ring capacity; each of the
    ``coarse_tiers`` levels holds up to ``coarse_slots`` sealed buckets
    spanning ``fanout**level`` fine slots apiece.  A bucket evicted
    from the last tier is dropped — that is what bounds memory.
    """

    fine_slots: int = DEFAULT_CAPACITY_PER_ELEMENT
    fanout: int = 2
    coarse_slots: int = 32
    coarse_tiers: int = 3

    def __post_init__(self) -> None:
        if self.fine_slots < 2:
            raise ValueError(
                f"fine_slots must hold a window pair: {self.fine_slots!r}"
            )
        if self.fanout < 2:
            raise ValueError(f"fanout must be >= 2: {self.fanout!r}")
        if self.coarse_slots < 1:
            raise ValueError(f"coarse_slots must be >= 1: {self.coarse_slots!r}")
        if self.coarse_tiers < 0:
            raise ValueError(f"coarse_tiers must be >= 0: {self.coarse_tiers!r}")

    @classmethod
    def from_env(cls, **overrides: int) -> "TierConfig":
        """Read the ``PERFSIGHT_*`` knobs, explicit overrides winning."""
        values = {
            "fine_slots": _env_int(
                "PERFSIGHT_FINE_SLOTS", cls.fine_slots
            ),
            "fanout": _env_int("PERFSIGHT_TIER_FANOUT", cls.fanout),
            "coarse_slots": _env_int(
                "PERFSIGHT_COARSE_SLOTS", cls.coarse_slots
            ),
            "coarse_tiers": _env_int(
                "PERFSIGHT_COARSE_TIERS", cls.coarse_tiers
            ),
        }
        values.update(overrides)
        return cls(**values)

    def span_slots(self, level: int) -> int:
        """Fine slots per bucket at tier ``level`` (1-based)."""
        return self.fanout ** level

    def retention_slots(self) -> int:
        """Total fine-slot-equivalents of history the chain can span."""
        return self.fine_slots + sum(
            self.coarse_slots * self.span_slots(level)
            for level in range(1, self.coarse_tiers + 1)
        )


@dataclass(frozen=True)
class BucketStats:
    """Introspection view of one coarse bucket (property-test surface)."""

    level: int
    first_ts: float
    last_ts: float
    last_seq: int
    samples: int
    units: int
    sums: Dict[str, float]
    mins: Dict[str, float]
    maxs: Dict[str, float]
    lasts: Dict[str, float]


class _CoarseBucket:
    """One coarse bucket: merged stats + the last raw row, columnar.

    The four stat arrays share the bucket's ``names`` tuple;
    ``ABSENT``/NaN cells mean "no data for this attribute yet" and are
    skipped by every merge, so sums/mins/maxes are exact over the
    non-absent evicted cells.  ``vlast`` is the newest absorbed row
    *verbatim* (ABSENT cells preserved), which is what stitched reads
    materialize as a retained sample.
    """

    __slots__ = (
        "names",
        "first_ts",
        "last_ts",
        "last_seq",
        "samples",
        "units",
        "vsum",
        "vmin",
        "vmax",
        "vlast",
        "_snap",
    )

    def __init__(
        self,
        names: Tuple[str, ...],
        seq: int,
        timestamp: float,
        values: Sequence[float],
    ) -> None:
        self.names = names
        self.first_ts = timestamp
        self.last_ts = timestamp
        self.last_seq = seq
        self.samples = 1
        self.units = 1
        self.vsum = array("d", values)
        self.vmin = array("d", values)
        self.vmax = array("d", values)
        self.vlast = array("d", values)
        self._snap: Optional[CounterSnapshot] = None

    def _widen_to(self, names: Tuple[str, ...]) -> None:
        """Grow the stat arrays for a schema that gained attributes.

        Attribute schemas only ever grow by appending (see
        ``_ElementSeries._widen``), so the existing columns stay
        position-aligned and the new ones start ABSENT.
        """
        pad = array("d", [ABSENT]) * (len(names) - len(self.names))
        self.vsum += pad
        self.vmin += pad
        self.vmax += pad
        self.vlast += pad
        self.names = names

    def merge_from(self, other: "_CoarseBucket") -> None:
        """Absorb a strictly newer bucket into this one."""
        if len(other.names) > len(self.names):
            self._widen_to(other.names)
        self.last_ts = other.last_ts
        self.last_seq = other.last_seq
        self.samples += other.samples
        self.units += other.units
        vsum, vmin, vmax, vlast = self.vsum, self.vmin, self.vmax, self.vlast
        for col in range(len(other.names)):
            o_sum = other.vsum[col]
            if o_sum == o_sum:  # non-ABSENT
                s = vsum[col]
                vsum[col] = o_sum if s != s else s + o_sum
            o_min = other.vmin[col]
            if o_min == o_min:
                m = vmin[col]
                vmin[col] = o_min if m != m else min(m, o_min)
            o_max = other.vmax[col]
            if o_max == o_max:
                m = vmax[col]
                vmax[col] = o_max if m != m else max(m, o_max)
            # ``last`` is the newer row verbatim — ABSENT included, so a
            # stitched read sees exactly the sample that was evicted.
            vlast[col] = other.vlast[col]
        self._snap = None

    def snapshot(self, element_id: str, machine: str) -> CounterSnapshot:
        """The bucket's retained sample: its last raw row."""
        snap = self._snap
        if snap is None:
            snap = self._snap = CounterSnapshot.from_columns(
                element_id,
                machine,
                self.last_seq,
                self.last_ts,
                self.names,
                self.vlast,
            )
        return snap

    def nbytes(self) -> int:
        # The four stat arrays are created and widened together.
        return 4 * len(self.vsum) * self.vsum.itemsize


class _Tier:
    """One coarse level: an open accumulating bucket + sealed ring.

    ``nbytes`` is the running total of the held buckets' bytes, kept by
    :meth:`absorb` (the only mutator: sealed buckets are immutable, only
    the open one ever widens), so accounting never walks the buckets.
    """

    __slots__ = ("span", "capacity", "open", "sealed", "nbytes")

    def __init__(self, span: int, capacity: int) -> None:
        self.span = span
        self.capacity = capacity
        self.open: Optional[_CoarseBucket] = None
        self.sealed: List[_CoarseBucket] = []  # oldest first
        self.nbytes = 0

    def absorb(self, bucket: _CoarseBucket) -> Optional[_CoarseBucket]:
        """Merge one incoming bucket; returns the overflow, if any.

        The incoming bucket is always strictly newer than everything
        held.  When the open bucket reaches this tier's span it seals
        into the ring; a ring past capacity sheds its *oldest* sealed
        bucket, which cascades into the next-coarser tier.
        """
        if self.open is None:
            self.open = bucket
            self.nbytes += bucket.nbytes()
        else:
            before = self.open.nbytes()
            self.open.merge_from(bucket)
            self.nbytes += self.open.nbytes() - before
        if self.open.units >= self.span:
            self.sealed.append(self.open)
            self.open = None
            if len(self.sealed) > self.capacity:
                shed = self.sealed.pop(0)
                self.nbytes -= shed.nbytes()
                return shed
        return None

    def buckets_oldest_first(self) -> List[_CoarseBucket]:
        out = list(self.sealed)
        if self.open is not None:
            out.append(self.open)
        return out


class _ElementTiers:
    """The coarse tier chain of one element (tier 1 = finest coarse)."""

    __slots__ = ("tiers",)

    def __init__(self, config: TierConfig) -> None:
        self.tiers = [
            _Tier(config.span_slots(level), config.coarse_slots)
            for level in range(1, config.coarse_tiers + 1)
        ]

    def absorb(self, bucket: _CoarseBucket, level_bytes: List[int]) -> None:
        """Cascade one bucket down the chain, keeping ``level_bytes``
        (the owning store's per-level byte totals) in step."""
        overflow: Optional[_CoarseBucket] = bucket
        for i, tier in enumerate(self.tiers):
            before = tier.nbytes
            overflow = tier.absorb(overflow)
            level_bytes[i] += tier.nbytes - before
            if overflow is None:
                return
        # Overflow past the coarsest tier falls off the end of history;
        # that drop is precisely what bounds the chain's memory.

    def samples_oldest_first(self) -> List[Tuple[int, _CoarseBucket]]:
        """(level, bucket) pairs ordered oldest history first."""
        out: List[Tuple[int, _CoarseBucket]] = []
        for level in range(len(self.tiers), 0, -1):
            for bucket in self.tiers[level - 1].buckets_oldest_first():
                out.append((level, bucket))
        return out


class TieredWindowStore(TimeSeriesStore):
    """A :class:`TimeSeriesStore` whose evicted history coarsens, not dies.

    Drop-in for the flat store: every ingest and hot-path read behaves
    identically (the fine ring *is* a flat store's ring).  The
    difference is in ``window``/``at_or_before`` for times that predate
    the fine ring: instead of collapsing onto the oldest fine sample,
    the lookup transparently stitches in the coarse tiers' retained
    samples, so historical queries keep real answers for the whole
    retention span at progressively coarser resolution.
    """

    def __init__(
        self,
        capacity_per_element: Optional[int] = None,
        config: Optional[TierConfig] = None,
    ) -> None:
        self.tier_config = config if config is not None else TierConfig.from_env()
        if capacity_per_element is None:
            capacity_per_element = self.tier_config.fine_slots
        super().__init__(capacity_per_element)
        self._tiers: Dict[str, _ElementTiers] = {}
        # Bytes held per coarse level across all elements, adjusted
        # wherever buckets enter, widen, move or die, so nbytes() is
        # arithmetic instead of a walk over every bucket.
        self._level_bytes = [0] * self.tier_config.coarse_tiers

    # -- eviction cascade (runs under the store lock) ----------------------------

    def _make_series(self, element_id: str, machine: str) -> _ElementSeries:
        series = super()._make_series(element_id, machine)
        series.on_evict = self._absorb_evicted
        series.on_clear = self._drop_coarse
        return series

    def _absorb_evicted(self, series: _ElementSeries, slot: int) -> None:
        """Fold one dying fine row into the element's tier chain."""
        names = series.attr_names
        stride = len(names)
        base = slot * stride
        bucket = _CoarseBucket(
            names,
            series.seqs[slot],
            series.stamps[slot],
            series.values[base: base + stride],
        )
        tiers = self._tiers.get(series.element_id)
        if tiers is None:
            tiers = self._tiers[series.element_id] = _ElementTiers(
                self.tier_config
            )
        tiers.absorb(bucket, self._level_bytes)

    def _drop_coarse(self, series: _ElementSeries) -> None:
        """A re-baseline invalidates pre-restart history entirely.

        Diffing across a producer restart is meaningless (counters
        re-zeroed), so the coarse tiers are cleared along with the fine
        ring — no stitched window ever straddles a restart.
        """
        tiers = self._tiers.pop(series.element_id, None)
        if tiers is not None:
            for i, tier in enumerate(tiers.tiers):
                self._level_bytes[i] -= tier.nbytes

    def clear(self) -> None:
        with self._lock:
            super().clear()
            self._tiers.clear()
            self._level_bytes = [0] * self.tier_config.coarse_tiers

    # -- stitched reads ----------------------------------------------------------

    def _coarse_at_or_before(
        self, element_id: str, t: float
    ) -> Optional[CounterSnapshot]:
        series = self._series.get(element_id)
        tiers = self._tiers.get(element_id)
        if series is None or tiers is None:
            return None
        best: Optional[_CoarseBucket] = None
        for _level, bucket in tiers.samples_oldest_first():
            if bucket.last_ts <= t + 1e-12:
                best = bucket  # keep walking: newest qualifying wins
            else:
                break
        if best is None:
            return None
        return best.snapshot(element_id, series.machine)

    def _oldest_retained(self, element_id: str) -> Optional[CounterSnapshot]:
        series = self._series.get(element_id)
        tiers = self._tiers.get(element_id)
        if series is not None and tiers is not None:
            for _level, bucket in tiers.samples_oldest_first():
                return bucket.snapshot(element_id, series.machine)
        return None

    def at_or_before(self, element_id: str, t: float) -> CounterSnapshot:
        """Latest retained sample <= ``t``, fine ring first, then tiers."""
        with self._lock:
            try:
                return super().at_or_before(element_id, t)
            except StoreError:
                snap = self._coarse_at_or_before(element_id, t)
                if snap is None:
                    raise
                return snap

    def window(self, element_id: str, t0: float, t1: float) -> CounterWindow:
        """``[t0, t1]`` activity, stitched across fine and coarse tiers.

        Bounds inside the fine ring resolve exactly as the flat store
        would; bounds older than the fine ring resolve against the
        coarse tiers' retained samples.  The start bound still falls
        back to the oldest *retained* sample when history no longer
        reaches ``t0`` — same contract as the flat store, just with a
        much longer reach.
        """
        if t1 < t0:
            raise ValueError(f"window ends before it starts: [{t0}, {t1}]")
        with self._lock:
            series = self._get_series(element_id)
            end = self.at_or_before(element_id, t1)
            try:
                start = self.at_or_before(element_id, t0)
            except StoreError:
                start = self._oldest_retained(element_id)
                if start is None:
                    start = series.materialize(0)
            return CounterWindow(start=start, end=end)

    # -- introspection -----------------------------------------------------------

    def coarse_buckets(self, element_id: str) -> List[BucketStats]:
        """Every coarse bucket of one element, oldest history first.

        The property-test surface: exposes each bucket's exact merged
        sums/mins/maxes (ABSENT cells omitted) so tests can check them
        against independently-tracked evicted rows.
        """
        with self._lock:
            tiers = self._tiers.get(element_id)
            if tiers is None:
                return []
            out: List[BucketStats] = []
            for level, bucket in tiers.samples_oldest_first():
                names = bucket.names

                def _strip(arr: array) -> Dict[str, float]:
                    return {
                        names[i]: arr[i]
                        for i in range(len(names))
                        if arr[i] == arr[i]
                    }

                out.append(
                    BucketStats(
                        level=level,
                        first_ts=bucket.first_ts,
                        last_ts=bucket.last_ts,
                        last_seq=bucket.last_seq,
                        samples=bucket.samples,
                        units=bucket.units,
                        sums=_strip(bucket.vsum),
                        mins=_strip(bucket.vmin),
                        maxs=_strip(bucket.vmax),
                        lasts=_strip(bucket.vlast),
                    )
                )
            return out

    def retention_span(self, element_id: str) -> Tuple[float, float]:
        """(oldest retained ts, newest ts) across fine + coarse history."""
        with self._lock:
            series = self._get_series(element_id)
            newest = series.stamp_at(series.count - 1)
            oldest = series.stamp_at(0)
            tiers = self._tiers.get(element_id)
            if tiers is not None:
                for _level, bucket in tiers.samples_oldest_first():
                    oldest = min(oldest, bucket.first_ts)
                    break
            return oldest, newest

    # -- accounting --------------------------------------------------------------

    def nbytes(self) -> Dict[str, int]:
        """Buffer bytes per tier: ``fine``, ``tier<k>``, ``coarse``, ``total``."""
        with self._lock:
            out = super().nbytes()
            for i, n in enumerate(self._level_bytes):
                out[f"tier{i + 1}"] = n
            out["coarse"] = coarse = sum(self._level_bytes)
            out["total"] = out["fine"] + coarse
            return out
