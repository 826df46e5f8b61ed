"""Per-agent time-series store for counter snapshots.

PerfSight's collection plane is streaming, not per-query: the agent
sweeps its element channels on a cadence, appends the resulting typed
:class:`~repro.core.counters.CounterSnapshot` objects to a bounded
per-element ring buffer, and uploads only what changed since the
collector's last acknowledged sequence number.  The controller keeps
one mirror :class:`TimeSeriesStore` per agent and answers every
Figure-6 utility routine as an O(1)-per-lookup window query against the
mirror — no per-query RPC, no re-reading of overlapping intervals.

Storage is **columnar**: each element's series is a fixed-capacity ring
of flat ``array`` buffers — one ``array('q')`` of sequence numbers, one
``array('d')`` of timestamps, and one stride-``n_attrs`` ``array('d')``
of attribute values — rather than a deque of per-snapshot dicts.  A
delta batch therefore encodes for the wire straight out of the value
arrays (:meth:`TimeSeriesStore.drain_blocks`) and a mirror applies a
received batch straight back into them (:meth:`TimeSeriesStore
.apply_blocks`) with zero intermediate dict objects: ``SeriesBlock`` is
the one delta shape between an agent's store and its mirrors.
Dict-shaped :class:`CounterSnapshot` views are materialized
lazily only at the query/diagnosis boundary, so Algorithm-1/2 verdicts
and Figure-6 lookups are byte-for-byte what the dict-backed store
produced.  Cells for counters an element does not export hold
:data:`~repro.core.counters.ABSENT` (NaN) and vanish on
materialization.

Snapshots are delta-compressed on ingest: an element whose sequence
number did not advance (nothing observable changed) is not stored
again, so idle elements cost nothing beyond their first sample.

An agent restart breaks the monotonicity the windowed differencing
relies on: the new process re-numbers sequences from zero (element
objects recreated) and/or re-counts from zero (kernel counters reset
with the device, middlebox restarted).  Diffing across that boundary
would emit huge negative deltas, so on either signature — a sequence
regression, or a shrinking monotonic counter — the store **re-baselines**
the element: it drops the pre-restart history and restarts the series
from the incoming snapshot, counting the event in :attr:`resets`.
Diagnosis windows then never straddle a restart.

The store is thread-safe: an internal lock covers every ingest and
lookup, so an agent's cadence sweep can append while its server's loop
thread drains and answers queries (and, controller-side, while the
fleet refresh pool syncs one mirror as diagnosis threads read another)
without torn reads.  The critical sections are tiny — a dict probe and
a ring scan — so the lock does not serialize anything that matters.
"""

from __future__ import annotations

import threading
from array import array
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.counters import ABSENT, CounterSnapshot, CounterWindow

#: Ring capacity per element.  At a 10 Hz cadence this retains ~25 s of
#: history per element, far beyond any diagnosis window in the paper.
DEFAULT_CAPACITY_PER_ELEMENT = 256

#: Monotonic counters whose regression marks a counter reset even when
#: the sequence number kept advancing (element object survived, counter
#: state was zeroed underneath it).
RESET_SENTINEL_ATTRS = (
    "rx_pkts",
    "rx_bytes",
    "tx_pkts",
    "tx_bytes",
    "drops",
    "in_time",
    "out_time",
)

#: What the coarse zone report adds up per element, in this order
#: (:meth:`TimeSeriesStore.trailing_rx_deltas`).
RX_ATTRS = ("rx_pkts", "rx_bytes", "tx_pkts")

#: One element's slice of a delta batch, shaped for the wire codec:
#: ``(element_id, machine, attr_names, rows)`` where every row is
#: ``(seq, timestamp, values)`` with ``values`` position-aligned to
#: ``attr_names`` (ABSENT/NaN cells included, fixed stride).
SeriesBlock = Tuple[str, str, Tuple[str, ...], List[Tuple[int, float, Sequence[float]]]]


class StoreError(KeyError):
    """Raised for lookups against data the store does not (yet) hold."""


#: (stored column per incoming name, (incoming index, stored column) per
#: reset sentinel among the incoming names) — how one incoming names
#: tuple lands in one schema's columns.
_Layout = Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]]


class _Schema:
    """The column layout of one distinct attr-names tuple, interned.

    Every series storing the same names — across an agent store, its
    zone mirrors and their coarse tiers — points at one ``_Schema``
    (see :func:`_schema_for`), so a fleet whose thousands of elements
    export a handful of attr tuples holds a handful of schemas.  The
    layout fields never change; ``layouts`` only gains entries, each an
    immutable :data:`_Layout` for one incoming names tuple.  A series
    whose schema must grow moves to the union schema instead of
    editing this one.
    """

    __slots__ = (
        "names", "index", "stride", "sentinel_cols", "rx_cols", "absent_row", "layouts"
    )

    def __init__(self, names: Tuple[str, ...]) -> None:
        self.names = names
        self.index: Dict[str, int] = {name: i for i, name in enumerate(names)}
        self.stride = len(names)
        self.sentinel_cols: Tuple[Tuple[str, int], ...] = tuple(
            (name, self.index[name])
            for name in RESET_SENTINEL_ATTRS
            if name in self.index
        )
        #: Column of each of :data:`RX_ATTRS`, -1 where there is none.
        self.rx_cols = tuple(self.index.get(name, -1) for name in RX_ATTRS)
        self.absent_row = array("d", [ABSENT]) * self.stride
        self.layouts: Dict[Tuple[str, ...], _Layout] = {}

    def sentinel_pairs(self, names: Sequence[str]) -> Tuple[Tuple[int, int], ...]:
        """(incoming index, stored column) for each sentinel in ``names``."""
        sentinel = dict(self.sentinel_cols)
        return tuple(
            (i, sentinel[name])
            for i, name in enumerate(names)
            if name in sentinel
        )

    def layout(self, names: Tuple[str, ...]) -> _Layout:
        """Where ``names`` (all already columns here) land, memoized."""
        layout = self.layouts.get(names)
        if layout is None:
            index = self.index
            # setdefault: racing writers on two stores agree on one entry
            layout = self.layouts.setdefault(
                names, (tuple(index[n] for n in names), self.sentinel_pairs(names))
            )
        return layout


#: names tuple -> its one schema, for the life of the process.  Bounded
#: by the distinct attr tuples ever stored, which a deployment's element
#: kinds fix at a handful.  Process-wide so an agent store and its
#: mirrors share; the sharing cannot be observed, since a schema's
#: layout is a function of its names alone.
_SCHEMAS: Dict[Tuple[str, ...], _Schema] = {}


def _schema_for(names: Tuple[str, ...]) -> _Schema:
    """The interned schema of ``names``; safe under concurrent stores."""
    schema = _SCHEMAS.get(names)
    if schema is None:
        schema = _SCHEMAS.setdefault(names, _Schema(names))
    return schema


def _cells(values: array, base: int, cols: Tuple[int, ...]) -> List[float]:
    """One row's cells as :meth:`CounterSnapshot.get` reads them.

    An ABSENT (NaN) cell materializes as a missing attr, so it reads
    0.0; so does a column the schema lacks (-1).
    """
    out = []
    for col in cols:
        value = values[base + col] if col >= 0 else 0.0
        out.append(value if value == value else 0.0)
    return out


class _ElementSeries:
    """Fixed-capacity columnar ring of one element's snapshots.

    Logical row ``i`` (0 = oldest) lives at physical slot
    ``(start + i) % capacity``; the value matrix is row-major with
    stride ``schema.stride``.  Growing the attribute schema (a new
    ``drops.<location>`` appearing mid-flight) moves the series to the
    interned union schema and rebuilds only its own value array with
    the wider stride, back-filling old rows with ABSENT — rare, and
    invisible to readers because materialization strips ABSENT.

    The schema (names, column index, sentinels, ABSENT row and the
    incoming-names layouts) is shared with every series of the same
    names, so what a series holds on its own is its rows, a one-entry
    layout memo, the read-side snapshot and window memos, and one
    schema reference.
    """

    __slots__ = (
        "element_id",
        "machine",
        "capacity",
        "schema",
        "seqs",
        "stamps",
        "values",
        "start",
        "count",
        "_memo_names",
        "_memo_layout",
        "_recent",
        "_win_memo",
        "on_evict",
        "on_clear",
    )

    def __init__(self, element_id: str, machine: str, capacity: int) -> None:
        self.element_id = element_id
        self.machine = machine
        self.capacity = capacity
        self.schema = _schema_for(())
        self.seqs = array("q", bytes(8 * capacity))
        self.stamps = array("d", bytes(8 * capacity))
        self.values = array("d")
        self.start = 0
        self.count = 0
        # The last incoming names tuple and its entry in the schema's
        # shared layouts: one entry, since a producer re-sends one
        # names tuple row after row.
        self._memo_names: Optional[Tuple[str, ...]] = None
        self._memo_layout: _Layout = ((), ())
        # The dict-shaped views of the two newest rows, [second newest,
        # newest]: a trailing window starts where the previous one ended,
        # so the Figure-6 lookups (window_ending_now et al.) re-read only
        # these and materialize each row about once.  Older rows are
        # materialized on demand and not retained, so the memo stays two
        # snapshots whatever the ring size or history length.
        self._recent: List[Optional[CounterSnapshot]] = [None, None]
        # The last trailing window read, as (duration_s, window): one
        # entry, dropped by every push and clear.
        self._win_memo: Optional[Tuple[float, CounterWindow]] = None
        # Tiering hooks (see repro.core.tiers): ``on_evict(series,
        # slot)`` fires while a recycled slot still holds its dying
        # row; ``on_clear(series)`` fires on a re-baseline.  Both run
        # under the owning store's lock.  None for a flat store.
        self.on_evict = None
        self.on_clear = None

    # -- geometry ---------------------------------------------------------------

    def _slot(self, i: int) -> int:
        return (self.start + i) % self.capacity

    def _widen(self, new_names: Sequence[str]) -> None:
        """Add columns for never-seen attrs; back-fill old rows with ABSENT.

        The series moves to the union schema; the one it leaves is
        shared and stays as it was.
        """
        old_stride = self.schema.stride
        self.schema = _schema_for(self.schema.names + tuple(new_names))
        stride = self.schema.stride
        widened = array("d", [ABSENT]) * (self.capacity * stride)
        for slot in range(self.capacity):
            widened[slot * stride: slot * stride + old_stride] = self.values[
                slot * old_stride: (slot + 1) * old_stride
            ]
        self.values = widened
        self._memo_names = None

    def _layout(self, names: Sequence[str]) -> _Layout:
        """Columns and sentinel pairs of incoming names, widening on new ones.

        The wire-apply path hands in the *same* names tuple for every
        row of a block and an agent store sees an *equal* fresh tuple
        per stored snapshot, so a one-entry memo keyed by value makes
        the per-row mapping one identity check or one tuple compare; a
        miss reads the shared schema's layouts.
        """
        if names is self._memo_names or names == self._memo_names:
            return self._memo_layout
        key = names if isinstance(names, tuple) else tuple(names)
        index = self.schema.index
        missing = [n for n in key if n not in index]
        if missing:
            self._widen(missing)
        layout = self.schema.layout(key)
        self._memo_names = key
        self._memo_layout = layout
        return layout

    # -- ingest -----------------------------------------------------------------

    def push_row(
        self,
        machine: str,
        seq: int,
        timestamp: float,
        names: Sequence[str],
        row_values: Sequence[float],
    ) -> None:
        recent = self._recent
        # The newest row becomes the second newest; a machine change
        # drops it, since a fresh view would carry the new machine.
        recent[0] = recent[1] if machine == self.machine else None
        recent[1] = None
        self._win_memo = None
        self.machine = machine
        cols = self._layout(names)[0]
        schema = self.schema
        stride = schema.stride
        if self.count == self.capacity:
            slot = self.start
            if self.on_evict is not None:
                self.on_evict(self, slot)
            self.start = (self.start + 1) % self.capacity
        else:
            slot = self._slot(self.count)
            self.count += 1
        self.seqs[slot] = seq
        self.stamps[slot] = timestamp
        base = slot * stride
        if stride:
            self.values[base: base + stride] = schema.absent_row
            values = self.values
            for col, value in zip(cols, row_values):
                values[base + col] = value

    def clear(self) -> None:
        self.start = 0
        self.count = 0
        self._recent = [None, None]
        self._win_memo = None
        if self.on_clear is not None:
            self.on_clear(self)

    def nbytes(self) -> int:
        """History buffer bytes held (ring arrays; caches excluded)."""
        return (
            len(self.seqs) * self.seqs.itemsize
            + len(self.stamps) * self.stamps.itemsize
            + len(self.values) * self.values.itemsize
        )

    # -- reads ------------------------------------------------------------------

    def seq_at(self, i: int) -> int:
        return self.seqs[self._slot(i)]

    def stamp_at(self, i: int) -> float:
        return self.stamps[self._slot(i)]

    def row_values(self, i: int) -> array:
        stride = self.schema.stride
        base = self._slot(i) * stride
        return self.values[base: base + stride]

    def trailing_start(self, duration_s: float) -> int:
        """Logical index of the row a trailing ``duration_s`` window starts at.

        The newest row at least ``duration_s`` older than the newest
        one, or the oldest row when the ring does not reach back that
        far.  The series must hold a row.
        """
        last = self.count - 1
        stamps, start, cap = self.stamps, self.start, self.capacity
        t0 = stamps[(start + last) % cap] - duration_s + 1e-12
        for i in range(last, -1, -1):
            if stamps[(start + i) % cap] <= t0:
                return i
        return 0

    def materialize(self, i: int) -> CounterSnapshot:
        # 1 for the newest row, 0 for the one before it, < 0 for older
        k = i - self.count + 2
        if k >= 0:
            snap = self._recent[k]
            if snap is not None:
                return snap
        slot = self._slot(i)
        snap = CounterSnapshot.from_columns(
            self.element_id,
            self.machine,
            self.seqs[slot],
            self.stamps[slot],
            self.schema.names,
            self.row_values(i),
        )
        if k >= 0:
            self._recent[k] = snap
        return snap

    def is_reset_against_latest(
        self, seq: int, names: Sequence[str], row_values: Sequence[float]
    ) -> bool:
        """Did the producer restart between the latest row and this one?

        Two signatures: the sequence number went backwards (the producer
        re-numbered from scratch), or a monotonic counter shrank while
        the sequence advanced (the counter state was zeroed under a
        surviving producer).  ABSENT cells never vote: a counter the
        element stopped exporting is not a regression.
        """
        last_slot = (self.start + self.count - 1) % self.capacity
        if seq < self.seqs[last_slot]:
            return True
        schema = self.schema
        if not schema.sentinel_cols:
            return False
        # (incoming index, stored column) pairs — memoized per names
        # tuple, so the mapping is paid once per schema, not per row
        if names is self._memo_names or names == self._memo_names:
            pairs = self._memo_layout[1]
        else:
            pairs = schema.sentinel_pairs(names)
        base = last_slot * schema.stride
        values = self.values
        # Any comparison with NaN is false, so an ABSENT cell on either
        # side never votes.
        for i, col in pairs:
            if row_values[i] < values[base + col] - 1e-9:
                return True
        return False


class TimeSeriesStore:
    """Bounded, columnar per-element ring buffers of counter snapshots.

    A non-monotonic ingest (see the module docstring) restarts the
    element's series from the incoming row.
    """

    def __init__(self, capacity_per_element: int = DEFAULT_CAPACITY_PER_ELEMENT):
        if capacity_per_element < 2:
            raise ValueError(
                f"capacity must hold at least a window pair: {capacity_per_element!r}"
            )
        self.capacity_per_element = capacity_per_element
        self._series: Dict[str, _ElementSeries] = {}
        # Reentrant because the public lookups compose (window ->
        # at_or_before) without releasing between steps.
        self._lock = threading.RLock()
        self.total_appended = 0
        self.total_deduped = 0
        self.resets: Dict[str, int] = {}
        self.total_resets = 0

    def _make_series(self, element_id: str, machine: str) -> _ElementSeries:
        """Series factory — the hook subclasses (tiered stores) override."""
        return _ElementSeries(element_id, machine, self.capacity_per_element)

    # -- ingest -----------------------------------------------------------------

    def _new_series(self, element_id: str, machine: str) -> _ElementSeries:
        """Register an element seen for the first time (lock held)."""
        series = self._series[element_id] = self._make_series(element_id, machine)
        return series

    def _ingest_row(
        self,
        series: _ElementSeries,
        machine: str,
        seq: int,
        timestamp: float,
        names: Sequence[str],
        values: Sequence[float],
    ) -> bool:
        """One row into ``series``; the caller holds the lock.

        The per-row rule every ingest path shares: a re-observation of
        the latest sequence number is dropped without touching stored
        state, a producer restart re-baselines the series, anything else
        is pushed.  Returns False when the row was delta-compressed.
        """
        if series.count:
            if seq == series.seqs[(series.start + series.count - 1) % series.capacity]:
                self.total_deduped += 1
                return False
            if series.is_reset_against_latest(seq, names, values):
                series.clear()
                element_id = series.element_id
                self.resets[element_id] = self.resets.get(element_id, 0) + 1
                self.total_resets += 1
        series.push_row(machine, seq, timestamp, names, values)
        self.total_appended += 1
        return True

    def append_row(
        self,
        element_id: str,
        machine: str,
        seq: int,
        timestamp: float,
        names: Sequence[str],
        values: Sequence[float],
    ) -> bool:
        """Ingest one columnar row; returns False when delta-compressed.

        This is the zero-copy half of :meth:`append`: a columnar
        producer lands rows directly in the value arrays without ever
        building an attrs dict.  ``names`` and ``values`` are
        position-aligned; ABSENT/NaN cells mark counters the element
        does not export.

        Within one element the store keeps exactly one entry per
        sequence number, ordered, stamped with the time that version was
        first observed.  Re-observations of the current version are
        dropped without touching stored state, which keeps an agent
        store and its controller mirror byte-for-byte identical once the
        mirror has acknowledged the latest sequence numbers.
        """
        with self._lock:
            series = self._series.get(element_id)
            if series is None:
                series = self._new_series(element_id, machine)
            return self._ingest_row(series, machine, seq, timestamp, names, values)

    def append(self, snap: CounterSnapshot) -> bool:
        """Add a snapshot; returns False when delta-compressed away.

        The re-observation check runs here first, ahead of the shared
        per-row rule's, so a sweep re-reading an unchanged element
        builds no row at all.
        """
        with self._lock:
            series = self._series.get(snap.element_id)
            if series is None:
                series = self._new_series(snap.element_id, snap.machine)
            elif series.count:
                last_slot = (series.start + series.count - 1) % series.capacity
                if snap.seq == series.seqs[last_slot]:
                    self.total_deduped += 1
                    return False
            return self._ingest_row(
                series,
                snap.machine,
                snap.seq,
                snap.timestamp,
                tuple(snap.attrs),
                [float(v) for v in snap.attrs.values()],
            )

    def apply_blocks(self, blocks: Iterable[SeriesBlock]) -> int:
        """Apply a drained delta batch; returns rows shipped (pre-dedup).

        The mirror half of the packed wire path.  Semantically this is
        :meth:`append_row` per row — same dedup, reset detection and
        re-baselining — but the whole batch lands under one lock hold
        with the element series resolved once per block, which is where
        the decode side's throughput comes from.
        """
        shipped = 0
        with self._lock:
            ingest = self._ingest_row
            for element_id, machine, names, rows in blocks:
                shipped += len(rows)
                series = self._series.get(element_id)
                if series is None:
                    series = self._new_series(element_id, machine)
                for seq, timestamp, values in rows:
                    ingest(series, machine, seq, timestamp, names, values)
        return shipped

    def clear(self) -> None:
        with self._lock:
            self._series.clear()

    # -- accounting --------------------------------------------------------------

    def nbytes(self) -> Dict[str, int]:
        """History buffer bytes by tier; a flat store is all ``fine``.

        Counts the ring arrays only (snapshot/window caches are
        derived views, bounded per series: the snapshots of its two
        newest rows and one trailing window, so they do not grow with
        ring size or history).  Tiered subclasses add per-coarse-tier keys;
        every shape carries ``fine`` and ``total`` so accounting
        consumers (gauges, benchmarks) read one schema.
        """
        with self._lock:
            fine = sum(s.nbytes() for s in self._series.values())
            return {"fine": fine, "total": fine}

    # -- lookups ----------------------------------------------------------------

    def element_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._series)

    def __contains__(self, element_id: str) -> bool:
        with self._lock:
            return element_id in self._series

    def __len__(self) -> int:
        with self._lock:
            return sum(s.count for s in self._series.values())

    def _get_series(self, element_id: str) -> _ElementSeries:
        series = self._series.get(element_id)
        if series is None or not series.count:
            raise StoreError(f"no snapshots stored for element {element_id!r}")
        return series

    def latest(self, element_id: str) -> CounterSnapshot:
        with self._lock:
            series = self._get_series(element_id)
            return series.materialize(series.count - 1)

    def newest_timestamp(self) -> Optional[float]:
        """The newest stored row's timestamp over every element, if any.

        Read straight from the rings under one lock hold: no snapshot
        is materialized to get at one float.
        """
        with self._lock:
            stamps = [s.stamp_at(s.count - 1) for s in self._series.values() if s.count]
        return max(stamps) if stamps else None

    def at_or_before(self, element_id: str, t: float) -> CounterSnapshot:
        """The element's state as of time ``t`` (latest sample <= t)."""
        with self._lock:
            series = self._get_series(element_id)
            for i in range(series.count - 1, -1, -1):
                if series.stamp_at(i) <= t + 1e-12:
                    return series.materialize(i)
            raise StoreError(
                f"no snapshot of {element_id!r} at or before t={t}: "
                f"history starts at {series.stamp_at(0)}"
            )

    def window(self, element_id: str, t0: float, t1: float) -> CounterWindow:
        """The element's activity over ``[t0, t1]``.

        The start bound falls back to the oldest retained sample when
        the ring no longer reaches back to ``t0``.
        """
        if t1 < t0:
            raise ValueError(f"window ends before it starts: [{t0}, {t1}]")
        with self._lock:
            series = self._get_series(element_id)
            end = self.at_or_before(element_id, t1)
            try:
                start = self.at_or_before(element_id, t0)
            except StoreError:
                start = series.materialize(0)
            return CounterWindow(start=start, end=end)

    def window_ending_now(self, element_id: str, duration_s: float) -> CounterWindow:
        """The trailing ``duration_s`` window up to the latest sample.

        This is the hot path of every Figure-6 routine, so it scans the
        ring once instead of delegating to :meth:`window`.
        """
        if duration_s <= 0:
            raise ValueError(f"window duration must be positive: {duration_s!r}")
        with self._lock:
            series = self._get_series(element_id)
            memo = series._win_memo
            if memo is not None and memo[0] == duration_s:
                return memo[1]
            win = CounterWindow(
                start=series.materialize(series.trailing_start(duration_s)),
                end=series.materialize(series.count - 1),
            )
            series._win_memo = (duration_s, win)
            return win

    def trailing_rx_deltas(
        self, duration_s: float
    ) -> Tuple[List[Tuple[float, float, float]], Optional[float]]:
        """Every element's trailing-window receive deltas, off the columns.

        Returns, per element holding a row and in sorted id order,
        ``(rx_pkts delta, rx_bytes delta, (rx_pkts - tx_pkts) growth)``
        over the window :meth:`window_ending_now` would give, plus the
        newest row's timestamp over those elements (None for none).
        The three numbers are bit for bit that window's
        ``delta("rx_pkts")``, ``delta("rx_bytes")`` and ``pkt_loss()``:
        an ABSENT cell (or a column the schema lacks) reads 0.0, as
        :meth:`CounterSnapshot.get` reads a missing attr, and the
        subtractions run in the same order.  Read from the ring arrays
        under one lock hold: no snapshot or window is built.
        """
        if duration_s <= 0:
            raise ValueError(f"window duration must be positive: {duration_s!r}")
        out: List[Tuple[float, float, float]] = []
        last_ts: Optional[float] = None
        with self._lock:
            for eid in sorted(self._series):
                series = self._series[eid]
                if not series.count:
                    continue
                stride, cols = series.schema.stride, series.schema.rx_cols
                newest = series._slot(series.count - 1)
                rx0, b0, tx0 = _cells(
                    series.values,
                    series._slot(series.trailing_start(duration_s)) * stride,
                    cols,
                )
                rx1, b1, tx1 = _cells(series.values, newest * stride, cols)
                out.append((rx1 - rx0, b1 - b0, (rx1 - tx1) - (rx0 - tx0)))
                ts = series.stamps[newest]
                last_ts = ts if last_ts is None else max(last_ts, ts)
        return out, last_ts

    # -- delta-batched collection -------------------------------------------------

    def cursor(self) -> Dict[str, int]:
        """element id -> latest stored sequence number (the ack vector)."""
        with self._lock:
            return {
                eid: series.seq_at(series.count - 1)
                for eid, series in self._series.items()
                if series.count
            }

    def _first_changed(self, series: _ElementSeries, acked: Mapping[str, int]) -> int:
        """Logical index of the oldest row newer than the ack floor.

        Sequence numbers strictly increase inside a ring (an equal one
        is deduped, a smaller one re-baselines), so the changed rows are
        a suffix: walk back from the newest row and stop at the floor —
        an element with nothing new costs one comparison.  Restart
        rule: a floor *above* the newest stored sequence means the
        collector acknowledged a previous incarnation of the producer
        (it restarted and re-numbered); everything held is resent so the
        mirror can observe the regression and re-baseline.
        """
        seqs, start, cap = series.seqs, series.start, series.capacity
        first = series.count
        floor = acked.get(series.element_id, -1)
        if seqs[(start + first - 1) % cap] < floor:
            return 0
        while first and seqs[(start + first - 1) % cap] > floor:
            first -= 1
        return first

    def changed_since(self, acked: Mapping[str, int]) -> List[CounterSnapshot]:
        """Every stored snapshot newer than the collector's ack vector.

        Returned oldest-first per element so a mirror replaying the batch
        converges to the same series order.  This is the dict-shaped
        view (materialized snapshots); the wire hot path uses
        :meth:`drain_blocks` instead.
        """
        with self._lock:
            out: List[CounterSnapshot] = []
            for eid in sorted(self._series):
                series = self._series[eid]
                if not series.count:
                    continue
                for i in range(self._first_changed(series, acked), series.count):
                    out.append(series.materialize(i))
            return out

    def changed_blocks(self, acked: Mapping[str, int]) -> List[SeriesBlock]:
        """:meth:`changed_since`, columnar: zero dicts, zero snapshots.

        Each element contributes one block — its id, machine, attr-name
        schema and the changed rows as ``(seq, timestamp, values)`` with
        ``values`` a flat fixed-stride slice of the ring's value array.
        This is what the binary wire codec packs directly.
        """
        with self._lock:
            out: List[SeriesBlock] = []
            for eid in sorted(self._series):
                series = self._series[eid]
                if not series.count:
                    continue
                first = self._first_changed(series, acked)
                if first < series.count:
                    rows: List[Tuple[int, float, Sequence[float]]] = [
                        (series.seq_at(i), series.stamp_at(i), series.row_values(i))
                        for i in range(first, series.count)
                    ]
                    out.append((eid, series.machine, series.schema.names, rows))
            return out

    def drain_blocks(
        self, acked: Mapping[str, int]
    ) -> Tuple[List[SeriesBlock], Dict[str, int]]:
        """:meth:`changed_blocks` and :meth:`cursor` as one atomic step.

        The pair must be computed under one lock hold: were a cadence
        sweep to append between the two calls, the cursor would
        acknowledge a sequence number whose row is not in the batch,
        and the collector would never receive it (until the element
        happened to change again).
        """
        with self._lock:
            return self.changed_blocks(acked), self.cursor()
