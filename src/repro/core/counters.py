"""Element counters: the statistics primitives of PerfSight (Section 4.1).

The paper instruments every software-dataplane element with three counter
types:

* a **packet counter** and a **byte counter** on the element's datapath
  between its input and output methods (plus drop counters on every code
  branch that can discard a packet), and
* an **I/O time counter** recording the time spent inside read/write
  methods, used only by elements that interact with buffers.

Counters accumulate monotonically as packets are processed; aggregate
statistics (throughput, drop rate, average packet size) are derived by the
controller from two samples (Figure 6 of the paper).

The paper measures the update cost of each counter type on its testbed:
3 ns for a simple (packet/byte) counter and 0.29 us for a time counter
(Section 7.4).  :class:`CounterOverheadModel` carries those constants so the
simulator can charge instrumentation cost against an element's CPU budget,
which is what Table 2 and Figures 15-16 quantify.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isnan
from typing import Dict, Iterable, Mapping, Optional, Sequence

#: Attribute-value sentinel meaning "this element does not export this
#: counter".  The array-backed store and the binary wire codec keep every
#: row at a fixed stride, so absent cells travel as NaN and are stripped
#: again on materialization; real counters are always finite.
ABSENT = float("nan")

#: The attribute names every :class:`CounterSet` exports regardless of
#: traffic: the fixed half of the wire schema, seeded into a
#: connection's id tables at HELLO time so steady-state binary frames
#: need no dictionary deltas.  Dynamic names (``drops.<location>``,
#: ``drops_flow.<flow>``) are announced incrementally by the codec.
STANDARD_ATTRS = (
    "rx_pkts",
    "rx_bytes",
    "tx_pkts",
    "tx_bytes",
    "drops",
    "drop_bytes",
    "in_time",
    "out_time",
)

#: Cost of one simple (packet or byte) counter update, in seconds.
#: Measured in the paper's testbed (Section 7.4): "simple counters consume
#: 3ns per update".
SIMPLE_COUNTER_UPDATE_COST_S = 3e-9

#: Cost of one I/O-time counter update, in seconds.  The paper: "a timer
#: counter consumes 0.29us per update" (two clock reads + accumulate).
TIME_COUNTER_UPDATE_COST_S = 0.29e-6


@dataclass(frozen=True)
class CounterOverheadModel:
    """CPU cost charged per counter update.

    ``enabled_simple`` / ``enabled_time`` let experiments toggle each
    counter family independently, matching the with/without-time-counter
    comparison of Table 2.
    """

    simple_update_cost_s: float = SIMPLE_COUNTER_UPDATE_COST_S
    time_update_cost_s: float = TIME_COUNTER_UPDATE_COST_S
    enabled_simple: bool = True
    enabled_time: bool = True

    def cost_for(self, simple_updates: float, time_updates: float) -> float:
        """CPU-seconds consumed by a batch of counter updates."""
        cost = 0.0
        if self.enabled_simple:
            cost += simple_updates * self.simple_update_cost_s
        if self.enabled_time:
            cost += time_updates * self.time_update_cost_s
        return cost

    @classmethod
    def disabled(cls) -> "CounterOverheadModel":
        """A model in which instrumentation costs nothing (uninstrumented)."""
        return cls(enabled_simple=False, enabled_time=False)


@dataclass(frozen=True)
class CounterSnapshot:
    """One element's typed, versioned counter snapshot.

    This is the paper's unified statistics record (Section 4.2)::

        <TimeStamp, Element, (attr1, value1), (attr2, value2), ...>

    which abstracts over the heterogeneity of the underlying elements
    (kernel devices, vswitch rules, QEMU, middlebox software).  Every
    sweep, store, wire frame and verdict uses it; over the wire the same
    counters travel as packed ``bin1`` rows (:mod:`repro.core.net.codec`).
    ``element_id`` is the agent-local element identifier (e.g. ``eth0``,
    ``tun-vm3``, ``qemu-vm3``) and ``machine`` names the physical server
    whose agent produced it.

    ``seq`` is a per-element monotonic sequence number that advances only
    when the observable counter state changes, which is what makes
    delta-batched collection possible: a collector that has acknowledged
    ``seq`` needs nothing from an element still at ``seq``.  ``attrs`` is
    an immutable mapping (copy-on-read is free: readers share it).
    """

    element_id: str
    machine: str
    seq: int
    timestamp: float
    attrs: Mapping[str, float]

    def get(self, attr: str, default: float = 0.0) -> float:
        return float(self.attrs.get(attr, default))

    def __contains__(self, attr: str) -> bool:
        return attr in self.attrs

    def at(self, timestamp: float) -> "CounterSnapshot":
        """The same counter state re-observed at a later time (shares attrs)."""
        if timestamp == self.timestamp:
            return self
        # The sweep restamps every unchanged element on every read, so
        # the copy skips the frozen __init__, which sets each field
        # through object.__setattr__: the fields are copied as a dict.
        snap = object.__new__(type(self))
        fields = snap.__dict__
        fields.update(self.__dict__)
        fields["timestamp"] = timestamp
        return snap

    def subset(self, attrs: Iterable[str]) -> "CounterSnapshot":
        """The same snapshot restricted to the requested attributes.

        Missing attributes are left out (not defaulted), so callers can
        tell "element does not export this counter" from "counter is
        zero".
        """
        picked = {a: float(self.attrs[a]) for a in attrs if a in self.attrs}
        return CounterSnapshot(
            self.element_id, self.machine, self.seq, self.timestamp, picked
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "element": self.element_id,
            "machine": self.machine,
            "seq": self.seq,
            "timestamp": self.timestamp,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CounterSnapshot":
        try:
            element_id = str(payload["element"])
            seq = int(payload["seq"])  # type: ignore[arg-type]
            timestamp = float(payload["timestamp"])  # type: ignore[arg-type]
            attrs_raw = payload["attrs"]
        except KeyError as exc:
            raise ValueError(f"counter snapshot missing field: {exc}") from exc
        if not isinstance(attrs_raw, Mapping):
            raise ValueError("counter snapshot attrs must be a mapping")
        attrs = {str(k): float(v) for k, v in attrs_raw.items()}
        return cls(element_id, str(payload.get("machine", "")), seq, timestamp, attrs)

    @classmethod
    def from_columns(
        cls,
        element_id: str,
        machine: str,
        seq: int,
        timestamp: float,
        names: Sequence[str],
        values: Sequence[float],
    ) -> "CounterSnapshot":
        """Materialize one row of a column-oriented series.

        ``names`` and ``values`` are position-aligned; :data:`ABSENT`
        (NaN) cells mark counters the element does not export and are
        dropped, so the dict view is indistinguishable from a snapshot
        that was never columnar.
        """
        attrs = {
            name: value
            for name, value in zip(names, values)
            if not isnan(value)
        }
        return cls(element_id, machine, seq, timestamp, attrs)


@dataclass(frozen=True)
class CounterWindow:
    """Two snapshots of one element bracketing an observation interval.

    This is the object every Figure-6 routine and both diagnosis
    algorithms actually operate on: counters are monotonic, so the
    difference between ``start`` and ``end`` is the activity within the
    window.  The helpers below replace the ad-hoc interval diffing the
    diagnosis modules used to reimplement individually.
    """

    start: CounterSnapshot
    end: CounterSnapshot

    def __post_init__(self) -> None:
        if self.start.element_id != self.end.element_id:
            raise ValueError(
                f"window mixes elements: {self.start.element_id!r} vs "
                f"{self.end.element_id!r}"
            )

    @property
    def element_id(self) -> str:
        return self.end.element_id

    @property
    def machine(self) -> str:
        return self.end.machine

    @property
    def duration_s(self) -> float:
        return self.end.timestamp - self.start.timestamp

    @property
    def empty(self) -> bool:
        """True when both ends are the same counter state (no activity)."""
        return self.start.seq == self.end.seq

    def delta(self, attr: str) -> float:
        return self.end.get(attr) - self.start.get(attr)

    def rate(self, attr: str) -> float:
        """Average growth per second; 0 for an empty/zero-length window."""
        dt = self.duration_s
        if dt <= 0:
            return 0.0
        return self.delta(attr) / dt

    def pkt_loss(self, in_attr: str = "rx_pkts", out_attr: str = "tx_pkts") -> float:
        """Growth of (in - out) over the window — the GetPktLoss formula."""
        gap_start = self.start.get(in_attr) - self.start.get(out_attr)
        gap_end = self.end.get(in_attr) - self.end.get(out_attr)
        return gap_end - gap_start

    def avg_pkt_size(
        self, bytes_attr: str = "rx_bytes", pkts_attr: str = "rx_pkts"
    ) -> float:
        d_pkts = self.delta(pkts_attr)
        if d_pkts <= 0:
            return 0.0
        return self.delta(bytes_attr) / d_pkts

    def growth(self, prefix: str) -> Dict[str, float]:
        """Positive per-attribute growth for attributes under ``prefix.``."""
        head = prefix + "."
        out: Dict[str, float] = {}
        for attr, value in self.end.attrs.items():
            if attr.startswith(head):
                delta = float(value) - self.start.get(attr)
                if delta > 0:
                    out[attr[len(head):]] = delta
        return out

    def drops_by_location(self) -> Dict[str, float]:
        return self.growth("drops")

    def drops_by_flow(self) -> Dict[str, float]:
        return self.growth("drops_flow")


class IOTimeCounter:
    """Accumulates time spent in an element's read or write method.

    The real implementation compares timestamps before and after each I/O
    call; here the simulator knows the elapsed simulated time directly and
    accounts it via :meth:`add`.  ``updates`` tracks how many instrumented
    call pairs happened so the overhead model can charge for them.
    """

    __slots__ = ("total_s", "updates")

    def __init__(self) -> None:
        self.total_s = 0.0
        self.updates = 0.0

    def add(self, elapsed_s: float, calls: float = 1.0) -> None:
        if elapsed_s < 0:
            raise ValueError(f"negative I/O time: {elapsed_s!r}")
        self.total_s += elapsed_s
        self.updates += calls

    def reset(self) -> None:
        self.total_s = 0.0
        self.updates = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IOTimeCounter(total_s={self.total_s:.6f}, updates={self.updates})"


class CounterSet:
    """The full counter suite carried by one element.

    Exposes the attribute names used throughout the paper's examples:

    * ``rx_pkts`` / ``rx_bytes`` — traffic entering the element (its input
      method).
    * ``tx_pkts`` / ``tx_bytes`` — traffic leaving the element (its output
      method).
    * per-location drop counters (``drops[location]``), because the paper
      instruments *every* code branch where a packet can be discarded and
      the drop location is the key diagnostic signal (Table 1).
    * ``in_time`` / ``out_time`` I/O-time counters (middlebox-style
      elements only; Section 5.2's ``t_input`` / ``t_output``).

    Per-flow drop attribution is kept alongside the totals so the
    contention-vs-bottleneck distinction (loss spread over many VMs vs one)
    can be computed (Section 5.1, last paragraph).
    """

    def __init__(self, overhead: Optional[CounterOverheadModel] = None) -> None:
        self.overhead = overhead if overhead is not None else CounterOverheadModel()
        self.rx_pkts = 0.0
        self.rx_bytes = 0.0
        self.tx_pkts = 0.0
        self.tx_bytes = 0.0
        self.drops: Dict[str, float] = {}
        self.drop_bytes: Dict[str, float] = {}
        self.drops_by_flow: Dict[str, float] = {}
        self.in_time = IOTimeCounter()
        self.out_time = IOTimeCounter()
        self._pending_update_cost_s = 0.0
        self._version = 0
        self._snap_version = -1
        self._snap_base: Dict[str, float] = {}

    @property
    def version(self) -> int:
        """Monotonic mutation counter; advances on every datapath update."""
        return self._version

    # -- datapath updates ---------------------------------------------------

    # The three per-batch updates charge their two simple-counter
    # updates in place — ``overhead.cost_for(2 * pkts, 0)`` written out
    # (the time term is an exact zero) — because they run once per batch
    # per element per tick.

    def count_rx(self, pkts: float, nbytes: float) -> None:
        """Record traffic read by the element's input method."""
        self.rx_pkts += pkts
        self.rx_bytes += nbytes
        self._version += 1
        overhead = self.overhead
        if overhead.enabled_simple:
            self._pending_update_cost_s += 2.0 * pkts * overhead.simple_update_cost_s

    def count_tx(self, pkts: float, nbytes: float) -> None:
        """Record traffic emitted by the element's output method."""
        self.tx_pkts += pkts
        self.tx_bytes += nbytes
        self._version += 1
        overhead = self.overhead
        if overhead.enabled_simple:
            self._pending_update_cost_s += 2.0 * pkts * overhead.simple_update_cost_s

    def count_drop(
        self, location: str, pkts: float, nbytes: float, flow_id: Optional[str] = None
    ) -> None:
        """Record packets discarded at a named drop location."""
        self.drops[location] = self.drops.get(location, 0.0) + pkts
        self.drop_bytes[location] = self.drop_bytes.get(location, 0.0) + nbytes
        if flow_id is not None:
            self.drops_by_flow[flow_id] = self.drops_by_flow.get(flow_id, 0.0) + pkts
        self._version += 1
        overhead = self.overhead
        if overhead.enabled_simple:
            self._pending_update_cost_s += 2.0 * pkts * overhead.simple_update_cost_s

    def count_in_time(self, elapsed_s: float, calls: float = 1.0) -> None:
        self.in_time.add(elapsed_s, calls)
        self._version += 1
        self._charge(time=calls)

    def count_out_time(self, elapsed_s: float, calls: float = 1.0) -> None:
        self.out_time.add(elapsed_s, calls)
        self._version += 1
        self._charge(time=calls)

    # -- overhead accounting -------------------------------------------------

    def _charge(self, simple: float = 0.0, time: float = 0.0) -> None:
        self._pending_update_cost_s += self.overhead.cost_for(simple, time)

    def drain_update_cost(self) -> float:
        """Return and clear the CPU-seconds owed for counter updates.

        The hosting element calls this once per tick and charges the result
        against its CPU budget, which is how the simulator reproduces the
        instrumentation overhead measured in Section 7.4.
        """
        cost = self._pending_update_cost_s
        self._pending_update_cost_s = 0.0
        return cost

    # -- views ----------------------------------------------------------------

    @property
    def total_drops(self) -> float:
        return sum(self.drops.values())

    @property
    def total_drop_bytes(self) -> float:
        return sum(self.drop_bytes.values())

    def snapshot(self) -> Dict[str, float]:
        """Flat attribute/value view, matching the agent's record format.

        Drop locations appear as ``drops.<location>`` attributes; the
        aggregate as ``drops``.  Flow-level attribution appears as
        ``drops_flow.<flow_id>``.

        Copy-on-read is cheap: the flat view is rebuilt only when the
        counters changed since the previous read (``version`` tracks
        that); an unchanged set hands out a shallow copy of the cached
        base.
        """
        if self._snap_version != self._version:
            snap: Dict[str, float] = {
                "rx_pkts": self.rx_pkts,
                "rx_bytes": self.rx_bytes,
                "tx_pkts": self.tx_pkts,
                "tx_bytes": self.tx_bytes,
                "drops": self.total_drops,
                "drop_bytes": self.total_drop_bytes,
                "in_time": self.in_time.total_s,
                "out_time": self.out_time.total_s,
            }
            for location, pkts in self.drops.items():
                snap[f"drops.{location}"] = pkts
            for flow_id, pkts in self.drops_by_flow.items():
                snap[f"drops_flow.{flow_id}"] = pkts
            self._snap_base = snap
            self._snap_version = self._version
        return dict(self._snap_base)

    def reset(self) -> None:
        self.rx_pkts = self.rx_bytes = 0.0
        self.tx_pkts = self.tx_bytes = 0.0
        self.drops.clear()
        self.drop_bytes.clear()
        self.drops_by_flow.clear()
        self.in_time.reset()
        self.out_time.reset()
        self._pending_update_cost_s = 0.0
        self._version += 1


def diff_snapshots(
    before: Mapping[str, float],
    after: Mapping[str, float],
    attrs: Optional[Iterable[str]] = None,
) -> Dict[str, float]:
    """Per-attribute difference between two counter snapshots.

    Counters are monotonic, so the difference over an interval is the
    activity within it; this is the primitive behind GetThroughput,
    GetPktLoss and GetAvgPktSize (Figure 6).
    """
    keys = list(attrs) if attrs is not None else sorted(set(before) | set(after))
    return {k: after.get(k, 0.0) - before.get(k, 0.0) for k in keys}
