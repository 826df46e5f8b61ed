"""Diagnosis report structures.

Every report carries degraded-mode metadata: when the counters a
verdict depends on are stale (the serving agent's health is not
HEALTHY) or missing (never mirrored), the verdict is flagged rather
than silently presented as fully trusted — a diagnosis system must keep
producing answers when its own measurement path degrades, but it must
say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.diagnosis.states import MiddleboxState
from repro.core.health import (
    DEAD,
    HEALTHY,
    DataQuality,
    count_states,
    merge_state_counts,
    worst_state,
)
from repro.core.rulebook import Verdict

#: Verdict confidence labels used across the diagnosis reports.
CONFIDENCE_FULL = "full"
CONFIDENCE_DEGRADED = "degraded"
CONFIDENCE_MISSING = "missing"


@dataclass(frozen=True)
class ElementLoss:
    """One element's loss over the diagnosis window (Algorithm 1 row)."""

    element_id: str
    machine: str
    loss_pkts: float
    drops_by_location: Dict[str, float] = field(default_factory=dict)
    drops_by_flow: Dict[str, float] = field(default_factory=dict)


@dataclass
class ContentionReport:
    """Algorithm 1 output: loss-ranked elements + rule-book verdicts."""

    machine: str
    window_s: float
    ranked: List[ElementLoss]
    verdicts: List[Verdict]
    #: Section-5.1 operator step, automated: when the verdict is the
    #: ambiguous {CPU, memory-bandwidth} pair, host utilization gauges
    #: pick one (None when unambiguous or indistinguishable).
    disambiguated: Optional[str] = None
    #: Quality of the data the diagnosis ran over; None when the
    #: controller predates health tracking (in-process tests).
    data_quality: Optional[DataQuality] = None
    #: Stack elements the mirror held no counters for (skipped, not
    #: silently treated as loss-free).
    missing_elements: List[str] = field(default_factory=list)
    #: "full" when every input was fresh; "degraded" when verdicts rest
    #: on stale or partial counters.
    confidence: str = CONFIDENCE_FULL

    @property
    def degraded(self) -> bool:
        return self.confidence != CONFIDENCE_FULL

    @property
    def worst(self) -> Optional[ElementLoss]:
        return self.ranked[0] if self.ranked else None

    def summary(self) -> str:
        lines = [f"Contention/bottleneck report for {self.machine} ({self.window_s}s):"]
        if self.degraded:
            detail = (
                self.data_quality.describe()
                if self.data_quality is not None
                else "partial data"
            )
            lines.append(f"  !! DEGRADED confidence: {detail}")
            if self.missing_elements:
                lines.append(
                    "  !! no counters for: " + ", ".join(self.missing_elements)
                )
        for el in self.ranked[:5]:
            locs = ", ".join(
                f"{loc}={pkts:.0f}" for loc, pkts in sorted(
                    el.drops_by_location.items(), key=lambda kv: -kv[1]
                )
            )
            lines.append(f"  {el.element_id}: loss={el.loss_pkts:.0f} [{locs}]")
        for verdict in self.verdicts:
            lines.append(f"  -> {verdict.describe()}")
        if self.disambiguated:
            lines.append(f"  -> host gauges implicate: {self.disambiguated}")
        return "\n".join(lines)


@dataclass
class FleetDiagnosis:
    """Merged Algorithm-1 output across a fleet of machines.

    Produced by ``ZoneController.diagnose_fleet``: one
    :class:`ContentionReport` per machine, all measuring the *same*
    interval (the scans share a single time advance), plus the merged
    views a cluster operator asks first — which machine is losing the
    most, and which verdicts rest on degraded data.
    """

    window_s: float
    reports: Dict[str, ContentionReport]
    wall_s: float = 0.0
    #: Peak concurrent scan workers observed during the fan-out.
    peak_workers: int = 1
    #: Merge scratch attached by ``ZoneController.diagnose_fleet``: the
    #: merged views below are then served from buffers the controller
    #: reuses across scan rounds instead of being rebuilt per access.
    #: Valid while this diagnosis is the buffers' current owner; a
    #: superseded diagnosis transparently falls back to recomputing.
    buffers: Optional["FleetMergeBuffers"] = field(
        default=None, repr=False, compare=False
    )

    def _merged(self) -> Optional["FleetMergeBuffers"]:
        buf = self.buffers
        return buf if buf is not None and buf.owner is self else None

    @property
    def machines(self) -> List[str]:
        buf = self._merged()
        return buf.machines if buf is not None else sorted(self.reports)

    def report_for(self, machine: str) -> ContentionReport:
        try:
            return self.reports[machine]
        except KeyError:
            raise KeyError(f"no diagnosis for machine {machine!r}") from None

    @property
    def degraded_machines(self) -> List[str]:
        """Machines whose verdicts rest on stale or partial counters."""
        buf = self._merged()
        if buf is not None:
            return buf.degraded
        return sorted(m for m, r in self.reports.items() if r.degraded)

    @property
    def degraded(self) -> bool:
        return bool(self.degraded_machines)

    @property
    def loss_by_machine(self) -> Dict[str, float]:
        """Total ranked packet loss per machine over the shared window."""
        buf = self._merged()
        if buf is not None:
            return buf.loss
        return {
            m: sum(el.loss_pkts for el in r.ranked)
            for m, r in self.reports.items()
        }

    @property
    def worst_machine(self) -> Optional[str]:
        """The machine losing the most packets (None for an empty fleet)."""
        losses = self.loss_by_machine
        if not losses:
            return None
        return max(sorted(losses), key=lambda m: losses[m])

    @property
    def verdicts(self) -> List[Tuple[str, Verdict]]:
        """Every (machine, verdict) pair, machines in sorted order."""
        buf = self._merged()
        if buf is not None:
            return buf.verdicts
        return [(m, v) for m in self.machines for v in self.reports[m].verdicts]

    def summary(self) -> str:
        lines = [
            f"Fleet diagnosis over {len(self.reports)} machine(s) "
            f"({self.window_s}s window):"
        ]
        if self.degraded:
            lines.append(
                "  !! DEGRADED on: " + ", ".join(self.degraded_machines)
            )
        losses = self.loss_by_machine
        for machine in sorted(losses, key=lambda m: -losses[m]):
            report = self.reports[machine]
            verdicts = "; ".join(v.describe() for v in report.verdicts)
            lines.append(
                f"  {machine}: loss={losses[machine]:.0f}"
                + (f" -> {verdicts}" if verdicts else " (no verdicts)")
            )
        return "\n".join(lines)


class FleetMergeBuffers:
    """Reusable merge scratch for repeated fleet scans.

    ``diagnose_fleet`` runs continuously in a control loop, and the
    merged views (machine order, per-machine loss, flattened verdict
    pairs) were being rebuilt from scratch on every property access of
    every round.  This object bounds those allocations: the controller
    keeps one instance across rounds and ``merge`` refills the same
    containers in place — per-machine verdict row buffers are kept
    keyed by machine and cleared/extended rather than reallocated, so
    steady-state scans of a stable fleet allocate no new merge lists.

    Ownership: ``merge`` stamps the diagnosis it merged as ``owner``.
    Views handed to a diagnosis are live references into the buffers;
    once a later round reuses them, the superseded diagnosis detects
    the ownership change and recomputes from its own reports instead of
    reading another round's data.
    """

    def __init__(self) -> None:
        self.owner: Optional[FleetDiagnosis] = None
        self.rounds = 0
        self.machines: List[str] = []
        self.degraded: List[str] = []
        self.loss: Dict[str, float] = {}
        self.verdicts: List[Tuple[str, Verdict]] = []
        # machine -> its (machine, verdict) rows, reused across rounds.
        self._rows: Dict[str, List[Tuple[str, Verdict]]] = {}

    def merge(self, diagnosis: FleetDiagnosis) -> FleetDiagnosis:
        """Merge ``diagnosis.reports`` into the reused buffers."""
        reports = diagnosis.reports
        self.rounds += 1
        self.machines.clear()
        self.machines.extend(sorted(reports))
        self.degraded.clear()
        self.loss.clear()
        self.verdicts.clear()
        for gone in [m for m in self._rows if m not in reports]:
            del self._rows[gone]
        for machine in self.machines:
            report = reports[machine]
            if report.degraded:
                self.degraded.append(machine)
            self.loss[machine] = sum(el.loss_pkts for el in report.ranked)
            rows = self._rows.get(machine)
            if rows is None:
                rows = self._rows[machine] = []
            rows.clear()
            rows.extend((machine, v) for v in report.verdicts)
            self.verdicts.extend(rows)
        self.owner = diagnosis
        diagnosis.buffers = self
        return diagnosis


# -- hierarchy roll-ups ---------------------------------------------------------
#
# What crosses the zone -> fleet wire.  A ZoneReport is O(machines in
# the shard) *scalars* — loss totals, Fig-6 rates, health states,
# verdict tuples — never time series, so the root tier aggregates a
# whole fleet without materializing any per-machine mirror.


def _verdict_to_wire(verdict: Verdict) -> List[Any]:
    return [
        verdict.location_class,
        list(verdict.resources),
        verdict.scope,
        list(verdict.secondary_signals),
    ]


def _verdict_from_wire(row: Any) -> Verdict:
    if not isinstance(row, (list, tuple)) or len(row) != 4:
        raise ValueError(f"malformed wire verdict: {row!r}")
    location_class, resources, scope, signals = row
    return Verdict(
        str(location_class),
        [str(r) for r in resources],
        str(scope),
        [str(s) for s in signals],
    )


@dataclass(frozen=True)
class MachineSummary:
    """One machine's scalar summary inside a :class:`ZoneReport`."""

    machine: str
    health: str = HEALTHY
    confidence: str = CONFIDENCE_FULL
    loss_pkts: float = 0.0
    throughput_pps: float = 0.0
    pkt_loss_rate: float = 0.0
    avg_pkt_size: float = 0.0
    elements: int = 0
    missing_elements: int = 0
    verdicts: Tuple[Verdict, ...] = ()
    #: Age of the machine's freshest mirror sample at roll-up time, in
    #: seconds.  0.0 when unknown (pre-streaming producers) — the wire
    #: format defaults keep old peers readable.
    age_s: float = 0.0

    @property
    def degraded(self) -> bool:
        return self.confidence != CONFIDENCE_FULL

    def to_wire(self) -> Dict[str, Any]:
        return {
            "machine": self.machine,
            "health": self.health,
            "confidence": self.confidence,
            "loss_pkts": self.loss_pkts,
            "throughput_pps": self.throughput_pps,
            "pkt_loss_rate": self.pkt_loss_rate,
            "avg_pkt_size": self.avg_pkt_size,
            "elements": self.elements,
            "missing_elements": self.missing_elements,
            "verdicts": [_verdict_to_wire(v) for v in self.verdicts],
            "age_s": self.age_s,
        }

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "MachineSummary":
        return cls(
            machine=str(payload["machine"]),
            health=str(payload.get("health", HEALTHY)),
            confidence=str(payload.get("confidence", CONFIDENCE_FULL)),
            loss_pkts=float(payload.get("loss_pkts", 0.0)),
            throughput_pps=float(payload.get("throughput_pps", 0.0)),
            pkt_loss_rate=float(payload.get("pkt_loss_rate", 0.0)),
            avg_pkt_size=float(payload.get("avg_pkt_size", 0.0)),
            elements=int(payload.get("elements", 0)),
            missing_elements=int(payload.get("missing_elements", 0)),
            verdicts=tuple(
                _verdict_from_wire(v) for v in payload.get("verdicts", ())
            ),
            age_s=float(payload.get("age_s", 0.0)),
        )


@dataclass(frozen=True)
class ZoneAggregates:
    """Exact fleet aggregates over a set of machine summaries.

    ``losses`` holds the ``(machine, loss_pkts)`` pairs with a positive
    loss, heaviest first (ties by name); ``loss_rates`` every machine's
    packet-loss rate, ascending.  The root already holds each machine's
    summary, so there is nothing to approximate.
    """

    losses: Tuple[Tuple[str, float], ...] = ()
    loss_rates: Tuple[float, ...] = ()

    @classmethod
    def from_summaries(
        cls, summaries: Mapping[str, "MachineSummary"]
    ) -> "ZoneAggregates":
        losses = [
            (machine, summary.loss_pkts)
            for machine, summary in summaries.items()
            if summary.loss_pkts > 0
        ]
        losses.sort(key=lambda pair: (-pair[1], pair[0]))
        return cls(
            losses=tuple(losses),
            loss_rates=tuple(
                sorted(max(0.0, s.pkt_loss_rate) for s in summaries.values())
            ),
        )

    def quantile(self, q: float) -> Optional[float]:
        """Nearest-rank ``q``-quantile of the loss rates; None when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1]: {q!r}")
        if not self.loss_rates:
            return None
        rank = max(1, math.ceil(q * len(self.loss_rates)))
        return self.loss_rates[rank - 1]


@dataclass
class ZoneReport:
    """One zone's roll-up of its machine shard, pushed to the root.

    ``seq`` increases monotonically per zone; the root treats a report
    with ``seq <= last seen`` as a retry replay and drops it, which is
    what makes OP_ZONE_REPORT idempotent under the wire-retry policy.
    """

    zone: str
    seq: int
    window_s: float
    machines: Dict[str, MachineSummary] = field(default_factory=dict)
    generated_ts: float = 0.0

    # -- zone-level aggregates (what the root reads most) -----------------

    @property
    def machine_names(self) -> List[str]:
        return sorted(self.machines)

    @property
    def total_loss_pkts(self) -> float:
        return sum(s.loss_pkts for s in self.machines.values())

    @property
    def throughput_pps(self) -> float:
        return sum(s.throughput_pps for s in self.machines.values())

    @property
    def avg_pkt_size(self) -> float:
        """Throughput-weighted mean packet size across the shard."""
        weight = sum(
            s.throughput_pps for s in self.machines.values() if s.avg_pkt_size > 0
        )
        if weight <= 0:
            return 0.0
        return (
            sum(
                s.avg_pkt_size * s.throughput_pps
                for s in self.machines.values()
                if s.avg_pkt_size > 0
            )
            / weight
        )

    @property
    def health_counts(self) -> Dict[str, int]:
        return count_states(s.health for s in self.machines.values())

    @property
    def worst_health(self) -> str:
        return worst_state(s.health for s in self.machines.values())

    @property
    def degraded_machines(self) -> List[str]:
        return sorted(m for m, s in self.machines.items() if s.degraded)

    @property
    def verdicts(self) -> List[Tuple[str, Verdict]]:
        return [
            (m, v) for m in self.machine_names for v in self.machines[m].verdicts
        ]

    # -- wire form ---------------------------------------------------------

    def to_wire(self) -> Dict[str, Any]:
        return {
            "zone": self.zone,
            "seq": self.seq,
            "window_s": self.window_s,
            "generated_ts": self.generated_ts,
            "machines": [
                self.machines[m].to_wire() for m in self.machine_names
            ],
        }

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "ZoneReport":
        summaries = [
            MachineSummary.from_wire(row) for row in payload.get("machines", ())
        ]
        return cls(
            zone=str(payload["zone"]),
            seq=int(payload["seq"]),
            window_s=float(payload.get("window_s", 0.0)),
            machines={s.machine: s for s in summaries},
            generated_ts=float(payload.get("generated_ts", 0.0)),
        )


@dataclass(frozen=True)
class ZoneQuality:
    """Liveness/staleness annotation for one zone's slice of a roll-up.

    The root's answer to "how much should I trust this zone's data":
    ``state`` is the zone's liveness state at merge time, ``age_s`` how
    far its last accepted report lags the merge (None before any
    report), ``active`` whether the zone currently owns a shard on the
    ring (False while failed over).  ``stale`` flags any non-HEALTHY
    zone; ``zone_down`` the zones whose reports were *excluded* from
    the merged views — a DEAD or evicted zone's machines are being
    re-homed, so its last report describes a shard it no longer owns.
    """

    zone: str
    state: str = HEALTHY
    active: bool = True
    age_s: Optional[float] = None
    last_seq: int = 0

    @property
    def stale(self) -> bool:
        """True when the zone's data may lag the fleet's true state."""
        return self.state != HEALTHY

    @property
    def zone_down(self) -> bool:
        """True when the zone's report is excluded from the merge."""
        return self.state == DEAD or not self.active

    def describe(self) -> str:
        if self.zone_down:
            age = f", last report {self.age_s:.3f}s ago" if self.age_s is not None else ""
            return f"{self.zone}: DOWN ({self.state}{age})"
        if self.stale:
            age = f", {self.age_s:.3f}s stale" if self.age_s is not None else ""
            return f"{self.zone}: STALE ({self.state}{age})"
        return f"{self.zone}: fresh ({self.state})"


@dataclass
class FleetRollup:
    """The root tier's fleet-wide merge of the latest zone reports.

    Holds one :class:`ZoneReport` per zone — scalars only.  The merged
    views mirror :class:`FleetDiagnosis` so tests can assert the
    hierarchy reaches the same verdicts as a flat controller.

    ``zone_quality`` carries the root's liveness verdict per zone:
    zones flagged ``zone_down`` contributed *no* report to ``zones``
    (their machines are being re-homed and would double-count against
    the survivors' reports); zones merely ``stale`` are merged but
    annotated, so an operator reading the roll-up knows exactly which
    numbers may lag.
    """

    window_s: float
    zones: Dict[str, ZoneReport] = field(default_factory=dict)
    zone_quality: Dict[str, ZoneQuality] = field(default_factory=dict)

    @property
    def stale_zones(self) -> List[str]:
        """Zones merged with non-fresh data (annotated, not hidden)."""
        return sorted(
            z for z, q in self.zone_quality.items() if q.stale and not q.zone_down
        )

    @property
    def down_zones(self) -> List[str]:
        """Zones excluded from the merge (dead or evicted from the ring)."""
        return sorted(z for z, q in self.zone_quality.items() if q.zone_down)

    @property
    def zone_names(self) -> List[str]:
        return sorted(self.zones)

    @property
    def machines(self) -> List[str]:
        return sorted(m for z in self.zones.values() for m in z.machines)

    def summary_for(self, machine: str) -> MachineSummary:
        for zone in self.zones.values():
            if machine in zone.machines:
                return zone.machines[machine]
        raise KeyError(f"no zone reported machine {machine!r}")

    @property
    def loss_by_machine(self) -> Dict[str, float]:
        return {
            m: zone.machines[m].loss_pkts
            for zone in self.zones.values()
            for m in zone.machines
        }

    @property
    def aggregates(self) -> ZoneAggregates:
        """Exact aggregates over every merged zone's machine summaries."""
        return ZoneAggregates.from_summaries(
            {m: s for zone in self.zones.values() for m, s in zone.machines.items()}
        )

    def top_droppers(self, n: int = 5) -> List[Tuple[str, float]]:
        """The ``n`` heaviest-loss machines fleet-wide, with their losses."""
        if n < 0:
            raise ValueError(f"n must be >= 0: {n!r}")
        return list(self.aggregates.losses[:n])

    def loss_rate_quantile(self, q: float) -> Optional[float]:
        """Nearest-rank fleet loss-rate quantile (None with no machines)."""
        return self.aggregates.quantile(q)

    @property
    def worst_machine(self) -> Optional[str]:
        losses = self.loss_by_machine
        if not losses:
            return None
        return max(sorted(losses), key=lambda m: losses[m])

    @property
    def verdicts(self) -> List[Tuple[str, Verdict]]:
        """Every (machine, verdict) pair, machines in fleet-sorted order."""
        pairs: List[Tuple[str, Verdict]] = []
        for machine in self.machines:
            pairs.extend(
                (machine, v) for v in self.summary_for(machine).verdicts
            )
        return pairs

    @property
    def degraded_machines(self) -> List[str]:
        return sorted(
            m for z in self.zones.values() for m in z.degraded_machines
        )

    @property
    def degraded(self) -> bool:
        return bool(self.degraded_machines)

    @property
    def health_counts(self) -> Dict[str, int]:
        return merge_state_counts(z.health_counts for z in self.zones.values())

    @property
    def worst_health(self) -> str:
        return worst_state(z.worst_health for z in self.zones.values())

    @property
    def throughput_pps(self) -> float:
        return sum(z.throughput_pps for z in self.zones.values())

    @property
    def total_loss_pkts(self) -> float:
        return sum(z.total_loss_pkts for z in self.zones.values())

    def summary(self) -> str:
        lines = [
            f"Fleet roll-up over {len(self.zones)} zone(s), "
            f"{len(self.machines)} machine(s) ({self.window_s}s window):"
        ]
        counts = self.health_counts
        lines.append(
            "  health: "
            + ", ".join(f"{state}={n}" for state, n in counts.items() if n)
        )
        for zone in self.down_zones:
            lines.append(f"  !! ZONE DOWN: {self.zone_quality[zone].describe()}")
        for zone in self.stale_zones:
            lines.append(f"  !! ZONE STALE: {self.zone_quality[zone].describe()}")
        if self.degraded:
            lines.append("  !! DEGRADED on: " + ", ".join(self.degraded_machines))
        losses = self.loss_by_machine
        for machine in sorted(losses, key=lambda m: -losses[m]):
            if losses[machine] <= 0:
                continue
            verdicts = "; ".join(
                v.describe() for v in self.summary_for(machine).verdicts
            )
            lines.append(
                f"  {machine}: loss={losses[machine]:.0f}"
                + (f" -> {verdicts}" if verdicts else " (no verdicts)")
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class MiddleboxVerdict:
    """One middlebox's role in a propagation diagnosis."""

    name: str
    #: None when the middlebox's counters were unavailable (its machine's
    #: mirror held nothing for it) — the verdict then carries
    #: ``confidence == "missing"``.
    state: Optional[MiddleboxState]
    is_root_cause: bool
    label: str  # "overloaded" | "underloaded" | "eliminated" | "unclear" | "no-data"
    #: "full" for fresh counters, "degraded" when the serving agent was
    #: unhealthy over the window, "missing" when there were none at all.
    confidence: str = CONFIDENCE_FULL


@dataclass
class RootCauseReport:
    """Algorithm 2 output."""

    tenant_id: str
    window_s: float
    verdicts: List[MiddleboxVerdict]
    #: Per-machine quality of the mirrors the diagnosis read from.
    data_quality: Dict[str, DataQuality] = field(default_factory=dict)
    #: Middleboxes that could not be classified for lack of counters.
    missing: List[str] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return bool(self.missing) or any(
            v.confidence != CONFIDENCE_FULL for v in self.verdicts
        )

    @property
    def root_causes(self) -> List[str]:
        return [v.name for v in self.verdicts if v.is_root_cause]

    def verdict(self, name: str) -> MiddleboxVerdict:
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(f"no verdict for middlebox {name!r}")

    def summary(self) -> str:
        lines = [f"Root-cause report for tenant {self.tenant_id} ({self.window_s}s):"]
        if self.degraded:
            stale = [q.describe() for q in self.data_quality.values() if q.stale]
            detail = "; ".join(stale) if stale else "partial data"
            lines.append(f"  !! DEGRADED confidence: {detail}")
        for v in self.verdicts:
            marker = "**ROOT CAUSE**" if v.is_root_cause else v.label
            if v.confidence != CONFIDENCE_FULL:
                marker += f", {v.confidence}"
            described = (
                v.state.describe() if v.state is not None else f"{v.name}: no data"
            )
            lines.append(f"  {described}  [{marker}]")
        return "\n".join(lines)
