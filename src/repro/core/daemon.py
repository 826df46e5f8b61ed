"""Always-on streaming diagnosis: the two-phase :class:`DiagnosisDaemon`.

The paper's premise is *continuous* low-overhead monitoring of
production dataplanes, but every diagnosis entry point so far is an
operator-invoked scan over one measurement window.  This module closes
that gap with the Dapper-shaped two-phase loop (PAPERS.md):

**Phase 1 — coarse, always on.**  Every round the daemon asks each
:class:`~repro.core.controller.ZoneController` for a
:meth:`~repro.core.controller.ZoneController.build_coarse_report` — per
-machine loss rate / health / sample age read straight off the mirrors
that agent pushes keep current.  No Algorithm-1, no agent RPC: the cost
is O(elements) memoized window lookups per machine (``benchmarks/e2e``
reports it as ``daemon.monitor_share`` of each round).  The roll-ups
also stream to the fleet root (in process or over the ZONE_REPORT
wire), so the daemon doubles as the hierarchy's heartbeat producer.

**Phase 2 — escalation.**  A per-machine EWMA/threshold detector
watches the coarse signal.  When a machine deviates — loss rate above
an absolute or adaptive bound, health off ``HEALTHY``, or its mirror
going stale — the daemon opens an *incident*: that one machine is
escalated to full Algorithm-1 contention scans every round (plus one
Algorithm-2 root-cause pass when a tenant mapping is provided), its
agent's channel cadence is tightened, and the incident stays open until
the signal has been clean for ``clear_after`` consecutive rounds.

Every incident is born as an obs trace: one detached root span
(:func:`repro.obs.start_span`) that stays open across rounds, with
``incident.detector`` / ``incident.escalation`` / ``incident.diagnosis``
/ ``incident.verdict`` children recorded under it — so
``hub.spans.render_tree(incident.trace_id)`` shows the whole arc,
including the wire spans of the escalated scans.  Detection latency,
active incidents, escalations and false alarms are exported through the
normal Prometheus exposition.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro import obs
from repro.core.health import HEALTHY

#: Self-observability names.  The latency histogram is in *rounds* and
#: uses the round-scale bucket preset, not the micro-scale wire buckets.
DETECTION_LATENCY_METRIC = "perfsight_daemon_detection_latency_rounds"
ACTIVE_INCIDENTS_METRIC = "perfsight_daemon_active_incidents"
INCIDENTS_METRIC = "perfsight_daemon_incidents_total"
ESCALATIONS_METRIC = "perfsight_daemon_escalations_total"
FALSE_ALARMS_METRIC = "perfsight_daemon_false_alarms_total"
INCIDENTS_CLOSED_METRIC = "perfsight_daemon_incidents_closed_total"
ROUNDS_METRIC = "perfsight_daemon_rounds_total"
MONITOR_SECONDS_METRIC = "perfsight_daemon_monitor_seconds"
HISTORY_BYTES_METRIC = "perfsight_daemon_history_bytes"

#: Detector trip reasons (the ``reason`` label on incident metrics).
REASON_LOSS = "loss_rate"
REASON_HEALTH = "health"
REASON_STALENESS = "staleness"

#: Incident lifecycle states.
INCIDENT_OPEN = "open"
INCIDENT_RESOLVED = "resolved"
INCIDENT_FALSE_ALARM = "false_alarm"


@dataclass(frozen=True)
class DetectorConfig:
    """Thresholds of the phase-1 anomaly detector.

    ``loss_rate_threshold`` is the absolute trip wire; the EWMA path
    additionally trips on a ``deviation_factor`` departure from the
    machine's own smoothed baseline once ``warmup_rounds`` samples have
    been folded in (``deviation_floor`` keeps a near-zero baseline from
    making any noise look like a 4x deviation).  ``staleness_rounds``
    trips when the machine's freshest mirror sample is older than that
    many monitoring windows — the signal a crashed or partitioned agent
    leaves behind; ``None`` disables it.  Deviating samples are *not*
    folded into the baseline, so a fault cannot normalize itself away.
    """

    ewma_alpha: float = 0.3
    loss_rate_threshold: float = 0.05
    deviation_factor: float = 4.0
    deviation_floor: float = 0.005
    warmup_rounds: int = 2
    confirm_rounds: int = 1
    staleness_rounds: Optional[float] = 1.5

    def __post_init__(self) -> None:
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1]: {self.ewma_alpha!r}")
        if self.loss_rate_threshold <= 0:
            raise ValueError(
                f"loss_rate_threshold must be positive: {self.loss_rate_threshold!r}"
            )
        if self.deviation_factor <= 1.0:
            raise ValueError(
                f"deviation_factor must be > 1: {self.deviation_factor!r}"
            )
        if self.confirm_rounds < 1:
            raise ValueError(f"confirm_rounds must be >= 1: {self.confirm_rounds!r}")
        if self.staleness_rounds is not None and self.staleness_rounds <= 0:
            raise ValueError(
                f"staleness_rounds must be positive: {self.staleness_rounds!r}"
            )


class MachineDetector:
    """EWMA/threshold anomaly detector over one machine's coarse signal."""

    __slots__ = ("cfg", "ewma", "samples", "suspect_since", "last_reason")

    def __init__(self, cfg: DetectorConfig) -> None:
        self.cfg = cfg
        self.ewma: Optional[float] = None
        self.samples = 0
        #: First round (inclusive) of the current deviation streak.
        self.suspect_since: Optional[int] = None
        self.last_reason: Optional[str] = None

    def threshold(self) -> float:
        """The loss-rate level that would trip right now."""
        cfg = self.cfg
        if self.ewma is None or self.samples < cfg.warmup_rounds:
            return cfg.loss_rate_threshold
        return min(
            cfg.loss_rate_threshold,
            cfg.deviation_factor * max(self.ewma, cfg.deviation_floor),
        )

    def _deviation_reason(self, summary, window_s: float) -> Optional[str]:
        cfg = self.cfg
        if summary.health != HEALTHY:
            return REASON_HEALTH
        if (
            cfg.staleness_rounds is not None
            and summary.age_s > cfg.staleness_rounds * window_s
        ):
            return REASON_STALENESS
        if summary.pkt_loss_rate > self.threshold():
            return REASON_LOSS
        return None

    def update(self, summary, window_s: float, round_no: int) -> Optional[str]:
        """Feed one coarse sample; returns the trip reason, or None.

        A reason is returned once the deviation has persisted
        ``confirm_rounds`` consecutive rounds (1 by default: trip on
        first sight).  Clean samples clear the streak and feed the EWMA
        baseline; deviating ones never do.
        """
        reason = self._deviation_reason(summary, window_s)
        if reason is None:
            self.suspect_since = None
            self.last_reason = None
            rate = max(0.0, summary.pkt_loss_rate)
            if self.ewma is None:
                self.ewma = rate
            else:
                a = self.cfg.ewma_alpha
                self.ewma = a * rate + (1.0 - a) * self.ewma
            self.samples += 1
            return None
        if self.suspect_since is None:
            self.suspect_since = round_no
        self.last_reason = reason
        if round_no - self.suspect_since + 1 >= self.cfg.confirm_rounds:
            return reason
        return None

    def clear(self) -> None:
        """Forget the deviation streak (called at de-escalation)."""
        self.suspect_since = None
        self.last_reason = None


@dataclass(frozen=True)
class DaemonConfig:
    """Cadence and escalation policy of the streaming daemon."""

    window_s: float = 0.25
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    #: Consecutive clean escalated rounds before an incident closes.
    clear_after: int = 2
    #: Concurrent full-scan machines; trips beyond this defer a round.
    max_escalated: int = 4
    #: Tightened sweep cadence while escalated (None = leave cadence).
    escalated_poll_period_s: Optional[float] = 0.02
    #: Run the coarse phase every Nth round (fewer sweeps, detection up
    #: to N - 1 rounds later; escalated diagnosis still runs each round).
    monitor_every: int = 1

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError(f"window_s must be positive: {self.window_s!r}")
        if self.clear_after < 1:
            raise ValueError(f"clear_after must be >= 1: {self.clear_after!r}")
        if self.max_escalated < 1:
            raise ValueError(f"max_escalated must be >= 1: {self.max_escalated!r}")
        if (
            self.escalated_poll_period_s is not None
            and self.escalated_poll_period_s <= 0
        ):
            raise ValueError(
                "escalated_poll_period_s must be positive: "
                f"{self.escalated_poll_period_s!r}"
            )
        if self.monitor_every < 1:
            raise ValueError(f"monitor_every must be >= 1: {self.monitor_every!r}")


@dataclass
class Incident:
    """One machine's open (or closed) anomaly, traced end to end."""

    id: int
    machine: str
    zone: Optional[str]
    reason: str
    signal: float
    opened_round: int
    detection_latency_rounds: int
    state: str = INCIDENT_OPEN
    trace_id: Optional[str] = None
    diagnosis_rounds: int = 0
    clean_rounds: int = 0
    verdicts: List[str] = field(default_factory=list)
    resolved_round: Optional[int] = None
    _root: object = None
    _saved_poll: Optional[float] = None
    _had_poller: bool = False
    _located: bool = False

    @property
    def open(self) -> bool:
        return self.state == INCIDENT_OPEN

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "machine": self.machine,
            "zone": self.zone,
            "reason": self.reason,
            "signal": self.signal,
            "state": self.state,
            "trace_id": self.trace_id,
            "opened_round": self.opened_round,
            "resolved_round": self.resolved_round,
            "detection_latency_rounds": self.detection_latency_rounds,
            "diagnosis_rounds": self.diagnosis_rounds,
            "verdicts": list(self.verdicts),
        }


@dataclass
class RoundResult:
    """What one daemon round observed and did (the ``watch`` feed)."""

    round: int
    signals: Dict[str, object] = field(default_factory=dict)
    opened: List[Incident] = field(default_factory=list)
    resolved: List[Incident] = field(default_factory=list)
    diagnosed: List[str] = field(default_factory=list)
    deferred: List[str] = field(default_factory=list)
    zone_states: Dict[str, str] = field(default_factory=dict)
    monitor_s: float = 0.0
    #: Controller-side history footprint, per store tier (summed over
    #: zones; filled on coarse-sweep rounds).
    store_bytes: Dict[str, int] = field(default_factory=dict)


class DiagnosisDaemon:
    """The continuously-running two-phase diagnosis loop.

    ``zones`` maps zone name -> :class:`ZoneController`; ``advance``
    moves (simulated) time, shared by every escalated scan in a round so
    all of them measure the same interval.  ``fleet`` (optional) gets
    the coarse roll-ups as heartbeats plus a liveness sweep per round;
    ``report_sink`` overrides the in-process delivery (the ``watch``
    demo pushes over the real ZONE_REPORT wire).  ``agents`` (machine ->
    :class:`~repro.core.agent.Agent`) enables cadence tightening, and
    ``tenant_for`` (machine -> tenant id) enables the Algorithm-2 pass.

    The daemon is tick-driven and deterministic: call :meth:`tick` on
    your own cadence — from a scheduler, a CLI loop, or a test.
    """

    def __init__(
        self,
        zones: Mapping[str, object],
        advance: Callable[[float], None],
        fleet: Optional[object] = None,
        config: Optional[DaemonConfig] = None,
        agents: Optional[Mapping[str, object]] = None,
        report_sink: Optional[Callable[[str, object], None]] = None,
        tenant_for: Optional[Callable[[str], Optional[str]]] = None,
        rulebook: Optional[object] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.zones = zones
        self.advance = advance
        self.fleet = fleet
        self.config = config if config is not None else DaemonConfig()
        self.agents = agents if agents is not None else {}
        self.report_sink = report_sink
        self.tenant_for = tenant_for
        self.rulebook = rulebook
        self.clock = clock
        self.rounds = 0
        self.monitor_cost_s = 0.0
        self.incidents: List[Incident] = []
        self._active: Dict[str, Incident] = {}
        self._detectors: Dict[str, MachineDetector] = {}
        self._next_id = 1
        self._validate_retention()

    def _validate_retention(self) -> None:
        """Fail fast when a mirror store cannot cover the detector window.

        The detector reads a trailing ``window_s`` window off each
        mirror's *fine* ring (and judges staleness against
        ``staleness_rounds * window_s``).  While a machine is escalated
        its agent pushes at ``escalated_poll_period_s``, so the ring
        must hold ``span / cadence`` samples — with less, windows come
        back silently short and verdicts quietly degrade.  Catch the
        misconfiguration at construction instead.
        """
        cfg = self.config
        cadence = cfg.escalated_poll_period_s or cfg.window_s
        span_s = cfg.window_s
        if cfg.detector.staleness_rounds is not None:
            span_s = max(span_s, cfg.detector.staleness_rounds * cfg.window_s)
        needed = math.ceil(span_s / cadence) + 1
        for zname in sorted(self.zones):
            zone = self.zones[zname]
            machines = getattr(zone, "machines", None)
            mirror_for = getattr(zone, "mirror_for", None)
            if machines is None or mirror_for is None:
                continue
            for machine in machines():
                store = getattr(mirror_for(machine), "store", None)
                capacity = getattr(store, "capacity_per_element", None)
                if capacity is not None and capacity < needed:
                    raise ValueError(
                        f"store for machine {machine!r} in zone {zname!r} "
                        f"retains {capacity} fine slots but the detector "
                        f"window needs {needed} "
                        f"(window_s={cfg.window_s}, escalated cadence "
                        f"{cadence}s, staleness span {span_s}s); raise "
                        "PERFSIGHT_FINE_SLOTS / capacity_per_element or "
                        "widen DaemonConfig.window_s"
                    )

    # -- introspection ---------------------------------------------------------------

    def active_incidents(self) -> List[Incident]:
        return [self._active[m] for m in sorted(self._active)]

    def incidents_for(self, machine: str) -> List[Incident]:
        return [i for i in self.incidents if i.machine == machine]

    def detector_for(self, machine: str) -> MachineDetector:
        det = self._detectors.get(machine)
        if det is None:
            det = self._detectors[machine] = MachineDetector(self.config.detector)
        return det

    def _zone_of(self, machine: str) -> Optional[str]:
        for zname in sorted(self.zones):
            if machine in self.zones[zname].machines():
                return zname
        return None

    def _now(self) -> Optional[float]:
        return self.clock() if self.clock is not None else None

    # -- the round -------------------------------------------------------------------

    def tick(self) -> RoundResult:
        """One monitoring round; returns what it saw and did."""
        self.rounds += 1
        cfg = self.config
        result = RoundResult(round=self.rounds)

        # Phase 2a: open Algorithm-1 windows for every escalated machine
        # (under its incident's diagnosis span), before the one shared
        # time advance.
        scans: List[Tuple[Incident, object, object, object]] = []
        for incident in self.active_incidents():
            zname = self._zone_of(incident.machine)
            if zname is None:
                continue
            zone = self.zones[zname]
            dspan = None
            with obs.attached(incident._root):
                dspan = obs.start_span(
                    "incident.diagnosis",
                    machine=incident.machine,
                    round=self.rounds,
                )
            with obs.attached(dspan):
                scan = zone.begin_fleet_scan(
                    cfg.window_s,
                    machines=[incident.machine],
                    rulebook=self.rulebook,
                )
            scans.append((incident, zone, scan, dspan))

        # The single shared advance: agent sweeps and pushes fire inside.
        self.advance(cfg.window_s)

        # Phase 2b: close the windows, collect verdicts per incident.
        for incident, zone, scan, dspan in scans:
            with obs.attached(dspan):
                try:
                    diagnosis = zone.finish_fleet_scan(scan)
                except (ConnectionError, OSError) as exc:
                    dspan.set("error", repr(exc))
                    dspan.finish(status="error")
                    continue
                report = diagnosis.reports.get(incident.machine)
                verdicts = list(report.verdicts) if report is not None else []
                if incident.diagnosis_rounds == 0:
                    verdicts.extend(self._algorithm2(incident, zone))
            incident.diagnosis_rounds += 1
            new = [str(v) for v in verdicts]
            for v in new:
                if v not in incident.verdicts:
                    incident.verdicts.append(v)
            dspan.set("verdicts", len(new))
            if report is not None:
                dspan.set("confidence", report.confidence)
            dspan.finish()
            result.diagnosed.append(incident.machine)
            obs.event(
                "incident.diagnosis",
                obs.INFO,
                machine=incident.machine,
                incident=incident.id,
                verdicts=len(new),
            )
            incident._this_round_verdicts = bool(verdicts)  # type: ignore[attr-defined]

        # Phase 1: the coarse sweep (every monitor_every-th round).
        if (self.rounds - 1) % cfg.monitor_every == 0:
            wall0 = time.perf_counter()
            now = self._now()
            signals: Dict[str, object] = {}
            for zname in sorted(self.zones):
                zone = self.zones[zname]
                report = zone.build_coarse_report(cfg.window_s, now=now)
                signals.update(report.machines)
                self._deliver(zname, report, now)
                store_nbytes = getattr(zone, "store_nbytes", None)
                if store_nbytes is not None:
                    for tier, n in store_nbytes(export=True).items():
                        result.store_bytes[tier] = (
                            result.store_bytes.get(tier, 0) + n
                        )
            if result.store_bytes:
                obs.gauge(
                    HISTORY_BYTES_METRIC,
                    float(result.store_bytes.get("total", 0)),
                )
            monitor_s = time.perf_counter() - wall0
            self.monitor_cost_s += monitor_s
            result.monitor_s = monitor_s
            result.signals = signals
            obs.observe(MONITOR_SECONDS_METRIC, monitor_s)
            self._detect(signals, result)
            self._settle(signals, result)
        elif self._active:
            # Off-rounds still need incident bookkeeping from the
            # escalated diagnosis outcomes.
            self._settle({}, result)

        # Liveness sweep at the root (exports the zone gauges).
        if self.fleet is not None:
            now = self._now()
            check = self.fleet.check_zones(now) if now is not None else (
                self.fleet.check_zones()
            )
            result.zone_states = dict(check.states)

        obs.counter(ROUNDS_METRIC)
        obs.gauge(ACTIVE_INCIDENTS_METRIC, float(len(self._active)))
        return result

    # -- phase-1 internals -----------------------------------------------------------

    def _deliver(self, zname: str, report, now: Optional[float]) -> None:
        """Ship one coarse roll-up to the root (sink or in process)."""
        try:
            if self.report_sink is not None:
                self.report_sink(zname, report)
            elif self.fleet is not None:
                if now is not None:
                    self.fleet.ingest_zone_report(report, now)
                else:
                    self.fleet.ingest_zone_report(report)
        except (ConnectionError, OSError) as exc:
            obs.event(
                "daemon.report_undelivered", obs.WARNING,
                zone=zname, error=repr(exc),
            )

    def _detect(self, signals: Mapping[str, object], result: RoundResult) -> None:
        """Run every non-escalated machine's detector; open incidents."""
        cfg = self.config
        for machine in sorted(signals):
            if machine in self._active:
                continue
            summary = signals[machine]
            detector = self.detector_for(machine)
            reason = detector.update(summary, cfg.window_s, self.rounds)
            if reason is None:
                continue
            if len(self._active) >= cfg.max_escalated:
                result.deferred.append(machine)
                obs.event(
                    "daemon.deferred_escalation", obs.WARNING,
                    machine=machine, reason=reason,
                )
                continue
            result.opened.append(self._open_incident(machine, summary, detector, reason))

    def _open_incident(
        self, machine: str, summary, detector: MachineDetector, reason: str
    ) -> Incident:
        cfg = self.config
        latency = self.rounds - (detector.suspect_since or self.rounds) + 1
        root = obs.start_span("incident", machine=machine, reason=reason)
        incident = Incident(
            id=self._next_id,
            machine=machine,
            zone=self._zone_of(machine),
            reason=reason,
            signal=summary.pkt_loss_rate,
            opened_round=self.rounds,
            detection_latency_rounds=latency,
            trace_id=getattr(root, "trace_id", None),
            _root=root,
        )
        self._next_id += 1
        self.incidents.append(incident)
        self._active[machine] = incident
        with obs.attached(root):
            with obs.span(
                "incident.detector",
                machine=machine,
                reason=reason,
                signal=round(summary.pkt_loss_rate, 6),
                baseline=round(detector.ewma or 0.0, 6),
                threshold=round(detector.threshold(), 6),
                latency_rounds=latency,
            ):
                pass
            with obs.span("incident.escalation", machine=machine) as esc:
                agent = self.agents.get(machine)
                if agent is not None and cfg.escalated_poll_period_s is not None:
                    incident._had_poller = agent.polling
                    incident._saved_poll = (
                        agent.poll_period_s if agent.polling else None
                    )
                    agent.set_poll_period(cfg.escalated_poll_period_s)
                    esc.set("poll_period_s", cfg.escalated_poll_period_s)
                else:
                    esc.set("poll_period_s", "unchanged")
        obs.counter(INCIDENTS_METRIC, reason=reason)
        obs.counter(ESCALATIONS_METRIC)
        obs.observe(
            DETECTION_LATENCY_METRIC,
            float(latency),
            buckets=obs.DETECTION_LATENCY_BUCKETS,
        )
        obs.event(
            "incident.opened", obs.WARNING,
            machine=machine, incident=incident.id, reason=reason,
            signal=summary.pkt_loss_rate, latency_rounds=latency,
        )
        return incident

    # -- phase-2 internals -----------------------------------------------------------

    def _algorithm2(self, incident: Incident, zone) -> List[object]:
        """One Algorithm-2 root-cause pass, when a tenant is known."""
        if self.tenant_for is None or incident._located:
            return []
        tenant = self.tenant_for(incident.machine)
        if tenant is None:
            return []
        incident._located = True
        from repro.core.diagnosis.propagation import RootCauseLocator

        locator = RootCauseLocator(
            zone, self.advance, window_s=self.config.window_s
        )
        try:
            report = locator.run(tenant)
        except (KeyError, ValueError, ConnectionError, OSError):
            return []
        return list(report.verdicts)

    def _settle(self, signals: Mapping[str, object], result: RoundResult) -> None:
        """Advance clean-streaks; close incidents that stayed clean."""
        cfg = self.config
        for incident in self.active_incidents():
            summary = signals.get(incident.machine)
            had_verdicts = bool(
                getattr(incident, "_this_round_verdicts", False)
            )
            if hasattr(incident, "_this_round_verdicts"):
                incident._this_round_verdicts = False  # type: ignore[attr-defined]
            if summary is None:
                # No fresh signal this round — cannot prove clear.
                continue
            detector = self.detector_for(incident.machine)
            deviating = detector._deviation_reason(summary, cfg.window_s)
            if deviating is None and not had_verdicts:
                incident.clean_rounds += 1
            else:
                incident.clean_rounds = 0
            if incident.clean_rounds >= cfg.clear_after:
                self._close_incident(incident, summary)
                result.resolved.append(incident)

    def _close_incident(self, incident: Incident, summary) -> None:
        cfg = self.config
        false_alarm = not incident.verdicts
        incident.state = (
            INCIDENT_FALSE_ALARM if false_alarm else INCIDENT_RESOLVED
        )
        incident.resolved_round = self.rounds
        del self._active[incident.machine]
        self.detector_for(incident.machine).clear()
        with obs.attached(incident._root):
            with obs.span(
                "incident.verdict",
                machine=incident.machine,
                outcome=incident.state,
                verdicts=len(incident.verdicts),
                clean_rounds=incident.clean_rounds,
            ) as vs:
                if incident.verdicts:
                    vs.set("worst", incident.verdicts[0])
                agent = self.agents.get(incident.machine)
                if agent is not None and cfg.escalated_poll_period_s is not None:
                    if incident._saved_poll is not None:
                        agent.set_poll_period(incident._saved_poll)
                    elif not incident._had_poller:
                        agent.stop_polling()
        incident._root.set("outcome", incident.state)
        incident._root.set(
            "rounds", incident.resolved_round - incident.opened_round + 1
        )
        incident._root.finish()
        obs.counter(INCIDENTS_CLOSED_METRIC, outcome=incident.state)
        if false_alarm:
            obs.counter(FALSE_ALARMS_METRIC)
            obs.event(
                "incident.false_alarm", obs.WARNING,
                machine=incident.machine, incident=incident.id,
            )
        else:
            obs.event(
                "incident.resolved", obs.INFO,
                machine=incident.machine, incident=incident.id,
                verdicts=len(incident.verdicts),
            )
