"""Streaming diagnosis: detector units, escalation arcs, incident traces.

The :class:`~repro.core.daemon.DiagnosisDaemon` contract under test:
phase 1 watches the coarse per-machine signal at near-zero cost, a trip
escalates exactly the flagged machine to full Algorithm-1 rounds (with
tightened agent cadence), the incident de-escalates after the signal
stays clean, and the whole arc — detector, escalation, diagnosis,
verdict — is one linked obs trace plus Prometheus-visible metrics.
The fleet-level arc at the bottom runs a zone kill through liveness
detection, shard re-homing, and a post-reconvergence escalation.
"""

import pytest

from repro import obs
from repro.core.controller import (
    FAILOVERS_METRIC,
    ZONE_ACTIVE_METRIC,
    FleetController,
)
from repro.core.daemon import (
    ACTIVE_INCIDENTS_METRIC,
    DETECTION_LATENCY_METRIC,
    ESCALATIONS_METRIC,
    FALSE_ALARMS_METRIC,
    INCIDENT_FALSE_ALARM,
    INCIDENT_RESOLVED,
    INCIDENTS_METRIC,
    REASON_HEALTH,
    REASON_LOSS,
    REASON_STALENESS,
    DaemonConfig,
    DetectorConfig,
    DiagnosisDaemon,
    MachineDetector,
)
from repro.core.diagnosis.report import MachineSummary
from repro.core.health import (
    DEAD,
    DEGRADED,
    HEALTHY,
    ZONE_LIVENESS_METRIC,
    ZONE_STATE_VALUES,
    ZoneHealthPolicy,
)
from repro.scenarios.common import Harness
from repro.scenarios.fleet import ALL_UNDER_CAP, add_receivers, shard, stop_cadences

WINDOW_S = 0.25
#: Rounds from fault injection to an opened incident, inclusive.
MAX_DETECTION_ROUNDS = 3


def summary(loss=0.0, health=HEALTHY, age=0.0):
    return MachineSummary(
        machine="m", health=health, pkt_loss_rate=loss, age_s=age
    )


class TestDetectorConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ewma_alpha": 0.0},
            {"ewma_alpha": 1.5},
            {"loss_rate_threshold": 0.0},
            {"deviation_factor": 1.0},
            {"confirm_rounds": 0},
            {"staleness_rounds": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            DetectorConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_s": 0.0},
            {"clear_after": 0},
            {"max_escalated": 0},
            {"escalated_poll_period_s": 0.0},
            {"monitor_every": 0},
        ],
    )
    def test_daemon_config_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            DaemonConfig(**kwargs)


class TestMachineDetector:
    def test_absolute_threshold_trips_pre_warmup(self):
        det = MachineDetector(DetectorConfig())
        assert det.threshold() == pytest.approx(0.05)
        assert det.update(summary(loss=0.06), WINDOW_S, 1) == REASON_LOSS

    def test_adaptive_threshold_tightens_after_warmup(self):
        det = MachineDetector(DetectorConfig())
        for r in range(1, 4):
            assert det.update(summary(loss=0.0), WINDOW_S, r) is None
        # baseline ~0: threshold drops to deviation_factor * floor
        assert det.threshold() == pytest.approx(4.0 * 0.005)
        assert det.update(summary(loss=0.03), WINDOW_S, 4) == REASON_LOSS

    def test_deviating_samples_never_feed_the_baseline(self):
        det = MachineDetector(DetectorConfig())
        for r in range(1, 4):
            det.update(summary(loss=0.0), WINDOW_S, r)
        for r in range(4, 10):
            assert det.update(summary(loss=0.5), WINDOW_S, r) == REASON_LOSS
        # the fault did not normalize itself into the EWMA
        assert det.ewma == pytest.approx(0.0)
        assert det.threshold() == pytest.approx(4.0 * 0.005)

    def test_health_outranks_staleness_outranks_loss(self):
        det = MachineDetector(DetectorConfig())
        bad = summary(loss=0.9, health=DEGRADED, age=10.0)
        assert det._deviation_reason(bad, WINDOW_S) == REASON_HEALTH
        stale = summary(loss=0.9, age=10.0)
        assert det._deviation_reason(stale, WINDOW_S) == REASON_STALENESS

    def test_staleness_threshold_and_disable(self):
        det = MachineDetector(DetectorConfig())
        # 1.5 windows is the default horizon
        assert det.update(summary(age=0.3), WINDOW_S, 1) is None
        assert det.update(summary(age=0.4), WINDOW_S, 2) == REASON_STALENESS
        off = MachineDetector(DetectorConfig(staleness_rounds=None))
        assert off.update(summary(age=99.0), WINDOW_S, 1) is None

    def test_confirm_rounds_requires_a_streak(self):
        det = MachineDetector(DetectorConfig(confirm_rounds=2))
        assert det.update(summary(loss=0.2), WINDOW_S, 1) is None
        assert det.update(summary(loss=0.2), WINDOW_S, 2) == REASON_LOSS
        # a clean round resets the streak
        det2 = MachineDetector(DetectorConfig(confirm_rounds=2))
        assert det2.update(summary(loss=0.2), WINDOW_S, 1) is None
        assert det2.update(summary(loss=0.0), WINDOW_S, 2) is None
        assert det2.update(summary(loss=0.2), WINDOW_S, 3) is None
        assert det2.update(summary(loss=0.2), WINDOW_S, 4) == REASON_LOSS


@pytest.fixture
def pushed_fleet():
    """Factory: capped receivers pushing to zone mirrors, under a fleet
    root.  Every agent's cadences stop at teardown."""
    harnesses = []

    def build(n_machines=4, n_zones=2):
        h = Harness()
        sources = add_receivers(h, n_machines, ALL_UNDER_CAP)
        h.advance(0.5)
        for agent in h.agents.values():
            agent.poll_once()

        fleet = FleetController(
            "test-root",
            zone_policy=ZoneHealthPolicy(heartbeat_s=2 * WINDOW_S),
            clock=lambda: h.sim.now,
        )
        zones, _ = shard(fleet, h.agents, n_zones)
        for zone in zones.values():
            for name in zone.machines():
                h.agents[name].start_pushing(zone, period_s=0.05)
        h.advance(0.2)
        harnesses.append(h)
        return h, sources, zones, fleet

    yield build
    for h in harnesses:
        stop_cadences(h.agents)


def make_daemon(h, zones, fleet, **cfg_kwargs):
    return DiagnosisDaemon(
        zones,
        h.advance,
        fleet=fleet,
        config=DaemonConfig(
            window_s=WINDOW_S, detector=DetectorConfig(), **cfg_kwargs
        ),
        agents=h.agents,
        clock=lambda: h.sim.now,
    )


def run_drop_arc(daemon, sources, victim, rounds=12, fault_round=3):
    """Inject a drop fault, heal it two rounds after detection.

    Returns the round the incident opened in (None if it never did).
    """
    detected = None
    for r in range(1, rounds + 1):
        if r == fault_round:
            sources[victim].set_rate(rate_bps=400e6)
        res = daemon.tick()
        if res.opened and detected is None:
            detected = r
        if detected is not None and r >= detected + 2:
            sources[victim].set_rate(rate_bps=60e6)
        if res.resolved:
            break
    return detected


class TestIncidentArc:
    def test_drop_fault_escalates_diagnoses_and_deescalates(self, pushed_fleet):
        h, sources, zones, fleet = pushed_fleet()
        daemon = make_daemon(h, zones, fleet)
        victim = "host-000"
        with obs.installed() as hub:
            detected = run_drop_arc(daemon, sources, victim)

        assert detected is not None
        assert detected - 3 + 1 <= MAX_DETECTION_ROUNDS  # injected at 3
        (incident,) = daemon.incidents
        assert incident.machine == victim
        assert incident.reason == REASON_LOSS
        assert incident.state == INCIDENT_RESOLVED
        assert incident.verdicts, "escalation ran no Algorithm-1"
        assert incident.diagnosis_rounds >= 1
        assert not daemon.active_incidents()

        # counters, gauge, and the round-scale latency histogram
        assert hub.metrics.get(INCIDENTS_METRIC, reason=REASON_LOSS).value == 1
        assert hub.metrics.get(ESCALATIONS_METRIC).value == 1
        assert hub.metrics.get(ACTIVE_INCIDENTS_METRIC).value == 0.0
        assert hub.metrics.get(FALSE_ALARMS_METRIC) is None
        hist = hub.metrics.get(DETECTION_LATENCY_METRIC)
        assert hist.count == 1
        assert hist.bounds == obs.DETECTION_LATENCY_BUCKETS
        text = hub.metrics.render_prometheus()
        assert f'{DETECTION_LATENCY_METRIC}_bucket{{le="1"}} 1' in text

        # lifecycle events
        assert hub.events.events(name="incident.opened")
        assert hub.events.events(name="incident.resolved")

    def test_incident_is_one_linked_trace(self, pushed_fleet):
        h, sources, zones, fleet = pushed_fleet()
        daemon = make_daemon(h, zones, fleet)
        with obs.installed() as hub:
            run_drop_arc(daemon, sources, "host-000")

        (incident,) = daemon.incidents
        assert incident.trace_id is not None
        in_trace = [
            s for s in hub.spans.finished()
            if s.trace_id == incident.trace_id
        ]
        names = {s.name for s in in_trace}
        assert {
            "incident", "incident.detector", "incident.escalation",
            "incident.diagnosis", "incident.verdict",
            "diagnosis.contention",
        } <= names
        (root,) = [s for s in in_trace if s.name == "incident"]
        assert root.parent_id is None
        assert root.attrs["outcome"] == INCIDENT_RESOLVED
        # detector/escalation/diagnosis/verdict all hang off the root
        for name in (
            "incident.detector", "incident.escalation",
            "incident.diagnosis", "incident.verdict",
        ):
            for s in (x for x in in_trace if x.name == name):
                assert s.parent_id == root.span_id
        tree = hub.spans.render_tree(incident.trace_id)
        assert tree.splitlines()[0].startswith("incident ")
        assert "incident.verdict" in tree

    def test_escalation_tightens_and_restores_agent_cadence(self, pushed_fleet):
        h, sources, zones, fleet = pushed_fleet()
        daemon = make_daemon(h, zones, fleet, escalated_poll_period_s=0.02)
        victim = "host-000"
        agent = h.agents[victim]
        assert not agent.polling
        with obs.installed():
            detected = None
            for r in range(1, 13):
                if r == 3:
                    sources[victim].set_rate(rate_bps=400e6)
                res = daemon.tick()
                if res.opened and detected is None:
                    detected = r
                    # escalated: sweep cadence tightened NOW
                    assert agent.polling
                    assert agent.poll_period_s == pytest.approx(0.02)
                if detected is not None and r >= detected + 2:
                    sources[victim].set_rate(rate_bps=60e6)
                if res.resolved:
                    break
        assert detected is not None
        # de-escalated: the daemon put the cadence back (the agent
        # was not polling before, so it is not polling after)
        assert not agent.polling

    def test_quiet_agent_trips_staleness_then_false_alarm(self, pushed_fleet):
        """An agent that stops pushing looks crashed; escalation's own
        mirror sync finds nothing wrong, so the incident closes as a
        false alarm (no verdicts) and says so in metrics and events."""
        h, sources, zones, fleet = pushed_fleet()
        daemon = make_daemon(h, zones, fleet)
        victim = "host-000"
        with obs.installed() as hub:
            opened = None
            resolved = False
            for r in range(1, 13):
                if r == 3:
                    h.agents[victim].stop_pushing()
                res = daemon.tick()
                if res.opened and opened is None:
                    opened = r
                if res.resolved:
                    resolved = True
                    break

        assert resolved
        assert opened - 3 + 1 <= MAX_DETECTION_ROUNDS  # quiet from 3
        (incident,) = daemon.incidents
        assert incident.reason == REASON_STALENESS
        assert incident.state == INCIDENT_FALSE_ALARM
        assert incident.verdicts == []
        assert hub.metrics.get(FALSE_ALARMS_METRIC).value == 1
        assert hub.events.events(name="incident.false_alarm")

    def test_thinner_monitor_cadence_trades_sweeps_for_latency(self, pushed_fleet):
        """``monitor_every`` runs the coarse phase every Nth round: fewer
        sweeps, detection delayed by at most N - 1 rounds."""
        rounds, fault_round = 6, 3
        sweeps = {}
        for every in (1, 2, 4):
            h, sources, zones, fleet = pushed_fleet(n_machines=2)
            daemon = make_daemon(h, zones, fleet, monitor_every=every)
            detected = None
            sweeps[every] = 0
            for r in range(1, rounds + 1):
                if r == fault_round:
                    sources["host-000"].set_rate(rate_bps=400e6)
                res = daemon.tick()
                sweeps[every] += bool(res.signals)  # coarse rounds only
                if res.opened and detected is None:
                    detected = r
            assert detected is not None
            assert detected - fault_round + 1 <= MAX_DETECTION_ROUNDS + every - 1
        assert sweeps == {1: 6, 2: 3, 4: 2}

    def test_escalation_beyond_cap_is_deferred(self, pushed_fleet):
        h, sources, zones, fleet = pushed_fleet()
        daemon = make_daemon(h, zones, fleet, max_escalated=1)
        with obs.installed() as hub:
            deferred = []
            for r in range(1, 7):
                if r == 3:
                    sources["host-000"].set_rate(rate_bps=400e6)
                    sources["host-001"].set_rate(rate_bps=400e6)
                res = daemon.tick()
                deferred.extend(res.deferred)
                if deferred:
                    break

        assert len(daemon.active_incidents()) == 1
        assert deferred, "second trip was not deferred"
        assert hub.events.events(name="daemon.deferred_escalation")


class TestFleetArc:
    def test_zone_kill_failover_and_post_reconverge_escalation(self, pushed_fleet):
        """Satellite arc: a zone dies, the root's liveness sweep (run
        from the daemon's own tick) detects it and fails its shard
        over; after the machines re-home, a fault on a moved machine
        still escalates — under its NEW zone."""
        h, sources, zones, fleet = pushed_fleet(n_machines=6, n_zones=3)
        daemon = make_daemon(h, zones, fleet)
        with obs.installed() as hub:
            for _ in range(3):  # steady state, all zones reporting
                res = daemon.tick()
            assert set(res.zone_states.values()) == {HEALTHY}

            # Kill zone-2: its process is gone, so the daemon stops
            # getting coarse reports from it and its shard's pushes
            # go nowhere.
            victim_zone = "zone-2"
            moved = list(zones[victim_zone].machines())
            assert moved, "degenerate shard"
            for name in moved:
                h.agents[name].stop_pushing()
            zones.pop(victim_zone)  # daemon.zones is this same dict

            for _ in range(8):
                res = daemon.tick()
                if res.zone_states.get(victim_zone) == DEAD:
                    break
            assert res.zone_states.get(victim_zone) == DEAD

            # liveness exported as labelled gauges from the root
            assert hub.metrics.get(
                ZONE_LIVENESS_METRIC, zone=victim_zone
            ).value == ZONE_STATE_VALUES[DEAD]
            assert hub.metrics.get(
                ZONE_ACTIVE_METRIC, zone=victim_zone
            ).value == 0.0
            assert hub.metrics.get(
                FAILOVERS_METRIC, zone=victim_zone
            ).value >= 1
            assert hub.events.events(name="fleet.zone_failed_over")

            # Reconverge: re-home the dead shard where the root's
            # ring now points, and resume pushes.
            for name in moved:
                new_zone = zones[fleet.zone_for(name)]
                new_zone.register_local_agent(h.agents[name])
                h.agents[name].start_pushing(new_zone, period_s=0.05)
            daemon.tick()

            # Post-reconverge escalation on a moved machine.
            fault_machine = moved[0]
            sources[fault_machine].set_rate(rate_bps=400e6)
            opened = None
            for _ in range(6):
                res = daemon.tick()
                if res.opened:
                    opened = res.opened[0]
                    break
            assert opened is not None
            assert opened.machine == fault_machine
            assert opened.zone == fleet.zone_for(fault_machine)
            assert opened.zone != victim_zone


class _StubMirror:
    def __init__(self, capacity):
        from repro.core.store import TimeSeriesStore

        self.store = TimeSeriesStore(capacity_per_element=capacity)


class _StubZone:
    def __init__(self, capacity):
        self._mirrors = {"mX": _StubMirror(capacity)}

    def machines(self):
        return sorted(self._mirrors)

    def mirror_for(self, machine):
        return self._mirrors[machine]


class TestRetentionValidation:
    """Daemon construction fails fast on under-provisioned mirrors."""

    def test_short_fine_ring_rejected_at_construction(self):
        with pytest.raises(ValueError, match="fine_slots"):
            DiagnosisDaemon(
                {"z": _StubZone(capacity=4)},
                advance=lambda t: None,
                config=DaemonConfig(window_s=WINDOW_S),
            )

    def test_sufficient_ring_accepted(self):
        # window 0.25s at the 0.02s escalated cadence, staleness horizon
        # 1.5 windows -> ceil(0.375/0.02)+1 = 20 slots needed.
        DiagnosisDaemon(
            {"z": _StubZone(capacity=20)},
            advance=lambda t: None,
            config=DaemonConfig(window_s=WINDOW_S),
        )
        with pytest.raises(ValueError):
            DiagnosisDaemon(
                {"z": _StubZone(capacity=19)},
                advance=lambda t: None,
                config=DaemonConfig(window_s=WINDOW_S),
            )

    def test_unescalated_cadence_used_when_poll_tightening_off(self):
        # Without escalated polling the detector only ever sees samples
        # at the window cadence: 1.5 windows / window + 1 = 3 slots.
        DiagnosisDaemon(
            {"z": _StubZone(capacity=3)},
            advance=lambda t: None,
            config=DaemonConfig(
                window_s=WINDOW_S, escalated_poll_period_s=None
            ),
        )

    def test_duck_typed_zones_skip_validation(self):
        # Zones without a mirror surface (remote shards) cannot be
        # inspected; construction must not crash on them.
        DiagnosisDaemon(
            {"z": object()},
            advance=lambda t: None,
            config=DaemonConfig(window_s=WINDOW_S),
        )


class TestStoreBytesSurface:
    def test_round_result_carries_history_bytes(self, pushed_fleet):
        h, sources, zones, fleet = pushed_fleet(n_machines=2)
        daemon = make_daemon(h, zones, fleet)
        with obs.installed() as hub:
            res = daemon.tick()
        assert res.store_bytes["total"] > 0
        assert res.store_bytes["fine"] > 0
        assert "coarse" in res.store_bytes
        rendered = hub.metrics.render_prometheus()
        assert "perfsight_store_bytes" in rendered
        assert "perfsight_daemon_history_bytes" in rendered
