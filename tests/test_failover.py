"""Self-healing fleet: zone liveness, shard failover, re-homing.

The contracts under test are the ones that make the hierarchy safe to
run unattended: the root detects a dead zone from report age alone
within its policy deadline, failover re-homes exactly the dead shard
(consistent hashing moves nothing else), verdicts over the failover arc
reconverge to the flat baseline with zero lost or duplicated series
rows, agents re-home themselves off a dead push target via the root's
ZONE_FOR consult.
"""

import sys
import threading

import pytest

from repro import obs
from repro.core.agent import PUSH_FAILURES_METRIC
from repro.core.controller import (
    FleetController,
    ZoneController,
    apply_shard_moves,
)
from repro.core.diagnosis.report import MachineSummary, ZoneReport
from repro.core.health import (
    DEAD,
    HEALTHY,
    SUSPECT,
    Liveness,
    ZoneHealthPolicy,
)
from repro.core.net.client import AgentUnreachable, RetryPolicy, ZoneClient
from repro.core.net.server import FleetServer
from repro.scenarios.common import Harness
from repro.scenarios.fleet import (
    EVERY_THIRD_OVERDRIVEN,
    ZoneTarget,
    add_receivers,
    shard,
    split_round,
)
from repro.workloads.faults import (
    kill_zone,
    partition_phase,
    schedule_phases,
    zone_kill_phase,
    zone_restart_phase,
)

WINDOW_S = 0.25
HEARTBEAT_S = 2 * WINDOW_S


def receivers(n_machines):
    """``host-000``.. receivers, every third overdriven, settled 0.5 s."""
    h = Harness(seed=5)
    add_receivers(h, n_machines, EVERY_THIRD_OVERDRIVEN)
    h.advance(0.5)
    return h


def sample_report(zone, seq, machines=()):
    return ZoneReport(
        zone=zone,
        seq=seq,
        window_s=WINDOW_S,
        machines={
            m: MachineSummary(machine=m, health="healthy") for m in machines
        },
    )


class TestZoneHealthPolicy:
    def test_defaults(self):
        assert ZoneHealthPolicy().heartbeat_s == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"heartbeat_s": 0.0},
            {"heartbeat_s": -1.0},
        ],
    )
    def test_bad_thresholds_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ZoneHealthPolicy(**kwargs)


class TestZoneHealth:
    """The root's record of one zone, judged by heartbeats of silence."""

    def test_unarmed_health_never_decays(self):
        zh = Liveness.for_zone("z1", 1.0)
        assert zh.evaluate(1e9) == HEALTHY  # no report, no clock: no-op

    def test_age_boundaries(self):
        zh = Liveness.for_zone("z1", 2.0)  # suspect at 2 s, dead at 4 s
        zh.arm(0.0)
        assert zh.evaluate(0.0) == HEALTHY
        assert zh.evaluate(1.9) == HEALTHY
        assert zh.evaluate(2.0) == SUSPECT
        assert zh.evaluate(3.9) == SUSPECT
        assert zh.evaluate(4.0) == DEAD

    def test_decay_arc_and_snap_back(self):
        zh = Liveness.for_zone("z1", 1.0)
        zh.arm(0.0)
        assert zh.evaluate(0.5) == HEALTHY
        assert zh.evaluate(1.0) == SUSPECT
        assert zh.evaluate(2.0) == DEAD
        assert zh.evaluate(2.5) == DEAD  # no duplicate transition
        zh.record_success(3.0)  # proof of life beats any decayed state
        assert zh.state == HEALTHY
        assert zh.transitions == [
            (HEALTHY, SUSPECT), (SUSPECT, DEAD), (DEAD, HEALTHY)
        ]

    def test_evaluate_only_decays(self):
        # evaluate() may never *improve* the state — only a report can.
        zh = Liveness.for_zone("z1", 1.0)
        zh.arm(0.0)
        assert zh.evaluate(2.0) == DEAD
        assert zh.evaluate(0.1) == DEAD  # younger age does not resurrect

    def test_arm_only_moves_clock_forward(self):
        zh = Liveness.for_zone("z1", 1.0)
        zh.record_success(5.0)
        zh.arm(1.0)  # stale arm cannot rewind the liveness clock
        assert zh.age_s(5.5) == 0.5


def fail_over_z1(fleet, clock):
    """Every zone reports once, then two heartbeats pass with z1 silent."""
    for z in fleet.zones():
        fleet.ingest_zone_report(sample_report(z, 1))
    clock[0] += 2.0
    for z in fleet.zones():
        if z != "z1":
            fleet.ingest_zone_report(sample_report(z, 2))


def make_fleet(clock, zone_names=("z1", "z2", "z3"), heartbeat_s=1.0):
    fleet = FleetController(
        "root",
        zone_policy=ZoneHealthPolicy(heartbeat_s=heartbeat_s),
        clock=lambda: clock[0],
    )
    for z in zone_names:
        fleet.register_zone(z)
    return fleet


class TestFleetLiveness:
    def test_detection_within_two_heartbeats(self):
        clock = [0.0]
        fleet = make_fleet(clock)
        fleet.track_machines([f"m{i:02d}" for i in range(6)])
        for z in fleet.zones():
            fleet.ingest_zone_report(sample_report(z, 1))
        t_last = clock[0]

        # z1 stops reporting; the others keep their heartbeats coming.
        for t in (1.0, 2.0):
            clock[0] = t
            for z in ("z2", "z3"):
                fleet.ingest_zone_report(sample_report(z, int(t) + 1))
            check = fleet.check_zones()
            if "z1" in check.failed_over:
                break
        assert "z1" in check.failed_over
        assert check.now - t_last <= 2.0 * 1.0  # within 2 heartbeats
        assert fleet.zone_states()["z1"] == DEAD
        assert fleet.zone_states()["z2"] == HEALTHY

    def test_failover_moves_only_the_dead_shard(self):
        clock = [0.0]
        fleet = make_fleet(clock)
        machines = [f"m{i:02d}" for i in range(12)]
        fleet.track_machines(machines)
        before = fleet.shards()
        for z in fleet.zones():
            fleet.ingest_zone_report(sample_report(z, 1))

        clock[0] = 2.0
        for z in ("z2", "z3"):
            fleet.ingest_zone_report(sample_report(z, 2))
        check = fleet.check_zones()
        assert check.failed_over == ("z1",)
        assert set(check.moves) == set(before["z1"])
        for machine, (old, new) in check.moves.items():
            assert old == "z1" and new in ("z2", "z3")
        # Survivors' own machines did not shuffle.
        after = fleet.shards()
        for z in ("z2", "z3"):
            assert set(before[z]) <= set(after[z])

    def test_recovery_returns_exactly_the_moved_machines(self):
        clock = [0.0]
        fleet = make_fleet(clock)
        fleet.track_machines([f"m{i:02d}" for i in range(9)])
        for z in fleet.zones():
            fleet.ingest_zone_report(sample_report(z, 1))
        clock[0] = 2.0
        for z in ("z2", "z3"):
            fleet.ingest_zone_report(sample_report(z, 2))
        out_moves = fleet.check_zones().moves

        # The zone comes back: one fresh report re-admits it.
        clock[0] = 2.5
        assert fleet.ingest_zone_report(sample_report("z1", 2))
        check = fleet.check_zones()
        assert check.recovered == ("z1",)
        assert set(check.moves) == set(out_moves)
        for machine, (old, new) in check.moves.items():
            assert new == "z1"
        assert fleet.zone_record("z1").active

    def test_deactivate_is_idempotent_and_counted(self):
        clock = [0.0]
        fleet = make_fleet(clock)
        fleet.track_machines(["m00", "m01"])
        fail_over_z1(fleet, clock)
        check = fleet.check_zones()
        assert check.failed_over == ("z1",)
        again = fleet.check_zones()
        assert again.failed_over == () and again.moves == {}
        assert fleet.failovers == 1
        assert all(old == "z1" for old, _new in check.moves.values())

    def test_reactivate_racing_a_sweep_recovers_once(self):
        """A second sweep landing inside a first one re-admits the zone
        itself; the first must then see it active and stand down, not
        count a second recovery."""
        clock = [0.0]
        fleet = make_fleet(clock)
        fleet.track_machines([f"m{i:02d}" for i in range(9)])
        fail_over_z1(fleet, clock)
        fleet.check_zones()
        assert fleet.ingest_zone_report(sample_report("z1", 2))
        assert fleet.zone_record("z1").health.state == HEALTHY
        assert not fleet.zone_record("z1").active
        assignment = fleet._assignment
        raced = []

        def racing_assignment():
            if not raced:
                raced.append(True)
                fleet.check_zones(clock[0])
            return assignment()

        fleet._assignment = racing_assignment
        with obs.installed() as hub:
            fleet.check_zones(clock[0])
        assert raced
        assert fleet.recoveries == 1
        assert len(hub.events.events(name="fleet.zone_recovered")) == 1
        assert "z1" in fleet.ring
        assert fleet.zone_record("z1").active

    def test_concurrent_sweeps_recover_once(self):
        clock = [0.0]
        fleet = make_fleet(clock)
        fleet.track_machines([f"m{i:02d}" for i in range(9)])
        fail_over_z1(fleet, clock)
        fleet.check_zones()
        fleet.ingest_zone_report(sample_report("z1", 2))
        start = threading.Barrier(4, timeout=10)

        def sweep():
            start.wait()
            fleet.check_zones(clock[0])

        threads = [threading.Thread(target=sweep) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert (fleet.failovers, fleet.recoveries) == (1, 1)
        assert "z1" in fleet.ring

    def test_replayed_report_is_not_proof_of_life(self):
        clock = [0.0]
        fleet = make_fleet(clock, zone_names=("z1", "z2"))
        fleet.track_machines(["m00"])
        assert fleet.ingest_zone_report(sample_report("z1", 1))
        fleet.ingest_zone_report(sample_report("z2", 1))
        clock[0] = 1.9
        record = fleet.zone_record("z1")
        accepted = record.reports_accepted
        assert not fleet.ingest_zone_report(sample_report("z1", 1))  # replay
        # The record's own counters are the only count of the replay.
        assert record.reports_dropped == 1
        assert record.reports_accepted == accepted
        fleet.ingest_zone_report(sample_report("z2", 2))
        clock[0] = 2.0
        check = fleet.check_zones()
        assert "z1" in check.failed_over  # the replay fed no liveness

    def test_rollup_annotates_and_excludes_dead_zones(self):
        clock = [0.0]
        fleet = make_fleet(clock, zone_names=("z1", "z2"))
        fleet.track_machines(["m00", "m01", "m02", "m03"])
        shards = fleet.shards()
        for z in ("z1", "z2"):
            fleet.ingest_zone_report(sample_report(z, 1, shards[z]))

        clock[0] = 1.0  # z1 misses one heartbeat -> stale, still merged
        fleet.ingest_zone_report(sample_report("z2", 2, shards["z2"]))
        fleet.check_zones()
        rollup = fleet.rollup()
        assert rollup.zone_quality["z1"].stale
        assert not rollup.zone_quality["z1"].zone_down
        assert rollup.stale_zones == ["z1"]
        assert rollup.machines == sorted(shards["z1"] + shards["z2"])
        assert "!! ZONE STALE" in rollup.summary()

        clock[0] = 2.0  # second missed heartbeat -> dead, excluded
        fleet.ingest_zone_report(sample_report("z2", 3, shards["z2"]))
        fleet.check_zones()
        rollup = fleet.rollup()
        assert rollup.zone_quality["z1"].zone_down
        assert rollup.down_zones == ["z1"]
        assert rollup.machines == sorted(shards["z2"])
        assert "!! ZONE DOWN" in rollup.summary()


class TestApplyShardMoves:
    def test_moves_handles_between_zones(self):
        h = receivers(4)
        zones = {"z1": ZoneController("z1"), "z2": ZoneController("z2")}
        for name in h.agents:
            zones["z1"].register_local_agent(h.agents[name])
        moves = {name: ("z1", "z2") for name in h.agents}
        applied = apply_shard_moves(moves, zones)
        assert applied == {name: "z2" for name in h.agents}
        assert zones["z1"].machines() == []
        assert zones["z2"].machines() == sorted(h.agents)

    def test_handle_for_fallback_when_source_is_gone(self):
        h = receivers(1)
        zones = {"z2": ZoneController("z2")}  # z1 crashed and is gone
        applied = apply_shard_moves(
            {"host-000": ("z1", "z2")}, zones, handle_for=lambda m: h.agents[m]
        )
        assert applied == {"host-000": "z2"}
        assert zones["z2"].machines() == ["host-000"]

    def test_unresolvable_handle_raises(self):
        zones = {"z2": ZoneController("z2")}
        with pytest.raises(KeyError):
            apply_shard_moves({"host-000": ("z1", "z2")}, zones)

    def test_move_to_unknown_zone_is_skipped(self):
        h = receivers(1)
        zones = {"z1": ZoneController("z1")}
        zones["z1"].register_local_agent(h.agents["host-000"])
        applied = apply_shard_moves({"host-000": ("z1", "zX")}, zones)
        assert applied == {}
        assert zones["z1"].machines() == []  # still pulled off the corpse


class TestFailoverEqualsFlat:
    """The acceptance arc: kill 1 of 3 zones, verdicts reconverge."""

    def setup_arc(self):
        """Six receivers sharded over three zones: (h, root, zones,
        shards, the zones still reporting)."""
        h = receivers(6)
        fleet = FleetController(
            "root",
            zone_policy=ZoneHealthPolicy(heartbeat_s=HEARTBEAT_S),
            clock=lambda: h.sim.now,
        )
        zones, _ = shard(fleet, h.agents, 3)
        return h, fleet, zones, fleet.shards(), set(zones)

    def run_round(self, h, fleet, zones, reporting):
        flat, reports = split_round(h, zones, WINDOW_S, live=reporting)
        for report in reports.values():
            fleet.ingest_zone_report(report)
        h.advance(HEARTBEAT_S - WINDOW_S)
        check = fleet.check_zones()
        if check.moves:
            apply_shard_moves(check.moves, zones)
        return flat, check, fleet.rollup()

    def test_verdicts_over_failover_arc_equal_flat_baseline(self):
        h, fleet, zones, shards, reporting = self.setup_arc()

        flat, check, rollup = self.run_round(h, fleet, zones, reporting)
        assert rollup.verdicts == flat.verdicts  # healthy baseline
        assert not (check.failed_over or check.recovered)

        victim = max(shards, key=lambda z: len(shards[z]))
        t_kill = h.sim.now
        reporting.discard(victim)

        # Death is detected within two heartbeats of the last report.
        for _ in range(3):
            flat, check, rollup = self.run_round(h, fleet, zones, reporting)
            if victim in check.failed_over:
                break
        assert victim in check.failed_over
        assert check.now - t_kill <= 2 * HEARTBEAT_S + 1e-9
        assert set(check.moves) == set(shards[victim])
        assert all(old == victim for old, _new in check.moves.values())

        # One more round and the hierarchy's verdicts are byte-equal to
        # the flat controller again, over the full fleet.
        flat, check, rollup = self.run_round(h, fleet, zones, reporting)
        assert rollup.machines == sorted(h.agents)
        assert rollup.verdicts == flat.verdicts

        # Zero lost, zero duplicated rows on the re-homed machines: the
        # new mirror's ack cursor AND its replica store both sit exactly
        # at the agent's own cursor — nothing missing, and per-series
        # seq dedup means nothing was applied twice.
        for name in shards[victim]:
            new_zone = zones[fleet.zone_for(name)]
            mirror = new_zone.mirror_for(name)
            assert mirror.acked == h.agents[name].store.cursor()
            assert mirror.store.cursor() == h.agents[name].store.cursor()

    def test_recovery_arc_restores_the_original_assignment(self):
        h, fleet, zones, shards, reporting = self.setup_arc()
        victim = max(shards, key=lambda z: len(shards[z]))

        self.run_round(h, fleet, zones, reporting)
        reporting.discard(victim)
        for _ in range(3):
            _, check, _ = self.run_round(h, fleet, zones, reporting)
            if victim in check.failed_over:
                break
        assert not fleet.zone_record(victim).active

        # Restart: a fresh controller for the same zone name reports
        # again and the next sweep moves its shard home.
        zones[victim] = ZoneController(victim)
        reporting.add(victim)
        for _ in range(2):
            flat, check, rollup = self.run_round(h, fleet, zones, reporting)
            if victim in check.recovered:
                break
        assert victim in check.recovered
        assert fleet.zone_record(victim).active
        assert sorted(fleet.shards()[victim]) == sorted(shards[victim])

        flat, check, rollup = self.run_round(h, fleet, zones, reporting)
        assert rollup.machines == sorted(h.agents)
        assert rollup.verdicts == flat.verdicts


class TestAgentRehoming:
    def test_rehome_after_consecutive_failures_replays_fully(self):
        h = receivers(1)
        agent = h.agents["host-000"]
        z1, z2 = ZoneController("z1"), ZoneController("z2")
        z1.register_local_agent(agent)
        t1 = ZoneTarget(z1)
        consults = []

        def resolver(machine):
            consults.append(machine)
            return t2

        agent.start_pushing(
            t1, period_s=0.05, resolver=resolver, rehome_after=2,
            retry=RetryPolicy(max_attempts=1, base_delay_s=0.01,
                              max_delay_s=0.02, deadline_s=60.0),
        )
        assert agent.total_pushes == 1  # initial catch-up landed

        # The zone dies and its shard moves: z2 owns the machine now.
        t1.alive = False
        z2.register_agent("host-000", z1.unregister_agent("host-000"))
        t2 = ZoneTarget(z2)
        h.advance(1.0)

        assert consults and consults[0] == "host-000"
        assert agent.total_rehomes == 1
        assert agent._push_target is t2
        # Full replay at the new zone: no loss (ack cursor and replica
        # store match the agent's cursor) and no duplicates (seq dedup).
        agent.push_once()
        mirror = z2.mirror_for("host-000")
        assert mirror.acked == agent.store.cursor()
        assert mirror.store.cursor() == agent.store.cursor()
        agent.stop_pushing()

    def test_same_target_answer_keeps_cursor(self):
        h = receivers(1)
        agent = h.agents["host-000"]
        z1 = ZoneController("z1")
        z1.register_local_agent(agent)
        t1 = ZoneTarget(z1)
        agent.start_pushing(
            t1, period_s=0.05, resolver=lambda m: t1, rehome_after=1,
            retry=RetryPolicy(max_attempts=1, base_delay_s=0.01,
                              max_delay_s=0.02, deadline_s=60.0),
        )
        acked_before = dict(agent._push_acked)
        t1.alive = False
        h.advance(0.3)
        assert agent.total_rehomes == 0
        assert agent._push_acked == acked_before  # cursor survives
        agent.stop_pushing()

    def test_backoff_skips_ticks_without_touching_the_network(self):
        h = receivers(1)
        agent = h.agents["host-000"]
        dead = ZoneTarget(ZoneController("z1"))
        dead.alive = False
        agent.start_pushing(
            dead, period_s=0.05,
            retry=RetryPolicy(max_attempts=1, base_delay_s=10.0,
                              max_delay_s=10.0, deadline_s=60.0),
        )
        assert agent.push_health.consecutive_failures == 1
        calls_after_failure = dead.calls
        h.advance(0.5)  # every tick falls inside the 10 s backoff window
        assert dead.calls == calls_after_failure
        assert agent.total_push_backoff_skips >= 5
        agent.stop_pushing()

    def test_consecutive_failure_gauge_exported_and_reset(self):
        hub = obs.Observability()
        with obs.installed(hub):
            h = receivers(1)
            agent = h.agents["host-000"]
            z1 = ZoneController("z1")
            z1.register_local_agent(agent)
            target = ZoneTarget(z1)
            agent.start_pushing(
                target, period_s=0.05,
                retry=RetryPolicy(max_attempts=1, base_delay_s=0.01,
                                  max_delay_s=0.02, deadline_s=60.0),
            )
            target.alive = False
            h.advance(0.3)
            gauge = hub.metrics.get(PUSH_FAILURES_METRIC, agent=agent.name)
            assert gauge.value >= 1.0
            target.alive = True
            h.advance(0.3)
            agent.push_once()
            assert gauge.value == 0.0
            agent.stop_pushing()


class TestPushEnvValidation:
    """A bad push setting fails at ``start_pushing``, not later in the
    push thread."""

    @pytest.mark.parametrize(
        "period",
        [
            pytest.param("banana", id="banana"),
            pytest.param(-0.5, id="-0.5"),
            pytest.param(0, id="0"),
            pytest.param(float("inf"), id="inf"),
            pytest.param(float("nan"), id="nan"),
        ],
    )
    def test_bad_period_rejected_at_startup(self, period):
        h = receivers(1)
        agent = h.agents["host-000"]
        zone = ZoneController("z1")
        zone.register_local_agent(agent)
        with pytest.raises((TypeError, ValueError)):
            agent.start_pushing(zone, period_s=period)
        assert not agent.pushing

    def test_blank_period_falls_back_to_default(self):
        h = receivers(1)
        agent = h.agents["host-000"]
        zone = ZoneController("z1")
        zone.register_local_agent(agent)
        assert agent.start_pushing(zone, period_s=None) is not None
        assert agent.pushing
        agent.stop_pushing()

    def test_bad_rehome_after_rejected(self):
        h = receivers(1)
        agent = h.agents["host-000"]
        with pytest.raises(ValueError):
            agent.start_pushing(ZoneTarget(ZoneController("z1")), rehome_after=0)


class TestZoneRestartOverTCP:
    def test_restarted_zone_resumes_past_the_seq_floor(self):
        h = receivers(2)
        fleet = FleetController(
            "root",
            zone_policy=ZoneHealthPolicy(heartbeat_s=HEARTBEAT_S),
            clock=lambda: h.sim.now,
        )
        zones, _ = shard(fleet, h.agents, 1)
        zc = zones["zone-0"]

        with FleetServer(fleet) as server:
            host, port = server.address
            with ZoneClient(host, port, name="zone-0-link") as link:
                assert link.subscribe("zone-0") == 0
                for _ in range(2):
                    diag = zc.diagnose_fleet(h.advance, window_s=WINDOW_S)
                    assert link.push_report(
                        zc.build_zone_report(diag).to_wire()
                    )

            # Crash. The replacement process starts its counter at zero;
            # an un-resumed report replays a seq the root already holds.
            fresh = ZoneController("zone-0")
            for name in h.agents:
                fresh.register_local_agent(h.agents[name])
            with ZoneClient(host, port, name="zone-0-link2") as link:
                floor = link.subscribe("zone-0")
                assert floor == 2
                diag = fresh.diagnose_fleet(h.advance, window_s=WINDOW_S)
                stale = fresh.build_zone_report(diag)
                assert stale.seq == 1
                assert not link.push_report(stale.to_wire())  # dropped

                # resume_reporting_from() fast-forwards past the floor,
                # so the next report is accepted — no cursor regression.
                fresh.resume_reporting_from(floor)
                diag = fresh.diagnose_fleet(h.advance, window_s=WINDOW_S)
                resumed = fresh.build_zone_report(diag)
                assert resumed.seq == floor + 1
                assert link.push_report(resumed.to_wire())
        assert fleet.zone_record("zone-0").last_seq == floor + 1

    def test_resume_never_rewinds_and_rejects_negatives(self):
        zc = ZoneController("z1")
        zc.resume_reporting_from(5)
        zc.resume_reporting_from(2)  # no rewind
        with pytest.raises(ValueError):
            zc.resume_reporting_from(-1)
        h = receivers(1)
        zc.register_local_agent(h.agents["host-000"])
        diag = zc.diagnose_fleet(h.advance, window_s=WINDOW_S)
        assert zc.build_zone_report(diag).seq == 6


class TestChaosPhases:
    def test_kill_and_restart_phases_fire_on_the_timeline(self, sim):
        events = []
        schedule_phases(sim, [
            zone_kill_phase(0.5, lambda: events.append("kill"), zone="z1"),
            zone_restart_phase(1.0, lambda: events.append("restart"), zone="z1"),
        ])
        sim.run(0.4)
        assert events == []
        sim.run(0.7)
        assert events == ["kill", "restart"]

    def test_partition_phase_partitions_then_heals(self, sim):
        class FakeServer:
            def __init__(self):
                self.partitioned = False

            def partition(self):
                self.partitioned = True

            def heal(self):
                self.partitioned = False

        server = FakeServer()
        schedule_phases(sim, [partition_phase(0.2, 0.6, server, zone="root")])
        sim.run(0.3)
        assert server.partitioned
        sim.run(0.5)
        assert not server.partitioned

    def test_partition_phase_rejects_unpartitionable(self):
        with pytest.raises(TypeError):
            partition_phase(0.0, 1.0, object())

    def test_kill_zone_severs_live_connections(self):
        fleet = FleetController("root")
        fleet.register_zone("z1")
        server = FleetServer(fleet)
        server.start()
        host, port = server.address
        with ZoneClient(host, port, name="link") as link:
            assert link.subscribe("z1") == 0
            kill_zone(server, zone="z1")  # crash, not a goodbye
            with pytest.raises(AgentUnreachable):
                link.subscribe("z1")


class TestZoneForOverTCP:
    def test_zone_for_reflects_failover(self):
        clock = [0.0]
        fleet = FleetController(
            "root", zone_policy=ZoneHealthPolicy(heartbeat_s=1.0),
            clock=lambda: clock[0],
        )
        fleet.track_machines(["m00", "m01", "m02", "m03"])
        for z in ("z1", "z2"):
            fleet.register_zone(z)
        shards = fleet.shards()
        victim = next(z for z in shards if shards[z])
        machine = shards[victim][0]
        survivor = "z2" if victim == "z1" else "z1"

        with FleetServer(fleet) as server:
            host, port = server.address
            with ZoneClient(host, port, name="consult") as link:
                assert link.zone_for(machine) == victim
                clock[0] = 2.0  # two heartbeats, and only the survivor spoke
                fleet.ingest_zone_report(sample_report(survivor, 1))
                assert fleet.check_zones().failed_over == (victim,)
                assert link.zone_for(machine) == survivor
                fleet.ingest_zone_report(sample_report(victim, 1))
                assert fleet.check_zones().recovered == (victim,)
                assert link.zone_for(machine) == victim
