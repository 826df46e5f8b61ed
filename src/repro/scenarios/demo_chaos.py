"""Self-healing fleet demo (``python -m repro.cli chaos``).

A multi-zone hierarchy runs split-phase diagnosis rounds (one zone
report per heartbeat) while a chaos timeline kills a zone mid-scan.
The root's liveness sweep detects the death within the policy
deadline, consistent hashing re-homes exactly the dead shard to the
survivors, agents consult the root over TCP (ZONE_FOR) for their new
push target, and the roll-up reconverges to the flat controller's
verdicts.  A restart phase brings a replacement zone up (it
resubscribes and fast-forwards past the root's seq floor) and recovery
moves the shard home.  A final root-partition arc shows zones going
SUSPECT/stale without a failover.
"""

from __future__ import annotations

from repro.core.controller import FleetController, ZoneController, apply_shard_moves
from repro.core.health import ZoneHealthPolicy
from repro.core.net.client import AgentUnreachable, RetryPolicy, ZoneClient
from repro.core.net.server import FleetServer
from repro.scenarios.common import Harness
from repro.scenarios.fleet import (
    EVERY_THIRD_OVERDRIVEN,
    ZoneTarget,
    add_receivers,
    shard,
    split_round,
    stop_cadences,
)
from repro.workloads.faults import (
    partition_phase,
    schedule_phases,
    zone_kill_phase,
    zone_restart_phase,
)


def run_chaos(n_machines: int, n_zones: int, window_s: float, arcs: int):
    """Kill zones mid-diagnosis; a JSON-ready dict whose ``ok`` is the gate."""
    if n_machines < 2 or n_zones < 2:
        raise ValueError("chaos needs at least two machines and two zones")
    if arcs < 1:
        raise ValueError("need at least one kill/restart arc")

    heartbeat_s = 2.0 * window_s  # one report round per heartbeat
    policy = ZoneHealthPolicy(heartbeat_s=heartbeat_s)  # DEAD after 2 beats

    h = Harness(seed=11)
    add_receivers(h, n_machines, EVERY_THIRD_OVERDRIVEN)
    h.advance(0.5)

    fleet = FleetController(
        "chaos-root", zone_policy=policy, clock=lambda: h.sim.now
    )
    zones, shard_sizes = shard(fleet, h.agents, n_zones)

    targets = {z: ZoneTarget(zc) for z, zc in zones.items()}
    reporting = set(zones)
    link_retry = RetryPolicy(
        max_attempts=2, base_delay_s=0.005, max_delay_s=0.02, deadline_s=2.0
    )
    push_backoff = RetryPolicy(
        max_attempts=1, base_delay_s=0.05, max_delay_s=0.4, deadline_s=60.0
    )

    stats = {"reports_accepted": 0, "report_failures": 0}
    arcs_out = []
    partition_out = {}

    with FleetServer(fleet) as server:
        host, port = server.address
        links = {
            z: ZoneClient(host, port, name=f"{z}-link", retry=link_retry)
            for z in zones
        }
        consult = ZoneClient(host, port, name="rehome-consult", retry=link_retry)
        try:
            for z in links:
                links[z].subscribe(z)

            def resolver(machine: str):
                """The re-homing consult: ask the root's ring over TCP."""
                return targets[consult.zone_for(machine)]

            for zone_name in zones:
                for name in zones[zone_name].machines():
                    h.agents[name].start_pushing(
                        targets[zone_name], period_s=0.05,
                        resolver=resolver, rehome_after=2, retry=push_backoff,
                    )
            h.advance(0.3)

            def run_round():
                """One heartbeat: scan, report over TCP, sweep liveness."""
                # Chaos phases fire inside the scan's advance; a zone
                # killed mid-scan builds no report.
                flat, reports = split_round(h, zones, window_s, live=reporting)
                for z, report in reports.items():
                    try:
                        if links[z].push_report(report.to_wire()):
                            stats["reports_accepted"] += 1
                    except AgentUnreachable:
                        stats["report_failures"] += 1
                h.advance(heartbeat_s - window_s)  # agents re-home/back off
                check = fleet.check_zones()
                if check.moves:
                    apply_shard_moves(
                        check.moves, zones, handle_for=lambda m: h.agents[m]
                    )
                rollup = fleet.rollup()
                return flat, check, rollup, rollup.verdicts == flat.verdicts

            # Warmup: the verdict-equality baseline before any chaos.
            baseline_equal = False
            for _ in range(2):
                _, _, _, baseline_equal = run_round()

            for arc in range(arcs):
                victim = f"zone-{arc % n_zones}"
                record = {
                    "victim": victim,
                    "shard": len(zones[victim].machines()),
                }

                t_kill = h.sim.now + window_s / 2

                def kill(victim=victim):
                    targets[victim].alive = False
                    reporting.discard(victim)
                    links[victim].close()  # a crash severs its connections

                schedule_phases(
                    h.sim, [zone_kill_phase(t_kill, kill, zone=victim)]
                )

                detect = None
                moves_ok = False
                for _ in range(4):
                    _, check, _, _ = run_round()
                    if victim in check.failed_over:
                        detect = check.now - t_kill
                        moves_ok = all(
                            old == victim
                            for old, _new in check.moves.values()
                        )
                        break
                record["time_to_detect_s"] = detect
                record["detect_heartbeats"] = (
                    detect / heartbeat_s if detect is not None else None
                )
                record["only_dead_shard_moved"] = moves_ok

                reconverge = None
                if detect is not None:
                    for _ in range(6):
                        _, _, rollup, equal = run_round()
                        if equal and len(rollup.machines) == n_machines:
                            reconverge = h.sim.now - t_kill
                            break
                record["time_to_reconverge_s"] = reconverge

                # Restart: a *new* zone process resubscribes, learns the
                # root's seq floor and earns its way back onto the ring.
                t_restart = h.sim.now + window_s / 2

                def restart(victim=victim):
                    zc = ZoneController(victim)
                    zc.resume_reporting_from(links[victim].subscribe(victim))
                    zones[victim] = zc
                    targets[victim].zone = zc
                    targets[victim].alive = True
                    reporting.add(victim)

                schedule_phases(
                    h.sim,
                    [zone_restart_phase(t_restart, restart, zone=victim)],
                )

                recover = None
                if reconverge is not None:
                    for _ in range(8):
                        _, check, rollup, equal = run_round()
                        if (
                            fleet.zone_record(victim).active
                            and equal
                            and len(rollup.machines) == n_machines
                        ):
                            recover = h.sim.now - t_restart
                            break
                record["time_to_recover_s"] = recover
                record["healed"] = recover is not None
                arcs_out.append(record)

            # Partition arc: root alive but unreachable for under one
            # liveness deadline — zones go stale (SUSPECT), then everything
            # heals without a failover.
            t_p = h.sim.now + window_s / 2
            schedule_phases(
                h.sim,
                [
                    partition_phase(
                        t_p, t_p + 0.6 * heartbeat_s, server, zone="root"
                    )
                ],
            )
            _, _, rollup, _ = run_round()  # report pushes hit the partition
            partition_out["stale_zones"] = rollup.stale_zones
            _, check, rollup, equal = run_round()
            partition_out["healed_without_failover"] = (
                not check.failed_over and equal and not rollup.stale_zones
            )
        finally:
            stop_cadences(h.agents)
            consult.close()
            for link in links.values():
                link.close()

    # An arc only heals after it was detected and reconverged; the
    # partition arc must go stale and then heal without failing over.
    ok = (
        baseline_equal
        and all(
            a["healed"]
            and a["only_dead_shard_moved"]
            and a["time_to_detect_s"] <= 2.0 * heartbeat_s + 1e-9
            for a in arcs_out
        )
        and bool(partition_out.get("stale_zones"))
        and bool(partition_out.get("healed_without_failover"))
    )
    return {
        "machines": n_machines,
        "zones": n_zones,
        "heartbeat_s": heartbeat_s,
        "shard_sizes": shard_sizes,
        "baseline_equal_flat": baseline_equal,
        "arcs": arcs_out,
        "partition": partition_out,
        "reports": {
            "accepted": stats["reports_accepted"],
            "failed": stats["report_failures"],
        },
        "push": {
            "pushes": sum(a.total_pushes for a in h.agents.values()),
            "rows": sum(a.total_pushed_rows for a in h.agents.values()),
            "backoff_skips": sum(
                a.total_push_backoff_skips for a in h.agents.values()
            ),
            "rehomes": sum(a.total_rehomes for a in h.agents.values()),
        },
        "ok": ok,
    }
