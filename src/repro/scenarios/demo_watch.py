"""Streaming diagnosis demo (``python -m repro.cli watch``).

A sharded fleet whose coarse roll-ups travel the real ZONE_REPORT wire
every round, one fault injected mid-run (``drop``: a traffic spike past
a vNIC cap on the victim; ``crash``: the victim's agent goes quiet),
and the :class:`~repro.core.daemon.DiagnosisDaemon` detecting,
escalating, diagnosing and de-escalating it.
"""

from __future__ import annotations

from repro.cluster.chains import build_chain
from repro.core.controller import FleetController
from repro.core.daemon import DaemonConfig, DetectorConfig, DiagnosisDaemon
from repro.core.health import ZoneHealthPolicy
from repro.core.net.client import ZoneClient
from repro.core.net.server import FleetServer
from repro.middleboxes.http import HttpClient, HttpServer
from repro.middleboxes.proxy import Proxy
from repro.scenarios.common import Harness
from repro.scenarios.fleet import ALL_UNDER_CAP, add_receivers, shard, stop_cadences


def run_watch(
    n_machines: int,
    n_zones: int,
    rounds: int,
    fault_round: int,
    window_s: float,
    fault: str = "drop",
    on_round=None,
):
    """Returns (JSON-ready dict, incidents); ``on_round(entry)`` is the
    live feed hook, called with each round's log entry as it happens."""
    if n_machines < 2 or n_zones < 1:
        raise ValueError("watch needs at least two machines and one zone")
    if fault not in ("drop", "crash"):
        raise ValueError(f"unknown fault kind: {fault!r}")
    if not 1 <= fault_round <= rounds:
        raise ValueError("fault_round must fall inside the round budget")

    h = Harness(seed=5)
    sources = add_receivers(h, n_machines, ALL_UNDER_CAP)
    victim = "host-000"

    # A tenant chain on the victim so the escalation's Algorithm-2 pass
    # has a propagation graph to localize over.
    tenant = h.add_tenant("acme")
    vmachine = h.machines[victim]
    tclient = HttpClient(h.sim, vmachine.add_vm("vm-client", vnic_bps=100e6), "client")
    tproxy = Proxy(h.sim, vmachine.add_vm("vm-proxy", vnic_bps=100e6), "proxy")
    tserver = HttpServer(h.sim, vmachine.add_vm("vm-server", vnic_bps=100e6), "server")
    build_chain([tclient, tproxy, tserver], tenant.vnet)
    for app in (tclient, tproxy, tserver):
        h.register_app(app)

    h.advance(0.5)
    for agent in h.agents.values():
        agent.poll_once()  # seed the detectors' baselines

    heartbeat_s = 2.0 * window_s
    fleet = FleetController(
        "watch-root",
        zone_policy=ZoneHealthPolicy(heartbeat_s=heartbeat_s),
        clock=lambda: h.sim.now,
    )
    zones, shard_sizes = shard(fleet, h.agents, n_zones)
    for zone in zones.values():
        zone.register_tenant(tenant)
        for name in zone.machines():
            h.agents[name].start_pushing(zone, period_s=0.05)
    h.advance(0.2)

    round_log = []
    detected_round = None
    resolved_round = None
    wire_reports = {"accepted": 0}
    last_store_bytes = {}

    with FleetServer(fleet) as server:
        host, port = server.address
        links = {
            z: ZoneClient(host, port, name=f"{z}-link") for z in zones
        }
        try:
            for z in links:
                links[z].subscribe(z)

            def sink(zname, report):
                """Phase 1 -> root over the real ZONE_REPORT wire."""
                if links[zname].push_report(report.to_wire()):
                    wire_reports["accepted"] += 1

            daemon = DiagnosisDaemon(
                zones,
                h.advance,
                fleet=fleet,
                config=DaemonConfig(
                    window_s=window_s, detector=DetectorConfig()
                ),
                agents=h.agents,
                report_sink=sink,
                tenant_for=lambda m: "acme" if m == victim else None,
                clock=lambda: h.sim.now,
            )

            heal_round = None
            for r in range(1, rounds + 1):
                if r == fault_round:
                    if fault == "drop":
                        sources[victim].set_rate(rate_bps=400e6)
                    else:
                        h.agents[victim].stop_pushing()
                res = daemon.tick()
                if res.opened and detected_round is None:
                    detected_round = r
                    heal_round = r + 2
                if heal_round is not None and r >= heal_round and fault == "drop":
                    sources[victim].set_rate(rate_bps=60e6)
                if res.resolved and resolved_round is None:
                    resolved_round = r
                lossy = {
                    m: round(s.pkt_loss_rate, 4)
                    for m, s in res.signals.items()
                    if s.pkt_loss_rate > 0.001
                }
                entry = {
                    "round": r,
                    "lossy": lossy,
                    "opened": [i.machine for i in res.opened],
                    "resolved": [i.machine for i in res.resolved],
                    "diagnosed": list(res.diagnosed),
                    "deferred": list(res.deferred),
                    "zone_states": dict(res.zone_states),
                    "monitor_ms": round(res.monitor_s * 1e3, 3),
                    "history_kib": round(
                        res.store_bytes.get("total", 0) / 1024.0, 1
                    ),
                }
                if res.store_bytes:
                    last_store_bytes = dict(res.store_bytes)
                round_log.append(entry)
                if on_round is not None:
                    on_round(entry)
            incidents = list(daemon.incidents)
            monitor_cost_s = daemon.monitor_cost_s
            daemon_rounds = daemon.rounds
        finally:
            for link in links.values():
                link.close()
            stop_cadences(h.agents)

    detected = detected_round is not None and any(
        i.machine == victim for i in incidents
    )
    result = {
        "machines": n_machines,
        "zones": n_zones,
        "shard_sizes": shard_sizes,
        "window_s": window_s,
        "fault": fault,
        "victim": victim,
        "fault_round": fault_round,
        "detected": detected,
        "detected_round": detected_round,
        "detection_rounds": (
            detected_round - fault_round + 1
            if detected_round is not None else None
        ),
        "resolved_round": resolved_round,
        "wire_reports_accepted": wire_reports["accepted"],
        "monitor_cost_s": monitor_cost_s,
        "monitor_cost_per_round_ms": (
            monitor_cost_s / daemon_rounds * 1e3 if daemon_rounds else 0.0
        ),
        "history_bytes": last_store_bytes,
        "incidents": [i.to_dict() for i in incidents],
        "rounds": round_log,
    }
    return result, incidents
