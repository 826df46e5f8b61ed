"""Command-line front end: ``python -m repro.cli <command>``.

Runs the reproduction's experiments and demos from a shell:

* ``quickstart``        — the examples/quickstart.py walkthrough
* ``fig12 --case X``    — one Figure-12 propagation case with the b/t table
* ``fig10``             — the backlog-contention experiment summary
* ``table1``            — rebuild the Table-1 rule book
* ``fig16``             — poll-frequency vs agent CPU table
* ``obs``               — self-observability demo: spans/metrics/events
* ``fleet``             — concurrent fleet collection demo over real TCP
* ``scale``             — hierarchical control plane demo (zones + root)
* ``chaos``             — self-healing demo: zone kill/restart + root
  partition with failover, re-homing and circuit breakers
* ``list``              — the experiment inventory with paper references
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

EXPERIMENTS = {
    "fig03": "memory-bandwidth vs network throughput tradeoff (Figure 3)",
    "fig08": "functional validation timeline (Figure 8) [slow: ~2 min]",
    "fig09": "agent response time per channel (Figure 9)",
    "fig10": "pCPU backlog contention (Figure 10)",
    "fig11": "memory-bandwidth contention (Figure 11)",
    "fig12": "root cause under propagation (Figure 12)",
    "fig13": "multi-tenant operator workflow (Figures 13-14)",
    "table1": "resource-shortage/drop-location rule book (Table 1)",
    "table2": "time-counter overhead (Table 2)",
    "fig15": "overhead across middlebox types (Figure 15)",
    "fig16": "poll frequency vs agent CPU (Figure 16)",
    "obs": "self-observability of the pipeline: trace spans across the "
           "wire, metrics registry, structured events (§6 analog)",
    "fleet": "concurrent fleet collection: serial vs fanned-out refresh "
             "over real TCP agents, plus a fleet-wide Algorithm-1 scan",
    "scale": "hierarchical control plane: push-mode agents, zone "
             "aggregators pushing roll-ups to a fleet root over TCP, "
             "rebalance on zone leave, verdicts equal to a flat "
             "controller",
    "chaos": "self-healing fleet: kill a zone mid-diagnosis, watch the "
             "root detect it, fail its shard over, re-home agents and "
             "reconverge to the flat controller's verdicts; then a root "
             "partition exercises staleness and circuit breakers",
    "watch": "always-on streaming diagnosis: the DiagnosisDaemon's "
             "coarse monitoring loop over real TCP, an injected fault "
             "tripping the detector, two-phase escalation to "
             "Algorithm-1/2, and the incident rendered as one linked "
             "trace",
}


def cmd_list(args: argparse.Namespace) -> int:
    print("experiments (run the benchmarks for full reproduction):")
    for name, desc in EXPERIMENTS.items():
        print(f"  {name:8s} {desc}")
    return 0


def cmd_quickstart(args: argparse.Namespace) -> int:
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"
    if path.exists():
        spec = importlib.util.spec_from_file_location("quickstart", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # type: ignore[union-attr]
        module.main()
        return 0
    print("examples/quickstart.py not found next to the package", file=sys.stderr)
    return 1


def cmd_fig12(args: argparse.Namespace) -> int:
    from repro.scenarios.fig12_propagation import (
        CASES,
        EXPECTED_ROOT_CAUSE,
        build_and_run,
    )

    cases = CASES if args.case == "all" else (args.case,)
    for case in cases:
        result = build_and_run(case)
        print(f"== {case}")
        names = ["client", "lb", "cf1", "nfs", "server1"]
        print("          " + "".join(f"{n:>10s}" for n in names))
        print(
            "  b/t_in  " + "".join(f"{result.b_over_ti_mbps[n]:10.1f}" for n in names)
        )
        print(
            "  b/t_out " + "".join(f"{result.b_over_to_mbps[n]:10.1f}" for n in names)
        )
        print(
            f"  root causes: {result.report.root_causes} "
            f"(paper: {EXPECTED_ROOT_CAUSE[case]})"
        )
    return 0


def cmd_fig10(args: argparse.Namespace) -> int:
    from repro.scenarios.fig10_backlog_contention import FLOOD_START_S, build_and_run

    result = build_and_run()
    before = result.mean_flow1_mbps(3, FLOOD_START_S)
    after = result.mean_flow1_mbps(FLOOD_START_S + 2, 25)
    print(f"flow1: {before:.0f} Mbps before the flood, {after:.0f} Mbps during")
    print(f"NIC saturated: {result.nic_saturated}")
    print(f"drop locations: { {k: round(v) for k, v in result.drops_by_location.items() if v > 10} }")
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.scenarios.table1_rulebook import run_all

    print(f"{'resource in shortage':26s} {'observed class':16s} verdict")
    for row in run_all():
        print(
            f"{row.resource:26s} {row.dominant_class:16s} "
            f"{'/'.join(row.verdict_resources)} ({row.verdict_scope})"
        )
    return 0


def cmd_fig16(args: argparse.Namespace) -> int:
    from repro.scenarios.overhead import run_fig16

    print(f"{'poll Hz':>8s} {'agent CPU %':>12s}")
    for hz, pct in run_fig16():
        print(f"{hz:8.0f} {pct:12.3f}")
    return 0


def _run_obs_scenario():
    """Quickstart world + one diagnosis over real TCP + one crash arc.

    Returns (report, quality) — run under an installed obs hub so the
    whole pipeline records into it.  Prints nothing (``--json`` mode
    must emit clean JSON).
    """
    from repro.cluster.chains import build_chain
    from repro.core.controller import Controller
    from repro.core.diagnosis import RootCauseLocator
    from repro.core.net.client import RemoteAgentHandle, RetryPolicy
    from repro.core.net.server import AgentServer
    from repro.middleboxes.http import HttpClient, HttpServer
    from repro.middleboxes.proxy import Proxy
    from repro.scenarios.common import Harness
    from repro.workloads.faults import inject_perf_bug

    h = Harness(seed=1)
    machine = h.add_machine("host-1")
    tenant = h.add_tenant("acme")
    client = HttpClient(h.sim, machine.add_vm("vm-client", vnic_bps=100e6), "client")
    proxy = Proxy(h.sim, machine.add_vm("vm-proxy", vnic_bps=100e6), "proxy")
    server = HttpServer(h.sim, machine.add_vm("vm-server", vnic_bps=100e6), "server")
    build_chain([client, proxy, server], tenant.vnet)
    for app in (client, proxy, server):
        h.register_app(app)
    h.advance(1.5)
    inject_perf_bug(proxy, 50.0)
    h.advance(1.0)

    agent = h.agents["host-1"]
    srv = AgentServer(agent).start()
    host, port = srv.address
    handle = RemoteAgentHandle(
        host, port,
        retry=RetryPolicy(
            max_attempts=2, base_delay_s=0.001, max_delay_s=0.005, deadline_s=5.0
        ),
    )
    remote = Controller("obs-demo-controller")
    remote.register_agent("host-1", handle)
    remote.register_tenant(tenant)
    try:
        report = RootCauseLocator(remote, h.advance, window_s=1.0).run("acme")
        # Crash/restart arc: a dead agent degrades health (events +
        # failed-sync metrics), a rebind on the same port recovers it.
        srv.shutdown()
        remote.refresh("host-1")
        srv = AgentServer(agent, host=host, port=port).start()
        remote.refresh("host-1")
        quality = remote.data_quality("host-1", now=h.sim.now)
    finally:
        handle.close()
        srv.shutdown()
    return report, quality


def cmd_obs(args: argparse.Namespace) -> int:
    import json

    from repro import obs
    from repro.core.channels import READ_LATENCY_METRIC

    hub = obs.Observability()
    with obs.installed(hub):
        report, quality = _run_obs_scenario()

    diag_spans = hub.spans.by_name("diagnosis.propagation")
    trace_id = diag_spans[-1].trace_id if diag_spans else None

    if args.json:
        print(json.dumps(
            {
                "root_causes": report.root_causes,
                "data_quality": quality.describe(),
                "metrics": hub.metrics.snapshot(),
                "prometheus": hub.metrics.render_prometheus(),
                "spans": [s.to_dict() for s in hub.spans.finished()],
                "trace_id": trace_id,
                "events": [e.to_dict() for e in hub.events.events()],
            },
            indent=2, sort_keys=True, default=str,
        ))
        return 0

    print("== diagnosis over TCP")
    print(report.summary())
    print(f"  data quality after crash/restart arc: {quality.describe()}")

    if trace_id is not None:
        print(f"\n== span tree of the diagnosis run (trace {trace_id[:8]}...)")
        print(hub.spans.render_tree(trace_id))

    print("\n== slowest spans")
    for s in hub.spans.slowest(10):
        print(
            f"  {s.duration_s * 1e3:9.3f}ms {s.name:22s} "
            f"trace={s.trace_id[:8]} span={s.span_id[:8]} "
            f"parent={(s.parent_id or '-')[:8]}"
        )

    print("\n== channel read latency (software Figure 9, simulated seconds)")
    print(f"  {'kind':12s} {'reads':>6s} {'p50':>10s} {'p99':>10s} {'max':>10s}")
    for key, hist in sorted(hub.metrics.children(READ_LATENCY_METRIC).items()):
        kind = dict(key).get("kind", "?")
        print(
            f"  {kind:12s} {hist.count:6d} {hist.quantile(0.5) * 1e3:8.3f}ms "
            f"{hist.quantile(0.99) * 1e3:8.3f}ms {hist.max * 1e3:8.3f}ms"
        )

    print("\n== events")
    for e in hub.events.events():
        print(f"  {e.to_json()}")

    print(
        f"\n== metrics registry: {len(hub.metrics)} series across "
        f"{len(hub.metrics.names())} families (full Prometheus text "
        f"via --json)"
    )
    for name in hub.metrics.names():
        print(f"  {name}")
    return 0


class _DelayedHandle:
    """AgentHandle proxy adding emulated management-network RTT.

    Localhost TCP round trips are ~0.1 ms, far too fast to show why the
    fan-out matters; a real controller sits a management network away
    from its agents.  The delay is injected client-side per exchange so
    the demo's serial-vs-concurrent comparison reflects wide-area
    deployment shape, honestly labeled in the output.
    """

    def __init__(self, handle, latency_s: float) -> None:
        self._handle = handle
        self._latency_s = latency_s
        self.name = handle.name

    def _delay(self) -> None:
        import time

        if self._latency_s > 0:
            time.sleep(self._latency_s)

    def query(self, element_ids=None, attrs=None):
        self._delay()
        return self._handle.query(element_ids, attrs)

    def element_ids(self):
        return self._handle.element_ids()

    def stack_element_ids(self):
        return self._handle.stack_element_ids()

    def collect_blocks(self, acked=None):
        self._delay()
        return self._handle.collect_blocks(acked)


def _run_fleet_scenario(n_agents: int, latency_s: float):
    """N TCP-served agents; measure serial vs concurrent refresh.

    Returns a JSON-ready dict.  Prints nothing (``--json`` mode must
    emit clean JSON).
    """
    import time

    from repro.core.controller import Controller
    from repro.core.net.client import RemoteAgentHandle, RetryPolicy
    from repro.core.net.server import AgentServer
    from repro.middleboxes.proxy import Proxy
    from repro.scenarios.common import Harness

    h = Harness(seed=3)
    controller = Controller("fleet-demo-controller", max_workers=n_agents)
    servers, handles = [], []
    try:
        for i in range(n_agents):
            name = f"host-{i}"
            machine = h.add_machine(name)
            vm = machine.add_vm("vm0", vcpu_cores=1.0)
            h.register_app(Proxy(h.sim, vm, f"proxy{i}"))
        h.advance(1.0)
        for i in range(n_agents):
            name = f"host-{i}"
            srv = AgentServer(h.agents[name]).start()
            servers.append(srv)
            handle = RemoteAgentHandle(
                *srv.address, name=name,
                retry=RetryPolicy(
                    max_attempts=2, base_delay_s=0.001,
                    max_delay_s=0.005, deadline_s=5.0,
                ),
            )
            handles.append(handle)
            controller.register_agent(name, _DelayedHandle(handle, latency_s))

        controller.refresh()  # warm: full history ships once
        controller.refresh_concurrent()

        t0 = time.perf_counter()
        controller.refresh()
        serial_s = time.perf_counter() - t0

        report = controller.refresh_report()

        fleet = controller.diagnose_fleet(h.advance, window_s=0.5)
        return {
            "agents": n_agents,
            "injected_latency_s": latency_s,
            "serial_refresh_s": serial_s,
            "concurrent_refresh_s": report.wall_s,
            "speedup": serial_s / report.wall_s if report.wall_s > 0 else None,
            "peak_workers": report.peak_workers,
            "machines": {
                name: {
                    "snapshots": entry.snapshots,
                    "ok": entry.ok,
                    "wall_s": entry.wall_s,
                    "health": entry.health_state,
                }
                for name, entry in report.machines.items()
            },
            "diagnosis": {
                "window_s": fleet.window_s,
                "wall_s": fleet.wall_s,
                "degraded_machines": fleet.degraded_machines,
                "worst_machine": fleet.worst_machine,
                "loss_by_machine": fleet.loss_by_machine,
                "summary": fleet.summary(),
            },
        }
    finally:
        for handle in handles:
            handle.close()
        for srv in servers:
            srv.shutdown()


def cmd_fleet(args: argparse.Namespace) -> int:
    import json

    result = _run_fleet_scenario(args.agents, args.latency_ms / 1e3)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True, default=str))
        return 0

    print(
        f"== concurrent fleet collection: {result['agents']} TCP agents, "
        f"{result['injected_latency_s'] * 1e3:.0f} ms emulated RTT each"
    )
    print(f"  serial refresh:     {result['serial_refresh_s'] * 1e3:8.1f} ms")
    print(f"  concurrent refresh: {result['concurrent_refresh_s'] * 1e3:8.1f} ms")
    print(
        f"  speedup: {result['speedup']:.1f}x "
        f"(peak {result['peak_workers']} workers)"
    )
    print("\n== per-machine breakdown")
    for name in sorted(result["machines"]):
        m = result["machines"][name]
        status = "ok" if m["ok"] else "FAILED"
        print(
            f"  {name}: {m['snapshots']} snap(s) in {m['wall_s'] * 1e3:6.1f} ms, "
            f"{status}, health={m['health']}"
        )
    print("\n== fleet diagnosis (per-machine Algorithm 1, one shared window)")
    print(result["diagnosis"]["summary"])
    return 0


def _run_scale_scenario(n_machines: int, n_zones: int, window_s: float):
    """Three-tier control plane end to end; returns a JSON-ready dict.

    Agents push deltas to their zone aggregator on change; the zones
    diagnose their shards around ONE shared time advance and push
    scalar roll-ups to the fleet root over real TCP (bin1
    ZONE_REPORT frames).  A flat controller diagnoses the same fleet in
    the same interval so the demo can *show* the hierarchy's verdicts
    are equal, not just plausible.  Prints nothing (``--json`` mode
    must emit clean JSON).
    """
    from repro.core.controller import FleetController
    from repro.core.net.client import ZoneClient
    from repro.core.net.server import FleetServer
    from repro.scenarios.common import Harness
    from repro.scenarios.fleet import EVERY_THIRD_OVERDRIVEN, add_receivers, shard

    if n_machines < 1 or n_zones < 1:
        raise ValueError("need at least one machine and one zone")

    h = Harness(seed=7)
    add_receivers(h, n_machines, EVERY_THIRD_OVERDRIVEN)
    h.advance(0.5)

    fleet = FleetController("fleet-root")
    zones, shard_sizes = shard(fleet, h.agents, n_zones)

    # Tier 1 -> 2: agents push SeriesBlock deltas on change (the poll
    # path stays available as catch-up; overlap dedupes at the mirror).
    for zone in zones.values():
        for name in zone.machines():
            h.agents[name].start_pushing(zone, period_s=0.05)
    h.advance(0.3)

    def hierarchical_round():
        """Split-phase scan: all zones share ONE advance, then report."""
        scans = {z: zc.begin_fleet_scan(window_s) for z, zc in zones.items()}
        h.advance(window_s)
        return {
            z: zones[z].build_zone_report(zones[z].finish_fleet_scan(scan))
            for z, scan in scans.items()
        }

    # Flat baseline over the same interval: open its windows alongside
    # the zones' so every tier measures the identical slice of time.
    flat_scan = h.controller.begin_fleet_scan(window_s)
    zone_scans = {z: zc.begin_fleet_scan(window_s) for z, zc in zones.items()}
    h.advance(window_s)
    flat = h.controller.finish_fleet_scan(flat_scan)
    reports = {
        z: zones[z].build_zone_report(zones[z].finish_fleet_scan(scan))
        for z, scan in zone_scans.items()
    }

    # Tier 2 -> 3: real TCP, one ZoneClient per zone, bin1 reports.
    accepted = 0
    with FleetServer(fleet) as server:
        host, port = server.address
        for zone_name, report in reports.items():
            with ZoneClient(host, port, name=f"{zone_name}-link") as link:
                link.subscribe(zone_name)
                if link.push_report(report.to_wire()):
                    accepted += 1
    rollup = fleet.rollup()
    verdicts_equal = rollup.verdicts == flat.verdicts

    # Rebalance arc: the last zone leaves, its machines re-register
    # with the survivors (consistent hashing moves nothing else), and
    # the next round still covers the whole fleet.
    moves = {}
    if n_zones > 1:
        victim = f"zone-{n_zones - 1}"
        for name in list(zones[victim].machines()):
            h.agents[name].stop_pushing()
        moves = fleet.remove_zone(victim)
        for name, (old, new) in moves.items():
            handle = zones[old].unregister_agent(name)
            zones[new].register_agent(name, handle)
            h.agents[name].start_pushing(zones[new], period_s=0.05)
        zones.pop(victim)
        h.advance(0.2)
        for zone_name, report in hierarchical_round().items():
            fleet.ingest_zone_report(report)
        rollup = fleet.rollup()

    for agent in h.agents.values():
        if agent.pushing:
            agent.stop_pushing()

    pushes = sum(a.total_pushes for a in h.agents.values())
    pushed_rows = sum(a.total_pushed_rows for a in h.agents.values())
    skips = sum(a.total_push_skips for a in h.agents.values())
    return {
        "machines": n_machines,
        "zones": n_zones,
        "shard_sizes": shard_sizes,
        "window_s": window_s,
        "push": {"pushes": pushes, "rows": pushed_rows, "skips": skips},
        "wire_reports_accepted": accepted,
        "verdicts_equal_flat": verdicts_equal,
        "flat_verdicts": [
            (m, v.describe()) for m, v in flat.verdicts
        ],
        "rebalance_moves": {
            m: {"from": old, "to": new} for m, (old, new) in moves.items()
        },
        "rollup": {
            "machines": len(rollup.machines),
            "zones": rollup.zone_names,
            "worst_machine": rollup.worst_machine,
            "degraded_machines": rollup.degraded_machines,
            "worst_health": rollup.worst_health,
            "throughput_pps": rollup.throughput_pps,
            "total_loss_pkts": rollup.total_loss_pkts,
            "verdicts": [(m, v.describe()) for m, v in rollup.verdicts],
            "summary": rollup.summary(),
        },
    }


def cmd_scale(args: argparse.Namespace) -> int:
    import json

    result = _run_scale_scenario(args.machines, args.zones, args.window_s)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True, default=str))
        return 0

    print(
        f"== hierarchical control plane: {result['machines']} machines "
        f"across {result['zones']} zone(s)"
    )
    print(f"  shard sizes: {result['shard_sizes']}")
    push = result["push"]
    print(
        f"  push-on-change: {push['pushes']} push(es) shipped "
        f"{push['rows']} row(s); {push['skips']} clean tick(s) skipped"
    )
    print(
        f"  zone -> root wire: {result['wire_reports_accepted']} "
        f"roll-up(s) accepted over TCP"
    )
    equal = "EQUAL" if result["verdicts_equal_flat"] else "MISMATCH"
    print(f"  verdicts vs flat controller on the same window: {equal}")
    if result["rebalance_moves"]:
        moved = len(result["rebalance_moves"])
        print(
            f"  rebalance: last zone left, {moved} machine(s) moved to "
            f"the survivors — nothing else shuffled"
        )
    print("\n== fleet roll-up at the root (scalars only, no mirrors)")
    r = result["rollup"]
    print(f"  {r['summary']}")
    print(
        f"  throughput {r['throughput_pps']:.0f} pps, "
        f"loss {r['total_loss_pkts']:.0f} pkt(s), "
        f"worst health {r['worst_health']}"
    )
    for machine, verdict in r["verdicts"]:
        print(f"  {machine}: {verdict}")
    return 0 if result["verdicts_equal_flat"] else 1


def _run_chaos_scenario(n_machines: int, n_zones: int, window_s: float, arcs: int):
    """Kill zones mid-diagnosis; measure the fleet healing itself.

    The self-healing demo: a multi-zone hierarchy runs split-phase
    diagnosis rounds (one zone report per heartbeat) while a chaos
    timeline kills a zone mid-scan.  The root's liveness sweep detects
    the death within the policy deadline, consistent hashing re-homes
    exactly the dead shard to the survivors, agents consult the root
    over TCP (ZONE_FOR) for their new push target, and the roll-up
    reconverges to the flat controller's verdicts.  A restart phase
    brings a replacement zone up (it resubscribes and fast-forwards
    past the root's seq floor) and recovery moves the shard home.  A
    final root-partition arc shows zones going SUSPECT/stale without a
    failover, and the per-endpoint circuit breakers turning repeated
    connect failures into microsecond fast-fails.

    Prints nothing (``--json`` mode must emit clean JSON).
    """
    import time as _time

    from repro.core.controller import (
        FleetController,
        ZoneController,
        apply_shard_moves,
    )
    from repro.core.health import ZoneHealthPolicy
    from repro.core.net.client import (
        CIRCUIT_OPEN,
        AgentUnreachable,
        CircuitOpenError,
        CircuitPolicy,
        RetryPolicy,
        ZoneClient,
    )
    from repro.core.net.server import FleetServer
    from repro.scenarios.common import Harness
    from repro.scenarios.fleet import EVERY_THIRD_OVERDRIVEN, add_receivers, shard
    from repro.workloads.faults import (
        partition_phase,
        schedule_phases,
        zone_kill_phase,
        zone_restart_phase,
    )

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

    class _ZonePushTarget:
        """Stable push endpoint for one zone name across crash/restart.

        Agents keep this object as their push target while the zone
        behind it is killed and replaced.  A dead zone refuses pushes
        the way a dead TCP peer refuses connects, and a zone that no
        longer owns the machine refuses too — both feed the agent's
        backoff/re-home loop.
        """

        def __init__(self, name: str, zone) -> None:
            self.name = name
            self.zone = zone
            self.alive = True

        def ingest_push(self, machine, blocks, cursor=None, trace=None):
            if not self.alive:
                raise ConnectionError(f"zone {self.name} is down")
            try:
                return self.zone.ingest_push(machine, blocks, cursor, trace=trace)
            except KeyError:
                raise ConnectionError(
                    f"zone {self.name} no longer owns {machine}"
                ) from None

    targets = {z: _ZonePushTarget(z, zc) for z, zc in zones.items()}
    reporting = set(zones)
    link_retry = RetryPolicy(
        max_attempts=2, base_delay_s=0.005, max_delay_s=0.02, deadline_s=2.0
    )
    # Two-outcome window: one exhausted retry ladder after a success is
    # enough to trip — each zone pushes only once per heartbeat, so a
    # wider window would dilute the partition below the threshold.
    breaker = CircuitPolicy(
        window=2, failure_threshold=0.5, min_calls=1, cooldown_s=0.75
    )
    push_backoff = RetryPolicy(
        max_attempts=1, base_delay_s=0.05, max_delay_s=0.4, deadline_s=60.0
    )

    stats = {"reports_accepted": 0, "report_failures": 0, "slow_fail_s": None}
    arcs_out = []
    partition_out = {}

    with FleetServer(fleet) as server:
        host, port = server.address
        links = {
            z: ZoneClient(
                host, port, name=f"{z}-link", retry=link_retry, circuit=breaker
            )
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
                live = sorted(reporting)
                flat_scan = h.controller.begin_fleet_scan(window_s)
                zone_scans = {
                    z: zones[z].begin_fleet_scan(window_s) for z in live
                }
                h.advance(window_s)  # chaos phases fire inside here
                flat = h.controller.finish_fleet_scan(flat_scan)
                for z, scan in zone_scans.items():
                    if z not in reporting:
                        continue  # killed mid-scan: its diagnosis died too
                    report = zones[z].build_zone_report(
                        zones[z].finish_fleet_scan(scan)
                    )
                    try:
                        if links[z].push_report(report.to_wire()):
                            stats["reports_accepted"] += 1
                    except AgentUnreachable as exc:
                        stats["report_failures"] += 1
                        if not isinstance(exc, CircuitOpenError):
                            stats["slow_fail_s"] = exc.elapsed_s
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
            # liveness deadline — zones go stale (SUSPECT), breakers trip
            # and fast-fail, then everything heals without a failover.
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
            opened = [
                z for z in sorted(links)
                if links[z].circuit.state == CIRCUIT_OPEN
            ]
            partition_out["breakers_open"] = opened
            fast = None
            if opened:
                t0 = _time.perf_counter()
                try:
                    links[opened[0]].subscribe(opened[0])
                except CircuitOpenError:
                    fast = _time.perf_counter() - t0
                except AgentUnreachable:
                    pass  # cooldown already lapsed into a live probe
            partition_out["fast_fail_s"] = fast
            partition_out["slow_fail_s"] = stats["slow_fail_s"]
            _time.sleep(breaker.cooldown_s + 0.1)  # admit half-open probes
            _, check, rollup, equal = run_round()
            partition_out["healed_without_failover"] = (
                not check.failed_over and equal and not rollup.stale_zones
            )
            partition_out["circuit"] = {
                z: {
                    "state": links[z].circuit.state,
                    "opens": links[z].circuit.opens,
                    "fast_fails": links[z].circuit.fast_fails,
                }
                for z in sorted(links)
            }
        finally:
            for agent in h.agents.values():
                if agent.pushing:
                    agent.stop_pushing()
            consult.close()
            for link in links.values():
                link.close()

    # An arc only heals after it was detected and reconverged.
    ok = (
        baseline_equal
        and all(
            a["healed"]
            and a["only_dead_shard_moved"]
            and a["time_to_detect_s"] <= 2.0 * heartbeat_s + 1e-9
            for a in arcs_out
        )
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


def cmd_chaos(args: argparse.Namespace) -> int:
    import json

    machines = min(args.machines, 8) if args.quick else args.machines
    arcs = 1 if args.quick else args.arcs
    result = _run_chaos_scenario(machines, args.zones, args.window_s, arcs)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True, default=str))
        return 0 if result["ok"] else 1

    print(
        f"== self-healing fleet: {result['machines']} machines across "
        f"{result['zones']} zone(s), heartbeat {result['heartbeat_s']}s"
    )
    print(f"  shard sizes: {result['shard_sizes']}")
    equal = "EQUAL" if result["baseline_equal_flat"] else "MISMATCH"
    print(f"  baseline verdicts vs flat controller: {equal}")
    for i, arc in enumerate(result["arcs"]):
        print(f"\n== kill/restart arc {i}: victim {arc['victim']}")
        if arc["time_to_detect_s"] is None:
            print("  !! zone death never detected")
            continue
        print(
            f"  detected DEAD in {arc['time_to_detect_s']:.2f}s "
            f"({arc['detect_heartbeats']:.2f} heartbeats)"
        )
        shard = "only the dead shard moved" if arc["only_dead_shard_moved"] \
            else "!! machines outside the dead shard moved"
        print(f"  failover: {arc['shard']} machine(s) re-homed — {shard}")
        if arc["time_to_reconverge_s"] is not None:
            print(
                f"  reconverged (verdicts EQUAL flat, full coverage) in "
                f"{arc['time_to_reconverge_s']:.2f}s"
            )
        else:
            print("  !! never reconverged after failover")
        if arc["time_to_recover_s"] is not None:
            print(
                f"  restart healed the ring in {arc['time_to_recover_s']:.2f}s"
            )
        else:
            print("  !! restarted zone never recovered")
    p = result["partition"]
    print("\n== root partition arc (alive but unreachable)")
    print(f"  stale zones while partitioned: {p.get('stale_zones')}")
    print(f"  circuit breakers opened: {p.get('breakers_open')}")
    if p.get("fast_fail_s") is not None and p.get("slow_fail_s"):
        print(
            f"  fast-fail {p['fast_fail_s'] * 1e3:.2f} ms vs "
            f"{p['slow_fail_s'] * 1e3:.1f} ms for the full retry ladder"
        )
    healed = "healed without failover" if p.get("healed_without_failover") \
        else "!! did not heal cleanly"
    print(f"  after heal: {healed}")
    pu = result["push"]
    print(
        f"\n  agents: {pu['pushes']} push(es), {pu['rehomes']} re-home(s), "
        f"{pu['backoff_skips']} backoff skip(s)"
    )
    print(f"\n== {'RECONVERGED' if result['ok'] else 'FAILED TO SELF-HEAL'}")
    return 0 if result["ok"] else 1


def _run_watch_scenario(
    n_machines: int,
    n_zones: int,
    rounds: int,
    fault_round: int,
    window_s: float,
    fault: str = "drop",
    on_round=None,
):
    """Streaming-diagnosis demo: coarse rounds over TCP, one incident.

    Builds a sharded fleet whose coarse roll-ups travel the real
    ZONE_REPORT wire every round, injects one fault mid-run (``drop``:
    a traffic spike past a vNIC cap on the victim; ``crash``: the
    victim's agent goes quiet), and lets the
    :class:`~repro.core.daemon.DiagnosisDaemon` detect, escalate,
    diagnose and de-escalate it.  ``on_round`` (round, RoundResult) is
    the live feed hook — the human-readable command prints each round
    as it happens; ``--json`` passes None so output stays clean.
    Returns a JSON-ready dict plus the incident list for rendering.
    """
    from repro.cluster.chains import build_chain
    from repro.core.controller import FleetController
    from repro.core.daemon import DaemonConfig, DetectorConfig, DiagnosisDaemon
    from repro.core.health import ZoneHealthPolicy
    from repro.core.net.client import ZoneClient
    from repro.core.net.server import FleetServer
    from repro.middleboxes.http import HttpClient, HttpServer
    from repro.middleboxes.proxy import Proxy
    from repro.scenarios.common import Harness
    from repro.scenarios.fleet import ALL_UNDER_CAP, add_receivers, shard

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
    incidents = []
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
            for agent in h.agents.values():
                if agent.pushing:
                    agent.stop_pushing()
                if agent.polling:
                    agent.stop_polling()

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


def cmd_watch(args: argparse.Namespace) -> int:
    import json

    from repro import obs

    machines = min(args.machines, 4) if args.quick else args.machines
    rounds = min(args.rounds, 12) if args.quick else args.rounds
    fault_round = min(args.fault_round, rounds)

    def live(entry):
        lossy = " ".join(
            f"{m}={rate:.1%}" for m, rate in sorted(entry["lossy"].items())
        ) or "-"
        flags = []
        if entry["opened"]:
            flags.append("OPEN " + ",".join(entry["opened"]))
        if entry["diagnosed"]:
            flags.append("diag " + ",".join(entry["diagnosed"]))
        if entry["resolved"]:
            flags.append("RESOLVED " + ",".join(entry["resolved"]))
        if entry["deferred"]:
            flags.append("deferred " + ",".join(entry["deferred"]))
        print(
            f"  round {entry['round']:3d}  loss[{lossy}]  "
            f"monitor {entry['monitor_ms']:.2f}ms  "
            f"hist {entry['history_kib']:.1f}KiB  "
            + ("  ".join(flags) if flags else "steady")
        )

    hub = obs.Observability()
    with obs.installed(hub):
        result, incidents = _run_watch_scenario(
            machines, args.zones, rounds, fault_round, args.window_s,
            fault=args.fault,
            on_round=None if args.json else live,
        )

    if args.json:
        result["prometheus"] = hub.metrics.render_prometheus()
        result["events"] = [e.to_dict() for e in hub.events.events()]
        print(json.dumps(result, indent=2, sort_keys=True, default=str))
        return 0 if result["detected"] else 1

    print(
        f"\n== streaming diagnosis: {result['machines']} machines across "
        f"{result['zones']} zone(s), fault '{result['fault']}' on "
        f"{result['victim']} at round {result['fault_round']}"
    )
    print(f"  shard sizes: {result['shard_sizes']}")
    print(
        f"  coarse roll-ups over TCP: {result['wire_reports_accepted']} "
        f"accepted; monitor cost "
        f"{result['monitor_cost_per_round_ms']:.3f} ms/round"
    )
    hist = result["history_bytes"]
    if hist:
        tiers = "  ".join(
            f"{tier}={n / 1024.0:.1f}KiB"
            for tier, n in sorted(hist.items()) if tier != "total"
        )
        print(
            f"  controller history: {hist.get('total', 0) / 1024.0:.1f}KiB "
            f"({tiers})"
        )
    if not result["detected"]:
        print("\n== !! injected fault was never detected")
        return 1
    print(
        f"  detected in {result['detection_rounds']} round(s) after "
        f"injection"
        + (
            f"; de-escalated at round {result['resolved_round']}"
            if result["resolved_round"] is not None else ""
        )
    )
    for inc in incidents:
        print(
            f"\n== incident #{inc.id}: {inc.machine} "
            f"({inc.reason}, {inc.state})"
        )
        for v in inc.verdicts:
            print(f"  verdict: {v}")
        if inc.trace_id:
            print(f"  trace {inc.trace_id[:8]}...:")
            print(hub.spans.render_tree(inc.trace_id))
    print("== daemon metrics")
    for line in hub.metrics.render_prometheus().splitlines():
        if line.startswith("perfsight_daemon_") and " " in line \
                and not line.startswith("#"):
            print(f"  {line}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="PerfSight reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the experiment inventory").set_defaults(
        fn=cmd_list
    )
    sub.add_parser("quickstart", help="run the quickstart walkthrough").set_defaults(
        fn=cmd_quickstart
    )
    p12 = sub.add_parser("fig12", help="Figure-12 propagation case(s)")
    p12.add_argument(
        "--case",
        choices=("overloaded_server", "underloaded_client", "buggy_nfs", "all"),
        default="all",
    )
    p12.set_defaults(fn=cmd_fig12)
    sub.add_parser("fig10", help="Figure-10 backlog contention").set_defaults(
        fn=cmd_fig10
    )
    sub.add_parser("table1", help="rebuild the Table-1 rule book").set_defaults(
        fn=cmd_table1
    )
    sub.add_parser("fig16", help="poll frequency vs agent CPU").set_defaults(
        fn=cmd_fig16
    )
    p_obs = sub.add_parser(
        "obs",
        help="self-observability demo: spans across the wire, metrics, events",
    )
    p_obs.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON document (metrics snapshot, Prometheus text, "
        "spans, events) instead of the human-readable report",
    )
    p_obs.set_defaults(fn=cmd_obs)
    p_fleet = sub.add_parser(
        "fleet",
        help="concurrent fleet collection demo: serial vs fanned-out "
        "refresh over real TCP agents, plus a fleet-wide scan",
    )
    p_fleet.add_argument(
        "--agents", type=int, default=4, help="fleet size (default 4)"
    )
    p_fleet.add_argument(
        "--latency-ms", type=float, default=10.0,
        help="emulated management-network RTT per exchange (default 10)",
    )
    p_fleet.add_argument(
        "--json", action="store_true",
        help="emit one JSON document instead of the human-readable report",
    )
    p_fleet.set_defaults(fn=cmd_fleet)
    p_scale = sub.add_parser(
        "scale",
        help="hierarchical control plane demo: push-mode agents, zone "
        "aggregators, fleet root over TCP, rebalance on zone leave",
    )
    p_scale.add_argument(
        "--machines", type=int, default=9, help="fleet size (default 9)"
    )
    p_scale.add_argument(
        "--zones", type=int, default=3, help="zone count (default 3)"
    )
    p_scale.add_argument(
        "--window-s", type=float, default=0.5,
        help="Algorithm-1 diagnosis window in simulated seconds "
        "(default 0.5)",
    )
    p_scale.add_argument(
        "--json", action="store_true",
        help="emit one JSON document instead of the human-readable report",
    )
    p_scale.set_defaults(fn=cmd_scale)
    p_chaos = sub.add_parser(
        "chaos",
        help="self-healing fleet demo: kill a zone mid-diagnosis over "
        "TCP, failover + re-homing + reconvergence, then a root "
        "partition with circuit breakers",
    )
    p_chaos.add_argument(
        "--machines", type=int, default=12, help="fleet size (default 12)"
    )
    p_chaos.add_argument(
        "--zones", type=int, default=4, help="zone count (default 4)"
    )
    p_chaos.add_argument(
        "--window-s", type=float, default=0.25,
        help="diagnosis window in simulated seconds; the liveness "
        "heartbeat is twice this (default 0.25)",
    )
    p_chaos.add_argument(
        "--arcs", type=int, default=3,
        help="kill/restart arcs to run (default 3)",
    )
    p_chaos.add_argument(
        "--quick", action="store_true",
        help="CI smoke shape: one arc, at most 8 machines",
    )
    p_chaos.add_argument(
        "--json", action="store_true",
        help="emit one JSON document instead of the human-readable report",
    )
    p_chaos.set_defaults(fn=cmd_chaos)
    p_watch = sub.add_parser(
        "watch",
        help="always-on streaming diagnosis: live coarse rounds over "
        "TCP, an injected fault, two-phase escalation, the incident "
        "as one linked trace",
    )
    p_watch.add_argument(
        "--machines", type=int, default=6, help="fleet size (default 6)"
    )
    p_watch.add_argument(
        "--zones", type=int, default=2, help="zone count (default 2)"
    )
    p_watch.add_argument(
        "--rounds", type=int, default=16,
        help="monitoring rounds to run (default 16)",
    )
    p_watch.add_argument(
        "--fault-round", type=int, default=4,
        help="round at which the fault is injected (default 4)",
    )
    p_watch.add_argument(
        "--fault", choices=("drop", "crash"), default="drop",
        help="fault kind: traffic spike past a vNIC cap, or the "
        "victim's agent going quiet (default drop)",
    )
    p_watch.add_argument(
        "--window-s", type=float, default=0.25,
        help="monitoring window per round in simulated seconds "
        "(default 0.25)",
    )
    p_watch.add_argument(
        "--quick", action="store_true",
        help="CI smoke shape: at most 4 machines, 12 rounds",
    )
    p_watch.add_argument(
        "--json", action="store_true",
        help="emit one JSON document instead of the live feed; exits "
        "non-zero if the injected fault was not detected",
    )
    p_watch.set_defaults(fn=cmd_watch)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
