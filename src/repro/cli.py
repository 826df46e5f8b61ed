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
* ``chaos``             — self-healing demo: zone kill/restart with
  failover and re-homing, then a root partition that only goes stale
* ``watch``             — always-on streaming diagnosis: one injected
  fault detected, escalated and rendered as one incident trace
* ``list``              — the experiment inventory with paper references

Each demo arc lives in ``repro.scenarios.demo_*`` and returns a
JSON-ready result; this module only parses arguments and prints that
result as text or, with ``--json``, as one JSON document.
"""

from __future__ import annotations

import argparse
import json
import math
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
             "partition goes stale without failing over",
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


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True, default=str))


def cmd_obs(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.scenarios.demo_obs import run_obs

    hub = obs.Observability()
    with obs.installed(hub):
        report, quality = run_obs()
    return print_obs(report, quality, hub, args.json)


def print_obs(report, quality, hub, as_json: bool) -> int:
    """The ``obs`` demo's diagnosis plus everything ``hub`` recorded."""
    from repro.core.channels import READ_LATENCY_METRIC

    diag_spans = hub.spans.by_name("diagnosis.propagation")
    trace_id = diag_spans[-1].trace_id if diag_spans else None

    if as_json:
        _print_json(
            {
                "root_causes": report.root_causes,
                "data_quality": quality.describe(),
                "metrics": hub.metrics.snapshot(),
                "prometheus": hub.metrics.render_prometheus(),
                "spans": [s.to_dict() for s in hub.spans.finished()],
                "trace_id": trace_id,
                "events": [e.to_dict() for e in hub.events.events()],
            }
        )
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


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.scenarios.demo_fleet import run_fleet

    return print_fleet(run_fleet(args.agents, args.latency_ms / 1e3), args.json)


def print_fleet(result, as_json: bool) -> int:
    if as_json:
        _print_json(result)
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


def cmd_scale(args: argparse.Namespace) -> int:
    from repro.scenarios.demo_scale import run_scale

    return print_scale(run_scale(args.machines, args.zones, args.window_s), args.json)


def print_scale(result, as_json: bool) -> int:
    """Exit status 1 when the roll-up's verdicts diverge from flat, or
    when the final roll-up (after the rebalance, when there is one)
    flags any machine's verdict as resting on degraded data."""
    if as_json:
        _print_json(result)
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
    droppers = ", ".join(f"{m} {pkts:.0f}" for m, pkts in r["top_droppers"])
    print(f"  top droppers (pkts): {droppers or 'none'}")
    if r["loss_rate_p99"] is not None:
        print(f"  p99 loss rate: {r['loss_rate_p99']:.4f}")
    for machine, verdict in r["verdicts"]:
        print(f"  {machine}: {verdict}")
    ok = result["verdicts_equal_flat"] and not r["degraded_machines"]
    return 0 if ok else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.scenarios.demo_chaos import run_chaos

    machines = min(args.machines, 8) if args.quick else args.machines
    arcs = 1 if args.quick else args.arcs
    return print_chaos(run_chaos(machines, args.zones, args.window_s, arcs), args.json)


def print_chaos(result, as_json: bool) -> int:
    """Exit status 1 unless the fleet healed itself (``result["ok"]``)."""
    if as_json:
        _print_json(result)
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


def cmd_watch(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.scenarios.demo_watch import run_watch

    machines = min(args.machines, 4) if args.quick else args.machines
    rounds = min(args.rounds, 12) if args.quick else args.rounds
    fault_round = min(args.fault_round, rounds)
    hub = obs.Observability()
    with obs.installed(hub):
        result, incidents = run_watch(
            machines, args.zones, rounds, fault_round, args.window_s,
            fault=args.fault,
            on_round=None if args.json else print_watch_round,
        )
    return print_watch(result, incidents, hub, args.json)


def print_watch_round(entry) -> None:
    """One line of the live feed: a round's log entry."""
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


def print_watch(result, incidents, hub, as_json: bool) -> int:
    """Exit status 1 unless the injected fault was detected."""
    if as_json:
        _print_json(
            {
                **result,
                "prometheus": hub.metrics.render_prometheus(),
                "events": [e.to_dict() for e in hub.events.events()],
            }
        )
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


def _count(minimum: int):
    """argparse ``type=``: an integer no smaller than ``minimum``."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return count


def _seconds(text: str) -> float:
    """argparse ``type=``: a positive, finite duration."""
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


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
        "--agents", type=_count(1), default=4, help="fleet size (default 4)"
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
        "--machines", type=_count(1), default=9, help="fleet size (default 9)"
    )
    p_scale.add_argument(
        "--zones", type=_count(1), default=3, help="zone count (default 3)"
    )
    p_scale.add_argument(
        "--window-s", type=_seconds, default=0.5,
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
        "partition that goes stale without failing over",
    )
    p_chaos.add_argument(
        "--machines", type=_count(2), default=12, help="fleet size (default 12)"
    )
    p_chaos.add_argument(
        "--zones", type=_count(2), default=4, help="zone count (default 4)"
    )
    p_chaos.add_argument(
        "--window-s", type=_seconds, default=0.25,
        help="diagnosis window in simulated seconds; the liveness "
        "heartbeat is twice this (default 0.25)",
    )
    p_chaos.add_argument(
        "--arcs", type=_count(1), default=3,
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
        "--machines", type=_count(2), default=6, help="fleet size (default 6)"
    )
    p_watch.add_argument(
        "--zones", type=_count(1), default=2, help="zone count (default 2)"
    )
    p_watch.add_argument(
        "--rounds", type=_count(1), default=16,
        help="monitoring rounds to run (default 16)",
    )
    p_watch.add_argument(
        "--fault-round", type=_count(1), default=4,
        help="round at which the fault is injected (default 4)",
    )
    p_watch.add_argument(
        "--fault", choices=("drop", "crash"), default="drop",
        help="fault kind: traffic spike past a vNIC cap, or the "
        "victim's agent going quiet (default drop)",
    )
    p_watch.add_argument(
        "--window-s", type=_seconds, default=0.25,
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
