"""Hierarchical control plane demo (``python -m repro.cli scale``).

Agents push deltas to their zone aggregator on change; the zones
diagnose their shards around ONE shared time advance and push scalar
roll-ups to the fleet root over real TCP (bin1 ZONE_REPORT frames).  A
flat controller diagnoses the same fleet in the same interval so the
demo can *show* the hierarchy's verdicts are equal, not just
plausible.  Then the last zone leaves and its shard rebalances onto
the survivors.
"""

from __future__ import annotations

from repro.core.controller import FleetController, apply_shard_moves
from repro.core.net.client import ZoneClient
from repro.core.net.server import FleetServer
from repro.scenarios.common import Harness
from repro.scenarios.fleet import (
    EVERY_THIRD_OVERDRIVEN,
    add_receivers,
    shard,
    split_round,
    stop_cadences,
)


def run_scale(n_machines: int, n_zones: int, window_s: float):
    """Three-tier control plane end to end; returns a JSON-ready dict."""
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

    flat, reports = split_round(h, zones, window_s)

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
        for name, new in apply_shard_moves(moves, zones).items():
            h.agents[name].start_pushing(zones[new], period_s=0.05)
        zones.pop(victim)
        h.advance(0.2)
        _, reports = split_round(h, zones, window_s, flat=False)
        for report in reports.values():
            fleet.ingest_zone_report(report)
        rollup = fleet.rollup()

    stop_cadences(h.agents)

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
            "top_droppers": rollup.top_droppers(5),
            "loss_rate_p99": rollup.loss_rate_quantile(0.99),
            "verdicts": [(m, v.describe()) for m, v in rollup.verdicts],
            "summary": rollup.summary(),
        },
    }
