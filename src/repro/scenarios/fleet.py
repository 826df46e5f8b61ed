"""Sharded receiver fleets: the world the hierarchical demos run on.

``python -m repro.cli scale``, ``chaos`` and ``watch`` all diagnose the
same kind of fleet: ``host-NNN`` machines, each with one ``vm0`` UDP
receiver, sharded over ``zone-N`` controllers by the fleet root's hash
ring.  This module builds it once.  What differs between fleets — each
machine's vNIC cap and offered rate — is passed in as data.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.core.controller import FleetController, ZoneController
from repro.middleboxes.http import HttpServer
from repro.scenarios.common import Harness
from repro.simnet.packet import Flow
from repro.workloads.traffic import ExternalTrafficSource

#: ``(vnic_bps, rate_bps)`` per machine, cycled by machine index.
Shape = Tuple[Optional[float], float]

#: Every third machine offered 4x its 50 Mb/s cap: a real
#: individual-scope VM_BOTTLENECK verdict among clean machines.
EVERY_THIRD_OVERDRIVEN: Sequence[Shape] = (
    (50e6, 200e6), (None, 100e6), (None, 100e6),
)
#: Every machine under its 100 Mb/s cap, so any drop is an injected fault.
ALL_UNDER_CAP: Sequence[Shape] = ((100e6, 60e6),)


def add_receivers(
    h: Harness, n_machines: int, shapes: Sequence[Shape]
) -> Dict[str, ExternalTrafficSource]:
    """Add ``host-000`` .. ``host-{n-1}``, each with one ``vm0`` receiver.

    Machine ``i`` takes ``shapes[i % len(shapes)]``: its ``vm0`` vNIC is
    capped at ``vnic_bps`` (None = uncapped) and an external source
    offers it ``rate_bps`` of UDP.  Returns machine -> traffic source.
    """
    sources = {}
    for i in range(n_machines):
        name = f"host-{i:03d}"
        vnic_bps, rate_bps = shapes[i % len(shapes)]
        machine = h.add_machine(name)
        vm = machine.add_vm("vm0", vcpu_cores=1.0, vnic_bps=vnic_bps)
        app = HttpServer(h.sim, vm, f"app-{name}", cpu_per_byte=1e-9)
        flow = Flow(f"rx-{name}", dst_vm="vm0", kind="udp")
        vm.bind_udp(flow, app.socket)
        sources[name] = ExternalTrafficSource(
            h.sim, f"src-{name}", flow, machine.inject, rate_bps=rate_bps
        )
    return sources


def shard(
    fleet: FleetController, agents: Mapping[str, object], n_zones: int
) -> Tuple[Dict[str, ZoneController], Dict[str, int]]:
    """Shard ``agents`` over ``zone-0`` .. ``zone-{n-1}`` at ``fleet``.

    Registers every zone on the root's ring with a
    :class:`ZoneController` behind it, then hands each zone the local
    agents of the shard :meth:`FleetController.shards` assigns it.
    Returns (zone name -> controller, zone name -> shard size).
    """
    fleet.track_machines(agents)
    zones = {}
    for z in range(n_zones):
        zone_name = f"zone-{z}"
        fleet.register_zone(zone_name)
        zones[zone_name] = ZoneController(zone_name)
    shard_sizes = {}
    for zone_name, machines in fleet.shards().items():
        shard_sizes[zone_name] = len(machines)
        for name in machines:
            zones[zone_name].register_local_agent(agents[name])
    return zones, shard_sizes
