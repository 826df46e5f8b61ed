"""Shared scenario plumbing.

Every experiment builds the same skeleton: a simulator + transport
registry, one or more machines on a fabric, a PerfSight agent per
machine, a controller, and an ``advance`` callable that stands in for
``sleep`` in the Figure-6 query routines.  :class:`Harness` bundles
that, plus helpers for wiring app endpoints to external hosts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.cluster.placement import Placement
from repro.cluster.topology import Tenant
from repro.core.agent import Agent
from repro.core.controller import ZoneController
from repro.dataplane.fabric import ExternalHost, Fabric
from repro.dataplane.machine import PhysicalMachine
from repro.dataplane.params import DataplaneParams
from repro.middleboxes.base import App
from repro.simnet.engine import Component, Simulator
from repro.simnet.packet import Flow
from repro.simnet.trace import Tracer
from repro.transport.registry import TransportRegistry
from repro.transport.tcp import Connection


class Harness:
    """One experiment's world: sim, machines, fabric, PerfSight."""

    def __init__(
        self,
        tick: float = 1e-3,
        seed: int = 0,
        poll_period_s: Optional[float] = None,
    ) -> None:
        self.sim = Simulator(tick=tick, seed=seed)
        self.registry = TransportRegistry(self.sim)
        self.fabric = Fabric(self.sim)
        self.controller = ZoneController("perfsight-controller")
        self.placement = Placement()
        self.machines: Dict[str, PhysicalMachine] = {}
        self.agents: Dict[str, Agent] = {}
        self.tracer = Tracer(self.sim, period=0.1)
        self.poll_period_s = poll_period_s
        self._conn_seq = 0

    # -- construction ------------------------------------------------------------

    def add_machine(
        self,
        name: str,
        params: Optional[DataplaneParams] = None,
        backlog_queues: int = 8,
    ) -> PhysicalMachine:
        machine = PhysicalMachine(
            self.sim, name, params=params, backlog_queues=backlog_queues
        )
        self.fabric.attach(machine)
        agent = Agent(self.sim, machine)
        self.machines[name] = machine
        self.agents[name] = agent
        self.controller.register_local_agent(agent)
        if self.poll_period_s is not None:
            agent.start_polling(self.poll_period_s)
        return machine

    def add_tenant(self, tenant_id: str) -> Tenant:
        tenant = Tenant(tenant_id)
        self.controller.register_tenant(tenant)
        return tenant

    def register_app(self, app: App) -> App:
        """Expose an app's counters through its machine's agent."""
        self.agents[app.vm.machine_name].register(app)
        return app

    def advance(self, seconds: float) -> None:
        self.sim.run(seconds)

    # -- external endpoints --------------------------------------------------------

    def external_host(self, name: str, drain_bytes_per_s: Optional[float] = None) -> ExternalHost:
        return ExternalHost(self.sim, name, drain_bytes_per_s=drain_bytes_per_s)

    def connect_app_to_external(
        self,
        app: App,
        host: ExternalHost,
        conn_id: Optional[str] = None,
        packet_bytes: float = 1500.0,
        sock_bytes: float = 4e6,
    ) -> Connection:
        """TCP connection from an in-VM app out to an external host.

        The external endpoint gets a generous receive buffer by default:
        a fast external sink should never be the window bottleneck.
        """
        cid = conn_id or self._next_conn_id(app.name, host.name)
        flow = Flow(
            flow_id=f"flow:{cid}",
            src_vm=app.vm.vm_id,
            kind="tcp",
            conn_id=cid,
            packet_bytes=packet_bytes,
        )
        sock = host.new_socket(cid, capacity_bytes=sock_bytes)
        conn = Connection(
            cid, flow, rcv_socket=sock,
            tx_submit=app.vm.tx_submit, tx_space=app.vm.tx_space,
        )
        self.registry.register(conn)
        self.fabric.route_flow_to_host(flow, host)
        return conn

    def connect_external_to_app(
        self,
        source_name: str,
        app: App,
        machine: PhysicalMachine,
        conn_id: Optional[str] = None,
        rate_bps: Optional[float] = None,
        packet_bytes: float = 1500.0,
        max_burst_bps: float = 2e9,
    ) -> "ExternalTcpSource":
        """TCP stream from outside the machine into an in-VM app."""
        cid = conn_id or self._next_conn_id(source_name, app.name)
        flow = Flow(
            flow_id=f"flow:{cid}",
            dst_vm=app.vm.vm_id,
            kind="tcp",
            conn_id=cid,
            packet_bytes=packet_bytes,
        )
        conn = Connection(
            cid, flow, rcv_socket=app.socket, tx_submit=machine.inject
        )
        self.registry.register(conn)
        return ExternalTcpSource(
            self.sim, source_name, conn, rate_bps=rate_bps,
            max_burst_bps=max_burst_bps,
        )

    def _next_conn_id(self, a: str, b: str) -> str:
        self._conn_seq += 1
        return f"conn{self._conn_seq}:{a}->{b}"


class ExternalTcpSource(Component):
    """A TCP sender outside any modeled machine (gateway-side client).

    It has no CPU constraints of its own, but it *does* run congestion
    control: the receive window alone cannot stop a sender from
    saturating a lossy path forever, so best-effort sources pace with
    AIMD — halve the pace when the connection reports new losses, grow
    additively otherwise — which converges near the path capacity with
    only occasional probe losses, like real TCP.  A fixed ``rate_bps``
    bypasses the adaptation (a rate-limited client never congests).
    """

    #: AIMD parameters: additive increase per second of smooth running,
    #: multiplicative decrease on loss, floor and ceiling.
    AI_BPS_PER_S = 100e6
    MD_FACTOR = 0.5
    MIN_PACE_BPS = 1e6

    def __init__(
        self,
        sim: Simulator,
        name: str,
        conn: Connection,
        rate_bps: Optional[float] = None,
        max_burst_bps: float = 2e9,
    ) -> None:
        super().__init__(name)
        self.conn = conn
        self.rate_bps = rate_bps
        self.max_burst_bps = max_burst_bps
        self.enabled = True
        self.total_written = 0.0
        self._pace_bps = 50e6
        self._lost_seen = 0.0
        sim.add(self)

    def set_rate(self, rate_bps: Optional[float]) -> None:
        self.rate_bps = rate_bps

    def stop(self) -> None:
        self.enabled = False

    def start(self) -> None:
        self.enabled = True

    def begin_tick(self, sim: Simulator) -> None:
        if not self.enabled:
            return
        if self.rate_bps is not None:
            want = self.rate_bps / 8.0 * sim.tick
        else:
            if self.conn.total_lost_bytes > self._lost_seen + 1.0:
                self._pace_bps = max(
                    self.MIN_PACE_BPS, self._pace_bps * self.MD_FACTOR
                )
            else:
                self._pace_bps += self.AI_BPS_PER_S * sim.tick
            self._lost_seen = self.conn.total_lost_bytes
            self._pace_bps = min(self._pace_bps, self.max_burst_bps)
            want = min(
                self.conn.app_writable_bytes(), self._pace_bps / 8.0 * sim.tick
            )
        want = min(want, self.max_burst_bps / 8.0 * sim.tick)
        self.total_written += self.conn.write(want)


@dataclass
class PhaseResult:
    """Per-phase measurement of a timeline experiment (Figure 8 rows)."""

    name: str
    start_s: float
    end_s: float
    throughput_bps: float
    drops_by_location: Dict[str, float] = field(default_factory=dict)

    @property
    def dominant_drop_location(self) -> Optional[str]:
        real = {k: v for k, v in self.drops_by_location.items() if v > 1.0}
        if not real:
            return None
        return max(real, key=real.get)


def drop_snapshot(machine: PhysicalMachine) -> Dict[str, float]:
    """Cumulative drops by location across a machine's elements."""
    out: Dict[str, float] = {}
    for element in machine.all_elements():
        for loc, pkts in element.counters.drops.items():
            out[loc] = out.get(loc, 0.0) + pkts
    return out


def drop_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    # Sorted so ties in downstream max() break identically across runs
    # (set order varies with string-hash randomization).
    keys = sorted(set(before) | set(after))
    return {
        k: after.get(k, 0.0) - before.get(k, 0.0)
        for k in keys
        if after.get(k, 0.0) - before.get(k, 0.0) > 0
    }
