#!/usr/bin/env python3
"""Split-process PerfSight: the controller talks to the agent over TCP.

The other examples hold agents in-process; this one exercises the real
deployment shape of Figure 4 — an agent serving its machine's counters
behind a socket, a controller connecting over the (here: loopback)
management network with the length-prefixed wire protocol (JSON control
ops; a HELLO negotiates the packed-binary ``bin1`` codec that every
telemetry delta travels in), and the Figure-6 utility routines running
unchanged on top.

Run:  python examples/remote_agent.py
"""

from repro.cluster.topology import Tenant
from repro.core.agent import Agent
from repro.core.controller import ZoneController
from repro.core.net import AgentServer, RemoteAgentHandle
from repro.core.query import QueryRunner
from repro.dataplane.machine import PhysicalMachine
from repro.middleboxes.http import HttpServer
from repro.simnet.engine import Simulator
from repro.simnet.packet import Flow
from repro.transport.registry import TransportRegistry
from repro.workloads.traffic import ExternalTrafficSource


def main() -> None:
    # The simulated machine + a VM receiving 120 Mbps of UDP.
    sim = Simulator(tick=1e-3, seed=3)
    TransportRegistry(sim)
    machine = PhysicalMachine(sim, "host-1")
    vm = machine.add_vm("vm1", vcpu_cores=1.0)
    app = HttpServer(sim, vm, "app", cpu_per_byte=1e-9)
    flow = Flow("rx", dst_vm="vm1", kind="udp")
    vm.bind_udp(flow, app.socket)
    ExternalTrafficSource(sim, "src", flow, machine.inject, rate_bps=120e6)
    sim.run(1.0)

    # Agent behind a TCP endpoint; controller on the other side.
    agent = Agent(sim, machine)
    agent.register(app)
    with AgentServer(agent) as server:
        host, port = server.address
        print(f"agent {agent.name} serving on {host}:{port}")
        handle = RemoteAgentHandle(host, port)
        print(f"controller ping -> {handle.ping()}")
        print(f"elements visible over the wire: {len(handle.element_ids())}")

        controller = ZoneController()
        controller.register_agent("host-1", handle)
        tenant = Tenant("t1")
        tenant.vnet.register_element("pnic", "host-1", "pnic@host-1")
        tenant.vnet.register_element("tun", "host-1", "tun-vm1@host-1")
        controller.register_tenant(tenant)

        runner = QueryRunner(controller, advance=lambda t: sim.run(t), interval_s=1.0)
        rate = runner.get_throughput("t1", "pnic", attr="rx_bytes")
        size = runner.get_avg_pkt_size("t1", "pnic")
        loss = runner.get_pkt_loss("t1", "tun")
        print(f"GetThroughput(pnic) = {rate * 8 / 1e6:.1f} Mbps (offered: 120)")
        print(f"GetAvgPktSize(pnic) = {size:.0f} bytes")
        print(f"GetPktLoss(tun)     = {loss:.0f} packets")
        handle.close()
    print("agent server stopped cleanly")


if __name__ == "__main__":
    main()
