"""Self-observability demo (``python -m repro.cli obs``).

The quickstart chain — client -> proxy -> server on one machine, with
a performance bug injected into the proxy — diagnosed by Algorithm 2
from a controller that reaches the agent over real TCP, then a
crash/restart arc on the agent's server.  Run it under an installed
:mod:`repro.obs` hub and every layer records into it: trace spans that
cross the wire, channel-latency histograms, health transitions and
failed-sync events.
"""

from __future__ import annotations

from repro.cluster.chains import build_chain
from repro.core.controller import ZoneController
from repro.core.diagnosis import RootCauseLocator
from repro.core.net.client import RemoteAgentHandle, RetryPolicy
from repro.core.net.server import AgentServer
from repro.middleboxes.http import HttpClient, HttpServer
from repro.middleboxes.proxy import Proxy
from repro.scenarios.common import Harness
from repro.workloads.faults import inject_perf_bug


def run_obs():
    """Returns (Algorithm-2 report, data quality after the arc)."""
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
    remote = ZoneController("obs-demo-controller")
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
