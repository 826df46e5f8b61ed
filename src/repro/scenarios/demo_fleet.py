"""Concurrent fleet collection demo (``python -m repro.cli fleet``).

N agents, each behind its own loopback TCP server, refreshed by one
zone controller first serially and then fanned out over its worker
pool, followed by a fleet-wide Algorithm-1 scan.  Each exchange pays an
emulated management-network round trip so the serial-vs-concurrent
comparison has the shape of a real deployment.
"""

from __future__ import annotations

import time

from repro.core.controller import ZoneController
from repro.core.net.client import RemoteAgentHandle, RetryPolicy
from repro.core.net.server import AgentServer
from repro.middleboxes.proxy import Proxy
from repro.scenarios.common import Harness


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

    def __getattr__(self, name):
        # name and the element listings pass through undelayed
        return getattr(self._handle, name)

    def _delay(self) -> None:
        if self._latency_s > 0:
            time.sleep(self._latency_s)

    def collect_blocks(self, acked=None):
        self._delay()
        return self._handle.collect_blocks(acked)


def run_fleet(n_agents: int, latency_s: float):
    """N TCP-served agents, serial vs concurrent refresh; a JSON-ready dict."""
    h = Harness(seed=3)
    controller = ZoneController("fleet-demo-controller", max_workers=n_agents)
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
