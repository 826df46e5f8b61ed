"""Cross-module integration tests: multi-machine chains, full PerfSight
loop over the wire, and the ticket-driven operator workflow."""

from repro.cluster.chains import build_chain
from repro.core.agent import Agent
from repro.core.controller import ZoneController
from repro.core.diagnosis import RootCauseLocator
from repro.core.diagnosis.tickets import TicketAggregator, TicketQueue
from repro.core.net import AgentServer, RemoteAgentHandle
from repro.middleboxes.http import HttpClient, HttpServer
from repro.middleboxes.proxy import Proxy
from repro.scenarios.common import Harness


class TestCrossMachineChain:
    def build(self, proxy_slow=1.0):
        h = Harness()
        m1 = h.add_machine("m1")
        m2 = h.add_machine("m2")
        tenant = h.add_tenant("t1")
        client = HttpClient(
            h.sim, m1.add_vm("vm-c", vnic_bps=100e6), "client"
        )
        proxy = Proxy(h.sim, m1.add_vm("vm-p", vnic_bps=100e6), "proxy")
        proxy.slowdown = proxy_slow
        server = HttpServer(
            h.sim, m2.add_vm("vm-s", vnic_bps=100e6), "server", cpu_per_byte=2e-9
        )
        build_chain([client, proxy, server], tenant.vnet, fabric=h.fabric)
        for app in (client, proxy, server):
            h.register_app(app)
        return h, client, proxy, server

    def test_traffic_crosses_the_fabric(self):
        h, client, proxy, server = self.build()
        h.advance(3.0)
        rate = server.total_consumed_bytes * 8 / 3.0
        assert rate > 50e6  # two extra hops of latency, still flows

    def test_algorithm2_spans_machines(self):
        """The root-cause locator works when the chain crosses hosts —
        the controller resolves each middlebox to its own agent."""
        h, client, proxy, server = self.build(proxy_slow=100.0)
        h.advance(5.0)
        locator = RootCauseLocator(h.controller, h.advance, window_s=2.0)
        report = locator.run("t1")
        assert report.root_causes == ["proxy"]
        assert report.verdict("server").state.read_blocked

    def test_per_machine_agents_see_their_own_elements(self):
        h, *_ = self.build()
        ids1 = set(h.agents["m1"].element_ids())
        ids2 = set(h.agents["m2"].element_ids())
        assert "tun-vm-p@m1" in ids1
        assert "tun-vm-s@m2" in ids2
        assert not (ids1 & ids2 - {"client", "proxy", "server"})


class TestPerfSightOverTheWire:
    def test_algorithm2_through_tcp_agents(self, sim_with_transport):
        """The full diagnosis loop with the agent behind a real socket."""
        from repro.cluster.topology import Tenant
        from repro.dataplane.machine import PhysicalMachine

        sim = sim_with_transport
        machine = PhysicalMachine(sim, "m1")
        client = HttpClient(sim, machine.add_vm("vm-c", vnic_bps=100e6), "client")
        proxy = Proxy(sim, machine.add_vm("vm-p", vnic_bps=100e6), "proxy")
        proxy.slowdown = 100.0
        server = HttpServer(
            sim, machine.add_vm("vm-s", vnic_bps=100e6), "server", cpu_per_byte=2e-9
        )
        tenant = Tenant("t1")
        build_chain([client, proxy, server], tenant.vnet)
        agent = Agent(sim, machine)
        for app in (client, proxy, server):
            agent.register(app)
        sim.run(5.0)
        with AgentServer(agent) as srv:
            host, port = srv.address
            handle = RemoteAgentHandle(host, port)
            controller = ZoneController()
            controller.register_agent("m1", handle)
            controller.register_tenant(tenant)
            locator = RootCauseLocator(
                controller, advance=lambda t: sim.run(t), window_s=2.0
            )
            report = locator.run("t1")
            handle.close()
        assert report.root_causes == ["proxy"]


class TestTicketDrivenWorkflow:
    def test_plan_then_diagnose(self):
        """Tickets from two overlapping tenants trigger one shared
        machine pass whose verdict answers both."""
        from repro.workloads.stress import MemoryHog
        from repro.simnet.packet import Flow
        from repro.workloads.traffic import ExternalTrafficSource

        h = Harness()
        machine = h.add_machine("m1")
        for tid in ("t1", "t2"):
            vm = machine.add_vm(f"{tid}-vm", vcpu_cores=1.0, tenant_id=tid)
            h.placement.place(f"{tid}-vm", "m1", tenant_id=tid)
            app = HttpServer(h.sim, vm, f"{tid}-app", cpu_per_byte=1e-9)
            flow = Flow(f"{tid}-rx", dst_vm=f"{tid}-vm", kind="udp")
            vm.bind_udp(flow, app.socket)
            ExternalTrafficSource(
                h.sim, f"{tid}-src", flow, machine.inject, rate_bps=500e6
            )
        MemoryHog(h.sim, "hog", machine.membus, demand_bytes_per_s=400e9)
        h.advance(2.0)

        queue = TicketQueue()
        queue.open("t1", "throughput collapsed", now=h.sim.now)
        queue.open("t2", "throughput collapsed", now=h.sim.now)
        steps = TicketAggregator(h.placement).plan(queue)
        assert len(steps) == 1
        step = steps[0]
        assert step.kind == "machine_contention"
        assert step.target == "m1"

        from repro.core.diagnosis import ContentionDetector

        report = ContentionDetector(h.controller, h.advance, window_s=1.0).run(
            step.target
        )
        assert report.verdicts, "shared pass must produce a verdict"
        resources = {r for v in report.verdicts for r in v.resources}
        assert "memory-bandwidth" in resources
        for ticket in step.tickets:
            ticket.resolve(report.verdicts[0].describe())
        assert queue.open_tickets() == []
