"""Cross-wire trace propagation and pipeline instrumentation over TCP.

The acceptance scenario of the self-observability plane: a controller
query against a live :class:`AgentServer` must yield linked
parent/child spans with one trace id on both sides of the wire —
including across an injected retry — alongside non-empty channel-read
latency histograms and structured events for every health transition.
"""

import pytest

from repro import obs
from repro.core.agent import Agent
from repro.core.channels import READ_LATENCY_METRIC
from repro.core.controller import ZoneController
from repro.core.net.client import (
    WIRE_RETRIES_METRIC,
    RemoteAgentHandle,
    RetryPolicy,
)
from repro.core.net.server import AgentServer
from repro.dataplane.machine import PhysicalMachine
from repro.middleboxes.http import HttpServer
from repro.simnet.packet import Flow
from repro.workloads.traffic import ExternalTrafficSource

#: Full retry budget, no real waiting — failures resolve in milliseconds.
FAST_RETRY = RetryPolicy(
    max_attempts=3, base_delay_s=0.001, max_delay_s=0.002, deadline_s=30.0
)


@pytest.fixture
def world(sim_with_transport):
    sim = sim_with_transport
    machine = PhysicalMachine(sim, "m1")
    vm = machine.add_vm("v1", vcpu_cores=1.0)
    app = HttpServer(sim, vm, "app", cpu_per_byte=1e-9)
    flow = Flow("rx", dst_vm="v1", kind="udp")
    vm.bind_udp(flow, app.socket)
    ExternalTrafficSource(sim, "src", flow, machine.inject, rate_bps=40e6)
    sim.run(0.5)
    agent = Agent(sim, machine)
    agent.register(app)
    return sim, machine, agent


@pytest.fixture
def served(world):
    sim, machine, agent = world
    server = AgentServer(agent).start()
    handle = RemoteAgentHandle(*server.address, retry=FAST_RETRY)
    controller = ZoneController()
    controller.register_agent("m1", handle)
    yield sim, agent, server, handle, controller
    handle.close()
    server.shutdown()


def spans_of(hub, name):
    return hub.spans.by_name(name)


class TestCrossWireTrace:
    def test_refresh_links_controller_and_agent_spans(self, served):
        _, _, _, _, controller = served
        with obs.installed() as hub:
            controller.refresh("m1")

        (sync,) = spans_of(hub, "mirror.sync")
        (call,) = spans_of(hub, "wire.call")
        # the first exchange on a fresh connection also negotiates the
        # codec: its HELLO handshake gets its own client span and serve
        # span, all inside the same trace
        (hello,) = spans_of(hub, "wire.hello")
        serves = {s.attrs["op"]: s for s in spans_of(hub, "wire.serve")}
        assert set(serves) == {"hello", "batch_delta"}
        serve = serves["batch_delta"]
        (sweep,) = spans_of(hub, "agent.sweep")

        # one trace id on both sides of the wire
        assert sync.trace_id == call.trace_id == serve.trace_id == sweep.trace_id
        assert hello.trace_id == sync.trace_id
        assert serves["hello"].trace_id == sync.trace_id
        # parent/child chain: sync -> call -(wire)-> serve -> sweep,
        # with the handshake hanging off the call span
        assert call.parent_id == sync.span_id
        assert hello.parent_id == call.span_id
        assert serves["hello"].parent_id == hello.span_id
        assert serve.parent_id == call.span_id
        assert serve.remote_parent
        assert sweep.parent_id == serve.span_id
        # and the tree renderer shows the crossing
        tree = hub.spans.render_tree(sync.trace_id)
        assert "wire.serve" in tree and "^wire" in tree
        assert tree.splitlines()[0].startswith("mirror.sync")

    def test_trace_survives_injected_retry(self, served):
        """A crashed-and-restarted agent forces one retry; the retried
        request keeps the first attempt's trace context."""
        _, agent, server, handle, controller = served
        with obs.installed() as hub:
            controller.refresh("m1")  # healthy baseline, warm connection
            host, port = server.address
            server.shutdown()  # crash: severs the handle's live socket
            server2 = AgentServer(agent, host=host, port=port).start()
            try:
                controller.refresh("m1")  # 1st attempt fails, retry lands
            finally:
                server2.shutdown()

        calls = spans_of(hub, "wire.call")
        assert len(calls) == 2
        retried = calls[-1]
        assert retried.attrs["attempts"] == 2
        retries = hub.metrics.get(WIRE_RETRIES_METRIC, op="batch_delta")
        assert retries is not None and retries.value >= 1
        # the serve span of the retried exchange links to the SAME
        # client span that opened before the first (failed) attempt
        serves = [
            s for s in spans_of(hub, "wire.serve")
            if s.parent_id == retried.span_id
        ]
        assert len(serves) == 1
        assert serves[0].trace_id == retried.trace_id

    def test_untraced_client_is_wire_compatible(self, served):
        """A hub on only one side must not confuse the other."""
        _, _, _, handle, controller = served
        # client traces, server-side spans land in the same in-process
        # hub here — but a client WITHOUT a hub sends no trace field
        # and the serve span roots its own fresh trace.
        with obs.installed() as hub:
            pass  # hub installed and removed: nothing traced
        assert handle.ping() == "agent@m1"
        assert spans_of(hub, "wire.serve") == []


class TestPushTraceLinks:
    """Push-on-change deliveries must join trace trees the way pulled
    BATCH_DELTA calls do: one trace id on both sides, the zone's
    ingest span a remote child of the agent's push span."""

    def test_push_links_agent_and_zone_ingest_spans(self, world):
        sim, machine, agent = world
        zone = ZoneController("z-push")
        zone.register_local_agent(agent)
        with obs.installed() as hub:
            agent.start_pushing(zone, period_s=0.05)
            sim.run(0.2)
            agent.stop_pushing()

        pushes = spans_of(hub, "agent.push")
        ingests = spans_of(hub, "zone.ingest_push")
        assert pushes and ingests
        by_parent = {s.parent_id: s for s in ingests}
        for push in pushes:
            ingest = by_parent.get(push.span_id)
            assert ingest is not None, "push delivery left no linked span"
            assert ingest.trace_id == push.trace_id
            assert ingest.remote_parent
            assert ingest.attrs["machine"] == machine.name
        tree = hub.spans.render_tree(pushes[0].trace_id)
        assert "zone.ingest_push" in tree and "^wire" in tree


class TestPipelineMetricsOverTcp:
    def test_channel_histograms_and_health_events(self, served):
        _, agent, server, handle, controller = served
        with obs.installed() as hub:
            controller.refresh("m1")  # sweeps every channel once
            host, port = server.address
            server.shutdown()
            # agent gone: syncs fail until the health policy calls it
            # degraded, then dead — every transition must emit an event
            for _ in range(6):
                controller.refresh("m1")
            server2 = AgentServer(agent, host=host, port=port).start()
            try:
                controller.refresh("m1")  # recovery
            finally:
                server2.shutdown()

        # Fig-9 analog: per-kind read-latency histograms are non-empty
        kinds = {
            dict(key).get("kind"): hist
            for key, hist in hub.metrics.children(READ_LATENCY_METRIC).items()
        }
        assert kinds, "no channel read latency was recorded"
        assert all(h.count > 0 for h in kinds.values())
        # and they render as Prometheus text exposition
        text = hub.metrics.render_prometheus()
        assert f"# TYPE {READ_LATENCY_METRIC} histogram" in text
        assert f"{READ_LATENCY_METRIC}_bucket" in text

        # structured events for every health state transition
        transitions = [
            (e.fields["from_state"], e.fields["to_state"])
            for e in hub.events.events(name="health.transition")
        ]
        assert ("healthy", "degraded") in transitions
        assert ("degraded", "dead") in transitions
        assert transitions[-1][1] == "healthy"  # recovery observed
        severities = {
            e.fields["to_state"]: e.severity
            for e in hub.events.events(name="health.transition")
        }
        assert severities["degraded"] == obs.WARNING
        assert severities["dead"] == obs.ERROR
        assert severities["healthy"] == obs.INFO

    def test_sync_failure_events_and_unreachable_counter(self, served):
        _, _, server, _, controller = served
        with obs.installed() as hub:
            server.shutdown()
            controller.refresh("m1")
        failed = hub.events.events(name="mirror.sync_failed")
        assert len(failed) == 1
        assert failed[0].fields["machine"] == "m1"
        unreachable = [
            e for e in hub.events.events(min_severity=obs.ERROR)
            if e.name == "wire.unreachable"
        ]
        assert len(unreachable) == 1
