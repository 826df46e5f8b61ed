"""Concurrent fleet collection: fan-out refresh, reports, fleet diagnosis.

The controller's concurrency contract: ``refresh_concurrent`` is
equivalent to serial ``refresh`` in every observable mirror state (only
the schedule differs), the per-mirror locks keep overlapping refreshes
from corrupting any single mirror, health transitions stay consistent
under parallel syncs around an agent crash/restart, and
``diagnose_fleet`` produces per-machine Algorithm-1 reports that all
measured the same shared window.
"""

import threading
import time

import pytest

from repro import obs
from repro.core.controller import Controller
from repro.core.health import DEAD, DEGRADED, HEALTHY, HealthPolicy
from repro.middleboxes.proxy import Proxy
from repro.scenarios.common import Harness


class FlakyHandle:
    """AgentHandle proxy whose collection path can be taken down."""

    def __init__(self, agent):
        self._agent = agent
        self.name = agent.name
        self.down = False
        self.calls = 0

    def _check(self):
        self.calls += 1
        if self.down:
            raise ConnectionError(f"{self.name} is down")

    def query(self, element_ids=None, attrs=None):
        self._check()
        return self._agent.query(element_ids, attrs)

    def element_ids(self):
        self._check()
        return self._agent.element_ids()

    def stack_element_ids(self):
        self._check()
        return [e.name for e in self._agent.machine.stack_elements()]

    def collect_blocks(self, acked=None):
        self._check()
        return self._agent.collect_blocks(acked)


class SlowHandle(FlakyHandle):
    """FlakyHandle plus injected wall-clock latency per exchange."""

    def __init__(self, agent, latency_s):
        super().__init__(agent)
        self.latency_s = latency_s

    def _check(self):
        time.sleep(self.latency_s)
        super()._check()


def build_fleet(n_machines=3, handle_cls=FlakyHandle, **handle_kwargs):
    """A fleet harness whose controller sees wrapped agent handles."""
    h = Harness()
    controller = Controller("fleet-test")
    handles = {}
    for i in range(n_machines):
        name = f"m{i}"
        machine = h.add_machine(name)
        vm = machine.add_vm("vm0", vcpu_cores=1.0)
        h.register_app(Proxy(h.sim, vm, f"proxy{i}"))
        handles[name] = handle_cls(h.agents[name], **handle_kwargs)
        controller.register_agent(name, handles[name])
    h.advance(0.5)
    for agent in h.agents.values():
        agent.poll_once()
    return h, controller, handles


class TestConcurrentRefresh:
    def test_equivalent_to_serial_in_mirror_state(self):
        h, controller, _ = build_fleet(3)
        received = controller.refresh_concurrent()
        assert received > 0
        for name, agent in h.agents.items():
            mirror = controller.mirror_for(name)
            # The mirror converged to the agent's own store: same
            # elements, same latest sequence numbers, ack == cursor.
            assert mirror.store.element_ids() == agent.store.element_ids()
            assert mirror.acked == agent.store.cursor()
            for eid in agent.store.element_ids():
                assert mirror.store.latest(eid).seq == agent.store.latest(eid).seq

    def test_refresh_concurrent_flag_matches_dedicated_method(self):
        _, controller, _ = build_fleet(2)
        assert controller.refresh(concurrent=True) >= 0
        assert controller.refresh() == 0  # nothing new after either path

    def test_fan_out_actually_overlaps(self):
        _, controller, _ = build_fleet(
            4, handle_cls=SlowHandle, latency_s=0.03
        )
        report = controller.refresh_report(max_workers=4)
        assert report.concurrent
        assert report.peak_workers >= 2, "syncs never ran simultaneously"
        # Wall clock is bounded by max not sum: 4 x 30 ms serial would
        # be >= 120 ms; generous slack for CI scheduling jitter.
        assert report.wall_s < 0.09

    def test_parent_and_child_spans_cross_the_pool(self):
        _, controller, _ = build_fleet(3)
        with obs.installed() as hub:
            controller.refresh_concurrent()
        (parent,) = hub.spans.by_name("controller.refresh")
        syncs = hub.spans.by_name("mirror.sync")
        assert len(syncs) == 3
        for sync in syncs:
            # Trace context was copied into the worker threads.
            assert sync.trace_id == parent.trace_id
            assert sync.parent_id == parent.span_id

    def test_overlapping_fleet_refreshes_do_not_corrupt_mirrors(self):
        h, controller, _ = build_fleet(3)
        errors = []

        def refresher():
            try:
                for _ in range(5):
                    controller.refresh_concurrent()
            except Exception as exc:  # noqa: BLE001 - fail the test with it
                errors.append(exc)

        threads = [threading.Thread(target=refresher) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
            assert not t.is_alive()
        assert not errors
        for name, agent in h.agents.items():
            mirror = controller.mirror_for(name)
            assert mirror.acked == agent.store.cursor()
            assert mirror.health.state == HEALTHY
            # Every sync was counted exactly once despite the overlap.
            assert mirror.syncs == 3 * 5  # 3 racers x 5 rounds each


class TestRefreshReport:
    def test_per_machine_breakdown(self):
        h, controller, handles = build_fleet(3)
        h.advance(0.2)
        for agent in h.agents.values():
            agent.poll_once()
        report = controller.refresh_report()
        assert set(report.machines) == {"m0", "m1", "m2"}
        assert report.total_snapshots == sum(
            m.snapshots for m in report.machines.values()
        )
        assert report.failed == []
        for entry in report.machines.values():
            assert entry.ok and entry.health_state == HEALTHY
            assert entry.wall_s >= 0.0
        assert "3 machine(s)" in report.describe()

    def test_dead_agent_is_isolated_in_the_report(self):
        _, controller, handles = build_fleet(3)
        handles["m1"].down = True
        report = controller.refresh_report()
        assert report.failed == ["m1"]
        entry = report.for_machine("m1")
        assert not entry.ok
        assert entry.snapshots == 0
        assert entry.health_state == DEGRADED
        assert "ConnectionError" in entry.error
        # The healthy machines were untouched by the failure.
        for name in ("m0", "m2"):
            assert report.for_machine(name).ok
        with pytest.raises(KeyError):
            report.for_machine("nope")

    def test_serial_mode_reports_peak_of_one(self):
        _, controller, _ = build_fleet(2)
        report = controller.refresh_report(concurrent=False)
        assert not report.concurrent
        assert report.peak_workers == 1


class TestHealthUnderConcurrency:
    def test_crash_restart_transitions_stay_consistent(self):
        h, controller, handles = build_fleet(3)
        # Re-register m1 under a strict policy by driving its health
        # through the default one instead: degraded at 1, dead at 3.
        flaky = handles["m1"]
        flaky.down = True
        for _ in range(3):
            controller.refresh_concurrent()
        health = controller.health_for("m1")
        assert health.state == DEAD
        flaky.down = False  # "restart" the agent
        controller.refresh_concurrent()
        assert health.state == HEALTHY
        # The exact arc, no duplicated or interleaved edges: the
        # per-mirror lock serialized every sync's health record.
        assert health.state_sequence() == [HEALTHY, DEGRADED, DEAD, HEALTHY]
        # Other machines never saw a transition.
        assert controller.health_for("m0").transitions == []
        assert controller.health_for("m2").transitions == []

    def test_custom_policy_under_concurrent_refresh(self):
        h = Harness()
        controller = Controller("fleet-policy")
        machine = h.add_machine("m0")
        machine.add_vm("vm0", vcpu_cores=1.0)
        flaky = FlakyHandle(h.agents["m0"])
        controller.register_agent(
            "m0", flaky, health_policy=HealthPolicy(degraded_after=2, dead_after=4)
        )
        h.advance(0.2)
        flaky.down = True
        controller.refresh_concurrent()
        assert controller.health_for("m0").state == HEALTHY  # 1 < 2
        controller.refresh_concurrent()
        assert controller.health_for("m0").state == DEGRADED


class TestDiagnoseFleet:
    def test_merges_per_machine_reports_over_one_window(self):
        h, controller, _ = build_fleet(3)
        diagnosis = controller.diagnose_fleet(h.advance, window_s=0.5)
        assert diagnosis.machines == ["m0", "m1", "m2"]
        assert set(diagnosis.loss_by_machine) == {"m0", "m1", "m2"}
        for machine in diagnosis.machines:
            report = diagnosis.report_for(machine)
            assert report.machine == machine
            assert report.window_s == 0.5
            assert not report.degraded
        assert not diagnosis.degraded
        assert diagnosis.worst_machine in diagnosis.machines
        assert diagnosis.wall_s >= 0.0
        assert "3 machine(s)" in diagnosis.summary()

    def test_dead_machine_flagged_degraded_not_fatal(self):
        _, controller, handles = build_fleet(3)
        controller.refresh_concurrent()  # mirrors warm before the crash
        handles["m2"].down = True

        def advance(_s):
            pass  # no time movement needed for the degraded arc

        diagnosis = controller.diagnose_fleet(advance, window_s=0.5)
        assert diagnosis.degraded_machines == ["m2"]
        assert diagnosis.degraded
        # The healthy machines still produced full-confidence reports.
        for name in ("m0", "m1"):
            assert not diagnosis.report_for(name).degraded
        # And the dead machine's report exists rather than raising.
        assert diagnosis.report_for("m2").degraded

    def test_scans_share_a_single_advance(self):
        h, controller, _ = build_fleet(3)
        calls = []

        def counting_advance(seconds):
            calls.append(seconds)
            h.advance(seconds)

        controller.diagnose_fleet(counting_advance, window_s=0.25)
        assert calls == [0.25], "fleet scan must advance time exactly once"

    def test_fleet_span_parents_the_scan_spans(self):
        h, controller, _ = build_fleet(2)
        with obs.installed() as hub:
            controller.diagnose_fleet(h.advance, window_s=0.25)
        (parent,) = hub.spans.by_name("controller.diagnose_fleet")
        scans = hub.spans.by_name("diagnosis.contention")
        assert len(scans) == 2
        for scan in scans:
            assert scan.trace_id == parent.trace_id
