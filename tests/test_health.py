"""Peer liveness records and data-quality annotations."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core.health import (
    DEAD,
    DEGRADED,
    HEALTHY,
    SUSPECT,
    ZONE_DEAD_AFTER,
    ZONE_LIVENESS_METRIC,
    DataQuality,
    Liveness,
)


class TestAgentHealth:
    """The record a zone keeps of each agent it mirrors."""

    def test_starts_healthy(self):
        h = Liveness.for_agent("m1")
        assert h.state == HEALTHY
        assert h.transitions == []

    def test_default_degradation_arc(self):
        h = Liveness.for_agent("m1")
        assert h.record_failure() == DEGRADED  # one missed unit
        assert h.record_failure() == DEGRADED
        assert h.record_failure() == DEAD  # AGENT_DEAD_AFTER = 3
        assert h.record_failure() == DEAD  # no duplicate transition
        assert h.transitions == [(HEALTHY, DEGRADED), (DEGRADED, DEAD)]
        assert h.consecutive_failures == 4

    def test_recovery_from_dead(self):
        h = Liveness.for_agent("m1")
        for _ in range(3):
            h.record_failure()
        assert h.state == DEAD
        assert h.record_success() == HEALTHY  # one proof of life
        assert h.transitions == [
            (HEALTHY, DEGRADED), (DEGRADED, DEAD), (DEAD, HEALTHY)
        ]
        assert h.consecutive_failures == 0

    def test_success_resets_failure_streak(self):
        h = Liveness.for_agent("m1")
        h.record_failure()
        h.record_failure()
        assert h.consecutive_failures == 2
        h.record_success()
        assert h.consecutive_failures == 0
        assert h.record_failure() == DEGRADED  # streak restarted, not DEAD
        assert h.consecutive_failures == 1

    def test_last_error_retained(self):
        h = Liveness.for_agent("m1")
        boom = ConnectionError("boom")
        h.record_failure(boom)
        h.record_failure()  # no error given: previous one kept
        assert h.last_error is boom

    def test_each_peer_reports_its_edges_its_own_way(self):
        with obs.installed() as hub:
            agent = Liveness.for_agent("m1")
            zone = Liveness.for_zone("z1", 1.0)
            push = Liveness(2)
            for record in (agent, push):
                record.record_failure()
            zone.arm(0.0)
            zone.evaluate(1.0)
        (edge,) = hub.events.events(name="health.transition")
        assert edge.fields["agent"] == "m1"
        assert edge.fields["to_state"] == DEGRADED
        (edge,) = hub.events.events(name="zone_health.transition")
        assert edge.fields["zone"] == "z1"
        assert edge.fields["to_state"] == SUSPECT
        assert hub.metrics.get(ZONE_LIVENESS_METRIC, zone="z1").value == 1.0
        assert push.transitions == [(HEALTHY, DEGRADED)]  # no event of its own


class Reference:
    """The module docstring's rule, written out plainly."""

    def __init__(self, dead_after, heartbeat_s):
        self.dead_after, self.heartbeat_s = dead_after, heartbeat_s
        self.order = [HEALTHY, DEGRADED if heartbeat_s is None else SUSPECT, DEAD]
        self.state, self.failures, self.clock, self.transitions = HEALTHY, 0, None, []

    def miss(self, units):  # missed units only ever move the state down
        new = self.order[2 if units >= self.dead_after else min(units, 1)]
        if self.order.index(new) > self.order.index(self.state):
            self.transitions.append((self.state, new))
            self.state = new

    def step(self, op, now):
        if op == "success":
            self.failures, self.clock = 0, now
            if self.state != HEALTHY:
                self.transitions.append((self.state, HEALTHY))
                self.state = HEALTHY
        elif op == "failure":
            self.failures += 1
            self.miss(self.failures)
        elif op == "arm":
            self.clock = now if self.clock is None else max(self.clock, now)
        elif self.heartbeat_s is not None and self.clock is not None:
            age = now - self.clock  # heartbeats of silence, by comparison
            units = [n for n in (0, 1, self.dead_after) if age >= n * self.heartbeat_s]
            self.miss(units[-1])


OPS = st.sampled_from(["success", "failure", "evaluate", "arm"])
#: Time steps: binary fractions, so sums land exactly on the heartbeat
#: boundaries, and arbitrary floats.
STEPS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)


class TestLivenessProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        dead_after=st.integers(min_value=1, max_value=4),
        script=st.lists(st.tuples(OPS, STEPS), max_size=40),
    )
    def test_counted_record_matches_reference(self, dead_after, script):
        self.check(Liveness(dead_after), Reference(dead_after, None), script)

    @settings(max_examples=300, deadline=None)
    @given(
        heartbeat_s=st.sampled_from([0.25, 0.5, 1.0, 0.1]),
        script=st.lists(st.tuples(OPS, STEPS), max_size=40),
    )
    def test_age_judged_record_matches_reference(self, heartbeat_s, script):
        record = Liveness.for_zone("z", heartbeat_s)
        self.check(record, Reference(ZONE_DEAD_AFTER, heartbeat_s), script)

    @staticmethod
    def check(record, ref, script):
        now = 0.0
        for op, step in script:
            now += step  # time never runs backwards
            if op == "success":
                record.record_success(now)
            elif op == "failure":
                record.record_failure()
            elif op == "evaluate":
                record.evaluate(now)
            else:
                record.arm(now)
            ref.step(op, now)
            assert record.state == ref.state
            assert record.consecutive_failures == ref.failures
            assert record.transitions == ref.transitions


class TestDataQuality:
    def test_fresh(self):
        q = DataQuality(machine="m1", state=HEALTHY)
        assert not q.stale
        assert "fresh" in q.describe()

    @pytest.mark.parametrize("state", [DEGRADED, DEAD])
    def test_stale_states(self, state):
        q = DataQuality(
            machine="m1", state=state, consecutive_failures=2, age_s=1.5
        )
        assert q.stale
        text = q.describe()
        assert "STALE" in text and state in text and "1.500s" in text

    def test_describe_without_age(self):
        q = DataQuality(machine="m1", state=DEAD, consecutive_failures=9)
        assert "old" not in q.describe()
