"""Agent health state machine and data-quality annotations."""

import pytest

from repro.core.health import (
    DEAD,
    DEGRADED,
    HEALTHY,
    AgentHealth,
    DataQuality,
    HealthPolicy,
)


class TestHealthPolicy:
    def test_defaults_valid(self):
        p = HealthPolicy()
        assert (p.degraded_after, p.dead_after, p.recover_after) == (1, 3, 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"degraded_after": 0},
            {"degraded_after": -1},
            {"degraded_after": 3, "dead_after": 2},
            {"recover_after": 0},
        ],
    )
    def test_bad_thresholds_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HealthPolicy(**kwargs)


class TestAgentHealth:
    def test_starts_healthy(self):
        h = AgentHealth()
        assert h.state == HEALTHY and h.healthy
        assert h.state_sequence() == [HEALTHY]

    def test_default_degradation_arc(self):
        h = AgentHealth()
        assert h.record_failure() == DEGRADED  # degraded_after=1
        assert h.record_failure() == DEGRADED
        assert h.record_failure() == DEAD  # dead_after=3
        assert h.record_failure() == DEAD  # no duplicate transition
        assert h.transitions == [(HEALTHY, DEGRADED), (DEGRADED, DEAD)]
        assert h.consecutive_failures == 4 and h.total_failures == 4

    def test_recovery_from_dead(self):
        h = AgentHealth()
        for _ in range(3):
            h.record_failure()
        assert h.state == DEAD
        assert h.record_success() == HEALTHY  # recover_after=1
        assert h.state_sequence() == [HEALTHY, DEGRADED, DEAD, HEALTHY]
        assert h.consecutive_failures == 0

    def test_custom_thresholds(self):
        h = AgentHealth(HealthPolicy(degraded_after=2, dead_after=4, recover_after=2))
        assert h.record_failure() == HEALTHY  # below degraded_after
        assert h.record_failure() == DEGRADED
        assert h.record_failure() == DEGRADED
        assert h.record_failure() == DEAD
        # One success is not enough to recover; two are.
        assert h.record_success() == DEAD
        assert h.record_success() == HEALTHY

    def test_success_resets_failure_streak(self):
        h = AgentHealth(HealthPolicy(degraded_after=3, dead_after=5))
        h.record_failure()
        h.record_failure()
        h.record_success()
        assert h.record_failure() == HEALTHY  # streak restarted
        assert h.total_failures == 3

    def test_last_error_retained(self):
        h = AgentHealth()
        boom = ConnectionError("boom")
        h.record_failure(boom)
        h.record_failure()  # no error given: previous one kept
        assert h.last_error is boom


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
