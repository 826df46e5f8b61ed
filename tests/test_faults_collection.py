"""Collection-channel fault injection and the agent's resilience to it."""

import pytest

from repro.core.agent import Agent
from repro.core.channels import (
    NO_FAULTS,
    ChannelError,
    ChannelFaultPlan,
    ChannelTimeout,
)
from repro.workloads.faults import (
    channel_fault_phase,
    inject_channel_faults,
    schedule_phases,
)

PNIC = "pnic@m1"


@pytest.fixture
def agent(machine):
    return Agent(machine.sim, machine)


class TestChannelFaultPlan:
    def test_defaults_inactive(self):
        assert not ChannelFaultPlan().active
        assert not NO_FAULTS.active

    def test_any_rate_activates(self):
        assert ChannelFaultPlan(stale_rate=0.1).active

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"error_rate": -0.1},
            {"timeout_rate": 1.5},
            {"error_rate": 0.5, "timeout_rate": 0.4, "stale_rate": 0.2},
        ],
    )
    def test_bad_rates_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChannelFaultPlan(**kwargs)


class TestChannelFaults:
    def test_error_fault_raises_and_counts(self, agent):
        chan = agent.channel(PNIC)
        chan.set_fault_plan(ChannelFaultPlan(error_rate=1.0))
        with pytest.raises(ChannelError):
            chan.read_versioned(0.0)
        # The failed read still cost the reader a latency draw + CPU.
        assert chan.errors == 1 and chan.reads == 1
        assert chan.total_cpu_s > 0

    def test_timeout_fault_charges_the_full_deadline(self, agent):
        chan = agent.channel(PNIC)
        chan.set_fault_plan(ChannelFaultPlan(timeout_rate=1.0))
        with pytest.raises(ChannelTimeout) as exc_info:
            chan.read_versioned(0.0)
        assert exc_info.value.latency_s == chan.timeout_s
        assert chan.timeouts == 1
        assert chan.total_latency_s == chan.timeout_s
        # The default deadline is a large multiple of the channel median.
        assert chan.timeout_s == pytest.approx(chan.spec.median_latency_s * 100.0)

    def test_stale_fault_serves_cached_snapshot(self, agent):
        chan = agent.channel(PNIC)
        first, _ = chan.read_versioned(0.0)  # populate the cache
        chan.set_fault_plan(ChannelFaultPlan(stale_rate=1.0))
        stale, _ = chan.read_versioned(5.0)
        assert stale is first  # same object: old seq, old timestamp
        assert chan.stale_reads == 1

    def test_stale_fault_with_cold_cache_reads_fresh(self, agent):
        chan = agent.channel(PNIC)
        chan.set_fault_plan(ChannelFaultPlan(stale_rate=1.0))
        snap, _ = chan.read_versioned(0.0)  # nothing cached yet
        assert snap.timestamp == 0.0
        assert chan.stale_reads == 0

    def test_set_fault_plan_returns_previous(self, agent):
        chan = agent.channel(PNIC)
        plan = ChannelFaultPlan(error_rate=0.5)
        assert chan.set_fault_plan(plan) is NO_FAULTS
        assert chan.set_fault_plan(NO_FAULTS) is plan


class TestResilientSweep:
    def test_poll_survives_faulty_channel(self, agent):
        agent.channel(PNIC).set_fault_plan(ChannelFaultPlan(error_rate=1.0))
        stored, _ = agent.poll_once()
        # Every element except the faulty one still made it to the store.
        assert stored == len(agent.elements()) - 1
        assert PNIC not in agent.store
        assert agent.total_poll_errors == 1

    def test_timeout_dominates_sweep_latency(self, agent):
        chan = agent.channel(PNIC)
        chan.set_fault_plan(ChannelFaultPlan(timeout_rate=1.0))
        _, latency = agent.poll_once()
        assert latency == chan.timeout_s  # the sweep waited out the deadline
        assert agent.total_poll_timeouts == 1

    def test_fault_stats_reports_only_misbehaving_channels(self, agent):
        agent.channel(PNIC).set_fault_plan(ChannelFaultPlan(error_rate=1.0))
        agent.poll_once()
        agent.poll_once()
        stats = agent.fault_stats()
        assert list(stats) == [PNIC]
        assert stats[PNIC]["errors"] == 2
        assert agent.channel_stats()[PNIC]["errors"] == 2.0

    def test_unknown_element_channel_rejected(self, agent):
        with pytest.raises(KeyError, match="ghost"):
            agent.channel("ghost@m1")

    def test_query_pull_path_propagates_faults(self, agent):
        """A single channel read raises; only the sweep absorbs faults."""
        chan = agent.channel(PNIC)
        chan.set_fault_plan(ChannelFaultPlan(error_rate=1.0))
        with pytest.raises(ChannelError):
            chan.read_versioned(0.0)


class TestInjectionHelpers:
    def test_inject_and_undo_restores_previous_plans(self, agent):
        undo = inject_channel_faults(agent, [PNIC], error_rate=0.5)
        assert agent.channel(PNIC).fault_plan.error_rate == 0.5
        undo()
        assert agent.channel(PNIC).fault_plan is NO_FAULTS

    def test_inject_defaults_to_all_elements(self, agent):
        undo = inject_channel_faults(agent, stale_rate=0.25)
        assert all(
            agent.channel(eid).fault_plan.stale_rate == 0.25
            for eid in agent.element_ids()
        )
        undo()
        assert not any(
            agent.channel(eid).fault_plan.active for eid in agent.element_ids()
        )

    def test_injections_nest(self, agent):
        undo_outer = inject_channel_faults(agent, [PNIC], error_rate=0.1)
        undo_inner = inject_channel_faults(agent, [PNIC], error_rate=0.9)
        undo_inner()
        assert agent.channel(PNIC).fault_plan.error_rate == 0.1
        undo_outer()
        assert not agent.channel(PNIC).fault_plan.active

    def test_channel_fault_phase_on_a_timeline(self, agent):
        sim = agent.sim
        chan = agent.channel(PNIC)
        phase = channel_fault_phase(agent, 0.1, 0.2, [PNIC], error_rate=1.0)
        schedule_phases(sim, [phase])
        sim.run(0.05)
        assert not chan.fault_plan.active  # before the phase
        sim.run(0.1)
        assert chan.fault_plan.error_rate == 1.0  # inside it
        sim.run(0.1)
        assert not chan.fault_plan.active  # healed

    def test_channel_fault_phase_validates_rates_eagerly(self, agent):
        with pytest.raises(ValueError):
            channel_fault_phase(agent, 0.0, None, error_rate=2.0)

    def test_open_ended_phase_has_no_exit(self, agent):
        start, end, on_enter, on_exit = channel_fault_phase(
            agent, 1.0, None, [PNIC], error_rate=1.0
        )
        assert end is None and on_exit is None


class TestSchedulePhasesValidation:
    def test_end_before_start_rejected(self, sim):
        with pytest.raises(ValueError, match="end_s"):
            schedule_phases(sim, [(1.0, 0.5, lambda: None, lambda: None)])

    def test_end_equal_start_rejected(self, sim):
        with pytest.raises(ValueError, match="end_s"):
            schedule_phases(sim, [(1.0, 1.0, lambda: None, lambda: None)])

    def test_negative_start_rejected(self, sim):
        with pytest.raises(ValueError, match="start_s"):
            schedule_phases(sim, [(-0.1, None, lambda: None, None)])

    def test_end_without_exit_warns(self, sim):
        with pytest.warns(UserWarning, match="without on_exit"):
            schedule_phases(sim, [(0.0, 1.0, lambda: None, None)])

    def test_bad_phase_leaves_nothing_scheduled(self, sim):
        fired = []
        with pytest.raises(ValueError):
            schedule_phases(
                sim,
                [
                    (0.0, None, lambda: fired.append("good"), None),
                    (2.0, 1.0, lambda: fired.append("bad"), lambda: None),
                ],
            )
        sim.run(3.0)
        assert fired == []  # the valid phase was not half-registered
