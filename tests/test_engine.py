"""Unit tests for the fixed-tick engine (simnet/engine.py)."""

import pytest

from repro.simnet.engine import Component, SimError, Simulator


class Recorder(Component):
    """Counts phase invocations, in order."""

    def __init__(self, name="rec"):
        super().__init__(name)
        self.calls = []

    def begin_tick(self, sim):
        self.calls.append(("begin", sim.tick_index))

    def mid_tick(self, sim):
        self.calls.append(("mid", sim.tick_index))

    def process_tick(self, sim):
        self.calls.append(("process", sim.tick_index))

    def end_tick(self, sim):
        self.calls.append(("end", sim.tick_index))


class TestSimulatorBasics:
    def test_tick_must_be_positive(self):
        with pytest.raises(SimError):
            Simulator(tick=0)
        with pytest.raises(SimError):
            Simulator(tick=-1e-3)

    def test_time_advances_by_ticks(self):
        sim = Simulator(tick=1e-3)
        sim.run(0.01)
        assert sim.now == pytest.approx(0.01)
        assert sim.tick_index == 10

    def test_run_accumulates_without_drift(self):
        sim = Simulator(tick=1e-3)
        for _ in range(100):
            sim.run(0.01)
        assert sim.now == pytest.approx(1.0)
        assert sim.tick_index == 1000

    def test_run_until(self):
        sim = Simulator(tick=1e-3)
        sim.run_until(0.05)
        assert sim.now == pytest.approx(0.05)
        with pytest.raises(SimError):
            sim.run_until(0.01)

    def test_negative_duration_rejected(self):
        sim = Simulator(tick=1e-3)
        with pytest.raises(SimError):
            sim.run(-1.0)


class TestComponents:
    def test_phase_order_within_tick(self):
        sim = Simulator(tick=1e-3)
        rec = Recorder()
        sim.add(rec)
        sim.step()
        assert rec.calls == [
            ("begin", 0),
            ("mid", 0),
            ("process", 0),
            ("end", 0),
        ]

    def test_components_tick_in_registration_order(self):
        sim = Simulator(tick=1e-3)
        order = []

        class Named(Component):
            def begin_tick(self, sim):
                order.append(self.name)

        for name in ("a", "b", "c"):
            sim.add(Named(name))
        sim.step()
        assert order == ["a", "b", "c"]

    def test_only_overridden_hooks_are_planned(self):
        sim = Simulator(tick=1e-3)

        class EndOnly(Component):
            def end_tick(self, sim):
                pass

        rec, quiet, end_only = Recorder(), Component("quiet"), EndOnly("end-only")
        for comp in (rec, quiet, end_only):
            sim.add(comp)
        sim.step()
        begin, mid, process, end = sim._plan.hooks
        assert begin == mid == process == (rec,)
        assert end == (rec, end_only)

    def test_class_level_hook_patch_takes_effect_on_the_next_step(self, monkeypatch):
        """The plan holds components, not bound methods: what a tracer
        swaps in on the class between two steps is what the next calls."""
        sim = Simulator(tick=1e-3)
        rec = Recorder()
        sim.add(rec)
        sim.step()
        original = Recorder.process_tick
        wrapped = []

        def traced(self, sim):
            wrapped.append(sim.tick_index)
            original(self, sim)

        monkeypatch.setattr(Recorder, "process_tick", traced)
        sim.step()
        monkeypatch.undo()
        sim.step()
        assert wrapped == [1]
        assert [tick for phase, tick in rec.calls if phase == "process"] == [0, 1, 2]

    def test_registration_invalidates_the_plan(self):
        sim = Simulator(tick=1e-3)
        first = Recorder("first")
        sim.add(first)
        sim.step()
        late = Recorder("late")
        sim.add(late)
        sim.step()
        assert [tick for _, tick in late.calls] == [1, 1, 1, 1]
        assert sim._plan.hooks[0] == (first, late)

    def test_duplicate_name_rejected(self):
        sim = Simulator()
        sim.add(Component("x"))
        with pytest.raises(SimError, match="duplicate"):
            sim.add(Component("x"))

    def test_empty_name_rejected(self):
        with pytest.raises(SimError):
            Component("")

    def test_component_lookup(self):
        sim = Simulator()
        c = sim.add(Component("findme"))
        assert sim.component("findme") is c
        with pytest.raises(SimError):
            sim.component("ghost")

    def test_component_cannot_join_two_sims(self):
        sim1, sim2 = Simulator(), Simulator()
        c = Component("shared")
        sim1.add(c)
        with pytest.raises(SimError):
            sim2.add(c)


class TestEvents:
    def test_event_fires_at_scheduled_tick(self):
        sim = Simulator(tick=1e-3)
        fired = []
        sim.schedule(0.005, lambda: fired.append(sim.now))
        sim.run(0.01)
        assert len(fired) == 1
        assert fired[0] == pytest.approx(0.005, abs=1.1e-3)

    def test_schedule_after(self):
        sim = Simulator(tick=1e-3)
        sim.run(0.005)
        fired = []
        sim.schedule_after(0.003, lambda: fired.append(sim.now))
        sim.run(0.01)
        assert fired and fired[0] == pytest.approx(0.008, abs=1.1e-3)

    def test_schedule_in_past_rejected(self):
        sim = Simulator(tick=1e-3)
        sim.run(0.01)
        with pytest.raises(SimError):
            sim.schedule(0.005, lambda: None)

    def test_events_fire_in_time_order(self):
        sim = Simulator(tick=1e-3)
        order = []
        sim.schedule(0.007, lambda: order.append("late"))
        sim.schedule(0.002, lambda: order.append("early"))
        sim.run(0.01)
        assert order == ["early", "late"]

    def test_same_time_events_fifo(self):
        sim = Simulator(tick=1e-3)
        order = []
        sim.schedule(0.004, lambda: order.append(1))
        sim.schedule(0.004, lambda: order.append(2))
        sim.run(0.01)
        assert order == [1, 2]

    def test_schedule_every(self):
        sim = Simulator(tick=1e-3)
        hits = []
        sim.schedule_every(0.01, lambda: hits.append(sim.now))
        sim.run(0.055)
        assert len(hits) == 5

    @pytest.mark.timeout(10)
    @pytest.mark.parametrize("period", [0.02, 0.05])  # < and == tick / 2
    def test_schedule_every_sub_tick_period_fires_once_per_tick(self, period):
        """A period inside step()'s horizon used to re-fire forever."""
        sim = Simulator(tick=0.1)
        hits = []

        def fire():
            hits.append(sim.now)
            assert len(hits) <= 3, "re-fired inside one step"

        sim.schedule_every(period, fire)
        sim.step()
        assert hits == [0.0]
        sim.step()
        sim.step()
        assert hits == pytest.approx([0.0, 0.1, 0.2])

    def test_schedule_every_above_half_tick_is_not_clamped(self):
        sim = Simulator(tick=0.1)
        hits = []
        sim.schedule_every(0.06, lambda: hits.append(sim.now))
        sim.run(0.5)  # due 0.06 0.16 0.26 0.36 0.46 -> ticks 0.1 .. 0.5
        assert hits == pytest.approx([0.1, 0.2, 0.3, 0.4])

    def test_schedule_every_bad_period(self):
        sim = Simulator()
        with pytest.raises(SimError):
            sim.schedule_every(0.0, lambda: None)

    def test_schedule_every_cancel(self):
        sim = Simulator(tick=1e-3)
        hits = []
        handle = sim.schedule_every(0.01, lambda: hits.append(sim.now))
        assert handle.active
        sim.run(0.025)
        assert len(hits) == 2
        handle.cancel()
        assert not handle.active
        sim.run(0.05)
        assert len(hits) == 2
        handle.cancel()  # idempotent

    def test_schedule_every_cancel_from_callback(self):
        sim = Simulator(tick=1e-3)
        hits = []

        def fire():
            hits.append(sim.now)
            if len(hits) == 3:
                handle.cancel()

        handle = sim.schedule_every(0.01, fire)
        sim.run(0.1)
        assert len(hits) == 3

    def test_event_fires_before_phases(self):
        sim = Simulator(tick=1e-3)
        seen = []

        class Observer(Component):
            def begin_tick(self, s):
                seen.append(("begin", flag[0]))

        flag = [False]
        sim.add(Observer("obs"))
        sim.schedule(0.0, lambda: flag.__setitem__(0, True))
        sim.step()
        assert seen[0] == ("begin", True)

    def test_rng_deterministic_by_seed(self):
        a = Simulator(seed=7).rng.random()
        b = Simulator(seed=7).rng.random()
        c = Simulator(seed=8).rng.random()
        assert a == b
        assert a != c
