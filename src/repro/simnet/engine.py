"""Fixed-tick simulation engine.

The engine advances simulated time in fixed ticks (default 1 ms).  Each
tick runs four phases over the registered components, in registration
order:

1. ``begin_tick``  — components inspect their input state and register
   resource demands (no data moves).
2. resource arbitration — demands are aggregated bottom-up through the
   resource hierarchy, then capacity is allocated top-down
   (max-min fair or demand-proportional per resource).
3. ``process_tick`` — components consume their grants and move data.
   Data written into a buffer this tick becomes visible next tick
   (buffers stage arrivals), so results do not depend on component order.
4. ``end_tick``    — buffers commit staged arrivals; traces sample.

Scheduled events (fault injection, workload phase changes, periodic
pollers) fire at the start of the tick in which they fall due.

Which components take part in which phase, and which resources
aggregate, allocate and finish in which order, only changes when
something is registered.  ``step`` therefore walks a :class:`_TickPlan`
compiled once per structure version (``add`` / ``add_resource`` bump it)
instead of re-deriving those facts every tick; everything a run can
change without registering anything — rates, capacities, wiring — is
still read live by the hooks themselves (DESIGN.md Section 6).
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Callable, Dict, List, Optional, Tuple

#: The per-tick component hooks, in the order a step runs them.
_HOOKS = ("begin_tick", "mid_tick", "process_tick", "end_tick")


class SimError(Exception):
    """Raised for simulator misuse (duplicate names, bad wiring, ...)."""


class PeriodicHandle:
    """Cancel handle for a :meth:`Simulator.schedule_every` job.

    Periodic events re-schedule themselves forever; without a handle a
    poller started for one scenario phase would leak into the next.
    ``cancel()`` is idempotent and takes effect before the next firing.
    """

    __slots__ = ("_cancelled",)

    def __init__(self) -> None:
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def active(self) -> bool:
        return not self._cancelled


class Component:
    """Anything that participates in the per-tick phases.

    Subclasses override any subset of the phase hooks.  A component is
    attached to exactly one simulator; attaching registers it for ticking.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise SimError("component name must be non-empty")
        self.name = name
        self.sim: Optional["Simulator"] = None

    # Phase hooks -------------------------------------------------------------
    def begin_tick(self, sim: "Simulator") -> None:  # pragma: no cover - hook
        pass

    def mid_tick(self, sim: "Simulator") -> None:  # pragma: no cover - hook
        """Runs after phase-0 (CPU) allocation, before phase-1 (memory
        bus) allocation; components derive bus demand from CPU grants."""

    def process_tick(self, sim: "Simulator") -> None:  # pragma: no cover - hook
        pass

    def end_tick(self, sim: "Simulator") -> None:  # pragma: no cover - hook
        pass

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


def overrides(obj, base: type, hook: str) -> bool:
    """Whether ``obj`` (its class, or the instance itself) replaces ``base.hook``."""
    return getattr(getattr(obj, hook), "__func__", None) is not getattr(base, hook)


class _TickPlan:
    """What one tick dispatches, compiled for one structure version.

    ``hooks[i]`` holds, in registration order, the components that
    override ``_HOOKS[i]``: the base-class hooks do nothing, so leaving
    the rest out changes nothing.  Resources are split per allocation
    phase into the demand-aggregation order (reverse registration, so
    leaves forward before their parents) and the roots that allocate
    downwards; every resource finishes the tick.

    The plan holds the objects themselves and ``step`` looks each hook
    up on every call, so a hook replaced on a class between two steps
    (a tracer's timing wrapper) takes effect on the next one.
    """

    __slots__ = ("version", "hooks", "aggregate", "allocate", "finish")

    def __init__(self, version: int, components: List[Component], resources: List) -> None:
        self.version = version
        self.hooks = tuple(
            tuple(c for c in components if overrides(c, Component, hook))
            for hook in _HOOKS
        )
        self.aggregate = tuple(
            tuple(r for r in reversed(resources) if r.phase == phase)
            for phase in (0, 1)
        )
        self.allocate = tuple(
            tuple(r for r in resources if r.parent is None and r.phase == phase)
            for phase in (0, 1)
        )
        self.finish = tuple(resources)


class Simulator:
    """The fixed-tick event loop.

    Parameters
    ----------
    tick:
        Tick duration in seconds.  All rate-based arithmetic in elements
        and resources multiplies by this.
    seed:
        Seed for the engine-owned RNG.  All stochastic behaviour in the
        library draws from ``sim.rng`` so runs are reproducible.
    """

    def __init__(self, tick: float = 1e-3, seed: int = 0) -> None:
        if tick <= 0:
            raise SimError(f"tick must be positive, got {tick!r}")
        self.tick = tick
        self.now = 0.0
        self.tick_index = 0
        self.rng = random.Random(seed)
        self._components: List[Component] = []
        self._by_name: Dict[str, Component] = {}
        self._resources: List = []  # populated via repro.simnet.resources
        self._events: List[Tuple[float, int, Callable[[], None]]] = []
        self._event_seq = itertools.count()
        #: Bumped by every registration; a tick plan is valid for one value.
        self._structure_version = 0
        self._plan = _TickPlan(0, [], [])

    # -- registration ----------------------------------------------------------

    def add(self, component: Component) -> Component:
        """Register a component for ticking; names must be unique."""
        if component.name in self._by_name:
            raise SimError(f"duplicate component name: {component.name!r}")
        if component.sim is not None and component.sim is not self:
            raise SimError(f"component {component.name!r} belongs to another simulator")
        component.sim = self
        self._components.append(component)
        self._by_name[component.name] = component
        self._structure_version += 1
        return component

    def add_resource(self, resource) -> None:
        """Register a resource for the arbitration phase (internal use)."""
        self._resources.append(resource)
        self._structure_version += 1

    def component(self, name: str) -> Component:
        try:
            return self._by_name[name]
        except KeyError:
            raise SimError(f"no component named {name!r}") from None

    @property
    def components(self) -> List[Component]:
        return list(self._components)

    # -- events -----------------------------------------------------------------

    def schedule(self, at: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` at the start of the tick containing time ``at``."""
        if at < self.now:
            raise SimError(f"cannot schedule in the past: {at} < {self.now}")
        heapq.heappush(self._events, (at, next(self._event_seq), fn))

    def schedule_after(self, delay: float, fn: Callable[[], None]) -> None:
        self.schedule(self.now + delay, fn)

    def schedule_every(
        self, period: float, fn: Callable[[], None], start: Optional[float] = None
    ) -> PeriodicHandle:
        """Run ``fn`` periodically, starting at ``start`` (default: now+period).

        Returns a :class:`PeriodicHandle`; ``handle.cancel()`` stops the
        series before its next firing.

        Events fire at tick granularity, so a job fires at most once per
        tick: a period of half a tick or less (whose next firing would
        fall due inside the step that is running it) is clamped to the
        next tick.
        """
        if period <= 0:
            raise SimError(f"period must be positive, got {period!r}")
        first = self.now + period if start is None else start
        handle = PeriodicHandle()

        def fire() -> None:
            if not handle.active:
                return
            fn()
            if handle.active:
                at = self.now + period
                if at <= self._horizon():  # would re-fire inside this step
                    at = self.now + self.tick
                self.schedule(at, fire)

        self.schedule(first, fire)
        return handle

    # -- main loop ----------------------------------------------------------------

    def _horizon(self) -> float:
        """Events due at or before this time fire in the current step."""
        return self.now + self.tick * 0.5

    def step(self) -> None:
        """Advance the simulation by one tick."""
        # Events due within this tick fire before anything else moves.
        horizon = self._horizon()
        while self._events and self._events[0][0] <= horizon:
            _, _, fn = heapq.heappop(self._events)
            fn()

        # Fetched after the events: what an event registered ticks in
        # this very step.
        plan = self._plan
        if plan.version != self._structure_version:
            plan = self._compile_plan()

        for comp in plan.hooks[0]:
            comp.begin_tick(self)
        if plan.version != self._structure_version:
            plan = self._catch_up(plan, 0)

        # Two allocation phases: phase 0 (CPU pools) settles first, then
        # components refine their phase-1 (memory bus) demand from the
        # CPU grants in mid_tick, and phase-1 resources allocate.  Within
        # a phase, children aggregate demand up to parents (reverse
        # registration order so leaves go first), then roots allocate
        # downwards.
        for res in plan.aggregate[0]:
            res.aggregate_demand(self)
        for res in plan.allocate[0]:
            res.allocate(self)
        for comp in plan.hooks[1]:
            comp.mid_tick(self)
        if plan.version != self._structure_version:
            plan = self._catch_up(plan, 1)
        for res in plan.aggregate[1]:
            res.aggregate_demand(self)
        for res in plan.allocate[1]:
            res.allocate(self)

        for comp in plan.hooks[2]:
            comp.process_tick(self)
        if plan.version != self._structure_version:
            plan = self._catch_up(plan, 2)
        for comp in plan.hooks[3]:
            comp.end_tick(self)
        if plan.version != self._structure_version:
            plan = self._catch_up(plan, 3)
        for res in plan.finish:
            res.finish_tick(self)

        self.tick_index += 1
        self.now = self.tick_index * self.tick

    def _compile_plan(self) -> _TickPlan:
        plan = self._plan = _TickPlan(
            self._structure_version, self._components, self._resources
        )
        return plan

    def _catch_up(self, plan: _TickPlan, hook: int) -> _TickPlan:
        """A hook registered something while phase ``hook`` was running.

        A walk over the live component list would reach the newcomers at
        the end of the same phase; do the same (registration only ever
        appends, so they are the tail of the recompiled phase list), and
        hand back the plan the rest of the step runs from.
        """
        name = _HOOKS[hook]
        while plan.version != self._structure_version:
            done = len(plan.hooks[hook])
            plan = self._compile_plan()
            for comp in plan.hooks[hook][done:]:
                getattr(comp, name)(self)
        return plan

    def run(self, duration: float) -> None:
        """Run for ``duration`` simulated seconds (rounded up to whole ticks)."""
        if duration < 0:
            raise SimError(f"duration must be non-negative, got {duration!r}")
        # Guard against float drift: run the exact number of ticks.
        n_ticks = int(round(duration / self.tick))
        if abs(n_ticks * self.tick - duration) > 1e-9 * max(1.0, duration):
            n_ticks = int(duration / self.tick) + 1
        for _ in range(n_ticks):
            self.step()

    def run_until(self, t: float) -> None:
        if t < self.now:
            raise SimError(f"cannot run to the past: {t} < {self.now}")
        self.run(t - self.now)
