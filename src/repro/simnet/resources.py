"""Shared resources and per-tick arbitration.

Software dataplanes contend for resources that hardware dataplanes never
expose: host CPU cycles, memory-bus bandwidth, NIC capacity, and shared
buffers (Section 2.2 of the paper).  This module models the first three as
:class:`Resource` objects with per-tick arbitration; buffers are modeled in
:mod:`repro.simnet.buffers`.

Two arbitration policies are provided, chosen per resource to match how
the real resource behaves:

* ``"maxmin"`` — max-min fair with weights (water-filling): a claimant
  with a small demand gets it in full, the rest is split evenly among
  the backlogged.
* ``"proportional"`` — capacity is split in proportion to demand when
  oversubscribed.  Used for the memory bus (the controller serves
  requests roughly in arrival proportion, so a bandwidth-hungry workload
  crowds others out — the mechanism behind the Figure-3 tradeoff; a
  max-min bus would never show the declining region) and for the user
  tier of CPU pools (thread count scales offered demand under a fair
  scheduler).  Kernel softirq work preempts the user tier via strict
  priorities; see ``request``.

Resources form a hierarchy: a :class:`SubResource` (e.g. a VM's vCPU
allocation) aggregates its claimants' demand, forwards it — capped by the
allocation — to the parent (the host CPU pool) as a single weighted
claimant, and redistributes whatever the parent grants.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.simnet.engine import SimError, Simulator


def maxmin_fair(
    demands: List[float], weights: List[float], capacity: float
) -> List[float]:
    """Weighted max-min fair allocation (water-filling).

    Each claimant receives ``min(demand, weight * level)`` where the level
    is raised until capacity is exhausted or all demands are met.
    """
    n = len(demands)
    if n == 0:
        return []
    if len(weights) != n:
        raise ValueError("demands and weights must have equal length")
    if any(d < 0 for d in demands):
        raise ValueError("negative demand")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    total_demand = sum(demands)
    if total_demand <= capacity:
        return list(demands)
    alloc = [0.0] * n
    active = list(range(n))
    remaining = capacity
    # Iterative water-filling: satisfy claimants whose demand is below the
    # current fair level, recompute, repeat.
    while active and remaining > 1e-15:
        wsum = sum(weights[i] for i in active)
        level = remaining / wsum
        satisfied = [i for i in active if demands[i] - alloc[i] <= weights[i] * level]
        if satisfied:
            for i in satisfied:
                gap = demands[i] - alloc[i]
                alloc[i] = demands[i]
                remaining -= gap
            done = set(satisfied)
            active = [i for i in active if i not in done]
        else:
            for i in active:
                alloc[i] += weights[i] * level
            remaining = 0.0
            active = []
    return alloc


def proportional_share(
    demands: List[float], weights: List[float], capacity: float
) -> List[float]:
    """Split capacity proportionally to weighted demand when oversubscribed."""
    if any(d < 0 for d in demands):
        raise ValueError("negative demand")
    weighted = [d * w for d, w in zip(demands, weights)]
    total = sum(weighted)
    if total <= capacity:
        return list(demands)
    if total <= 0:
        return [0.0] * len(demands)
    scale = capacity / total
    return [min(d, wd * scale) for d, wd in zip(demands, weighted)]


_POLICIES = {"maxmin": maxmin_fair, "proportional": proportional_share}


class Resource:
    """A shared capacity arbitrated once per tick.

    Claimants call :meth:`request` during ``begin_tick`` with their demand
    for this tick (in resource units: CPU-seconds for CPU pools, bytes for
    the memory bus and NICs).  After arbitration they read their grant with
    :meth:`grant` during ``process_tick``.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        capacity_per_s: float,
        policy: str = "maxmin",
        parent: Optional["Resource"] = None,
        parent_weight: float = 1.0,
        parent_cap_per_s: Optional[float] = None,
        parent_priority: int = 0,
        phase: int = 0,
    ) -> None:
        if capacity_per_s < 0:
            raise SimError(f"resource capacity must be >= 0: {capacity_per_s!r}")
        if policy not in _POLICIES:
            raise SimError(f"unknown arbitration policy: {policy!r}")
        self.sim = sim
        self.name = name
        self.capacity_per_s = capacity_per_s
        self.policy = policy
        self.parent = parent
        self.parent_weight = parent_weight
        self.parent_cap_per_s = parent_cap_per_s
        self.parent_priority = parent_priority
        #: Allocation phase: 0 = settled first (CPU pools), 1 = settled
        #: after components refine demand in mid_tick (memory bus).
        self.phase = phase
        self._demands: Dict[str, float] = {}
        self._weights: Dict[str, float] = {}
        self._priorities: Dict[str, int] = {}
        self._grants: Dict[str, float] = {}
        self._tick_capacity = 0.0
        # Cumulative usage for utilization reporting.
        self.total_granted = 0.0
        self.total_capacity_seen = 0.0
        self.last_utilization = 0.0
        sim.add_resource(self)
        if parent is not None:
            parent._register_child(self)
        self._children: List[Resource] = []

    def _register_child(self, child: "Resource") -> None:
        self._children.append(child)

    # -- claimant API --------------------------------------------------------------

    def request(
        self, claimant: str, demand: float, weight: float = 1.0, priority: int = 0
    ) -> None:
        """Register this tick's demand (accumulates if called twice).

        ``priority`` forms strict tiers: higher tiers are served in full
        (up to capacity) before lower tiers see anything.  Host CPU pools
        use this to model softirq context (drivers, NAPI) preempting user
        processes (QEMU, vCPU threads, management tasks).
        """
        if demand < 0:
            raise SimError(f"negative demand from {claimant!r}: {demand!r}")
        if weight <= 0:
            raise SimError(f"weight must be positive ({claimant!r}): {weight!r}")
        self._demands[claimant] = self._demands.get(claimant, 0.0) + demand
        self._weights[claimant] = weight
        self._priorities[claimant] = priority

    def grant(self, claimant: str) -> float:
        """The capacity granted to ``claimant`` for the current tick.

        (:class:`~repro.simnet.element.Element` reads ``_grants`` itself
        in its per-tick hooks; keep the two in step.)
        """
        return self._grants.get(claimant, 0.0)

    # -- engine API ----------------------------------------------------------------

    def aggregate_demand(self, sim: Simulator) -> None:
        """Forward this resource's aggregate demand to its parent.

        The engine calls this on every resource before any allocation; the
        registration order of a machine builder guarantees children are
        registered after their parent but aggregation is demand-only and
        safe in any order because children forward immediately when asked.
        """
        if self.parent is None:
            return
        total = sum(self._demands.values())
        cap = self.parent_cap_per_s
        if cap is not None:
            total = min(total, cap * sim.tick)
        self.parent.request(
            self._claimant_key(), total, self.parent_weight, self.parent_priority
        )

    def _claimant_key(self) -> str:
        return f"resource:{self.name}"

    def allocate(self, sim: Simulator) -> None:
        """Arbitrate this tick's capacity among claimants, then recurse."""
        self._tick_capacity = self._effective_capacity(sim)
        self._grants = {}
        remaining = self._tick_capacity
        used = 0.0
        tiers = sorted({p for p in self._priorities.values()}, reverse=True)
        for tier in tiers:
            names = [n for n in self._demands if self._priorities[n] == tier]
            demands = [self._demands[n] for n in names]
            weights = [self._weights[n] for n in names]
            allocs = _POLICIES[self.policy](demands, weights, max(0.0, remaining))
            self._grants.update(dict(zip(names, allocs)))
            granted = sum(allocs)
            remaining -= granted
            used += granted
        self.total_capacity_seen += self._tick_capacity
        self.total_granted += used
        self.last_utilization = (
            used / self._tick_capacity if self._tick_capacity > 0 else 0.0
        )
        for child in self._children:
            child.allocate(sim)

    def _effective_capacity(self, sim: Simulator) -> float:
        return self.capacity_per_s * sim.tick

    def finish_tick(self, sim: Simulator) -> None:
        self._demands.clear()
        # Weights/priorities are re-registered with each request; clear all.
        self._weights.clear()
        self._priorities.clear()

    @property
    def utilization(self) -> float:
        """Lifetime fraction of capacity that was granted."""
        if self.total_capacity_seen <= 0:
            return 0.0
        return self.total_granted / self.total_capacity_seen

    def __repr__(self) -> str:
        return (
            f"<Resource {self.name!r} cap={self.capacity_per_s:g}/s "
            f"policy={self.policy}>"
        )


class SubResource(Resource):
    """A child resource fed by a grant from its parent.

    Example: a VM's vCPU allocation is a ``SubResource`` of the host CPU
    pool with ``parent_cap_per_s`` equal to the VM's core allocation.  The
    guest stack elements and middlebox apps claim the SubResource; the VM
    as a whole appears to the host scheduler as one weighted claimant.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        parent: Resource,
        cap_per_s: float,
        weight: float = 1.0,
        policy: str = "maxmin",
        parent_priority: int = 0,
    ) -> None:
        super().__init__(
            sim,
            name,
            capacity_per_s=cap_per_s,
            policy=policy,
            parent=parent,
            parent_weight=weight,
            parent_cap_per_s=cap_per_s,
            parent_priority=parent_priority,
        )

    def _effective_capacity(self, sim: Simulator) -> float:
        # Whatever the parent granted this VM this tick, further capped by
        # the static allocation.
        granted = self.parent.grant(self._claimant_key()) if self.parent else 0.0
        return min(granted, self.capacity_per_s * sim.tick)

    def set_allocation(self, cap_per_s: float) -> None:
        """Change the static allocation (live resize / migration support)."""
        if cap_per_s < 0:
            raise SimError(f"allocation must be >= 0: {cap_per_s!r}")
        self.capacity_per_s = cap_per_s
        self.parent_cap_per_s = cap_per_s
