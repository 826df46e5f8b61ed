"""The element abstraction (Section 4.1 of the paper).

An element is "a logical unit that reads traffic from or writes traffic to
another by buffers or function calls".  :class:`Element` is the base class
for every stage of the simulated software dataplane: it owns a PerfSight
:class:`~repro.core.counters.CounterSet`, declares per-tick demand on the
shared resources it uses, and moves a FIFO prefix of its input buffer
downstream, bounded by the granted budgets and its own rate caps.

Subclasses customize:

* :meth:`route` — where a batch goes next (a downstream :class:`Buffer`, a
  callable sink, or ``None`` to terminate);
* :meth:`transform` — per-batch processing (e.g. a NAT rewriting flow
  metadata); the default is the identity;
* ``kind`` — which agent channel serves this element's counters
  (``netdev``, ``procfs``, ``vswitch``, ``qemu``, ``middlebox``), matching
  the heterogeneous access paths of Section 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

from types import MappingProxyType

from repro.core.counters import CounterOverheadModel, CounterSet, CounterSnapshot
from repro.simnet.buffers import Buffer
from repro.simnet.engine import Component, SimError, Simulator, overrides
from repro.simnet.packet import PacketBatch
from repro.simnet.resources import Resource

#: Element kinds; each maps to one agent collection channel (Fig. 9).
KIND_NETDEV = "netdev"
KIND_PROCFS = "procfs"
KIND_VSWITCH = "vswitch"
KIND_QEMU = "qemu"
KIND_MIDDLEBOX = "middlebox"
KIND_GUEST = "guest"

RouteTarget = Union[Buffer, Callable[[PacketBatch], None], None]

_INF = float("inf")


@dataclass(frozen=True)
class ResourceClaim:
    """One element's cost on one shared resource.

    ``per_pkt`` and ``per_byte`` are in resource units (CPU-seconds for CPU
    pools, memory-bus bytes for the memory bus).  ``is_cpu`` marks the
    claim that absorbs counter-update overhead.  ``priority`` selects the
    strict scheduling tier on the resource (kernel softirq work runs at
    priority 1 on host CPU pools, user processes at 0).

    Frozen: the per-tick hooks run from the element's claim table, which
    :meth:`Element.claim` flattens these fields into.
    """

    resource: Resource
    per_pkt: float = 0.0
    per_byte: float = 0.0
    weight: float = 1.0
    is_cpu: bool = False
    priority: int = 0

    def demand_for(self, pkts: float, nbytes: float) -> float:
        return self.per_pkt * pkts + self.per_byte * nbytes


class Element(Component):
    """A pipeline stage with PerfSight counters and resource claims.

    Parameters
    ----------
    sim:
        Owning simulator (the element registers itself).
    name:
        Globally unique element id; also the agent-visible element name.
    machine:
        Name of the hosting physical server (for stat records).
    vm_id:
        Owning VM for guest-side elements ("" for the virtualization
        stack).  Used to split loss across VMs for the contention-vs-
        bottleneck distinction.
    kind:
        Agent channel kind (see module constants).
    overhead:
        Counter-update cost model; defaults to the paper's measured costs.
    rate_pps / rate_bps:
        Element-private rate caps, e.g. the configured vNIC capacity
        (100 Mbps in the Fig. 12 experiments).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        machine: str = "",
        vm_id: str = "",
        kind: str = KIND_PROCFS,
        overhead: Optional[CounterOverheadModel] = None,
        rate_pps: Optional[float] = None,
        rate_bps: Optional[float] = None,
    ) -> None:
        super().__init__(name)
        self.machine = machine
        self.vm_id = vm_id
        self.kind = kind
        self.counters = CounterSet(overhead)
        self.claims: List[ResourceClaim] = []
        self.rate_pps = rate_pps
        self.rate_bps = rate_bps
        self.in_buf: Optional[Buffer] = None
        self.out: RouteTarget = None
        self._overhead_owed_s = 0.0
        self._owned_buffers: List[Buffer] = []
        #: Set False by elements that already counted rx at admission time
        #: (queue elements count offered traffic when pushed).
        self.count_rx_on_process = True
        #: Operator-defined statistics (see repro.core.extensions).
        self.custom_counters: List = []
        self._snap_seq = 0
        self._snap_cache: Optional[CounterSnapshot] = None
        self._snap_stamp: Optional[tuple] = None
        self._rebuild_claim_table()
        sim.add(self)

    # -- wiring -------------------------------------------------------------------

    def attach_input(self, buf: Buffer, owned: bool = False) -> Buffer:
        """Use ``buf`` as this element's input.

        ``owned=True`` means this element commits the buffer at
        end-of-tick and, unless already claimed, records its drops; pass
        ``owned=False`` when consuming a buffer that belongs to another
        element (e.g. NAPI draining the backlog queue owned by the
        enqueue drop point).
        """
        self.in_buf = buf
        if owned:
            self.own_buffer(buf)
        self._rebuild_claim_table()
        return buf

    def own_buffer(self, buf: Buffer) -> Buffer:
        """Take commit + drop-accounting responsibility for a buffer."""
        if buf.on_drop is None:
            buf.on_drop = self._on_buffer_drop
        if buf not in self._owned_buffers:
            self._owned_buffers.append(buf)
        self._rebuild_claim_table()
        return buf

    def make_input(
        self,
        location: str,
        capacity_pkts: Optional[float] = None,
        capacity_bytes: Optional[float] = None,
        policy: str = "drop",
    ) -> Buffer:
        """Create and attach an owned input buffer whose drops are ours."""
        buf = Buffer(
            location,
            capacity_pkts=capacity_pkts,
            capacity_bytes=capacity_bytes,
            policy=policy,
            on_drop=self._on_buffer_drop,
        )
        return self.attach_input(buf, owned=True)

    def add_custom_counter(self, counter) -> None:
        """Attach an operator-defined counter (Section 4.1 extension).

        The counter observes every processed batch, its update cost is
        charged to the element's CPU budget, and its snapshot is merged
        into the element's record as ``<counter name>.<attr>``.
        """
        if any(c.name == counter.name for c in self.custom_counters):
            raise SimError(f"duplicate custom counter {counter.name!r}")
        self.custom_counters.append(counter)
        self._rebuild_claim_table()

    def claim(
        self,
        resource: Resource,
        per_pkt: float = 0.0,
        per_byte: float = 0.0,
        weight: float = 1.0,
        is_cpu: bool = False,
        priority: int = 0,
    ) -> None:
        self.claims.append(
            ResourceClaim(resource, per_pkt, per_byte, weight, is_cpu, priority)
        )
        self._rebuild_claim_table()

    def _rebuild_claim_table(self) -> None:
        """Flatten what the per-tick hooks would otherwise re-derive.

        Run by every wiring call (:meth:`claim`, :meth:`attach_input`,
        :meth:`own_buffer`, :meth:`add_custom_counter`).  Only facts
        fixed between two of them are kept: the claims split by
        allocation phase, the claims in declaration order as
        :meth:`process_tick` prices them, and whether this element
        replaces the three datapath hooks whose defaults are the
        identity.  Rates, wiring, owned buffers, custom counters and
        every occupancy and grant are read live each tick.
        """
        early, late, budget = [], [], []
        for c in self.claims:
            row = (c.resource, c.per_pkt, c.per_byte, c.weight, c.priority, c.is_cpu)
            (early if c.resource.phase == 0 else late).append(row)
            costed = not (c.per_pkt == 0.0 and c.per_byte == 0.0)
            budget.append((c.resource, c.per_pkt, c.per_byte, c.is_cpu, costed))
        self._early_claims = tuple(early)
        self._late_claims = tuple(late)
        self._budget_claims = tuple(budget)
        self._transforms = overrides(self, Element, "transform")
        self._routes = overrides(self, Element, "route")
        self._has_extra_budgets = overrides(self, Element, "extra_budgets")

    def _on_buffer_drop(self, location: str, batch: PacketBatch) -> None:
        self.counters.count_drop(
            location, batch.pkts, batch.nbytes, flow_id=batch.flow.flow_id
        )
        # TCP segments lost inside the dataplane are retransmitted by the
        # sender; the transport registry re-credits the connection.
        if batch.flow.kind == "tcp" and batch.flow.conn_id and self.sim is not None:
            registry = getattr(self.sim, "transport_registry", None)
            if registry is not None:
                registry.on_segment_lost(batch)

    # -- per-tick protocol ----------------------------------------------------------

    def begin_tick(self, sim: Simulator) -> None:
        buf = self.in_buf
        if buf is None:
            return
        # Demand covers staged arrivals too: a real interrupt-driven
        # consumer serves frames that arrive mid-interval, and the unused
        # part of the grant becomes the buffer's service credit.
        pkts = buf._ready_pkts + buf._staged_pkts
        nbytes = buf._ready_bytes + buf._staged_bytes
        self._overhead_owed_s += self.counters.drain_update_cost()
        name = self.name
        for resource, per_pkt, per_byte, weight, priority, is_cpu in self._early_claims:
            demand = per_pkt * pkts + per_byte * nbytes
            if is_cpu:
                demand += self._overhead_owed_s
            if demand > 0:
                resource.request(name, demand, weight, priority)

    def mid_tick(self, sim: Simulator) -> None:
        """Register phase-1 (memory bus) demand, bounded by what the
        phase-0 grants and the element's rate caps let it process this
        tick — an element cannot issue more bus traffic than its CPU can
        touch."""
        buf = self.in_buf
        late = self._late_claims
        if buf is None or not late:
            return
        pkts = buf._ready_pkts + buf._staged_pkts
        if pkts <= 0:
            return
        nbytes = buf._ready_bytes + buf._staged_bytes
        name = self.name
        avg = nbytes / pkts
        # Conditionals here and in process_tick, not min()/max(): the same
        # value tie for tie, without a call per claim per tick.
        ceil_pkts = _INF
        for resource, per_pkt, per_byte, _, _, _ in self._early_claims:
            unit = per_pkt + per_byte * avg
            if unit > 0:
                cap = resource._grants.get(name, 0.0) / unit
                if cap < ceil_pkts:
                    ceil_pkts = cap
        if self.rate_pps is not None:
            cap = self.rate_pps * sim.tick
            if cap < ceil_pkts:
                ceil_pkts = cap
        if self.rate_bps is not None and avg > 0:
            cap = self.rate_bps / 8.0 * sim.tick / avg
            if cap < ceil_pkts:
                ceil_pkts = cap
        eff_pkts = ceil_pkts if ceil_pkts < pkts else pkts
        eff_bytes = eff_pkts * avg
        for resource, per_pkt, per_byte, weight, priority, _ in late:
            demand = per_pkt * eff_pkts + per_byte * eff_bytes
            if demand > 0:
                resource.request(name, demand, weight, priority)

    def process_tick(self, sim: Simulator) -> None:
        buf = self.in_buf
        if buf is None:
            return
        name = self.name
        budgets: List[List[float]] = []
        for resource, per_pkt, per_byte, is_cpu, costed in self._budget_claims:
            grant = resource._grants.get(name, 0.0)
            if is_cpu:
                owed = self._overhead_owed_s
                pay = owed if owed < grant else grant
                grant -= pay
                self._overhead_owed_s = owed - pay
            if costed:
                budgets.append([per_pkt, per_byte, grant])
        if self.rate_pps is not None:
            budgets.append([1.0, 0.0, self.rate_pps * sim.tick])
        if self.rate_bps is not None:
            budgets.append([0.0, 1.0, self.rate_bps / 8.0 * sim.tick])
        if self._has_extra_budgets:
            budgets.extend(self.extra_budgets(sim))
        if buf._ready_pkts > 0:
            counters = self.counters
            for batch in buf.pop_budgeted(budgets):
                if self.count_rx_on_process:
                    counters.count_rx(batch.pkts, batch.nbytes)
                for cc in self.custom_counters:
                    cc.observe(batch)
                    self._overhead_owed_s += cc.update_cost_s
                if self._transforms:
                    for out_batch in self.transform(batch):
                        self._emit(out_batch)
                else:
                    self._emit(batch)
        # Within the tick a real consumer keeps draining as new frames
        # arrive; report what we could still have served so the buffer's
        # commit-time overflow check doesn't punish batched arrivals
        # (see Buffer.report_service_credit).
        extra_pkts = _INF
        extra_bytes = _INF
        for per_pkt, per_byte, remaining in budgets:
            rem = remaining if remaining > 0.0 else 0.0
            if per_pkt > 0:
                spare = rem / per_pkt
                if spare < extra_pkts:
                    extra_pkts = spare
            if per_byte > 0:
                spare = rem / per_byte
                if spare < extra_bytes:
                    extra_bytes = spare
        buf.report_service_credit(extra_pkts, extra_bytes)

    def extra_budgets(self, sim: Simulator) -> List[List[float]]:
        """Additional per-tick ``[per_pkt, per_byte, budget]`` constraints.

        Override to model backpressure from downstream space, e.g. a
        hypervisor I/O handler that only reads from the TUN queue as much
        as the vNIC ring can absorb.
        """
        return []

    # -- datapath hooks ----------------------------------------------------------------

    def transform(self, batch: PacketBatch) -> List[PacketBatch]:
        """Per-batch processing; default is pass-through."""
        return [batch]

    def route(self, batch: PacketBatch) -> RouteTarget:
        """Pick the downstream target for a batch (default: ``self.out``)."""
        return self.out

    def _emit(self, batch: PacketBatch) -> None:
        target = self.route(batch) if self._routes else self.out
        if target is None:
            # Terminal element: traffic leaves the modeled system.
            self.counters.count_tx(batch.pkts, batch.nbytes)
            return
        if isinstance(target, Buffer):
            accepted = target.push(batch)
            if not accepted.empty:
                self.counters.count_tx(accepted.pkts, accepted.nbytes)
        else:
            self.counters.count_tx(batch.pkts, batch.nbytes)
            target(batch)

    def drop(self, batch: PacketBatch, location: Optional[str] = None) -> None:
        """Explicitly discard a batch at a named location (e.g. a firewall
        deny rule or a routing black hole)."""
        where = location if location is not None else f"{self.name}.drop"
        self.counters.count_drop(
            where, batch.pkts, batch.nbytes, flow_id=batch.flow.flow_id
        )

    # -- agent-facing -------------------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Counter snapshot plus element-specific gauges."""
        snap = self.counters.snapshot()
        for cc in self.custom_counters:
            for attr, value in cc.snapshot().items():
                snap[f"{cc.name}.{attr}"] = value
        if self.in_buf is not None:
            snap["queue_pkts"] = self.in_buf.pkts
            snap["queue_bytes"] = self.in_buf.nbytes
        if self.rate_bps is not None:
            snap["capacity_bps"] = self.rate_bps
        return snap

    def _state_stamp(self) -> Optional[tuple]:
        """Everything :meth:`Element.snapshot` reads, as a cheap tuple.

        ``None`` means the stamp cannot vouch for the snapshot: custom
        counters carry state of their own, and a subclass (or instance)
        overriding :meth:`snapshot` may read gauges the stamp does not
        know about.  Those elements always take the full compare.
        """
        if self.custom_counters or (
            getattr(self.snapshot, "__func__", None) is not Element.snapshot
        ):
            return None
        counters, buf = self.counters, self.in_buf
        if buf is None:
            return (counters, counters.version, None, self.rate_bps)
        return (counters, counters.version, buf, buf.pkts, buf.nbytes, self.rate_bps)

    def snapshot_versioned(self, timestamp: float) -> CounterSnapshot:
        """Typed snapshot with a monotonic per-element sequence number.

        The sequence number advances only when the observable state
        (counters *or* gauges) changed since the previous read, so
        collectors can skip unchanged elements entirely — the primitive
        behind the agent store's delta-batched uploads.  Re-reading an
        unchanged element is nearly free: an equal state stamp (see
        :meth:`_state_stamp`) reuses the cached snapshot without building
        anything, only restamped with the new observation time.  A
        differing or untrusted stamp falls through to the full attribute
        compare, which alone decides whether ``seq`` advances (a
        zero-size increment bumps the counter version but not ``seq``).
        """
        cached = self._snap_cache
        stamp = self._state_stamp()
        # Three screens, cheapest first; each runs only if the last failed.
        unchanged = (
            cached is not None and stamp is not None and stamp == self._snap_stamp
        )
        if not unchanged:
            self._snap_stamp = stamp
            raw = self.snapshot()
            unchanged = cached is not None and cached.attrs == raw
            if not unchanged:
                # Gauges may arrive as ints; normalize so a snapshot
                # serializes identically on both sides of the wire
                # (mirror byte-equality).  The normalized dict decides:
                # an int gauge beyond 2**53 differs raw but not as float.
                attrs = {k: float(v) for k, v in raw.items()}
                unchanged = cached is not None and cached.attrs == attrs
        if unchanged:
            cached = self._snap_cache = cached.at(timestamp)
            return cached
        self._snap_seq += 1
        snap = self._snap_cache = CounterSnapshot(
            element_id=self.name,
            machine=self.machine,
            seq=self._snap_seq,
            timestamp=timestamp,
            attrs=MappingProxyType(attrs),
        )
        return snap

    def end_tick(self, sim: Simulator) -> None:
        for buf in self._owned_buffers:
            buf.commit()
