"""Bounded buffers with staged arrivals and drop accounting.

Buffers are where software dataplanes lose packets, and *where* a packet is
lost is PerfSight's central diagnostic signal (Table 1).  Every buffer here
has a name (its drop location), optional packet and byte capacities, and a
drop policy:

* ``"drop"``  — tail-drop on overflow (pNIC ring, pCPU backlog enqueue,
  TUN socket queue, UDP socket buffers), with per-flow attribution.
* ``"block"`` — the producer must check :meth:`space_pkts` /
  :meth:`space_bytes` and withhold excess (QEMU <-> vNIC rings, TCP-backed
  socket buffers).  Writing past capacity on a blocking buffer is a wiring
  bug and raises.

Arrivals are *staged*: data pushed during ``process_tick`` becomes readable
only after ``commit()`` runs at end-of-tick.  This gives every hop exactly
one tick of latency regardless of component registration order, which keeps
contention experiments order-independent (DESIGN.md Section 6).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.simnet.engine import SimError
from repro.simnet.packet import PacketBatch

DropCallback = Callable[[str, PacketBatch], None]

_EPS = 1e-9
_INF = float("inf")
#: Batches below this size are "crumbs" — sub-byte fluid residue from
#: repeated fair-share splits.  They carry no information, but a crumb at
#: a queue head whose affordable fraction rounds to nothing would stall
#: budgeted pops forever, so crumbs are silently absorbed.
_CRUMB_PKTS = 1e-9
_CRUMB_BYTES = 1e-6


class Buffer:
    """A bounded FIFO of :class:`PacketBatch` with staged arrivals.

    Parameters
    ----------
    name:
        The drop-location name reported to the instrumentation layer.
    capacity_pkts / capacity_bytes:
        Either, both, or neither may be set (``None`` = unbounded on that
        axis).  The pCPU backlog is packet-bounded (300 packets per core in
        Linux); socket buffers are byte-bounded.
    policy:
        ``"drop"`` or ``"block"`` (see module docstring).
    on_drop:
        Callback ``(location, dropped_batch)`` so the owning element's
        counters record the loss.
    """

    def __init__(
        self,
        name: str,
        capacity_pkts: Optional[float] = None,
        capacity_bytes: Optional[float] = None,
        policy: str = "drop",
        on_drop: Optional[DropCallback] = None,
    ) -> None:
        if policy not in ("drop", "block"):
            raise SimError(f"unknown buffer policy: {policy!r}")
        if capacity_pkts is not None and capacity_pkts <= 0:
            raise SimError(f"capacity_pkts must be positive: {capacity_pkts!r}")
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise SimError(f"capacity_bytes must be positive: {capacity_bytes!r}")
        self.name = name
        self.capacity_pkts = capacity_pkts
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        self.on_drop = on_drop
        self._ready: Deque[PacketBatch] = deque()
        self._staged: List[PacketBatch] = []
        self._ready_pkts = 0.0
        self._ready_bytes = 0.0
        self._staged_pkts = 0.0
        self._staged_bytes = 0.0
        # Cumulative accounting (never reset; PerfSight samples diffs).
        self.total_in_pkts = 0.0
        self.total_in_bytes = 0.0
        self.total_out_pkts = 0.0
        self.total_out_bytes = 0.0
        self.total_drop_pkts = 0.0
        self.total_drop_bytes = 0.0
        self.drops_by_flow: Dict[str, float] = {}
        # Unused service capacity the consumer reports each tick: within
        # the tick the consumer could have drained this much more, so the
        # same amount of staged arrivals would have flowed through a real
        # (continuously drained) queue.  Credited as admission room at
        # commit, then reset.
        self._service_credit_pkts = 0.0
        self._service_credit_bytes = 0.0

    # -- occupancy ---------------------------------------------------------------

    @property
    def pkts(self) -> float:
        """Total occupancy (ready + staged), in packets."""
        return self._ready_pkts + self._staged_pkts

    @property
    def nbytes(self) -> float:
        """Total occupancy (ready + staged), in bytes."""
        return self._ready_bytes + self._staged_bytes

    @property
    def ready_pkts(self) -> float:
        return self._ready_pkts

    @property
    def ready_bytes(self) -> float:
        return self._ready_bytes

    def space_pkts(self) -> float:
        if self.capacity_pkts is None:
            return _INF
        space = self.capacity_pkts - (self._ready_pkts + self._staged_pkts)
        return space if space > 0.0 else 0.0

    def space_bytes(self) -> float:
        if self.capacity_bytes is None:
            return _INF
        space = self.capacity_bytes - (self._ready_bytes + self._staged_bytes)
        return space if space > 0.0 else 0.0

    @property
    def empty(self) -> bool:
        return self._ready_pkts <= _EPS and self._staged_pkts <= _EPS

    # -- producer side -------------------------------------------------------------

    def push(self, batch: PacketBatch) -> PacketBatch:
        """Stage a batch for next-tick availability.

        On a ``"drop"`` buffer the batch is staged unconditionally and
        capacity is enforced at :meth:`commit` — within one tick,
        enqueues and dequeues interleave in a real queue, so overflow
        depends on how much the consumer drained this tick, which is
        only known at the tick boundary.  (Push-time enforcement would
        make drops depend on component registration order.)

        On a ``"block"`` buffer producers must check space first, and
        the check is conservative (same-tick drains don't open room);
        pushing past capacity raises, since it is a wiring bug.

        Returns the staged portion (the whole batch for drop buffers).
        """
        pkts = batch.pkts
        nbytes = batch.nbytes
        # An empty batch is a crumb too (the crumb bounds are the wider).
        if pkts < _CRUMB_PKTS and nbytes < _CRUMB_BYTES:
            return batch
        if self.policy == "drop":
            self._staged.append(batch)
            self._staged_pkts += pkts
            self._staged_bytes += nbytes
            self.total_in_pkts += pkts
            self.total_in_bytes += nbytes
            return batch
        accept_pkts = min(batch.pkts, self.space_pkts())
        accept_bytes = min(batch.nbytes, self.space_bytes())
        # The binding constraint may be either axis; take the tighter one
        # preserving the batch's pkt/byte ratio.
        if batch.pkts > 0 and batch.nbytes > 0:
            frac = min(
                accept_pkts / batch.pkts if batch.pkts else 1.0,
                accept_bytes / batch.nbytes if batch.nbytes else 1.0,
            )
        else:
            frac = 1.0
        frac = min(1.0, max(0.0, frac))
        # Relative tolerance: float drift from fair-share splits must not
        # trip the blocking-buffer wiring check.
        if frac >= 1.0 - 1e-9:
            accepted = batch
            rejected = None
        else:
            if self.policy == "block":
                raise SimError(
                    f"push past capacity on blocking buffer {self.name!r} "
                    f"(batch={batch!r}); producers must check space first"
                )
            accepted = batch.split_pkts(batch.pkts * frac)
            rejected = batch  # remainder after split
        if not accepted.empty:
            self._staged.append(accepted)
            self._staged_pkts += accepted.pkts
            self._staged_bytes += accepted.nbytes
            self.total_in_pkts += accepted.pkts
            self.total_in_bytes += accepted.nbytes
        if rejected is not None and not rejected.empty:
            self._record_drop(rejected)
        return accepted

    def _record_drop(self, batch: PacketBatch) -> None:
        self.total_drop_pkts += batch.pkts
        self.total_drop_bytes += batch.nbytes
        fid = batch.flow.flow_id
        self.drops_by_flow[fid] = self.drops_by_flow.get(fid, 0.0) + batch.pkts
        if self.on_drop is not None:
            self.on_drop(self.name, batch)

    # -- consumer side ----------------------------------------------------------------

    def pop_pkts(self, max_pkts: float) -> List[PacketBatch]:
        """Dequeue up to ``max_pkts`` packets of ready data, FIFO order."""
        return self._pop(max_pkts, _INF)

    def pop_bytes(self, max_bytes: float) -> List[PacketBatch]:
        """Dequeue up to ``max_bytes`` bytes of ready data, FIFO order."""
        return self._pop(_INF, max_bytes)

    def pop(self, max_pkts: float, max_bytes: float) -> List[PacketBatch]:
        """Dequeue subject to both a packet and a byte budget."""
        return self._pop(max_pkts, max_bytes)

    def _pop(self, max_pkts: float, max_bytes: float) -> List[PacketBatch]:
        out: List[PacketBatch] = []
        budget_p = max_pkts
        budget_b = max_bytes
        while self._ready and budget_p > _EPS and budget_b > _EPS:
            head = self._ready[0]
            if head.pkts < _CRUMB_PKTS and head.nbytes < _CRUMB_BYTES:
                self._ready.popleft()
                self._ready_pkts = max(0.0, self._ready_pkts - head.pkts)
                self._ready_bytes = max(0.0, self._ready_bytes - head.nbytes)
                continue
            if head.pkts <= budget_p + _EPS and head.nbytes <= budget_b + _EPS:
                self._ready.popleft()
                taken = head
            else:
                # Split to fit whichever budget binds first.
                if head.pkts > 0 and head.nbytes > 0:
                    frac = min(budget_p / head.pkts, budget_b / head.nbytes)
                else:
                    frac = 0.0
                if frac <= _EPS:
                    break
                taken = head.split_pkts(head.pkts * frac)
                if head.empty:
                    self._ready.popleft()
            if taken.empty:
                break
            budget_p -= taken.pkts
            budget_b -= taken.nbytes
            self._ready_pkts -= taken.pkts
            self._ready_bytes -= taken.nbytes
            self.total_out_pkts += taken.pkts
            self.total_out_bytes += taken.nbytes
            out.append(taken)
        # Clamp float drift.
        if self._ready_pkts < 0:
            self._ready_pkts = 0.0
        if self._ready_bytes < 0:
            self._ready_bytes = 0.0
        return out

    def pop_budgeted(self, costs: List[List[float]]) -> List[PacketBatch]:
        """Dequeue a FIFO prefix subject to joint linear cost budgets.

        ``costs`` is a list of ``[per_pkt, per_byte, budget]`` entries (one
        per resource the consumer holds a grant on); entries are mutated in
        place so the caller can observe leftover budget.  The head batch is
        split exactly where the first budget binds, so mixed packet sizes
        (e.g. a 64-byte flood interleaved with MTU traffic) are costed
        exactly rather than via an average packet size.
        """
        out: List[PacketBatch] = []
        ready = self._ready
        while ready:
            head = ready[0]
            pkts = head.pkts
            nbytes = head.nbytes
            if pkts < _CRUMB_PKTS and nbytes < _CRUMB_BYTES:
                # Absorb crumbs: too small to cost, would stall the loop.
                ready.popleft()
                self._ready_pkts = max(0.0, self._ready_pkts - pkts)
                self._ready_bytes = max(0.0, self._ready_bytes - nbytes)
                continue
            frac = 1.0
            for per_pkt, per_byte, budget in costs:
                cost = per_pkt * pkts + per_byte * nbytes
                if cost > budget:
                    afford = budget / cost if cost > 0 else 1.0
                    if afford < frac:
                        frac = afford
            if frac <= _EPS:
                break
            if frac >= 1.0 - 1e-12:
                taken = ready.popleft()
            else:
                taken = head.split_pkts(pkts * frac)
                if head.empty:
                    ready.popleft()
                if taken.empty:
                    # No representable progress possible against the
                    # remaining budgets: stop rather than spin.
                    break
                pkts = taken.pkts
                nbytes = taken.nbytes
            for entry in costs:
                entry[2] -= entry[0] * pkts + entry[1] * nbytes
            self._ready_pkts -= pkts
            self._ready_bytes -= nbytes
            self.total_out_pkts += pkts
            self.total_out_bytes += nbytes
            out.append(taken)
        if self._ready_pkts < 0:
            self._ready_pkts = 0.0
        if self._ready_bytes < 0:
            self._ready_bytes = 0.0
        return out

    def report_service_credit(self, pkts: float, nbytes: float) -> None:
        """Consumer's unused drain capacity this tick (see commit)."""
        self._service_credit_pkts += pkts if pkts > 0.0 else 0.0
        self._service_credit_bytes += nbytes if nbytes > 0.0 else 0.0

    def peek_flows(self) -> Dict[str, Tuple[float, float]]:
        """Ready occupancy per flow id, as ``{flow_id: (pkts, bytes)}``."""
        acc: Dict[str, Tuple[float, float]] = {}
        for batch in self._ready:
            p, b = acc.get(batch.flow.flow_id, (0.0, 0.0))
            acc[batch.flow.flow_id] = (p + batch.pkts, b + batch.nbytes)
        return acc

    # -- tick boundary ------------------------------------------------------------------

    def commit(self) -> None:
        """Make staged arrivals readable (called at end-of-tick).

        Drop-policy buffers enforce capacity here: staged traffic beyond
        the room left after this tick's drains is discarded, FIFO.
        """
        if not self._staged:
            # Nothing arrived: only the consumer's credit expires.
            self._service_credit_pkts = 0.0
            self._service_credit_bytes = 0.0
            return
        if self.capacity_pkts is None:
            room_pkts = _INF
        else:
            free = self.capacity_pkts - self._ready_pkts
            room_pkts = (free if free > 0.0 else 0.0) + self._service_credit_pkts
        if self.capacity_bytes is None:
            room_bytes = _INF
        else:
            free = self.capacity_bytes - self._ready_bytes
            room_bytes = (free if free > 0.0 else 0.0) + self._service_credit_bytes
        self._service_credit_pkts = 0.0
        self._service_credit_bytes = 0.0
        # Overflow is shared *proportionally* across this tick's staged
        # arrivals: within one tick the producers' frames interleave on
        # the real queue, so drop-tail hits each flow in proportion to
        # its offered excess — not by producer registration order.
        frac = 1.0
        if self.policy == "drop":
            if self._staged_pkts > room_pkts + _EPS and self._staged_pkts > 0:
                frac = min(frac, room_pkts / self._staged_pkts)
            if self._staged_bytes > room_bytes + _EPS and self._staged_bytes > 0:
                frac = min(frac, room_bytes / self._staged_bytes)
        if frac < 1.0:
            for batch in self._staged:
                accepted = batch.split_pkts(batch.pkts * frac)
                if not batch.empty:
                    # Staged totals already counted the full batch as
                    # input; the rejected remainder is a drop.
                    self._record_drop(batch)
                if accepted.empty:
                    continue
                self._ready.append(accepted)
                self._ready_pkts += accepted.pkts
                self._ready_bytes += accepted.nbytes
        else:
            for batch in self._staged:
                self._ready.append(batch)
                self._ready_pkts += batch.pkts
                self._ready_bytes += batch.nbytes
        self._staged.clear()
        self._staged_pkts = 0.0
        self._staged_bytes = 0.0

    def clear(self) -> None:
        """Discard all contents without drop accounting (reconfiguration)."""
        self._ready.clear()
        self._staged.clear()
        self._ready_pkts = self._ready_bytes = 0.0
        self._staged_pkts = self._staged_bytes = 0.0

    def __repr__(self) -> str:
        return (
            f"<Buffer {self.name!r} ready={self._ready_pkts:.1f}p/"
            f"{self._ready_bytes:.0f}B staged={self._staged_pkts:.1f}p "
            f"policy={self.policy}>"
        )
