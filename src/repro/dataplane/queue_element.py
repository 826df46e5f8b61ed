"""Queue elements: named buffers with element-grade accounting.

PerfSight's rule book keys on *which buffer* dropped a packet, so each
significant buffer in the stack is wrapped in a :class:`QueueElement` that
gives it element semantics: offered traffic counts as the element's input,
dequeued traffic as its output, and overflow as drops at the element's
named location — which makes ``GetPktLoss`` (in minus out, Figure 6) land
exactly on the right element.

A queue element is *passive* by default (an explicit consumer pops from
``queue``); with ``drain=True`` it also drains itself each tick subject to
its claims/rate caps (used for the pNIC TX stage).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.counters import CounterOverheadModel
from repro.simnet.buffers import Buffer
from repro.simnet.element import Element
from repro.simnet.engine import Simulator
from repro.simnet.packet import PacketBatch

_INF = float("inf")


class QueueElement(Element):
    """A named bounded queue exposed as a PerfSight element.

    Parameters
    ----------
    location:
        Drop-location name (defaults to the element name).  This is the
        string the rule book matches on.
    ingest_bps:
        Optional admission rate cap modelling the physical line rate: a
        pNIC can only take packets off the wire this fast, and overflow is
        dropped *at the NIC* no matter how fast the drain side is.
    drain:
        If True the element moves its own queue contents to ``self.out``
        each tick (subject to claims and rate caps); if False an external
        consumer pops from :attr:`queue`.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        machine: str = "",
        vm_id: str = "",
        kind: str = "netdev",
        capacity_pkts: Optional[float] = None,
        capacity_bytes: Optional[float] = None,
        location: Optional[str] = None,
        ingest_bps: Optional[float] = None,
        drain: bool = False,
        overhead: Optional[CounterOverheadModel] = None,
        rate_pps: Optional[float] = None,
        rate_bps: Optional[float] = None,
    ) -> None:
        super().__init__(
            sim,
            name,
            machine=machine,
            vm_id=vm_id,
            kind=kind,
            overhead=overhead,
            rate_pps=rate_pps,
            rate_bps=rate_bps,
        )
        self.location = location if location is not None else name
        self.queue = Buffer(
            self.location,
            capacity_pkts=capacity_pkts,
            capacity_bytes=capacity_bytes,
            policy="drop",
            on_drop=self._on_buffer_drop,
        )
        self.own_buffer(self.queue)
        self.ingest_bps = ingest_bps
        self.drain = drain
        self._ingest_left = _INF
        if drain:
            self.in_buf = self.queue
            self.count_rx_on_process = False

    # -- producer API ------------------------------------------------------------

    def push(self, batch: PacketBatch) -> PacketBatch:
        """Offer a batch to the queue; returns the enqueued portion.

        Offered traffic counts as element input even when it is about to
        be dropped — that is what makes (in - out) equal the loss here.
        """
        if batch.empty:
            return batch
        self.counters.count_rx(batch.pkts, batch.nbytes)
        if self._ingest_left < batch.nbytes:
            # Admit the front of the batch up to the line-rate budget and
            # drop the rest at this element's location (through the
            # regular drop handler, so lost TCP segments are re-credited
            # to their senders).
            admitted = batch.split_bytes(self._ingest_left)
            overflow = batch
            if not overflow.empty:
                self._on_buffer_drop(self.location, overflow)
            batch = admitted
        if batch.empty:
            return batch
        self._ingest_left -= batch.nbytes
        for cc in self.custom_counters:
            cc.observe(batch)
            self._overhead_owed_s += cc.update_cost_s
        return self.queue.push(batch)

    # -- tick protocol ---------------------------------------------------------------

    def begin_tick(self, sim: Simulator) -> None:
        self._ingest_left = (
            self.ingest_bps / 8.0 * sim.tick if self.ingest_bps is not None else _INF
        )
        if self.drain:
            super().begin_tick(sim)

    def process_tick(self, sim: Simulator) -> None:
        if self.drain:
            super().process_tick(sim)

    # -- views -------------------------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        snap = super().snapshot()
        # Output = what consumers dequeued (passive mode) or what we
        # emitted (drain mode, already in tx counters).
        if not self.drain:
            snap["tx_pkts"] = self.queue.total_out_pkts
            snap["tx_bytes"] = self.queue.total_out_bytes
        snap["queue_pkts"] = self.queue.pkts
        snap["queue_bytes"] = self.queue.nbytes
        return snap
