"""The basic utility routines of Figure 6.

``GetThroughput``, ``GetPktLoss`` and ``GetAvgPktSize`` all follow the
same pattern: observe, ``sleep(T)``, observe again, difference.  In a
simulation "sleep" means advancing simulated time, so the runner takes
an ``advance`` callable (``lambda t: sim.run(t)``); against a live
deployment the same code passes ``time.sleep``.

Since the telemetry-plane refactor the two observations are not
per-query agent pulls: the runner refreshes the controller's mirror
(one delta-batched exchange per machine) at each end of the interval
and the routine itself is an O(1) :class:`CounterWindow` lookup against
the mirror.  A deployment whose agents poll on a cadence
(``agent.start_polling``) pays even less — the refresh only drains
already-collected deltas.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.core.controller import ZoneController
from repro.core.counters import CounterSnapshot, CounterWindow
from repro.core.health import DataQuality

Advance = Callable[[float], None]


class QueryRunner:
    """Windowed differencing over the controller's mirror stores."""

    def __init__(
        self,
        controller: ZoneController,
        advance: Advance,
        interval_s: float = 1.0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval must be positive: {interval_s!r}")
        self.controller = controller
        self.advance = advance
        self.interval_s = interval_s
        #: Time source matching ``advance`` (``lambda: sim.now`` for a
        #: simulation); enables age computation on quality annotations.
        self.clock = clock

    # -- primitives --------------------------------------------------------------

    def get_attr(
        self, tenant_id: str, element: str, attrs: Optional[Iterable[str]] = None
    ) -> CounterSnapshot:
        return self.controller.get_attr(tenant_id, element, attrs)

    def observe_window(
        self,
        tenant_id: str,
        element: str,
        interval_s: Optional[float] = None,
    ) -> CounterWindow:
        """<refresh, sleep(T), refresh> then one mirror window lookup."""
        return self.observe_window_with_quality(tenant_id, element, interval_s)[0]

    def observe_window_with_quality(
        self,
        tenant_id: str,
        element: str,
        interval_s: Optional[float] = None,
    ) -> Tuple[CounterWindow, DataQuality]:
        """:meth:`observe_window` plus the mirror's quality annotation.

        When the machine's agent is unreachable both refreshes are
        no-ops and the window collapses onto the mirror's last known
        snapshot (an empty window — rates read as 0); the annotation is
        what tells the caller that 0 means "no fresh data", not "no
        traffic".
        """
        t = interval_s if interval_s is not None else self.interval_s
        machine, element_id = self.controller.vnet(tenant_id).locate(element)
        self.controller.refresh(machine)
        start = self.controller.mirror_latest(machine, element_id)
        self.advance(t)
        self.controller.refresh(machine)
        end = self.controller.mirror_latest(machine, element_id)
        window = CounterWindow(start=start, end=end)
        now = self.clock() if self.clock is not None else None
        return window, self.controller.data_quality(machine, now=now)

    # -- Figure 6 routines ---------------------------------------------------------------

    def get_throughput(
        self,
        tenant_id: str,
        element: str,
        attr: str = "rx_bytes",
        interval_s: Optional[float] = None,
    ) -> float:
        """Average throughput over the interval, bytes/second."""
        window = self.observe_window(tenant_id, element, interval_s)
        if window.duration_s <= 0 and not window.empty:
            raise RuntimeError("throughput interval did not advance time")
        return window.rate(attr)

    def get_pkt_loss(
        self,
        tenant_id: str,
        element: str,
        in_attr: str = "rx_pkts",
        out_attr: str = "tx_pkts",
        interval_s: Optional[float] = None,
    ) -> float:
        """Packets lost within the element over the interval.

        The paper's formula: growth of (inPkts - outPkts).  Queue build-up
        counts until it drains or drops — by design, since a persistently
        growing backlog is itself a symptom.
        """
        window = self.observe_window(tenant_id, element, interval_s)
        return window.pkt_loss(in_attr, out_attr)

    def get_avg_pkt_size(
        self,
        tenant_id: str,
        element: str,
        bytes_attr: str = "rx_bytes",
        pkts_attr: str = "rx_pkts",
        interval_s: Optional[float] = None,
    ) -> float:
        """Average packet size over the interval, bytes."""
        window = self.observe_window(tenant_id, element, interval_s)
        return window.avg_pkt_size(bytes_attr, pkts_attr)

    # -- historical routines over the mirrored history ---------------------------

    def window_between(
        self, tenant_id: str, element: str, t0: float, t1: float
    ) -> CounterWindow:
        """The element's already-mirrored activity over ``[t0, t1]``.

        Unlike :meth:`observe_window` this does not refresh or advance
        time — it answers from history the mirror already holds.  On a
        tiered store (:class:`~repro.core.tiers.TieredWindowStore`, the
        default) the lookup transparently stitches the full-resolution
        fine ring with the coarsened tiers, so "what was the throughput
        an hour ago?" works long after the fine ring has recycled —
        at the coarse tiers' reduced sample resolution.
        """
        return self.controller.window(tenant_id, element, t0, t1)

    def get_throughput_between(
        self,
        tenant_id: str,
        element: str,
        t0: float,
        t1: float,
        attr: str = "rx_bytes",
    ) -> float:
        """Historical average throughput over ``[t0, t1]``, bytes/second."""
        return self.window_between(tenant_id, element, t0, t1).rate(attr)

    def get_pkt_loss_between(
        self,
        tenant_id: str,
        element: str,
        t0: float,
        t1: float,
        in_attr: str = "rx_pkts",
        out_attr: str = "tx_pkts",
    ) -> float:
        """Historical packet loss within the element over ``[t0, t1]``."""
        return self.window_between(tenant_id, element, t0, t1).pkt_loss(
            in_attr, out_attr
        )

    def get_avg_pkt_size_between(
        self,
        tenant_id: str,
        element: str,
        t0: float,
        t1: float,
        bytes_attr: str = "rx_bytes",
        pkts_attr: str = "rx_pkts",
    ) -> float:
        """Historical average packet size over ``[t0, t1]``, bytes."""
        return self.window_between(tenant_id, element, t0, t1).avg_pkt_size(
            bytes_attr, pkts_attr
        )

    def get_drops(
        self,
        tenant_id: str,
        element: str,
        interval_s: Optional[float] = None,
    ) -> Dict[str, float]:
        """Per-location drop growth over the interval.

        Not in Figure 6 but directly derivable from the drop counters the
        instrumentation keeps at every drop branch; Algorithm 1 uses the
        location breakdown to enter the rule book.
        """
        window = self.observe_window(tenant_id, element, interval_s)
        out: Dict[str, float] = {}
        for loc, pkts in window.drops_by_location().items():
            out[f"drops.{loc}"] = pkts
        for flow, pkts in window.drops_by_flow().items():
            out[f"drops_flow.{flow}"] = pkts
        return out
