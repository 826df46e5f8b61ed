"""The basic utility routines of Figure 6.

``GetThroughput``, ``GetPktLoss`` and ``GetAvgPktSize`` all follow the
same pattern: observe, ``sleep(T)``, observe again, difference.  In a
simulation "sleep" means advancing simulated time, so the runner takes
an ``advance`` callable (``lambda t: sim.run(t)``); against a live
deployment the same code passes ``time.sleep``.

The two observations are the controller's split-phase window
(:meth:`~repro.core.controller.ZoneController.open_window` /
``close_window``): one delta-batched mirror refresh of the element's
machine at each end of the interval, then an O(1)
:class:`CounterWindow` lookup.  A deployment whose agents poll on a
cadence (``agent.start_polling``) pays even less — the refresh only
drains already-collected deltas.  The ``*_between`` routines answer
the same questions from history the mirror already holds.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.controller import ZoneController
from repro.core.counters import CounterWindow

Advance = Callable[[float], None]


class QueryRunner:
    """Windowed differencing over the controller's mirror stores."""

    def __init__(
        self,
        controller: ZoneController,
        advance: Advance,
        interval_s: float = 1.0,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval must be positive: {interval_s!r}")
        self.controller = controller
        self.advance = advance
        self.interval_s = interval_s

    def _observe(
        self, tenant_id: str, element: str, interval_s: Optional[float]
    ) -> CounterWindow:
        """<refresh, sleep(T), refresh> around one element's window."""
        located = self.controller.vnet(tenant_id).locate(element)
        opened = self.controller.open_window([located])
        self.advance(interval_s if interval_s is not None else self.interval_s)
        windows, _, _ = self.controller.close_window(opened)
        try:
            return windows[located]
        except KeyError:
            raise KeyError(f"no counters for {element!r} at {located}") from None

    # -- Figure 6 routines ---------------------------------------------------------------

    def get_throughput(
        self,
        tenant_id: str,
        element: str,
        attr: str = "rx_bytes",
        interval_s: Optional[float] = None,
    ) -> float:
        """Average throughput over the interval, bytes/second."""
        window = self._observe(tenant_id, element, interval_s)
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
        return self._observe(tenant_id, element, interval_s).pkt_loss(
            in_attr, out_attr
        )

    def get_avg_pkt_size(
        self,
        tenant_id: str,
        element: str,
        bytes_attr: str = "rx_bytes",
        pkts_attr: str = "rx_pkts",
        interval_s: Optional[float] = None,
    ) -> float:
        """Average packet size over the interval, bytes."""
        return self._observe(tenant_id, element, interval_s).avg_pkt_size(
            bytes_attr, pkts_attr
        )

    # -- the same questions over the mirrored history ------------------------------

    def get_throughput_between(
        self,
        tenant_id: str,
        element: str,
        t0: float,
        t1: float,
        attr: str = "rx_bytes",
    ) -> float:
        """Historical average throughput over ``[t0, t1]``, bytes/second."""
        return self.controller.window(tenant_id, element, t0, t1).rate(attr)

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
        return self.controller.window(tenant_id, element, t0, t1).pkt_loss(
            in_attr, out_attr
        )
