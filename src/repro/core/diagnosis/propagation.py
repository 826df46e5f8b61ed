"""Algorithm 2: locate the root-cause middlebox under propagation.

Observe each middlebox's ``inBytes/inTime/outBytes/outTime`` over a
:class:`CounterWindow` T wide (one
:meth:`~repro.core.controller.ZoneController.open_window` /
``close_window`` observation over the whole chain); classify
Read/WriteBlocked; then eliminate:

* a ReadBlocked middlebox and all its successors (they are starved by
  something upstream, not at fault themselves);
* a WriteBlocked middlebox and all its predecessors (they are throttled
  by something downstream).

What survives is the root cause set.  A survivor whose successors are
ReadBlocked is *Underloaded* (a slow source); one whose predecessors
are WriteBlocked is *Overloaded* (a slow consumer) — the labels of
Figure 7.  A middlebox on a machine this zone does not own has no
counters here, so it gets a ``no-data`` verdict like any other gap.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro import obs
from repro.cluster.topology import VirtualNetwork
from repro.core.controller import ZoneController
from repro.core.diagnosis.report import (
    CONFIDENCE_DEGRADED,
    CONFIDENCE_FULL,
    CONFIDENCE_MISSING,
    MiddleboxVerdict,
    RootCauseReport,
)
from repro.core.diagnosis.states import MiddleboxState, classify_window

STAT_ATTRS = ["inBytes", "inTime", "outBytes", "outTime"]


class RootCauseLocator:
    """GetRootCause(tenant) per Algorithm 2."""

    def __init__(
        self,
        controller: ZoneController,
        advance: Callable[[float], None],
        window_s: float = 1.0,
        theta: float = 0.9,
    ) -> None:
        if window_s <= 0:
            raise ValueError(f"window must be positive: {window_s!r}")
        self.controller = controller
        self.advance = advance
        self.window_s = window_s
        self.theta = theta

    def run(self, tenant_id: str, window_s: Optional[float] = None) -> RootCauseReport:
        """Classify, eliminate, label — on whatever data is available.

        A middlebox whose counters the mirror does not hold is excluded
        from the elimination pass and reported with a ``no-data``
        verdict; middleboxes served by an unhealthy agent keep their
        verdicts but at ``degraded`` confidence (the Read/WriteBlocked
        classification may rest on a stale window).
        """
        with obs.span("diagnosis.propagation", tenant=tenant_id) as sp:
            report = self._run(tenant_id, window_s)
            # Verdict provenance: who was blamed and on what data.
            sp.set("root_causes", ",".join(report.root_causes))
            sp.set(
                "confidence",
                CONFIDENCE_DEGRADED if report.degraded else CONFIDENCE_FULL,
            )
            sp.set("missing", len(report.missing))
        return report

    def _run(self, tenant_id: str, window_s: Optional[float]) -> RootCauseReport:
        window = window_s if window_s is not None else self.window_s
        vnet = self.controller.vnet(tenant_id)
        names = [node.name for node in vnet.middleboxes()]
        located = {name: vnet.locate(name) for name in names}
        opened = self.controller.open_window(located.values())
        self.advance(window)
        windows, _, quality = self.controller.close_window(opened)

        states: Dict[str, MiddleboxState] = {}
        for name in names:
            win = windows.get(located[name])
            if win is None:
                continue
            capacity = win.end.get("capacity_bps", 0.0)
            if capacity <= 0:
                raise RuntimeError(
                    f"middlebox {name!r} does not expose its vNIC capacity"
                )
            states[name] = classify_window(win, capacity, theta=self.theta, name=name)

        candidates = {name for name in names if name in states}
        for name, state in states.items():
            if state.read_blocked:
                candidates.discard(name)
                candidates.difference_update(vnet.successors_closure(name))
            if state.write_blocked:
                candidates.discard(name)
                candidates.difference_update(vnet.predecessors_closure(name))

        verdicts: List[MiddleboxVerdict] = []
        for name in names:
            if name not in states:
                verdicts.append(
                    MiddleboxVerdict(name, None, False, "no-data", CONFIDENCE_MISSING)
                )
                continue
            state = states[name]
            is_root = name in candidates
            label = self._label(vnet, states, name, is_root)
            stale = quality[located[name][0]].stale
            confidence = CONFIDENCE_DEGRADED if stale else CONFIDENCE_FULL
            verdicts.append(MiddleboxVerdict(name, state, is_root, label, confidence))
        return RootCauseReport(
            tenant_id=tenant_id,
            window_s=window,
            verdicts=verdicts,
            data_quality=quality,
            missing=sorted(name for name in names if name not in states),
        )

    @staticmethod
    def _label(
        vnet: VirtualNetwork,
        states: Dict[str, MiddleboxState],
        name: str,
        is_root: bool,
    ) -> str:
        if not is_root:
            return "eliminated"
        node = vnet.middlebox(name)
        succ_read_blocked = [
            s for s in node.successors if s in states and states[s].read_blocked
        ]
        pred_write_blocked = [
            p for p in node.predecessors if p in states and states[p].write_blocked
        ]
        if pred_write_blocked:
            return "overloaded"
        if succ_read_blocked:
            return "underloaded"
        return "unclear"
