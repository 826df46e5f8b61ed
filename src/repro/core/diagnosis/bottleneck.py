"""Bottleneck-middlebox detection (Section 5.1, second half).

When a tenant complains about end-to-end performance, the operator:

1. builds a *suspicious set* of middleboxes with high resource
   utilization — degenerating to all of the tenant's middleboxes when no
   utilization stands out (the video-encoder problem: utilization does
   not equal workload);
2. uses the light-weight statistics to separate middleboxes facing
   *legitimate* issues — packet drops on their individual path, blocked
   I/O — from those that simply run hot by design.

A middlebox is confirmed as a bottleneck when the loss is confined to
its own VM's software datapath (TUN individual), or when it is the
Overloaded survivor of the propagation analysis.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.core.controller import ZoneController
from repro.core.diagnosis.report import (
    CONFIDENCE_DEGRADED,
    CONFIDENCE_FULL,
    CONFIDENCE_MISSING,
)
from repro.core.diagnosis.states import classify_window


class BottleneckDetector:
    """Confirms which suspicious middleboxes are real bottlenecks."""

    def __init__(
        self,
        controller: ZoneController,
        advance: Callable[[float], None],
        window_s: float = 1.0,
        theta: float = 0.9,
    ) -> None:
        self.controller = controller
        self.advance = advance
        self.window_s = window_s
        self.theta = theta

    def run(
        self,
        tenant_id: str,
        suspicious: Optional[List[str]] = None,
        window_s: Optional[float] = None,
    ) -> Dict[str, Dict[str, object]]:
        """Evaluate the suspicious set; returns per-middlebox evidence.

        Each entry carries ``tun_drops`` (individual-path loss),
        ``cpu_bound`` (not Read/Write blocked while traffic flows), the
        combined ``is_bottleneck`` confirmation, and a ``confidence``
        label: ``"full"`` over fresh counters, ``"degraded"`` when the
        serving agent was unhealthy over the window, ``"missing"`` when
        the mirror held no counters for the middlebox or its TUN (such
        entries are never confirmed as bottlenecks — absence of data is
        not absence of drops, so they stay unconfirmed but flagged).
        """
        confidence = CONFIDENCE_FULL
        with obs.span("diagnosis.bottleneck", tenant=tenant_id) as sp:
            out = self._run(tenant_id, suspicious, window_s)
            confirmed = sorted(
                name for name, entry in out.items() if entry["is_bottleneck"]
            )
            confidences = {str(entry["confidence"]) for entry in out.values()}
            if CONFIDENCE_MISSING in confidences:
                confidence = CONFIDENCE_MISSING
            elif CONFIDENCE_DEGRADED in confidences:
                confidence = CONFIDENCE_DEGRADED
            sp.set("bottlenecks", ",".join(confirmed))
            sp.set("confidence", confidence)
            sp.set("evaluated", len(out))
        return out

    def _run(
        self,
        tenant_id: str,
        suspicious: Optional[List[str]],
        window_s: Optional[float],
    ) -> Dict[str, Dict[str, object]]:
        window = window_s if window_s is not None else self.window_s
        vnet = self.controller.vnet(tenant_id)
        if suspicious is None:
            suspicious = [n.name for n in vnet.middleboxes()]

        located = {name: vnet.locate(name) for name in suspicious}
        tuns = {name: self._tun_location(tenant_id, name) for name in suspicious}
        opened = self.controller.open_window(
            pair for name in suspicious for pair in (located[name], tuns[name])
        )
        self.advance(window)
        windows, _, quality = self.controller.close_window(opened)

        out: Dict[str, Dict[str, object]] = {}
        for name in suspicious:
            win = windows.get(located[name])
            tun_win = windows.get(tuns[name])
            if win is None or tun_win is None:
                out[name] = {
                    "state": None,
                    "tun_drops": 0.0,
                    "cpu_bound": False,
                    "is_bottleneck": False,
                    "confidence": CONFIDENCE_MISSING,
                }
                continue
            capacity = win.end.get("capacity_bps", 0.0)
            state = None
            if capacity > 0:
                state = classify_window(win, capacity, theta=self.theta, name=name)
            tun_drops = tun_win.delta("drops")
            cpu_bound = (
                state is not None
                and not state.read_blocked
                and not state.write_blocked
                and win.delta("inBytes") > 0
            )
            stale = quality[located[name][0]].stale or quality[tuns[name][0]].stale
            out[name] = {
                "state": state,
                "tun_drops": tun_drops,
                "cpu_bound": cpu_bound,
                "is_bottleneck": tun_drops > 0 or cpu_bound,
                "confidence": CONFIDENCE_DEGRADED if stale else CONFIDENCE_FULL,
            }
        return out

    def _tun_location(self, tenant_id: str, mb_name: str) -> Tuple[str, str]:
        """(machine, element_id) of the TUN device for the middlebox's VM."""
        node = self.controller.vnet(tenant_id).middlebox(mb_name)
        return node.machine, f"tun-{node.vm_id}@{node.machine}"
