"""Algorithm 1: detect contention and bottleneck locations.

For every element in a machine's virtualization stack, observe a
:class:`CounterWindow` T seconds wide (one
:meth:`~repro.core.controller.ZoneController.open_window` /
``close_window`` observation), compute the element's packet loss
(growth of in-minus-out, exactly the paper's GetPktLoss), sort
descending, and map the observed drop locations through the Table-1
rule book.  Whether the loss is spread across VMs (contention) or
confined to one VM's path (bottleneck) comes from the per-VM drop
locations and the per-flow attribution the buffers keep.

Cost is linear in the number of elements, as the paper notes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro import obs
from repro.core.controller import COLLECTION_ERRORS, OpenWindow, ZoneController
from repro.core.counters import CounterWindow
from repro.core.diagnosis.report import (
    CONFIDENCE_DEGRADED,
    CONFIDENCE_FULL,
    ContentionReport,
    ElementLoss,
)
from repro.core.rulebook import RuleBook


class ContentionDetector:
    """FindContentionAndMiddlebox() over one machine's stack."""

    def __init__(
        self,
        controller: ZoneController,
        advance: Callable[[float], None],
        rulebook: Optional[RuleBook] = None,
        window_s: float = 1.0,
    ) -> None:
        if window_s <= 0:
            raise ValueError(f"window must be positive: {window_s!r}")
        self.controller = controller
        self.advance = advance
        self.rulebook = rulebook if rulebook is not None else RuleBook()
        self.window_s = window_s

    def _stack_element_ids(self, machine_name: str) -> List[str]:
        agent = self.controller.agent_for(machine_name)
        stack_lister = getattr(agent, "stack_element_ids", None)
        if stack_lister is not None:
            try:
                return stack_lister()
            except COLLECTION_ERRORS:
                # The agent is unreachable; analyze whatever elements the
                # mirror already holds.  That loses the stack scoping (apps
                # rank alongside stack elements) but keeps the diagnosis
                # running — the report is marked degraded via the machine's
                # health state anyway.
                return self.controller.mirror_for(machine_name).store.element_ids()
        # Fall back to the machine walk for in-process agents.
        machine = getattr(agent, "machine", None)
        if machine is None:
            raise RuntimeError(
                f"agent for {machine_name!r} cannot enumerate stack elements"
            )
        return [e.name for e in machine.stack_elements()]

    def run(self, machine_name: str, window_s: Optional[float] = None) -> ContentionReport:
        """Refresh, wait, refresh, rank; returns the full report.

        Runs to completion on partial data: elements the mirror holds no
        counters for are skipped (and listed as missing), and when the
        machine's agent was unhealthy over the window — both ends served
        from an aging mirror — the whole report is marked degraded
        instead of presenting possibly stale verdicts as trusted.
        """
        window = window_s if window_s is not None else self.window_s
        with obs.span("diagnosis.contention", machine=machine_name) as sp:
            opened = self.begin(machine_name)
            self.advance(window)
            report = self.finish(machine_name, opened, window)
            self._annotate(sp, report)
        return report

    # -- split-phase scan (fleet mode) -------------------------------------------

    def begin(self, machine_name: str) -> OpenWindow:
        """Open the diagnosis window over the machine's stack elements.

        Splitting the scan at the window boundary is what lets a fleet
        diagnosis share ONE ``advance`` across machines: every machine's
        begin runs (concurrently) before time moves, then time moves
        once, then every finish runs — so all the per-machine windows
        measure the same interval.
        """
        return self.controller.open_window(
            (machine_name, eid) for eid in self._stack_element_ids(machine_name)
        )

    def finish(
        self,
        machine_name: str,
        opened: OpenWindow,
        window_s: Optional[float] = None,
    ) -> ContentionReport:
        """Close the window: refresh again, diff, rank, apply Table 1."""
        windows, missing, qualities = self.controller.close_window(opened)
        ranked = sorted(
            (self._element_loss(win) for win in windows.values()),
            key=lambda el: -el.loss_pkts,
        )

        drops_all: Dict[str, float] = {}
        for el in ranked:
            for loc, pkts in el.drops_by_location.items():
                drops_all[loc] = drops_all.get(loc, 0.0) + pkts
        verdicts = self.rulebook.diagnose_all(drops_all)
        quality = qualities.get(machine_name) or self.controller.data_quality(
            machine_name
        )
        degraded = quality.stale or bool(missing)
        report = ContentionReport(
            machine=machine_name,
            window_s=window_s if window_s is not None else self.window_s,
            ranked=ranked,
            verdicts=verdicts,
            data_quality=quality,
            missing_elements=[eid for _, eid in missing],
            confidence=CONFIDENCE_DEGRADED if degraded else CONFIDENCE_FULL,
        )
        report.disambiguated = self._disambiguate(machine_name, verdicts)
        return report

    def finish_observed(
        self, machine_name: str, opened: OpenWindow
    ) -> ContentionReport:
        """:meth:`finish` wrapped in the per-machine span.

        Used by fleet mode, where begin and finish are separate fan-out
        tasks (for a remote agent, on different worker threads), so one
        span cannot bracket the whole scan.
        """
        with obs.span("diagnosis.contention", machine=machine_name) as sp:
            report = self.finish(machine_name, opened)
            self._annotate(sp, report)
        return report

    @staticmethod
    def _annotate(sp, report: ContentionReport) -> None:
        sp.set("confidence", report.confidence)
        sp.set("verdicts", len(report.verdicts))
        if report.worst is not None:
            sp.set("worst", report.worst.element_id)

    def _disambiguate(self, machine_name: str, verdicts) -> Optional[str]:
        """Resolve a CPU-vs-memory-bandwidth verdict with host gauges.

        Section 5.1's operator step, automated: high CPU utilization
        implicates CPU; a busy memory bus with CPU headroom implicates
        the bus.  Returns the chosen resource id or None if nothing to
        disambiguate (or the agent cannot report host stats).
        """
        from repro.core.rulebook import CPU, MEMORY_BANDWIDTH

        ambiguous = [
            v for v in verdicts if set(v.resources) == {CPU, MEMORY_BANDWIDTH}
        ]
        if not ambiguous:
            return None
        agent = self.controller.agent_for(machine_name)
        host_stats = getattr(agent, "host_stats", None)
        if host_stats is None:
            return None
        stats = host_stats()
        cpu_util = stats.get("cpu_utilization")
        bus_util = stats.get("membus_utilization")
        # The bus gauge is decisive: a saturated memory bus explains the
        # TUN drops regardless of how busy the CPUs *look* (stalled
        # copies hold their CPU grants, so CPU utilization reads high
        # under bus contention too — the same trap as the busy-waiting
        # transcoder of Section 2.3).
        if bus_util >= 0.95:
            return MEMORY_BANDWIDTH
        if cpu_util >= 0.9:
            return CPU
        return None

    @staticmethod
    def _element_loss(window: CounterWindow) -> ElementLoss:
        return ElementLoss(
            element_id=window.element_id,
            machine=window.machine,
            loss_pkts=window.pkt_loss(),
            drops_by_location=window.drops_by_location(),
            drops_by_flow=window.drops_by_flow(),
        )
