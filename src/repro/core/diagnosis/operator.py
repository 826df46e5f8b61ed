"""Operator workflows (Section 7.3).

These are the management actions the paper walks through in the
multi-tenant experiment of Figures 13-14, packaged as an
``OperatorConsole`` over the controller + placement + live simulation
objects:

* :meth:`diagnose_machine` — run Algorithm 1 on one host;
* :meth:`diagnose_tenant` — run Algorithm 2 on one tenant's chain;
* :meth:`migrate_task` — move a contending workload off the host (the
  memory-intensive management task of Figure 14(b));
* :meth:`scale_out_vnic` — give a bottlenecked middlebox VM more vNIC
  capacity, standing in for "scale it out and reroute half the traffic"
  (capacity-equivalent, one VM instead of two — the aggregate behaviour
  Figure 14(c) measures is the tenant's total throughput).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro import obs
from repro.cluster.placement import Placement
from repro.core.controller import ZoneController
from repro.core.diagnosis.contention import ContentionDetector
from repro.core.diagnosis.propagation import RootCauseLocator
from repro.core.diagnosis.report import ContentionReport, RootCauseReport


class OperatorConsole:
    """The cloud operator's handle on diagnosis + remediation."""

    def __init__(
        self,
        controller: ZoneController,
        advance: Callable[[float], None],
        placement: Optional[Placement] = None,
        window_s: float = 1.0,
    ) -> None:
        self.controller = controller
        self.advance = advance
        self.placement = placement if placement is not None else Placement()
        self.contention = ContentionDetector(controller, advance, window_s=window_s)
        self.propagation = RootCauseLocator(controller, advance, window_s=window_s)
        self.actions_log: list = []

    # -- diagnosis ------------------------------------------------------------------

    def diagnose_machine(self, machine: str, window_s: Optional[float] = None) -> ContentionReport:
        report = self.contention.run(machine, window_s)
        self.actions_log.append(("diagnose_machine", machine))
        obs.event(
            "operator.action", action="diagnose_machine", machine=machine,
            confidence=report.confidence,
        )
        return report

    def diagnose_tenant(self, tenant_id: str, window_s: Optional[float] = None) -> RootCauseReport:
        report = self.propagation.run(tenant_id, window_s)
        self.actions_log.append(("diagnose_tenant", tenant_id))
        obs.event(
            "operator.action", action="diagnose_tenant", tenant=tenant_id,
            root_causes=",".join(report.root_causes),
        )
        return report

    # -- remediation -------------------------------------------------------------------

    def migrate_task(self, stopper: Callable[[], None], description: str = "") -> None:
        """Move a contending workload elsewhere.

        In the simulation "migrating away" means the workload stops
        claiming this host's resources; ``stopper`` is the workload's
        stop handle (e.g. ``MemoryHog.stop``).
        """
        stopper()
        self.actions_log.append(("migrate_task", description))
        obs.event(
            "operator.action", action="migrate_task", description=description
        )

    def migrate_vm(self, vm_id: str, new_machine: str) -> None:
        old = self.placement.migrate(vm_id, new_machine)
        self.actions_log.append(("migrate_vm", vm_id, old, new_machine))
        obs.event(
            "operator.action", action="migrate_vm", vm=vm_id,
            source=old, destination=new_machine,
        )

    def scale_out_vnic(self, vm, factor: float = 2.0) -> None:
        """Scale a bottleneck middlebox by adding capacity.

        Doubling the vNIC cap (and vCPU) is the capacity-equivalent of
        instantiating a second instance and splitting traffic.
        """
        if factor <= 1.0:
            raise ValueError(f"scale factor must exceed 1: {factor!r}")
        if vm.vnic_bps is not None:
            vm.set_vnic_bps(vm.vnic_bps * factor)
        vm.set_vcpu_cores(vm.vcpu.capacity_per_s * factor)
        self.actions_log.append(("scale_out", vm.vm_id, factor))
        obs.event("operator.action", action="scale_out", vm=vm.vm_id, factor=factor)
