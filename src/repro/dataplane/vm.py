"""A virtual machine attached to the machine's virtual switch.

A VM bundles everything the paper allocates to one middlebox or tenant VM
(Section 2.1: "middlebox VMs, similar to application VMs, are allocated
fixed resources — CPU, memory, network bandwidth"):

* a vCPU allocation, modeled as a :class:`SubResource` of the host CPU
  pool (the VM competes as one weighted claimant; guest elements and apps
  share its grant),
* a vNIC with a configurable capacity (rate-enforced in the hypervisor
  I/O handlers) and bounded RX/TX rings,
* the guest stack elements (driver, vCPU backlog, NAPI, TX), and
* socket plumbing: apps create :class:`AppSocket` endpoints, bind flows
  to them, and transmit through the guest TX queue.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.dataplane.guest_stack import GuestDriver, GuestNapi, GuestTx, VcpuBacklog
from repro.dataplane.hypervisor import QemuRx, QemuTx
from repro.dataplane.params import DataplaneParams
from repro.dataplane.tun import TunQueue
from repro.simnet.buffers import Buffer
from repro.simnet.engine import SimError, Simulator
from repro.simnet.packet import Flow, PacketBatch
from repro.simnet.resources import Resource, SubResource
from repro.transport.sockets import AppSocket


class VM:
    """One VM's slice of the software dataplane.

    Constructed by :meth:`repro.dataplane.machine.PhysicalMachine.add_vm`;
    not meant to be built directly.
    """

    def __init__(
        self,
        sim: Simulator,
        machine_name: str,
        vm_id: str,
        params: DataplaneParams,
        host_cpu: Resource,
        membus: Resource,
        backlog_push: Callable[[PacketBatch], PacketBatch],
        vcpu_cores: float = 1.0,
        vnic_bps: Optional[float] = None,
        tenant_id: str = "",
    ) -> None:
        self.sim = sim
        self.machine_name = machine_name
        self.vm_id = vm_id
        self.tenant_id = tenant_id
        self.params = params
        self.vnic_bps = vnic_bps

        self.vcpu = SubResource(
            sim,
            f"vcpu-{vm_id}@{machine_name}",
            parent=host_cpu,
            cap_per_s=vcpu_cores,
            weight=max(vcpu_cores, 1e-9),
            policy="proportional",
        )

        self.vnic_rx_ring = Buffer(
            f"vnic-rx-{vm_id}",
            capacity_pkts=params.vnic_ring_pkts,
            capacity_bytes=params.vnic_ring_bytes,
            policy="block",
        )
        self.vnic_tx_ring = Buffer(
            f"vnic-tx-{vm_id}",
            capacity_pkts=params.vnic_ring_pkts,
            capacity_bytes=params.vnic_ring_bytes,
            policy="block",
        )
        self.txq = Buffer(
            f"guest-txq-{vm_id}",
            capacity_bytes=params.guest_txq_bytes,
            policy="drop",
        )

        self.tun = TunQueue(sim, machine_name, vm_id, params)
        self.qemu_rx = QemuRx(
            sim,
            machine_name,
            vm_id,
            params,
            self.tun,
            self.vnic_rx_ring,
            host_cpu,
            membus,
            vnic_bps=vnic_bps,
        )
        self.qemu_tx = QemuTx(
            sim,
            machine_name,
            vm_id,
            params,
            self.vnic_tx_ring,
            host_cpu,
            membus,
            backlog_push,
            vnic_bps=vnic_bps,
        )
        self.vcpu_backlog = VcpuBacklog(sim, machine_name, vm_id, params)
        self.gdriver = GuestDriver(
            sim,
            machine_name,
            vm_id,
            params,
            self.vnic_rx_ring,
            self.vcpu,
            membus,
            self.vcpu_backlog,
        )
        self.gstack = GuestNapi(
            sim,
            machine_name,
            vm_id,
            params,
            self.vcpu_backlog,
            self.vcpu,
            membus,
            self.deliver,
        )
        self.gtx = GuestTx(
            sim,
            machine_name,
            vm_id,
            params,
            self.txq,
            self.vnic_tx_ring,
            self.vcpu,
            membus,
        )

        self._udp_bindings: Dict[str, AppSocket] = {}

    # -- socket plumbing (used by apps and transports) ---------------------------

    def new_socket(
        self, name: str, capacity_bytes: Optional[float] = None
    ) -> AppSocket:
        """Create an app receive socket on this VM.

        The creating app is responsible for committing the socket (apps
        are components; see ``middleboxes.base``).
        """
        cap = capacity_bytes if capacity_bytes is not None else self.params.app_sock_bytes
        return AppSocket(f"{name}@{self.vm_id}", capacity_bytes=cap)

    def bind_udp(self, flow: Flow, socket: AppSocket) -> None:
        """Deliver a UDP flow's arrivals into ``socket``."""
        if flow.kind != "udp":
            raise SimError(f"bind_udp on non-udp flow {flow.flow_id!r}")
        if flow.flow_id in self._udp_bindings:
            raise SimError(f"flow {flow.flow_id!r} already bound on {self.vm_id!r}")
        self._udp_bindings[flow.flow_id] = socket

    def deliver(self, batch: PacketBatch) -> bool:
        """Terminal delivery from the guest stack into a socket/connection."""
        flow = batch.flow
        if flow.kind == "tcp" and flow.conn_id:
            registry = getattr(self.sim, "transport_registry", None)
            if registry is not None and registry.deliver(batch):
                return True
            return False
        socket = self._udp_bindings.get(flow.flow_id)
        if socket is None:
            return False
        socket.deliver(batch)
        return True

    # -- transmit side ----------------------------------------------------------------

    def tx_submit(self, batch: PacketBatch) -> None:
        """App-side injection into the guest TX queue."""
        self.txq.push(batch)

    def tx_space(self) -> float:
        return self.txq.space_bytes()

    # -- management operations -----------------------------------------------------------

    def set_vnic_bps(self, bps: Optional[float]) -> None:
        """Reconfigure the vNIC capacity (operator scale-up, Section 7.3)."""
        self.vnic_bps = bps
        self.qemu_rx.rate_bps = bps
        self.qemu_tx.rate_bps = bps

    def set_vcpu_cores(self, cores: float) -> None:
        self.vcpu.set_allocation(cores)

    # -- introspection --------------------------------------------------------------------

    @property
    def elements(self):
        """Guest + per-VM hypervisor elements, in datapath order."""
        return [
            self.tun,
            self.qemu_rx,
            self.gdriver,
            self.vcpu_backlog,
            self.gstack,
            self.gtx,
            self.qemu_tx,
        ]

    def __repr__(self) -> str:
        return f"<VM {self.vm_id!r} on {self.machine_name!r}>"
