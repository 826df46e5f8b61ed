"""Calibration constants for the simulated dataplane.

These numbers are the substitution for the paper's physical testbed
(8-core Dell T5500, 16 GB RAM, 10 Gbps NIC, Linux 3.2).  Per-packet CPU
costs are in the low-microsecond range typical of that kernel generation;
memory-bus cost per network byte is the number of bus transactions a byte
incurs on the full path (DMA + kernel copies + user copies, read+write
each), which calibrates the Figure 3 tradeoff slope (see DESIGN.md).

All CPU costs are in CPU-seconds per packet/byte; memory costs in
memory-bus bytes per packet byte; rates in bits/s unless suffixed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class DataplaneParams:
    """Tunable cost/size model for one physical machine."""

    # -- machine hardware -------------------------------------------------------
    cores: int = 8
    #: Aggregate memory-bus bandwidth, bytes/s.  26.5 GB/s puts the
    #: Figure-3 knee near 4 GB/s of competing memcpy traffic at 10 Gbps
    #: line rate with the copy factor below.
    mem_bw_bytes_per_s: float = 26.5e9
    nic_bps: float = 10e9

    # -- queue sizes ---------------------------------------------------------------
    #: pNIC RX ring descriptors (typical ixgbe default).
    pnic_ring_pkts: float = 4096.0
    #: Linux per-core backlog limit (net.core.netdev_max_backlog default
    #: era-appropriate value used by the paper: "each CPU core's backlog
    #: queue length is limited to 300 packets").
    backlog_pkts_per_queue: float = 300.0
    #: TUN/TAP socket queue (tun txqueuelen default 500).
    tun_queue_pkts: float = 500.0
    tun_queue_bytes: float = 750e3
    #: virtio ring descriptors per direction.
    vnic_ring_pkts: float = 1024.0
    vnic_ring_bytes: float = 1536e3
    #: Guest socket send queue per VM.
    guest_txq_bytes: float = 512e3
    #: pNIC TX queue.
    pnic_txq_pkts: float = 1000.0

    # -- per-element CPU costs (host pool), seconds ----------------------------------
    cpu_per_pkt_driver: float = 0.7e-6
    #: NAPI softirq cost per packet, including the vswitch lookup
    #: (function call from NAPI in Figure 5).  ~330 Kpps per core,
    #: era-appropriate for Linux 3.2 bridging.  NAPI for one backlog
    #: queue runs on one core, so single-queue machines top out there —
    #: the mechanism behind the Figure 10 small-packet collapse.
    cpu_per_pkt_napi: float = 3.0e-6
    cpu_per_pkt_qemu: float = 1.8e-6
    cpu_per_byte_host: float = 0.5e-10  # touch cost, per byte, host elements

    # -- per-element guest CPU costs (VM vCPU), seconds --------------------------------
    cpu_per_pkt_guest_driver: float = 0.8e-6
    cpu_per_pkt_guest_napi: float = 1.0e-6
    cpu_per_pkt_guest_tx: float = 1.2e-6
    cpu_per_byte_guest: float = 0.5e-10

    # -- memory-bus cost, bus-bytes per packet byte, per stage -------------------------
    # The kernel fast path (driver, NAPI, vswitch) moves skb *pointers*
    # and touches headers only — cache-resident, effectively free on the
    # bus — so it carries no memory-bus claim; the payload actually
    # crosses the bus in the hypervisor copy (TUN socket -> guest
    # memory, read+write both ways plus cache misses) and in the guest's
    # own copies.  This is what makes memory-bandwidth contention
    # surface at the TUN (Table 1) rather than at the backlog.
    #: QEMU payload copy host<->guest (tap read + virtio write, read+
    #: write bus transactions each, cache-line overfetch).
    mem_per_byte_qemu: float = 10.0
    mem_per_byte_guest_driver: float = 2.0
    mem_per_byte_guest_napi: float = 2.0
    #: Guest user->kernel copy on transmit (incl. overfetch).
    mem_per_byte_guest_tx: float = 6.0
    mem_per_byte_qemu_tx: float = 10.0
    #: pNIC DMA engine (read + write).
    mem_per_byte_pnic_tx: float = 2.0

    # -- app-level ------------------------------------------------------------------
    #: User<->kernel copy speed seen by one app (bytes/s).  Sets the
    #: "memcpy is >= 2 orders of magnitude faster than the network" scale
    #: of Section 5.2.
    memcpy_bytes_per_s: float = 4e9
    #: Default app socket receive buffer.
    app_sock_bytes: float = 256e3
