"""Element-agent collection channels (Sections 4.2 and 6).

The real PerfSight pulls counters over whichever access path each element
type offers: device files for ``net_device`` counters (pNIC, TUN),
``/proc`` for ``softnet_data`` (backlog/NAPI), the OpenFlow control
channel for per-rule vswitch stats, QEMU's instrumented logs, and a unix
socket into each middlebox process.  Figure 9 measures those paths:
device files cost ~2 ms, everything else completes within 500 us.

Each :class:`Channel` wraps one element with its kind's latency model
(lognormal around the measured median, drawn from the simulator RNG so
runs reproduce) and a CPU cost per read that the agent accumulates —
the per-poll cost whose product with poll frequency is Figure 16.

Real access paths fail: device files block on a wedged driver, /proc
reads race a restarting kernel thread, the OpenFlow channel drops, a
middlebox closes its stats socket.  Each channel therefore carries a
:class:`ChannelFaultPlan` — per-read probabilities of erroring, timing
out against the channel's deadline, or serving stale data — and counts
the faults it produced so the agent's health surface can report them.
Fault draws come from the same simulator RNG as latency draws, so a
faulty run reproduces exactly under the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from repro import obs
from repro.core.counters import CounterSnapshot
from repro.core.records import StatRecord
from repro.simnet.element import (
    KIND_GUEST,
    KIND_MIDDLEBOX,
    KIND_NETDEV,
    KIND_PROCFS,
    KIND_QEMU,
    KIND_VSWITCH,
)


@dataclass(frozen=True)
class ChannelSpec:
    """Latency/cost profile of one collection path."""

    #: Median response latency, seconds (Figure 9's per-channel level).
    median_latency_s: float
    #: Lognormal sigma of the latency spread.
    sigma: float
    #: Agent CPU consumed per read, seconds (drives Figure 16).
    cpu_cost_s: float
    #: Human-readable description of the real access path.
    access_path: str


#: Calibrated to Figure 9: Agent-pNIC and Agent-TUN around 2 ms (device
#: file open/read/parse), Agent-Backlog under 100 us (/proc), QEMU log
#: and middlebox/guest sockets within 500 us.
CHANNEL_SPECS: Dict[str, ChannelSpec] = {
    KIND_NETDEV: ChannelSpec(2.0e-3, 0.25, 5e-6, "net_device via device file"),
    KIND_PROCFS: ChannelSpec(8.0e-5, 0.25, 2e-6, "softnet_data via /proc"),
    KIND_VSWITCH: ChannelSpec(3.0e-4, 0.25, 3e-6, "per-rule stats via OpenFlow"),
    KIND_QEMU: ChannelSpec(2.0e-4, 0.25, 3e-6, "instrumented QEMU log"),
    KIND_MIDDLEBOX: ChannelSpec(4.0e-4, 0.25, 3e-6, "middlebox agent socket"),
    KIND_GUEST: ChannelSpec(4.0e-4, 0.25, 3e-6, "guest kernel via VM channel"),
}

#: The agent <-> controller RPC leg measured in Figure 9.
CONTROLLER_CHANNEL = ChannelSpec(4.0e-4, 0.25, 4e-6, "agent-controller RPC")

#: Self-observability: per-kind read latency histogram (the software
#: analog of Figure 9) and fault counters.  Labelled by element *kind*
#: — six values — never by element id (cardinality rule; see DESIGN.md).
READ_LATENCY_METRIC = "perfsight_channel_read_latency_seconds"
CHANNEL_FAULTS_METRIC = "perfsight_channel_faults_total"

#: A read that takes this multiple of the channel's median latency is
#: declared timed out (the agent cannot block a sweep on one element).
DEFAULT_TIMEOUT_MULTIPLE = 100.0


class ChannelFault(Exception):
    """Base class for collection-channel failures (Section 4.2 paths)."""


class ChannelError(ChannelFault):
    """The access path errored outright (EIO, closed socket, ...)."""


class ChannelTimeout(ChannelFault):
    """The access path did not answer within the channel's deadline.

    ``latency_s`` is the time the reader wasted waiting — the deadline,
    by definition — which the agent still accounts against the sweep.
    """

    def __init__(self, message: str, latency_s: float) -> None:
        super().__init__(message)
        self.latency_s = latency_s


@dataclass(frozen=True)
class ChannelFaultPlan:
    """Per-read fault probabilities for one collection channel.

    On each read at most one fault fires: ``error_rate`` raises
    :class:`ChannelError`, ``timeout_rate`` raises
    :class:`ChannelTimeout`, ``stale_rate`` silently serves the
    previously read snapshot (a wedged counter source that keeps
    answering with old data).  The remaining probability mass reads
    normally.
    """

    error_rate: float = 0.0
    timeout_rate: float = 0.0
    stale_rate: float = 0.0
    #: Whether any fault can fire.  Worked out once here, not per read:
    #: every healthy read of every sweep asks.
    active: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("error_rate", "timeout_rate", "stale_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]: {value!r}")
        if self.error_rate + self.timeout_rate + self.stale_rate > 1.0 + 1e-12:
            raise ValueError(
                "fault rates must sum to at most 1: "
                f"{self.error_rate} + {self.timeout_rate} + {self.stale_rate}"
            )
        object.__setattr__(
            self,
            "active",
            self.error_rate > 0 or self.timeout_rate > 0 or self.stale_rate > 0,
        )


#: The default, never-faulting plan shared by all healthy channels.
NO_FAULTS = ChannelFaultPlan()


class Channel:
    """Pulls one element's counters, modelling the access path's cost."""

    def __init__(
        self,
        element,
        rng,
        spec: Optional[ChannelSpec] = None,
        timeout_s: Optional[float] = None,
    ) -> None:
        self.element = element
        self.rng = rng
        if spec is None:
            try:
                spec = CHANNEL_SPECS[element.kind]
            except KeyError:
                raise ValueError(
                    f"element {element.name!r} has unknown kind {element.kind!r}"
                ) from None
        self.spec = spec
        self._log_median = math.log(spec.median_latency_s)
        self.timeout_s = (
            timeout_s
            if timeout_s is not None
            else spec.median_latency_s * DEFAULT_TIMEOUT_MULTIPLE
        )
        self.fault_plan = NO_FAULTS
        self.reads = 0
        self.total_latency_s = 0.0
        self.total_cpu_s = 0.0
        self.errors = 0
        self.timeouts = 0
        self.stale_reads = 0
        self._last_snapshot: Optional[CounterSnapshot] = None
        self._last_record: Optional[StatRecord] = None

    def sample_latency(self) -> float:
        """One latency draw from the channel's lognormal profile."""
        return self.rng.lognormvariate(self._log_median, self.spec.sigma)

    # -- fault machinery ----------------------------------------------------------

    def set_fault_plan(self, plan: ChannelFaultPlan) -> ChannelFaultPlan:
        """Install a fault plan; returns the previous one (for undo)."""
        previous = self.fault_plan
        self.fault_plan = plan
        return previous

    def _draw_fault(self) -> Optional[str]:
        plan = self.fault_plan
        if not plan.active:
            return None
        draw = self.rng.random()
        if draw < plan.error_rate:
            return "error"
        if draw < plan.error_rate + plan.timeout_rate:
            return "timeout"
        if draw < plan.error_rate + plan.timeout_rate + plan.stale_rate:
            return "stale"
        return None

    def _prefault(self) -> bool:
        """Raise on an injected error/timeout; returns True for stale.

        A failed read still costs the reader: an error costs one normal
        latency draw plus the read's CPU, a timeout costs the full
        deadline plus the read's CPU (the agent sat in the syscall until
        the deadline fired).
        """
        fault = self._draw_fault()
        if fault == "error":
            self.errors += 1
            self._account_read()
            obs.counter(
                CHANNEL_FAULTS_METRIC, kind=self.element.kind, fault="error"
            )
            raise ChannelError(
                f"read error on {self.element.name!r} "
                f"({self.spec.access_path})"
            )
        if fault == "timeout":
            self.timeouts += 1
            self.reads += 1
            self.total_latency_s += self.timeout_s
            self.total_cpu_s += self.spec.cpu_cost_s
            obs.counter(
                CHANNEL_FAULTS_METRIC, kind=self.element.kind, fault="timeout"
            )
            obs.observe(
                READ_LATENCY_METRIC, self.timeout_s, kind=self.element.kind
            )
            raise ChannelTimeout(
                f"read of {self.element.name!r} exceeded its "
                f"{self.timeout_s:g}s deadline ({self.spec.access_path})",
                latency_s=self.timeout_s,
            )
        return fault == "stale"

    # -- reads --------------------------------------------------------------------

    def read(
        self, timestamp: float, attrs: Optional[Iterable[str]] = None
    ) -> Tuple[StatRecord, float]:
        """Fetch a snapshot; returns (record, simulated latency seconds)."""
        stale = self._prefault()
        if stale and self._last_record is not None:
            self.stale_reads += 1
            obs.counter(
                CHANNEL_FAULTS_METRIC, kind=self.element.kind, fault="stale"
            )
            record = self._last_record
        else:
            snap = self.element.snapshot()
            record = StatRecord(
                timestamp=timestamp,
                element_id=self.element.name,
                attrs=snap,
                machine=self.element.machine,
            )
            self._last_record = record
        if attrs is not None:
            record = record.subset(attrs)
        latency = self._account_read()
        return record, latency

    def read_versioned(self, timestamp: float) -> Tuple[CounterSnapshot, float]:
        """Fetch a typed, versioned snapshot over the same access path.

        Identical latency/CPU accounting to :meth:`read` — the cost is a
        property of the access path, not of the record format — so the
        Figure 9/16 overhead results are unchanged when the agent store
        polls through this instead of per-query pulls.

        A stale fault re-serves the previously read snapshot unchanged
        (same seq, original observation time), which the store then
        delta-compresses away: the element simply stops producing fresh
        data, exactly what a wedged counter source looks like.
        """
        stale = self._prefault()
        if stale and self._last_snapshot is not None:
            self.stale_reads += 1
            obs.counter(
                CHANNEL_FAULTS_METRIC, kind=self.element.kind, fault="stale"
            )
            snap = self._last_snapshot
        else:
            snap = self.element.snapshot_versioned(timestamp)
            self._last_snapshot = snap
        return snap, self._account_read()

    def _account_read(self) -> float:
        latency = self.sample_latency()
        self.reads += 1
        self.total_latency_s += latency
        self.total_cpu_s += self.spec.cpu_cost_s
        if obs.enabled():
            obs.observe(READ_LATENCY_METRIC, latency, kind=self.element.kind)
        return latency
