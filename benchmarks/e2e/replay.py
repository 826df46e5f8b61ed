"""The replay substrate: a fleet whose "dataplane" is the load generator.

A :class:`ReplayMachine` is duck-typed to what :class:`repro.core.agent.Agent`
and Algorithm 1 need from a ``PhysicalMachine`` (``name``,
``stack_elements()``, ``all_elements()`` and the four gauges
``host_stats`` reads), but its elements are bare
:class:`repro.simnet.element.Element` objects named and ``kind``-ed like
Figure 5.  Nothing moves packets: :class:`Dataplane` bumps the elements'
``CounterSet`` once per epoch (one diagnosis window of simulated time) as
a pure function of ``(seed, machine, element, epoch)`` plus the injected
fault table.  The real ``Agent``/``Channel``/``TimeSeriesStore``/
controllers/daemon/diagnosis run unchanged above it.

Real ``PhysicalMachine`` queue elements are *not* used here on purpose:
pnic/backlog/tun/vcpu-backlog derive ``tx`` from their buffers, so bumping
their counters from outside reads as ~30% loss on a healthy machine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e.trace import LOADGEN, Tracer, maybe_span
from repro.core.counters import CounterSet
from repro.simnet.element import (
    KIND_GUEST,
    KIND_MIDDLEBOX,
    KIND_NETDEV,
    KIND_PROCFS,
    KIND_QEMU,
    KIND_VSWITCH,
    Element,
)
from repro.simnet.engine import Simulator

#: Keep the replay simulator at or below this tick.
#: ``Simulator.schedule_every`` with ``period <= tick / 2`` never leaves
#: ``step()``, which the daemon's default ``escalated_poll_period_s=0.02``
#: would hit at ``tick >= 0.04``.
REPLAY_TICK_S = 0.01

_MASK = (1 << 64) - 1


def mix(*parts: int) -> int:
    """splitmix64-style hash of a few small integers (seed-derived inputs)."""
    x = 0x9E3779B97F4A7C15
    for p in parts:
        x = (x + (p & _MASK) * 0xBF58476D1CE4E5B9) & _MASK
        x ^= x >> 30
        x = (x * 0x94D049BB133111EB) & _MASK
        x ^= x >> 27
    return x


def unit(*parts: int) -> float:
    """``mix`` mapped to [0, 1)."""
    return (mix(*parts) >> 11) / float(1 << 53)


class _Gauge:
    """Stand-in for a ``Resource``: only the gauge ``host_stats`` reads."""

    def __init__(self, last_utilization: float = 0.3) -> None:
        self.last_utilization = last_utilization


#: (name prefix, channel kind) of the six shared stack elements (Fig 5).
_SHARED_STACK = (
    ("pnic", KIND_NETDEV),
    ("pnic-driver", KIND_NETDEV),
    ("backlog", KIND_PROCFS),
    ("napi", KIND_PROCFS),
    ("vswitch", KIND_VSWITCH),
    ("pnic-tx", KIND_NETDEV),
)
#: Per-VM elements: three in the virtualization stack, four in the guest.
_VM_STACK = (("tun", KIND_NETDEV), ("qemu-rx", KIND_QEMU), ("qemu-tx", KIND_QEMU))
_VM_GUEST = (
    ("gdriver", KIND_GUEST),
    ("vcpu-backlog", KIND_GUEST),
    ("gstack", KIND_GUEST),
    ("gtx", KIND_GUEST),
)

#: Injectable Table-1 rows: key -> (element-name templates, drop-location
#: template).  ``{vm}`` expands per VM; ``tun_all`` hits every VM's TUN so
#: the rule book's spread test reads contention, ``tun_one`` only vm0's.
#: The vcpu-backlog and guest-socket rows of Table 1 live in guest elements,
#: which are outside ``stack_elements()`` (Algorithm 1's scope), so a drop
#: there can never yield a verdict and is not injected.
DROP_ROWS: Dict[str, Tuple[str, str]] = {
    "pnic": ("pnic@{m}", "pnic"),
    "pcpu_backlog": ("backlog@{m}", "pcpu_backlog"),
    "pnic_txq": ("pnic-tx@{m}", "pnic_txq"),
    "tun_one": ("tun-vm0@{m}", "tun-vm0"),
    "tun_all": ("tun-{vm}@{m}", "tun-{vm}"),
}


class ReplayMachine:
    """A Figure-5-shaped machine of bare elements (6 shared + 7 per VM)."""

    def __init__(self, park: Simulator, name: str, vms: int = 2) -> None:
        self.name = name
        self.cpu = _Gauge()
        self.membus = _Gauge()
        self.vm_ids = [f"vm{i}" for i in range(vms)]

        def make(prefix: str, kind: str, vm: str = "") -> Element:
            label = f"{prefix}-{vm}" if vm else prefix
            return Element(park, f"{label}@{name}", machine=name, vm_id=vm, kind=kind)

        self._stack = [make(prefix, kind) for prefix, kind in _SHARED_STACK]
        self._guest: List[Element] = []
        for vm in self.vm_ids:
            self._stack.extend(make(p, k, vm) for p, k in _VM_STACK)
            self._guest.extend(make(p, k, vm) for p, k in _VM_GUEST)
        by_name = {e.name: e for e in self._stack}
        self.pnic_rx = by_name[f"pnic@{name}"]
        self.pnic_tx = by_name[f"pnic-tx@{name}"]

    def stack_elements(self) -> List[Element]:
        return list(self._stack)

    def all_elements(self) -> List[Element]:
        return self._stack + self._guest


class ReplayApp(Element):
    """A middlebox app's counters without the app: Algorithm 2's inputs.

    Exports the ``inBytes``/``inTime``/``outBytes``/``outTime`` aliases and
    ``capacity_bps`` exactly like :class:`repro.middleboxes.base.App`.
    """

    def __init__(self, park: Simulator, name: str, machine: str, vm_id: str,
                 capacity_bps: float) -> None:
        super().__init__(park, name, machine=machine, vm_id=vm_id, kind=KIND_MIDDLEBOX)
        self.capacity_bps = capacity_bps

    def snapshot(self) -> Dict[str, float]:
        snap = super().snapshot()
        snap["inBytes"] = snap["rx_bytes"]
        snap["inTime"] = snap["in_time"]
        snap["outBytes"] = snap["tx_bytes"]
        snap["outTime"] = snap["out_time"]
        snap["capacity_bps"] = self.capacity_bps
        return snap


@dataclass
class Fault:
    """One row of the injected ground truth, plus what the oracle saw.

    ``kind`` is ``drop`` (Table-1 row ``row`` on ``machine``), ``chain``
    (tenant ``tenant``'s middlebox ``root`` made the Algorithm-2 root cause
    with ``label``), ``partition`` (agent server of ``machine`` cut off) or
    a simulated-dataplane fault (``spike``/``slow``).  Active on rounds
    ``start <= r < end``.
    """

    id: int
    kind: str
    machine: str
    start: int
    end: int
    row: str = ""
    tenant: str = ""
    root: str = ""
    label: str = ""
    #: Filled while running.
    bump_wall: Optional[float] = None
    bump_round: Optional[int] = None
    verdict_wall: Optional[float] = None
    verdict_round: Optional[int] = None

    def active(self, round_no: int) -> bool:
        return self.start <= round_no < self.end


@dataclass
class Chain:
    """One tenant's 3-middlebox chain on replay apps (upstream first)."""

    tenant: str
    apps: List[ReplayApp]
    names: List[str] = field(default_factory=list)


class Dataplane:
    """The load generator: bumps every element's counters once per epoch.

    An epoch is one window of simulated time; ``bump`` is scheduled inside
    the simulator (mid-window, between two agent sweeps) so Algorithm 1's
    begin/advance/finish brackets see the growth *inside* their window.
    Magnitudes are ``base(seed, machine, element) + jitter(seed, machine,
    element, epoch)``; drop faults add a surge at the faulted element of
    which most is dropped at the row's location, sized so the machine-wide
    loss rate clears ``DetectorConfig.loss_rate_threshold`` (0.05) with
    margin.  ``round_no`` is set by the driver; faults are keyed on it.
    """

    PKT_BYTES = 800.0

    def __init__(self, seed: int, machines: Sequence[ReplayMachine],
                 chains: Sequence[Chain] = (), window_s: float = 0.25) -> None:
        self.seed = seed
        self.window_s = window_s
        self.epoch = 0
        self.round_no = 0
        #: Set by the driver around Algorithm-2 windows: only the chain
        #: apps move during them, the stacks idle (and dedup in the store).
        self.apps_only = False
        #: Set on the traced run so the generator's own cost is a span.
        self.tracer: Optional[Tracer] = None
        #: What stamps a fault's first bump (the world's program clock).
        self.clock: Callable[[], float] = time.perf_counter
        self.faults: List[Fault] = []
        self.machines = {m.name: m for m in machines}
        #: Per machine, per element: (name, counters, base packets an epoch).
        self._rows: List[List[Tuple[str, CounterSet, int]]] = []
        for mi, machine in enumerate(machines):
            self._rows.append([
                (e.name, e.counters, 800 + mix(seed, mi, ei) % 400)
                for ei, e in enumerate(machine.all_elements())
            ])
        self._elements = {
            e.name: e for m in machines for e in m.all_elements()
        }
        self.chains = list(chains)
        #: Ground truth the oracle checks Figure-6 reads against:
        #: element id -> (pkts, bytes) bumped in the latest epoch.
        self.last_bump: Dict[str, Tuple[float, float]] = {}
        #: element id -> packets dropped there in the latest full epoch.
        self.last_loss: Dict[str, float] = {}
        #: Cumulative (bytes, lost packets) after each full epoch, for the
        #: elements :meth:`track` named: the truth behind historical reads.
        self.history: Dict[str, List[Tuple[float, float]]] = {}

    def track(self, element_ids: Sequence[str]) -> None:
        for eid in element_ids:
            self.history.setdefault(eid, [])

    def schedule(self, sim: Simulator, offset_s: float) -> None:
        sim.schedule_every(self.window_s, self._fire, start=sim.now + offset_s)

    def _fire(self) -> None:
        with maybe_span(self.tracer, LOADGEN):
            self.bump()

    # -- the epoch ---------------------------------------------------------------

    def bump(self) -> None:
        epoch = self.epoch
        self.epoch = epoch + 1
        seed = self.seed
        size = self.PKT_BYTES
        last = self.last_bump
        if not self.apps_only:
            self.last_loss.clear()
        for mi, row in enumerate(() if self.apps_only else self._rows):
            h = mix(seed, mi, epoch)
            for ei, (name, counters, base) in enumerate(row):
                pkts = float(base + ((h >> (ei & 31)) & 255))
                nbytes = pkts * size
                counters.count_rx(pkts, nbytes)
                counters.count_tx(pkts, nbytes)
                last[name] = (pkts, nbytes)
        active = [f for f in self.faults if f.active(self.round_no)]
        for fault in active:
            if fault.kind == "drop" and not self.apps_only:
                self._drop(fault, epoch)
                if fault.bump_wall is None:
                    fault.bump_wall = self.clock()
                    fault.bump_round = self.round_no
        if not self.apps_only:
            for eid, totals in self.history.items():
                nbytes, lost = totals[-1] if totals else (0.0, 0.0)
                totals.append(
                    (nbytes + last[eid][1], lost + self.last_loss.get(eid, 0.0))
                )
        if self.chains:
            blamed = {
                f.tenant: f for f in active if f.kind == "chain"
            }
            for chain in self.chains:
                fault = blamed.get(chain.tenant)
                self._chain(chain, fault, epoch)
                if fault is not None and fault.bump_wall is None:
                    fault.bump_wall = self.clock()
                    fault.bump_round = self.round_no

    def _drop(self, fault: Fault, epoch: int) -> None:
        machine = self.machines[fault.machine]
        elem_t, loc_t = DROP_ROWS[fault.row]
        vms = machine.vm_ids if "{vm}" in elem_t else [""]
        for vi, vm in enumerate(vms):
            element = self._elements[elem_t.format(m=machine.name, vm=vm)]
            surge = 6000.0 + float(mix(self.seed, fault.id, vi, epoch) % 2000)
            dropped = surge * (0.6 + 0.2 * unit(self.seed, fault.id, vi))
            c = element.counters
            c.count_rx(surge, surge * self.PKT_BYTES)
            c.count_drop(loc_t.format(vm=vm), dropped, dropped * self.PKT_BYTES)
            c.count_tx(surge - dropped, (surge - dropped) * self.PKT_BYTES)
            self.last_loss[element.name] = dropped
            pkts, nbytes = self.last_bump[element.name]
            self.last_bump[element.name] = (
                pkts + surge, nbytes + surge * self.PKT_BYTES
            )
        if fault.row == "tun_all":
            machine.cpu.last_utilization = 0.97

    def _chain(self, chain: Chain, fault: Optional[Fault], epoch: int) -> None:
        """Bump one chain's apps into the Read/WriteBlocked pattern.

        Healthy: every app moves ~half its vNIC capacity with I/O time
        well under ``bytes / C``.  A slow root throttles everything
        upstream (WriteBlocked) and starves everything downstream
        (ReadBlocked) while staying unblocked itself, so Algorithm 2's
        elimination leaves exactly it -- labelled ``overloaded`` when it
        has a WriteBlocked predecessor, ``underloaded`` when it heads the
        chain.
        """
        w = self.window_s
        root_i = chain.names.index(fault.root) if fault is not None else -1
        for i, app in enumerate(chain.apps):
            cap = app.capacity_bps
            jitter = 0.9 + 0.2 * unit(self.seed, epoch, i, len(chain.tenant))
            write_blocked = fault is not None and i < root_i
            read_blocked = fault is not None and i > root_i
            load = 0.2 if (read_blocked or write_blocked or i == root_i) else 0.5
            nbytes = load * jitter * cap * w / 8.0
            fast = nbytes * 8.0 / (4.0 * cap)
            slow = 0.8 * w
            c = app.counters
            c.count_rx(nbytes / 1500.0, nbytes)
            c.count_tx(nbytes / 1500.0, nbytes)
            c.count_in_time(slow if read_blocked else fast, nbytes / 1500.0)
            c.count_out_time(slow if write_blocked else fast, nbytes / 1500.0)

    def settle(self) -> None:
        """Undo gauge side effects of faults that ended (between rounds)."""
        busy = {
            f.machine for f in self.faults
            if f.kind == "drop" and f.row == "tun_all" and f.active(self.round_no)
        }
        for name, machine in self.machines.items():
            if name not in busy:
                machine.cpu.last_utilization = 0.3
