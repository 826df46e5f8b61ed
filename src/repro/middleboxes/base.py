"""App base classes: the read/process/write loop with I/O-time accounting.

The accounting implements Section 5.2 exactly.  Within one tick of
duration ``D`` the app handles ``n`` input bytes producing ``n_out``
output bytes.  Wall time splits into

* ``t_memcpy_in  = n / C_mem``         (the input copies)
* ``t_memcpy_out = n_out / C_mem``     (the output copies)
* ``t_proc``                           (CPU work, stretched by the vCPU
  share the scheduler actually gave us)
* leftover = ``D`` minus the above, attributed to *input blocking* when
  the binding constraint was an empty socket, to *output blocking* when
  it was a closed window / full TX queue, and to processing when the app
  itself was the bottleneck.

From these, ``b_in/t_in < C`` defines ReadBlocked and
``b_out/t_out < C`` defines WriteBlocked (C = vNIC capacity), the states
Algorithm 2 consumes.

Apps are elements of kind ``middlebox``: their counters are served
through the middlebox-socket agent channel, and — when time counters are
enabled — every instrumented read/write call charges the measured
0.29 us update cost against the VM's vCPU (Section 7.4).
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.core.counters import CounterOverheadModel
from repro.simnet.element import Element, KIND_MIDDLEBOX
from repro.simnet.engine import SimError, Simulator
from repro.transport.tcp import Connection
from repro.transport.udp import UdpStream

_EPS = 1e-9
_INF = float("inf")
#: Relative tolerance for binding-constraint detection.
_REL = 1e-9


class OutputPort:
    """One app output: a TCP connection or UDP stream plus its ratio.

    ``ratio`` scales output bytes per processed input byte (1.0 for a
    proxy, ~0.1 for a content filter's log stream, <1 for a compressor).
    ``weight`` sets this port's share when the app *splits* input across
    ports (a load balancer); ignored for duplicate-style outputs.
    """

    def __init__(
        self,
        stream: Union[Connection, UdpStream],
        ratio: float = 1.0,
        weight: float = 1.0,
        name: str = "",
    ) -> None:
        if ratio < 0:
            raise SimError(f"output ratio must be >= 0: {ratio!r}")
        if weight <= 0:
            raise SimError(f"output weight must be positive: {weight!r}")
        self.stream = stream
        self.ratio = ratio
        self.weight = weight
        self.name = name or getattr(stream, "conn_id", "") or "out"

    def writable_bytes(self) -> float:
        if isinstance(self.stream, Connection):
            return self.stream.app_writable_bytes()
        return self.stream.writable_bytes()

    def write(self, nbytes: float) -> float:
        if nbytes <= 0:
            return 0.0
        if isinstance(self.stream, Connection):
            return self.stream.write(nbytes)
        return self.stream.send_bytes(nbytes)


class App(Element):
    """Base middlebox application living in a VM.

    Parameters
    ----------
    vm:
        The hosting :class:`~repro.dataplane.vm.VM`.
    cpu_per_byte / cpu_per_pkt:
        Processing cost; defines the app's throughput capacity given its
        vCPU share.  ``cpu_per_pkt`` is charged per nominal packet
        (``io_unit_bytes``).
    io_unit_bytes:
        Bytes moved per instrumented read/write call — the syscall
        granularity that sets how many time-counter updates a byte stream
        causes (packet-sized for packet-at-a-time boxes).
    overhead:
        Counter cost model; pass ``CounterOverheadModel.disabled()`` (or
        ``enabled_time=False``) for the uninstrumented arms of Table 2 /
        Figure 15.
    """

    def __init__(
        self,
        sim: Simulator,
        vm,
        name: str,
        cpu_per_byte: float = 0.0,
        cpu_per_pkt: float = 0.0,
        io_unit_bytes: float = 1500.0,
        syscall_s: float = 2e-6,
        sock_bytes: Optional[float] = None,
        overhead: Optional[CounterOverheadModel] = None,
        mb_type: str = "middlebox",
    ) -> None:
        super().__init__(
            sim,
            name,
            machine=vm.machine_name,
            vm_id=vm.vm_id,
            kind=KIND_MIDDLEBOX,
            overhead=overhead,
        )
        self.vm = vm
        self.mb_type = mb_type
        self.cpu_per_byte = cpu_per_byte
        self.cpu_per_pkt = cpu_per_pkt
        self.io_unit_bytes = io_unit_bytes
        #: Fixed kernel-crossing cost per instrumented read/write call;
        #: part of measured I/O time (it happens inside the call) but not
        #: a separate throughput constraint (it is already inside the
        #: app's per-packet CPU cost).
        self.syscall_s = syscall_s
        self.memcpy_bps = vm.params.memcpy_bytes_per_s
        self.socket = vm.new_socket(name, capacity_bytes=sock_bytes)
        self.own_buffer(self.socket.buffer)
        self.outputs: List[OutputPort] = []
        #: Performance-bug knob: effective processing capacity is divided
        #: by this factor (fault injection raises it; see workloads.faults).
        self.slowdown = 1.0
        # Tick-scoped scratch.
        self._grant = 0.0
        self._demand_requested = 0.0

    # -- wiring ----------------------------------------------------------------------

    def add_output(self, port: OutputPort) -> OutputPort:
        self.outputs.append(port)
        return port

    # -- cost helpers ---------------------------------------------------------------------

    def _cpu_cost(self, nbytes: float) -> float:
        if nbytes == _INF:
            # Unbounded intent (best-effort source); avoid 0*inf = nan.
            return _INF if self._cpu_cost(1.0) > 0 else 0.0
        per_pkt = self.cpu_per_pkt * (nbytes / self.io_unit_bytes)
        return (self.cpu_per_byte * nbytes + per_pkt) * self.slowdown

    def _bytes_for_cpu(self, cpu_s: float) -> float:
        unit = self._cpu_cost(1.0)
        if unit <= 0:
            return _INF
        return cpu_s / unit

    def _io_calls(self, nbytes: float) -> float:
        return nbytes / self.io_unit_bytes if self.io_unit_bytes > 0 else 0.0

    def _wall_proc_time(self, cpu_used: float, cpu_bound: bool, tick: float) -> float:
        """Wall-clock processing time for ``cpu_used`` CPU-seconds.

        A CPU-bound app is busy for whatever part of the tick is not I/O;
        an unconstrained app runs at its native single-thread speed
        (capped by a fractional vCPU allocation).
        """
        if cpu_bound:
            return tick
        speed = min(1.0, self.vm.vcpu.capacity_per_s)
        if speed <= 0:
            return tick
        return min(tick, cpu_used / speed)

    # -- per-tick protocol -----------------------------------------------------------------

    def begin_tick(self, sim: Simulator) -> None:
        self._overhead_owed_s += self.counters.drain_update_cost()
        demand = self._cpu_demand(sim) + self._overhead_owed_s
        self._demand_requested = demand
        # An app cannot burn more than a whole vCPU-tick of CPU.
        demand = min(demand, self.vm.vcpu.capacity_per_s * sim.tick)
        if demand > 0:
            self.vm.vcpu.request(self.name, demand, weight=1.0)

    def _cpu_demand(self, sim: Simulator) -> float:
        """CPU the app would use this tick if nothing blocked it."""
        return self._cpu_cost(self.socket.ready_bytes)

    def process_tick(self, sim: Simulator) -> None:
        grant = self.vm.vcpu.grant(self.name)
        pay = min(grant, self._overhead_owed_s)
        grant -= pay
        self._overhead_owed_s -= pay
        self._grant = grant
        self.run_app(sim, grant)

    # -- the app loop (override in role subclasses) -------------------------------------------

    def run_app(self, sim: Simulator, cpu_grant: float) -> None:
        """Default relay loop: socket -> process -> outputs."""
        tick = sim.tick
        ready = self.socket.ready_bytes
        proc_cap = self._bytes_for_cpu(cpu_grant)
        avail = max(0.0, min(ready, proc_cap))

        takes = self._plan_outputs(avail)
        n = sum(t for _, t in takes) if self.outputs else avail

        # Move the data.
        read_bytes = 0.0
        if n > 0:
            for batch in self.socket.read(n):
                read_bytes += batch.nbytes
            self.counters.count_rx(self._io_calls(read_bytes), read_bytes)
        written = self._write_outputs(read_bytes, n, takes)
        self._count_written(written)

        # Time accounting.
        t_memcpy_in = read_bytes / self.memcpy_bps
        t_memcpy_out = written / self.memcpy_bps
        cpu_used = self._cpu_cost(read_bytes)
        # Which constraint bound this tick's work?
        output_bound = bool(self.outputs) and n < avail - _REL * max(avail, 1.0)
        cpu_bound = (not output_bound) and proc_cap < ready - _REL * max(ready, 1.0)
        t_proc = self._wall_proc_time(cpu_used, cpu_bound, tick)
        t_sys_in = self._io_calls(read_bytes) * self.syscall_s
        t_sys_out = self._io_calls(written) * self.syscall_s
        leftover = max(
            0.0, tick - t_memcpy_in - t_memcpy_out - t_proc - t_sys_in - t_sys_out
        )

        block_in = block_out = 0.0
        if output_bound:
            block_out = leftover
        elif not cpu_bound:
            # Finished all available input with CPU to spare: the next
            # read would block.
            block_in = leftover
        # else: CPU-bound; leftover is processing time (no block).

        calls_in = self._io_calls(read_bytes) + (1.0 if block_in > 0 else 0.0)
        calls_out = self._io_calls(written) + (1.0 if block_out > 0 else 0.0)
        if read_bytes > 0 or block_in > 0:
            self.counters.count_in_time(
                t_memcpy_in + block_in + t_sys_in, calls=calls_in
            )
        if written > 0 or block_out > 0:
            self.counters.count_out_time(
                t_memcpy_out + block_out + t_sys_out, calls=calls_out
            )

    #: Output coupling: "split" partitions input across ports by weight
    #: (load balancer); "duplicate" writes every processed byte to every
    #: port scaled by its ratio (content filter forwarding + logging), so
    #: one blocked port stalls the whole app.
    coupling = "split"

    def _plan_outputs(self, avail: float):
        """Plan per-port input shares; returns ``[(port, input_bytes)]``."""
        if not self.outputs:
            return []
        if self.coupling == "duplicate":
            n = avail
            for port in self.outputs:
                if port.ratio > 0:
                    n = min(n, port.writable_bytes() / port.ratio)
            # Every port sees the same n input bytes; report the chainwide
            # take on the first port and zero on the rest so the total
            # equals processable input.
            takes = [(self.outputs[0], n)]
            takes.extend((port, 0.0) for port in self.outputs[1:])
            return takes
        wsum = sum(p.weight for p in self.outputs)
        takes = []
        for port in self.outputs:
            share = avail * port.weight / wsum
            cap = (
                port.writable_bytes() / port.ratio if port.ratio > 0 else _INF
            )
            takes.append((port, min(share, cap)))
        return takes

    def _write_outputs(self, read_bytes: float, planned: float, takes) -> float:
        """Write processed bytes to ports; returns total bytes written."""
        if not self.outputs or read_bytes <= 0 or planned <= 0:
            return 0.0
        written = 0.0
        if self.coupling == "duplicate":
            for port in self.outputs:
                written += port.write(read_bytes * port.ratio)
            return written
        scale = read_bytes / planned
        for port, take in takes:
            written += port.write(take * scale * port.ratio)
        return written

    # -- agent-facing -----------------------------------------------------------------------

    def snapshot(self):
        snap = super().snapshot()
        snap["inBytes"] = snap["rx_bytes"]
        snap["inTime"] = snap["in_time"]
        snap["outBytes"] = snap["tx_bytes"]
        snap["outTime"] = snap["out_time"]
        if self.vm.vnic_bps is not None:
            snap["capacity_bps"] = self.vm.vnic_bps
        snap["sock_ready_bytes"] = self.socket.ready_bytes
        return snap

    def _count_written(self, nbytes: float) -> None:
        if nbytes > 0:
            self.counters.count_tx(self._io_calls(nbytes), nbytes)


class RelayApp(App):
    """A middlebox that forwards (possibly transformed) traffic.

    Identical to :class:`App`'s default loop; exists as the explicit role
    name alongside :class:`SourceApp` and :class:`SinkApp`.
    """


class SourceApp(App):
    """Generates traffic (an HTTP client POSTing, a sender VM, ...).

    ``rate_bps=None`` means best-effort: write as fast as the window and
    TX queue allow (the "as fast as possible" client of Figure 12(b)).
    """

    def __init__(self, sim, vm, name, rate_bps: Optional[float] = None, **kw) -> None:
        kw.setdefault("mb_type", "client")
        super().__init__(sim, vm, name, **kw)
        self.rate_bps = rate_bps
        self.total_offered_bytes = 0.0

    def _cpu_demand(self, sim: Simulator) -> float:
        want = self._tick_want(sim)
        return self._cpu_cost(want)

    def _tick_want(self, sim: Simulator) -> float:
        # Best-effort sources want "everything": the binding constraint is
        # then either their own CPU (proc-bound) or the output windows
        # (WriteBlocked) — never the intent, so blocking is visible.
        if self.rate_bps is None:
            return _INF
        return self.rate_bps / 8.0 * sim.tick

    def run_app(self, sim: Simulator, cpu_grant: float) -> None:
        tick = sim.tick
        want = self._tick_want(sim)
        if self.rate_bps is not None:
            self.total_offered_bytes += want
        proc_cap = self._bytes_for_cpu(cpu_grant)
        avail = max(0.0, min(want, proc_cap))
        takes = self._plan_outputs(avail)
        n = sum(t for _, t in takes) if self.outputs else 0.0
        written = self._write_outputs(n, n, takes)
        self._count_written(written)

        t_memcpy_out = written / self.memcpy_bps
        cpu_used = self._cpu_cost(n)
        output_bound = n < avail - _REL * max(avail if avail != _INF else n + 1.0, 1.0)
        cpu_bound = (not output_bound) and proc_cap < want - _REL * max(min(want, 1e18), 1.0)
        t_proc = self._wall_proc_time(cpu_used, cpu_bound, tick)
        t_sys = self._io_calls(written) * self.syscall_s
        leftover = max(0.0, tick - t_memcpy_out - t_proc - t_sys)
        block_out = 0.0
        if output_bound:
            # Window/TX-queue limited (not our own CPU).
            block_out = leftover
        calls = self._io_calls(written) + (1.0 if block_out > 0 else 0.0)
        if written > 0 or block_out > 0:
            self.counters.count_out_time(t_memcpy_out + block_out + t_sys, calls=calls)


class SinkApp(App):
    """Consumes traffic (an HTTP server, an NFS server, ...)."""

    def __init__(self, sim, vm, name, **kw) -> None:
        kw.setdefault("mb_type", "server")
        super().__init__(sim, vm, name, **kw)
        self.total_consumed_bytes = 0.0

    def run_app(self, sim: Simulator, cpu_grant: float) -> None:
        tick = sim.tick
        ready = self.socket.ready_bytes
        proc_cap = self._bytes_for_cpu(cpu_grant)
        n = max(0.0, min(ready, proc_cap))
        read_bytes = 0.0
        if n > 0:
            for batch in self.socket.read(n):
                read_bytes += batch.nbytes
            self.counters.count_rx(self._io_calls(read_bytes), read_bytes)
            self.total_consumed_bytes += read_bytes

        t_memcpy_in = read_bytes / self.memcpy_bps
        cpu_used = self._cpu_cost(read_bytes)
        cpu_bound = proc_cap < ready - _REL * max(ready, 1.0)
        t_proc = self._wall_proc_time(cpu_used, cpu_bound, tick)
        t_sys = self._io_calls(read_bytes) * self.syscall_s
        leftover = max(0.0, tick - t_memcpy_in - t_proc - t_sys)
        block_in = 0.0
        if not cpu_bound:
            # Drained everything offered with CPU to spare: reads block.
            block_in = leftover
        calls = self._io_calls(read_bytes) + (1.0 if block_in > 0 else 0.0)
        if read_bytes > 0 or block_in > 0:
            self.counters.count_in_time(t_memcpy_in + block_in + t_sys, calls=calls)
