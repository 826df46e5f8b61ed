"""The per-server PerfSight agent (Section 4.2).

One agent runs on each physical server.  It discovers the machine's
dataplane elements (plus any registered middlebox apps), owns one
collection channel per element, and normalizes counters into the
unified :class:`StatRecord` format.

Collection is streaming: the agent sweeps every channel on a cadence
(:meth:`start_polling`, or implicitly when a collector pulls through)
and appends typed snapshots to its :class:`TimeSeriesStore`; the
controller drains only the rows that changed since its last
acknowledged sequence numbers, as columnar ``SeriesBlock``s
(:meth:`collect_blocks`) — the one delta shape, pulled or pushed.  The
legacy per-query pull path (:meth:`query`) remains for tests and tools that
need synchronous pull semantics.

The agent keeps its own bookkeeping — reads per channel, simulated
response latency, CPU consumed — because the paper evaluates exactly
those: Figure 9 (response time per channel type) and Figure 16 (CPU
usage as a function of poll frequency).
"""

from __future__ import annotations

import math
import threading
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
)

from repro import obs
from repro.core.channels import Channel, ChannelError, ChannelTimeout
from repro.core.records import StatRecord
from repro.core.store import SeriesBlock, TimeSeriesStore
from repro.simnet.element import Element
from repro.simnet.engine import PeriodicHandle, Simulator

#: Default sweep cadence when polling is enabled without a period.  10 Hz
#: is the rate the diagnostics need (Figure 16 shows it costs < 0.5% CPU).
DEFAULT_POLL_PERIOD_S = 0.1

#: Default push cadence: each tick ships only if something changed, so
#: pushing faster than the poll sweep just re-checks an empty delta.
DEFAULT_PUSH_PERIOD_S = 0.1

#: Consecutive failed pushes before the agent asks its resolver (when
#: it has one) whether shard ownership moved.  Matches the root's
#: default dead_after: by the time the agent gives up on its zone, the
#: root has usually failed it over.
DEFAULT_REHOME_AFTER = 3

#: Backoff schedule for a failing push target — created lazily because
#: :class:`~repro.core.net.client.RetryPolicy` lives in the net package
#: and the net server imports this module.  Only ``backoff_s`` is used
#: (the push loop owns its own cadence, there is no retry budget to
#: exhaust — the delta simply stays pending).
_DEFAULT_PUSH_RETRY = None


def _default_push_retry():
    global _DEFAULT_PUSH_RETRY
    if _DEFAULT_PUSH_RETRY is None:
        from repro.core.net.client import RetryPolicy

        _DEFAULT_PUSH_RETRY = RetryPolicy(max_attempts=1)
    return _DEFAULT_PUSH_RETRY


#: The one per-agent metric family.  It is written only when a push
#: fails and when the streak resets, never per sweep or per successful
#: push, so a fleet-sized ``agent`` label stays off the hot path (see
#: the cardinality rule in DESIGN.md).
PUSH_FAILURES_METRIC = "perfsight_push_consecutive_failures"


class PushTarget(Protocol):
    """Where an agent ships its delta blocks — the zone tier.

    Satisfied in-process by
    :meth:`repro.core.controller.ZoneController.ingest_push` and over
    the wire by the TCP client's push surface.
    """

    def ingest_push(
        self,
        machine_name: str,
        blocks: List[SeriesBlock],
        cursor: Optional[Dict[str, int]] = None,
        trace: Optional[Dict[str, str]] = None,
    ) -> int: ...


class Agent:
    """Statistics collector for one physical server."""

    def __init__(self, sim: Simulator, machine, name: Optional[str] = None) -> None:
        self.sim = sim
        self.machine = machine
        self.name = name if name is not None else f"agent@{machine.name}"
        self._extra: Dict[str, Element] = {}
        self._channels: Dict[str, Channel] = {}
        # (machine walk, len(_extra), plan) of the last sweep-plan build;
        # one attribute so a concurrent reader swaps it in atomically.
        self._sweep_cache: Optional[
            Tuple[List[Element], int, Dict[str, Tuple[Channel, float]]]
        ] = None
        # Sweeps serialize against each other (two interleaved sweeps
        # would double-charge CPU and race the per-poll accounting), but
        # NOT against queries or store readers — the store has its own
        # lock, so read-only ops run beside an in-flight sweep.
        self._sweep_lock = threading.Lock()
        # Channel creation is the one structural mutation shared by the
        # read paths; double-checked so the hot path stays lock-free.
        self._channels_lock = threading.Lock()
        self.store = TimeSeriesStore()
        self.total_cpu_s = 0.0
        self.total_queries = 0
        self.total_polls = 0
        self.total_poll_errors = 0
        self.total_poll_timeouts = 0
        self._poll_handle: Optional[PeriodicHandle] = None
        self.poll_period_s: Optional[float] = None
        # Push-on-change state: the zone target, the agent-side ack
        # cursor (what the zone has confirmed received), and counters.
        self._push_handle: Optional[PeriodicHandle] = None
        self._push_target: Optional[PushTarget] = None
        self._push_acked: Dict[str, int] = {}
        self.push_period_s: Optional[float] = None
        self.total_pushes = 0
        self.total_push_skips = 0
        self.total_push_errors = 0
        self.total_pushed_rows = 0
        # Self-healing push state: exponential backoff against a dead
        # target, and the resolver that re-homes the agent when the
        # root has reassigned its shard.
        self._push_retry = None  # lazily _default_push_retry()
        self._push_resolver: Optional[
            Callable[[str], Optional[PushTarget]]
        ] = None
        self._rehome_after = DEFAULT_REHOME_AFTER
        self._push_backoff_until = 0.0
        self.push_consecutive_failures = 0
        self.total_push_backoff_skips = 0
        self.total_rehomes = 0

    # -- element discovery -------------------------------------------------------

    def register(self, element: Element) -> None:
        """Register an element the machine walk cannot find (an app)."""
        if element.name in self._extra:
            raise ValueError(f"element {element.name!r} already registered")
        for served in self.machine.all_elements():
            # Shadowing it would split the name: elements() would answer
            # with the newcomer while a channel already opened under the
            # name kept reading the machine's own element.
            if served.name == element.name:
                raise ValueError(
                    f"cannot register {element!r}: machine {self.machine.name!r} "
                    f"already serves {served!r} under that name"
                )
        self._extra[element.name] = element

    def elements(self) -> Dict[str, Element]:
        """All elements this agent serves, keyed by element id."""
        found = {e.name: e for e in self.machine.all_elements()}
        found.update(self._extra)
        return found

    def _sweep_plan(self) -> Dict[str, Tuple[Channel, float]]:
        """``{element id: (channel, cpu cost of one read)}`` in sweep order.

        The machine is re-walked on every call, so a VM or app added
        since the last sweep is picked up; the sorted plan behind it is
        only rebuilt when that walk (compared element by element, by
        identity) or the registered extras changed.
        """
        walk = self.machine.all_elements()
        cache = self._sweep_cache
        if cache is not None and cache[1] == len(self._extra) and cache[0] == walk:
            return cache[2]
        n_extra = len(self._extra)
        elements = {e.name: e for e in walk}
        elements.update(self._extra)
        plan = {}
        for eid in sorted(elements):
            chan = self._channel(elements[eid])
            plan[eid] = (chan, chan.spec.cpu_cost_s)
        self._sweep_cache = (walk, n_extra, plan)
        return plan

    def host_stats(self) -> "StatRecord":
        """Machine-level utilization gauges as a synthetic record.

        Section 5.1: when the rule book returns an ambiguous verdict
        (CPU vs memory bandwidth both drop at the TUNs), "the operator
        can combine this with other symptoms such as CPU utilization and
        NIC throughput to distinguish the specific root cause" — these
        are those other symptoms.
        """
        machine = self.machine
        attrs = {
            "cpu_utilization": machine.cpu.last_utilization,
            "membus_utilization": machine.membus.last_utilization,
            "nic_rx_bytes": machine.pnic_rx.counters.rx_bytes,
            "nic_tx_bytes": machine.pnic_tx.counters.tx_bytes,
        }
        return StatRecord(self.sim.now, f"host@{machine.name}", attrs, machine.name)

    def element_ids(self) -> List[str]:
        return list(self._sweep_plan())

    def _channel(self, element: Element) -> Channel:
        chan = self._channels.get(element.name)
        if chan is None:
            with self._channels_lock:
                chan = self._channels.get(element.name)
                if chan is None:
                    chan = self._channels[element.name] = Channel(
                        element, self.sim.rng
                    )
        return chan

    def channel(self, element_id: str) -> Channel:
        """The collection channel for one element (created on demand).

        Public so fault-injection helpers can degrade specific access
        paths (:func:`repro.workloads.faults.inject_channel_faults`).
        """
        entry = self._sweep_plan().get(element_id)
        if entry is None:
            raise KeyError(f"agent {self.name!r} has no element {element_id!r}")
        return entry[0]

    # -- queries ---------------------------------------------------------------------

    def query(
        self,
        element_ids: Optional[Iterable[str]] = None,
        attrs: Optional[Iterable[str]] = None,
    ) -> List[StatRecord]:
        """Pull counters; unknown element ids raise KeyError."""
        records, _ = self.query_timed(element_ids, attrs)
        return records

    def query_timed(
        self,
        element_ids: Optional[Iterable[str]] = None,
        attrs: Optional[Iterable[str]] = None,
    ) -> Tuple[List[StatRecord], float]:
        """Like :meth:`query` but also returns the simulated latency.

        Channel reads happen concurrently in the real agent (independent
        file descriptors), so the query latency is the max across the
        touched channels, not the sum.

        Unlike the streaming sweep (:meth:`poll_once`), this synchronous
        pull path propagates :class:`~repro.core.channels.ChannelFault`
        to the caller — a pull that cannot read its target has nothing
        to return.
        """
        elements = self.elements()
        if element_ids is None:
            targets = [elements[eid] for eid in sorted(elements)]
        else:
            targets = []
            for eid in element_ids:
                if eid not in elements:
                    raise KeyError(f"agent {self.name!r} has no element {eid!r}")
                targets.append(elements[eid])
        attr_list = list(attrs) if attrs is not None else None
        records: List[StatRecord] = []
        worst_latency = 0.0
        cpu = 0.0
        for element in targets:
            chan = self._channel(element)
            record, latency = chan.read(self.sim.now, attr_list)
            records.append(record)
            worst_latency = max(worst_latency, latency)
            cpu += chan.spec.cpu_cost_s
        self.total_cpu_s += cpu
        self.total_queries += 1
        return records, worst_latency

    # -- streaming collection (snapshot -> store -> delta batch) -----------------------

    def poll_once(self) -> Tuple[int, float]:
        """Sweep every channel into the store; returns (stored, latency).

        One sweep costs exactly what one full-machine :meth:`query` costs
        (same channels, same latency draws, same CPU accounting), so the
        Figure 9/16 overhead model carries over unchanged.  Snapshots of
        elements whose state did not change are delta-compressed away by
        the store.

        A channel that errors or times out does not kill the sweep: the
        fault is counted (here and on the channel itself), its cost is
        still charged — a timed-out read wasted the full deadline — and
        the remaining channels are read normally.  The element simply
        contributes no fresh snapshot this sweep, which downstream
        consumers observe as staleness.
        """
        now = self.sim.now
        stored = 0
        worst_latency = 0.0
        cpu = 0.0
        with self._sweep_lock, obs.span("agent.sweep", agent=self.name) as sp:
            plan = self._sweep_plan()
            append = self.store.append
            for chan, cpu_cost_s in plan.values():
                # A failed read costs its CPU too (see above).
                cpu += cpu_cost_s
                try:
                    snap, latency = chan.read_versioned(now)
                except ChannelTimeout as exc:
                    self.total_poll_timeouts += 1
                    worst_latency = max(worst_latency, exc.latency_s)
                    continue
                except ChannelError:
                    self.total_poll_errors += 1
                    continue
                if append(snap):
                    stored += 1
                if latency > worst_latency:
                    worst_latency = latency
            self.total_cpu_s += cpu
            self.total_polls += 1
            sp.set("elements", len(plan))
            sp.set("stored", stored)
        return stored, worst_latency

    def start_polling(self, period_s: float = DEFAULT_POLL_PERIOD_S) -> PeriodicHandle:
        """Poll all channels every ``period_s`` simulated seconds.

        The first sweep happens immediately so the store is never empty
        while a poller is active.  Returns the cancel handle (also kept
        internally for :meth:`stop_polling`).
        """
        if period_s <= 0:
            raise ValueError(f"poll period must be positive: {period_s!r}")
        if self._poll_handle is not None and self._poll_handle.active:
            raise RuntimeError(f"agent {self.name!r} is already polling")
        self.poll_period_s = period_s
        self.poll_once()
        self._poll_handle = self.sim.schedule_every(period_s, self.poll_once)
        return self._poll_handle

    def set_poll_period(self, period_s: float) -> PeriodicHandle:
        """Retarget the sweep cadence in place (escalation tightening).

        The streaming daemon's escalation lever: a flagged machine's
        channels are swept faster while its incident is open, then the
        saved cadence is restored on de-escalation.  Works whether or
        not the agent is currently polling — a non-polling agent simply
        starts (so an escalated push-mode agent gets dense samples too).
        """
        if period_s <= 0:
            raise ValueError(f"poll period must be positive: {period_s!r}")
        if self._poll_handle is not None and self._poll_handle.active:
            self._poll_handle.cancel()
        self.poll_period_s = period_s
        self._poll_handle = self.sim.schedule_every(period_s, self.poll_once)
        return self._poll_handle

    def stop_polling(self) -> None:
        if self._poll_handle is not None:
            self._poll_handle.cancel()
            self._poll_handle = None
            self.poll_period_s = None

    @property
    def polling(self) -> bool:
        return self._poll_handle is not None and self._poll_handle.active

    # -- push-on-change (agent -> zone) ------------------------------------------------

    def start_pushing(
        self,
        zone: PushTarget,
        period_s: Optional[float] = None,
        resolver: Optional[Callable[[str], Optional[PushTarget]]] = None,
        rehome_after: int = DEFAULT_REHOME_AFTER,
        retry: Optional["object"] = None,
    ) -> PeriodicHandle:
        """Push changed delta blocks to the zone tier on a cadence.

        Each tick reads :meth:`TimeSeriesStore.changed_blocks` against
        the agent's own ack cursor and ships **only when non-empty** —
        an idle machine costs the zone nothing.  The zone's poll path
        stays on as the fallback/catch-up mechanism: a push the network
        eats is re-shipped by the next push tick (the cursor only
        advances on success) or picked up by the next poll.

        Known limitation: the overlap is not harmless.  The push cursor
        and the poll's ack vector are separate, and the mirror dedups
        only against an element's latest sequence number, reading an
        older one as a producer restart.  So a push that replays rows a
        poll already delivered re-baselines that element's mirror
        series and drops its earlier history (``sim_chain`` in
        ``benchmarks/e2e`` counts 252 re-baselines with no restart).
        One cursor per (agent, mirror) is ROADMAP item 2.

        ``period_s`` defaults to :data:`DEFAULT_PUSH_PERIOD_S`; a
        non-finite or non-positive value raises ``ValueError`` (a
        non-number ``TypeError``) here, not later in the push thread.
        Returns the cancel handle (also kept for :meth:`stop_pushing`).

        Failure handling: consecutive failed pushes back the loop off
        exponentially (``retry.backoff_s`` with the simulator's RNG for
        jitter — ticks inside the backoff window skip without touching
        the network), and after ``rehome_after`` consecutive failures
        the optional ``resolver`` is asked which zone owns this machine
        now.  A resolver answering with a *different* target re-homes
        the agent: the cursor resets so the full retained history
        replays at the new zone's mirror.  An empty mirror takes it
        whole; one that already holds rows for an element (from a poll)
        re-baselines it on the first replayed row older than its
        newest: the mirror drops what it held for that element, coarse
        tiers included, and counts a restart that did not happen — the
        same limitation as above.
        """
        if period_s is None:
            period_s = DEFAULT_PUSH_PERIOD_S
        if not math.isfinite(period_s) or period_s <= 0:
            raise ValueError(f"push period must be positive: {period_s!r}")
        if rehome_after < 1:
            raise ValueError(f"rehome_after must be >= 1: {rehome_after!r}")
        if self._push_handle is not None and self._push_handle.active:
            raise RuntimeError(f"agent {self.name!r} is already pushing")
        self._push_target = zone
        self._push_resolver = resolver
        self._rehome_after = rehome_after
        self._push_retry = retry if retry is not None else _default_push_retry()
        self._push_backoff_until = 0.0
        self.push_consecutive_failures = 0
        self.push_period_s = period_s
        self.push_once()
        self._push_handle = self.sim.schedule_every(period_s, self.push_once)
        return self._push_handle

    def stop_pushing(self) -> None:
        if self._push_handle is not None:
            self._push_handle.cancel()
            self._push_handle = None
        self._push_target = None
        self._push_resolver = None
        self._push_backoff_until = 0.0
        self.push_consecutive_failures = 0
        self.push_period_s = None

    @property
    def pushing(self) -> bool:
        return self._push_handle is not None and self._push_handle.active

    def push_once(self) -> int:
        """One push tick; returns rows shipped (0 when nothing changed).

        Failures of the push path (zone unreachable, socket errors) are
        tolerated exactly like poll-path failures: counted, and the
        delta stays pending for the next tick or the poll fallback.
        Consecutive failures additionally open a jittered exponential
        backoff window — ticks inside it return without touching the
        network, so a dead zone is not hammered at the push cadence —
        and eventually trigger the re-homing consult (see
        :meth:`start_pushing`).
        """
        zone = self._push_target
        if zone is None:
            return 0
        if self.sim.now < self._push_backoff_until:
            self.total_push_backoff_skips += 1
            return 0
        if not self.polling:
            self.poll_once()
        blocks = self.store.changed_blocks(self._push_acked)
        if not blocks:
            self.total_push_skips += 1
            return 0
        cursor = self.store.cursor()
        rows = sum(len(block_rows) for _, _, _, block_rows in blocks)
        with obs.span("agent.push", agent=self.name, rows=rows) as sp:
            # The push span's context crosses to the zone tier exactly
            # like a pulled BATCH_DELTA's does, so push deliveries link
            # into the same trace tree as pulls (incident traces included).
            ctx = obs.current_trace()
            try:
                zone.ingest_push(
                    self.machine.name, blocks, cursor,
                    trace=ctx.to_wire() if ctx is not None else None,
                )
            except (ConnectionError, OSError) as exc:
                sp.set("error", repr(exc))
                self.total_push_errors += 1
                self.push_consecutive_failures += 1
                obs.gauge(
                    PUSH_FAILURES_METRIC,
                    float(self.push_consecutive_failures),
                    agent=self.name,
                )
                retry = self._push_retry or _default_push_retry()
                self._push_backoff_until = self.sim.now + retry.backoff_s(
                    self.push_consecutive_failures - 1, self.sim.rng
                )
                if (
                    self._push_resolver is not None
                    and self.push_consecutive_failures >= self._rehome_after
                ):
                    self._rehome()
                return 0
        self._push_acked = cursor
        if self.push_consecutive_failures:
            self.push_consecutive_failures = 0
            obs.gauge(PUSH_FAILURES_METRIC, 0.0, agent=self.name)
        self._push_backoff_until = 0.0
        self.total_pushes += 1
        self.total_pushed_rows += rows
        return rows

    def _rehome(self) -> None:
        """Ask the resolver who owns this machine now; switch if moved.

        The resolver (typically a closure over the fleet root's
        ``zone_for``) may itself be unreachable — that is tolerated and
        retried at the next failed push.  A same-target answer keeps
        the ack cursor (the zone is down but still ours; its mirror
        survives if it comes back).  A new target resets the cursor to
        empty: the new zone's mirror has none of our history, and the
        full replay is what guarantees zero lost rows — the mirror's
        per-sequence dedup guarantees zero duplicated ones.
        """
        resolver = self._push_resolver
        if resolver is None:
            return
        try:
            target = resolver(self.machine.name)
        except (ConnectionError, OSError, KeyError, RuntimeError):
            return
        if target is None or target is self._push_target:
            return
        self._push_target = target
        self._push_acked = {}
        self.push_consecutive_failures = 0
        self._push_backoff_until = 0.0
        self.total_rehomes += 1
        obs.gauge(PUSH_FAILURES_METRIC, 0.0, agent=self.name)
        obs.event("agent.rehomed", obs.WARNING, agent=self.name)

    def collect_blocks(
        self, acked: Optional[Mapping[str, int]] = None
    ) -> Tuple[List[SeriesBlock], Dict[str, int]]:
        """Rows newer than the collector's ack vector, plus the cursor.

        This is the agent half of the ``BATCH_DELTA`` exchange.  Without
        an active cadence poller the agent pulls through (one sweep) so
        on-demand collectors still observe current state; with a poller
        running the call only drains the store.

        The drain — changed blocks plus cursor — is one atomic store
        operation (:meth:`TimeSeriesStore.drain_blocks`), so a cadence
        sweep appending concurrently can never produce a cursor that
        acknowledges rows the batch does not carry.  The rows come out
        as per-element blocks whose value rows reference the store's
        flat arrays directly: no snapshot dicts are built between the
        store and the wire codec (or, for an in-process handle, between
        the store and the mirror's arrays).
        """
        if not self.polling:
            self.poll_once()
        return self.store.drain_blocks(acked if acked is not None else {})

    # -- overhead introspection (Figures 9 and 16) -------------------------------------

    def channel_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-element channel read counts / latency / CPU / faults."""
        out: Dict[str, Dict[str, float]] = {}
        for eid, chan in self._channels.items():
            out[eid] = {
                "reads": float(chan.reads),
                "total_latency_s": chan.total_latency_s,
                "total_cpu_s": chan.total_cpu_s,
                "errors": float(chan.errors),
                "timeouts": float(chan.timeouts),
                "stale_reads": float(chan.stale_reads),
            }
        return out

    def fault_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-element fault counts for channels that misbehaved at all."""
        out: Dict[str, Dict[str, int]] = {}
        for eid, chan in self._channels.items():
            if chan.errors or chan.timeouts or chan.stale_reads:
                out[eid] = {
                    "errors": chan.errors,
                    "timeouts": chan.timeouts,
                    "stale_reads": chan.stale_reads,
                }
        return out

    def poll_cpu_cost_s(self) -> float:
        """CPU cost of one full sweep over every element."""
        plan = self._sweep_plan()
        # Summed in walk order, as before the plan existed: the plan is
        # sorted, and float addition does not commute to the last bit.
        return sum(plan[eid][1] for eid in self.elements())

    def cpu_usage_at_frequency(self, hz: float, cores: float = 1.0) -> float:
        """Predicted agent CPU utilization polling all elements at ``hz``.

        This is the analytic form of the Figure 16 measurement: fraction
        of one core (or ``cores``) spent on counter collection.
        """
        if hz < 0:
            raise ValueError(f"frequency must be >= 0: {hz!r}")
        return self.poll_cpu_cost_s() * hz / cores
