"""The PerfSight controller (Section 4.3).

The controller sits between diagnostic applications and the per-server
agents.  It holds the tenant registry (``vNet[tenantID]``), resolves a
logical element to its physical location, and answers statistics
questions from a per-agent **mirror store**: a controller-side replica
of each agent's time-series store, kept current by delta-batched
``BATCH_DELTA`` exchanges that ship only counters changed since the
controller's last acknowledged sequence numbers.

Reads (``GetAttr`` and the other Figure-6 routines) are O(1) window
lookups against the mirror and issue no agent RPC.  Collection is the
separate, batched :meth:`ZoneController.refresh` step — called on a cadence
by long-running deployments, or explicitly by tests and tools that need
pull semantics.  Agents are reached through an ``AgentHandle`` —
in-process for simulations and tests, or the TCP client in
:mod:`repro.core.net` for the real split-process deployment — whose one
collection method, ``collect_blocks``, yields the changed rows as
columnar ``SeriesBlock``s that a mirror applies without building a dict.

The collection plane is failure-tolerant: a sync that cannot reach its
agent feeds the mirror's :class:`~repro.core.health.Liveness` record
instead of raising, and the controller keeps answering queries
from the (now aging) mirror.  Callers that care can ask for the
machine's :class:`~repro.core.health.DataQuality` annotation to learn
how trustworthy an answer is.

Every read that brackets a time advance (``QueryRunner``, Algorithms
1 and 2) is one split-phase observation: :meth:`ZoneController.open_window`,
the caller's advance, then :meth:`ZoneController.close_window`.

The collection plane is also *concurrent*: against a fleet, one slow or
dead agent must not stretch a refresh from max(RTT) to sum(RTT), so
:meth:`ZoneController.refresh_concurrent` fans the per-machine syncs
of remote (or otherwise blocking) handles out over a bounded worker
pool of ``ZoneController.max_workers``.  A machine served by an
in-process :class:`~repro.core.agent.Agent` is synced on the calling
thread instead: its work holds the GIL throughout, so a thread would
overlap nothing and only add hand-offs.  Each mirror carries its own
lock, so a fan-out worker and a lazy ``mirror_latest`` refresh never
interleave inside one mirror's sync; cross-mirror state (``store``,
``health``) is independently thread-safe.
:meth:`ZoneController.refresh_report` exposes the per-machine
breakdown, and :meth:`ZoneController.diagnose_fleet` runs Algorithm 1
across the whole fleet with the per-machine scans fanned out the same
way around a single shared window advance.

At fleet scale the flat design stops working: one process holding 500+
mirrors and polling 500+ agents per round is both a memory and a
wall-clock wall.  The control plane is therefore *hierarchical*:

* :class:`ZoneController` is the reusable mirror + refresh +
  Algorithm-1/2 tier — everything above — owning one consistent-hashed
  shard of machines (see :mod:`repro.core.sharding`).  It also accepts
  agent *pushes* (:meth:`ZoneController.ingest_push`) so agents ship
  deltas on change instead of waiting to be polled, and summarizes its
  shard into a :class:`~repro.core.diagnosis.report.ZoneReport` of
  per-machine scalars.  A flat deployment (tests, small labs) is one
  zone owning every machine.
* :class:`FleetController` is the root tier: it owns the hash ring,
  rebalances shard ownership on zone join/leave, and merges pushed
  zone reports into fleet roll-ups.  It never holds an agent handle or
  a mirror — per-machine time series stop at the zone tier.
"""

from __future__ import annotations

import contextvars
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    TypeVar,
)

from repro import obs
from repro.cluster.topology import Tenant, VirtualNetwork
from repro.core.agent import Agent
from repro.core.counters import CounterSnapshot, CounterWindow
from repro.core.health import (
    DEAD,
    HEALTHY,
    ZONE_LIVENESS_METRIC,
    ZONE_STATE_VALUES,
    DataQuality,
    Liveness,
    ZoneHealthPolicy,
)
from repro.core.net.client import AgentUnreachable, PeerRefused
from repro.core.net.protocol import ProtocolError
from repro.core.sharding import DEFAULT_REPLICAS, HashRing, moved_keys
from repro.core.store import SeriesBlock, StoreError, TimeSeriesStore
from repro.core.tiers import TieredWindowStore

#: Failures of the collection path — swallowed into health tracking,
#: one failed sync each.  A peer that answers but refuses the op (an
#: agent-side fault while serving it) is one of them.  Anything else (a
#: programming error on this side) still propagates.
COLLECTION_ERRORS = (
    AgentUnreachable, PeerRefused, ProtocolError, ConnectionError, OSError
)

#: Self-observability names.  Labels are ``zone`` (one value per zone
#: controller) and ``tier``; no family here takes a ``machine`` label.
#: Per-mirror and per-zone counts live on the objects themselves
#: (``AgentMirror.syncs``, ``ZoneRecord.reports_dropped``, ...).
FAILOVERS_METRIC = "perfsight_fleet_failovers_total"
ZONE_ACTIVE_METRIC = "perfsight_fleet_zone_active"
STORE_BYTES_METRIC = "perfsight_store_bytes"

T = TypeVar("T")

#: Where an element lives: ``(machine, element id)``.
Located = Tuple[str, str]

#: Default fan-out width for concurrent refresh / fleet diagnosis.
DEFAULT_MAX_WORKERS = 8


class AgentHandle(Protocol):
    """What the controller needs from an agent, local or remote."""

    name: str

    def element_ids(self) -> List[str]: ...

    def collect_blocks(
        self, acked: Optional[Dict[str, int]] = None
    ) -> Tuple[List[SeriesBlock], Dict[str, int]]: ...


class AgentMirror:
    """Controller-side replica of one agent's time-series store."""

    def __init__(
        self,
        machine: str,
        handle: AgentHandle,
        store: Optional[TimeSeriesStore] = None,
    ) -> None:
        self.machine = machine
        self.handle = handle
        # Tiered by default: the fine ring is byte-identical to a flat
        # store's (so every verdict path is unchanged) while evicted
        # history coarsens into bounded tiers instead of vanishing.
        self.store = store if store is not None else TieredWindowStore()
        self.acked: Dict[str, int] = {}
        self.syncs = 0
        self.failed_syncs = 0
        self.snapshots_received = 0
        self.health = Liveness.for_agent(machine)
        # Serializes syncs of THIS mirror only: a fan-out worker and a
        # lazy mirror_latest refresh must not interleave their
        # batch/ack-cursor updates.  Different mirrors sync in parallel.
        self._sync_lock = threading.Lock()

    def sync(self) -> int:
        """One BATCH_DELTA exchange; returns snapshots received.

        The handle's :meth:`collect_blocks` — a remote handle over the
        wire or the in-process agent — yields the changed rows as
        columnar blocks, which land straight in this mirror's value
        arrays via :meth:`TimeSeriesStore.apply_blocks`, with no
        snapshot dicts built anywhere on the path.

        A sync the agent cannot serve (unreachable, protocol garbage)
        records a health failure and returns 0 — the mirror keeps its
        last known state and the controller keeps answering from it.
        An agent that restarted re-numbers its sequences; the mirror
        store detects the regression and re-baselines, so no window
        ever spans the restart.

        Safe to call from concurrent refresh workers: the per-mirror
        lock keeps the exchange + cursor update atomic per mirror.
        """
        with self._sync_lock, obs.span("mirror.sync", machine=self.machine) as sp:
            try:
                blocks, cursor = self.handle.collect_blocks(self.acked)
            except COLLECTION_ERRORS as exc:
                self.failed_syncs += 1
                self.health.record_failure(exc)
                obs.event(
                    "mirror.sync_failed", obs.WARNING,
                    machine=self.machine, error=repr(exc),
                    consecutive_failures=self.health.consecutive_failures,
                )
                sp.set("ok", False)
                return 0
            received = self.store.apply_blocks(blocks)
            self.acked = dict(cursor)
            self.syncs += 1
            self.snapshots_received += received
            self.health.record_success()
            sp.set("snapshots", received)
            return received

    def data_quality(self, now: Optional[float] = None) -> DataQuality:
        """The staleness annotation for answers served from this mirror."""
        last_ts = self.store.newest_timestamp()
        age = None
        if now is not None and last_ts is not None:
            age = max(0.0, now - last_ts)
        return DataQuality(
            machine=self.machine,
            state=self.health.state,
            consecutive_failures=self.health.consecutive_failures,
            failed_syncs=self.failed_syncs,
            last_snapshot_ts=last_ts,
            age_s=age,
            resets=self.store.total_resets,
        )


@dataclass(frozen=True)
class MachineRefresh:
    """One machine's slice of a refresh: what it contributed and how."""

    machine: str
    snapshots: int
    ok: bool
    wall_s: float
    health_state: str
    consecutive_failures: int = 0
    error: Optional[str] = None


@dataclass
class RefreshReport:
    """Per-machine breakdown of one fleet refresh.

    :meth:`ZoneController.refresh` returns only the total snapshot count;
    this is the operator-facing view behind it — which machines
    contributed, which failed, and how wide the fan-out actually ran.
    """

    machines: Dict[str, MachineRefresh]
    wall_s: float
    concurrent: bool
    #: Peak simultaneously-active sync workers observed (1 for serial).
    peak_workers: int = 1

    @property
    def total_snapshots(self) -> int:
        return sum(m.snapshots for m in self.machines.values())

    @property
    def failed(self) -> List[str]:
        """Machines whose sync could not reach the agent this round."""
        return sorted(m for m, r in self.machines.items() if not r.ok)

    def for_machine(self, machine: str) -> MachineRefresh:
        try:
            return self.machines[machine]
        except KeyError:
            raise KeyError(f"machine {machine!r} was not in this refresh") from None

    def describe(self) -> str:
        mode = "concurrent" if self.concurrent else "serial"
        lines = [
            f"refresh ({mode}, {len(self.machines)} machine(s), "
            f"peak {self.peak_workers} worker(s), {self.wall_s:.3f}s): "
            f"{self.total_snapshots} snapshot(s)"
        ]
        for name in sorted(self.machines):
            r = self.machines[name]
            status = "ok" if r.ok else f"FAILED ({r.error})"
            lines.append(
                f"  {name}: {r.snapshots} snap(s) in {r.wall_s:.3f}s, "
                f"{status}, health={r.health_state}"
            )
        return "\n".join(lines)


class ZoneController:
    """Routes statistics requests between operators and its agent shard.

    The reusable middle tier of the hierarchy: owns the mirrors,
    refresh fan-out and Algorithm-1/2 machinery for one shard of
    machines, accepts agent pushes, and rolls its shard up into
    :class:`~repro.core.diagnosis.report.ZoneReport` scalars for the
    fleet tier.  Used standalone it is the flat controller: one zone
    owning every machine.
    """

    def __init__(
        self,
        name: str = "perfsight-zone",
        max_workers: int = DEFAULT_MAX_WORKERS,
        store_factory: Optional[Callable[[], TimeSeriesStore]] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1: {max_workers!r}")
        self.name = name
        self.max_workers = max_workers
        #: Mirror-store factory for newly registered machines; defaults
        #: to the tiered store (tests pass a flat-store factory to
        #: build the unbounded baseline they compare against).
        self.store_factory = store_factory
        self._agents: Dict[str, AgentHandle] = {}
        self._mirrors: Dict[str, AgentMirror] = {}
        self._tenants: Dict[str, Tenant] = {}
        # Guards the registries against registration racing a fan-out's
        # machine enumeration; per-mirror state has its own locks.
        self._registry_lock = threading.Lock()
        # Merge scratch reused across diagnose_fleet rounds (created
        # lazily: the diagnosis package imports this module).
        self._merge_buffers = None
        # Monotonic zone-report sequence; the root dedupes replays on it.
        self._report_seq = 0
        self._report_lock = threading.Lock()
        #: Rows received via agent push (post-dedup not tracked; this is
        #: the raw shipped count, mirroring ``snapshots_received``).
        self.pushed_rows = 0

    # -- registration -----------------------------------------------------------------

    def register_agent(self, machine_name: str, agent: AgentHandle) -> None:
        with self._registry_lock:
            if machine_name in self._agents:
                raise ValueError(f"machine {machine_name!r} already has an agent")
            self._agents[machine_name] = agent
            self._mirrors[machine_name] = AgentMirror(
                machine_name,
                agent,
                store=(
                    self.store_factory() if self.store_factory is not None
                    else None
                ),
            )

    def register_local_agent(self, agent: Agent) -> None:
        """Convenience for in-process agents."""
        self.register_agent(agent.machine.name, agent)

    def unregister_agent(self, machine_name: str) -> AgentHandle:
        """Drop a machine from this shard; returns its handle.

        The rebalance move-out half: when the hash ring reassigns a
        machine to another zone, its handle re-registers there and this
        zone forgets the mirror (the new zone's mirror re-fills from
        the agent's store, which retains recent history).
        """
        with self._registry_lock:
            try:
                handle = self._agents.pop(machine_name)
            except KeyError:
                raise KeyError(
                    f"no agent registered for machine {machine_name!r}"
                ) from None
            del self._mirrors[machine_name]
            return handle

    def register_tenant(self, tenant: Tenant) -> None:
        if tenant.tenant_id in self._tenants:
            raise ValueError(f"tenant {tenant.tenant_id!r} already registered")
        self._tenants[tenant.tenant_id] = tenant

    # -- lookups ------------------------------------------------------------------------

    def tenant(self, tenant_id: str) -> Tenant:
        try:
            return self._tenants[tenant_id]
        except KeyError:
            raise KeyError(f"unknown tenant {tenant_id!r}") from None

    def vnet(self, tenant_id: str) -> VirtualNetwork:
        return self.tenant(tenant_id).vnet

    def agent_for(self, machine_name: str) -> AgentHandle:
        try:
            return self._agents[machine_name]
        except KeyError:
            raise KeyError(f"no agent registered for machine {machine_name!r}") from None

    def mirror_for(self, machine_name: str) -> AgentMirror:
        try:
            return self._mirrors[machine_name]
        except KeyError:
            raise KeyError(f"no agent registered for machine {machine_name!r}") from None

    def machines(self) -> List[str]:
        with self._registry_lock:
            return sorted(self._agents)

    # -- collection (the BATCH_DELTA plane) ------------------------------------------------

    def refresh(self, machine_name: Optional[str] = None) -> int:
        """Pull deltas into the mirror(s); returns snapshots received.

        This is the explicit collection step — and the pull-semantics
        escape hatch for tests: after ``refresh()`` the mirrors reflect
        agent state as of now.  One batched exchange per machine,
        regardless of how many elements changed.

        Serial, so single-machine tests and simulations remain strictly
        deterministic; :meth:`refresh_concurrent` is the fan-out.

        An unreachable agent does not raise: the failure feeds its
        liveness record and the machine contributes 0 snapshots.
        Check ``mirror_for(m).health`` / :meth:`data_quality` to observe it.
        """
        if machine_name is not None:
            return self.mirror_for(machine_name).sync()
        return sum(self.mirror_for(m).sync() for m in self.machines())

    def refresh_concurrent(
        self,
        machine_names: Optional[Iterable[str]] = None,
        max_workers: Optional[int] = None,
    ) -> int:
        """Fan the per-machine syncs out over a bounded worker pool.

        Wall-clock cost approaches max(per-agent RTT) instead of the
        serial sum — the difference between a refresh cadence that
        scales with fleet size and one that does not.  Equivalent to
        :meth:`refresh` in every observable mirror state; only the
        schedule differs.
        """
        return self.refresh_report(
            machine_names, concurrent=True, max_workers=max_workers
        ).total_snapshots

    def ingest_push(
        self,
        machine_name: str,
        blocks: List[SeriesBlock],
        cursor: Optional[Dict[str, int]] = None,
        trace: Optional[Mapping[str, object]] = None,
    ) -> int:
        """Apply agent-pushed delta blocks to the machine's mirror.

        The push half of the collection plane: agents ship
        ``changed_blocks`` on change instead of waiting for a poll.
        Idempotent — the mirror store dedupes rows by per-element
        sequence number, so a retried push, or a push racing the poll
        fallback, can never double-apply.  ``cursor`` (the agent's seq
        vector at push time) advances the mirror's ack floor so the
        next poll ships only what the pushes missed.

        A push also counts as a successful collection exchange for the
        agent's liveness record: data arriving proves the path up.

        ``trace`` is the pushing agent's serialized
        :class:`~repro.obs.TraceContext`; when present the ingest span
        links under the agent's push span exactly like a served
        BATCH_DELTA links under the puller — push deliveries land in the
        same incident trace tree as pulled ones.
        """
        mirror = self.mirror_for(machine_name)
        with obs.span_from_wire(
            "zone.ingest_push", trace, machine=machine_name, zone=self.name
        ) as sp:
            with mirror._sync_lock:
                shipped = mirror.store.apply_blocks(blocks)
                if cursor:
                    merged = dict(mirror.acked)
                    merged.update(cursor)
                    mirror.acked = merged
                mirror.snapshots_received += shipped
                mirror.health.record_success()
            sp.set("rows", shipped)
        with self._registry_lock:
            self.pushed_rows += shipped
        return shipped

    def refresh_report(
        self,
        machine_names: Optional[Iterable[str]] = None,
        concurrent: bool = True,
        max_workers: Optional[int] = None,
    ) -> RefreshReport:
        """One refresh round with its per-machine breakdown.

        The parent ``controller.refresh`` span brackets the fan-out;
        each machine's ``mirror.sync`` span lands beneath it (trace
        context is copied into every task, pooled or inline), so a slow
        agent is visible as the long child bar in the span tree.
        ``concurrent`` asks for the fan-out, which still syncs
        in-process agents on this thread (see :meth:`_fan_out`).
        """
        machines = (
            list(machine_names) if machine_names is not None else self.machines()
        )
        wall0 = time.perf_counter()
        parallel = concurrent and len(machines) > 1
        with obs.span(
            "controller.refresh",
            machines=len(machines),
            mode="concurrent" if parallel else "serial",
        ) as sp:
            if parallel:
                results, peak = self._fan_out(
                    [(m, self._sync_one) for m in machines], max_workers
                )
            else:
                results = {m: self._sync_one(m) for m in machines}
                peak = 1 if machines else 0
            report = RefreshReport(
                machines=results,
                wall_s=time.perf_counter() - wall0,
                concurrent=parallel,
                peak_workers=max(peak, 1),
            )
            sp.set("snapshots", report.total_snapshots)
            if report.failed:
                sp.set("failed", ",".join(report.failed))
        return report

    def _sync_one(self, machine: str) -> MachineRefresh:
        """One machine's sync, measured — the fan-out work unit."""
        mirror = self.mirror_for(machine)
        failed_before = mirror.failed_syncs
        wall0 = time.perf_counter()
        snapshots = mirror.sync()
        ok = mirror.failed_syncs == failed_before
        return MachineRefresh(
            machine=machine,
            snapshots=snapshots,
            ok=ok,
            wall_s=time.perf_counter() - wall0,
            health_state=mirror.health.state,
            consecutive_failures=mirror.health.consecutive_failures,
            error=None if ok else repr(mirror.health.last_error),
        )

    def _fan_out(
        self,
        tasks: List[Tuple[str, Callable[[str], "T"]]],
        max_workers: Optional[int] = None,
    ) -> Tuple[Dict[str, "T"], int]:
        """Run ``fn(machine)`` for every (machine, fn) task.

        Only what can wait goes to a thread.  A task whose machine is
        served by an in-process :class:`Agent` runs on the calling
        thread: its work holds the GIL from start to end, so a worker
        would add hand-offs and overlap nothing.  Every other handle (a
        remote agent, or a wrapper that may block) goes to a pool of at
        most ``max_workers`` threads, created only when something is
        pooled.  The pooled tasks are submitted first, so their waits
        overlap the inline work; then the inline tasks run; then the
        futures are collected.

        Returns results keyed by machine, in ``tasks`` order, plus the
        peak number of simultaneously-active workers (the saturation
        figure reported as :attr:`RefreshReport.peak_workers`), counting
        the caller as one worker when it ran a task.  Every task, inline
        or pooled, runs in its own copy of the caller's context, so
        spans opened inside the work parent on the caller's span — one
        fresh copy per task, since a single Context cannot be entered
        concurrently.

        Task exceptions propagate to the caller: the fan-out units
        (sync, diagnosis scans) already convert expected collection
        failures into health state, so anything escaping is a bug.
        """
        width = max_workers if max_workers is not None else self.max_workers
        if width < 1:
            raise ValueError(f"max_workers must be >= 1: {width!r}")
        inline: List[Tuple[str, Callable[[str], "T"]]] = []
        pooled: List[Tuple[str, Callable[[str], "T"]]] = []
        for task in tasks:
            local = isinstance(self._agents.get(task[0]), Agent)
            (inline if local else pooled).append(task)
        if not pooled:
            results = {
                label: contextvars.copy_context().run(fn, label)
                for label, fn in tasks
            }
            return results, 1 if tasks else 0
        workers = {"active": 0, "peak": 0}
        workers_lock = threading.Lock()

        def tracked(fn: Callable[[str], "T"], label: str) -> "T":
            with workers_lock:
                workers["active"] += 1
                workers["peak"] = max(workers["peak"], workers["active"])
            try:
                return fn(label)
            finally:
                with workers_lock:
                    workers["active"] -= 1

        done: Dict[str, "T"] = {}
        with ThreadPoolExecutor(
            max_workers=min(width, len(pooled)),
            thread_name_prefix=f"{self.name}-worker",
        ) as pool:
            futures = [
                (
                    label,
                    pool.submit(
                        contextvars.copy_context().run, tracked, fn, label
                    ),
                )
                for label, fn in pooled
            ]
            for label, fn in inline:
                done[label] = contextvars.copy_context().run(fn, label)
            for label, future in futures:
                done[label] = future.result()
        peak = max(workers["peak"], 1 if inline else 0)
        return {label: done[label] for label, _ in tasks}, peak

    # -- fleet diagnosis -------------------------------------------------------------

    def begin_fleet_scan(
        self,
        window_s: float = 1.0,
        machines: Optional[Iterable[str]] = None,
        rulebook: Optional["object"] = None,
    ) -> "ZoneScan":
        """Open Algorithm-1 windows on every shard machine (fanned out).

        The split-phase half the hierarchy needs: every zone opens its
        windows, then ONE shared time advance runs for the whole fleet,
        then every zone closes them — all tiers end up measuring the
        exact same interval, which is why a hierarchical diagnosis
        reaches verdicts *equal* to a flat controller's, not merely
        similar.  Callers that own their zone alone can use
        :meth:`diagnose_fleet`, which composes the two halves around
        the advance.
        """
        # Imported lazily: the diagnosis package imports this module.
        from repro.core.diagnosis.contention import ContentionDetector

        names = list(machines) if machines is not None else self.machines()
        detector = ContentionDetector(
            self, lambda _dt: None, rulebook=rulebook, window_s=window_s
        )
        wall0 = time.perf_counter()
        with obs.span(
            "controller.begin_fleet_scan", zone=self.name, machines=len(names)
        ):
            scans, peak = self._fan_out([(m, detector.begin) for m in names])
        return ZoneScan(
            zone=self.name,
            window_s=window_s,
            detector=detector,
            scans=scans,
            machines=names,
            wall0=wall0,
            peak_workers=peak,
        )

    def finish_fleet_scan(self, scan: "ZoneScan"):
        """Close the windows a :meth:`begin_fleet_scan` opened and merge.

        Returns the zone's
        :class:`~repro.core.diagnosis.report.FleetDiagnosis`, its
        merged views served from buffers this controller reuses across
        rounds (see
        :class:`~repro.core.diagnosis.report.FleetMergeBuffers`).
        """
        from repro.core.diagnosis.report import FleetDiagnosis, FleetMergeBuffers

        with obs.span(
            "controller.finish_fleet_scan",
            zone=self.name,
            machines=len(scan.machines),
        ) as sp:
            reports, peak_finish = self._fan_out(
                [
                    (m, lambda m_: scan.detector.finish_observed(m_, scan.scans[m_]))
                    for m in scan.machines
                ]
            )
            diagnosis = FleetDiagnosis(
                window_s=scan.window_s,
                reports=reports,
                wall_s=time.perf_counter() - scan.wall0,
                peak_workers=max(scan.peak_workers, peak_finish, 1),
            )
            if self._merge_buffers is None:
                self._merge_buffers = FleetMergeBuffers()
            self._merge_buffers.merge(diagnosis)
            sp.set("degraded", len(diagnosis.degraded_machines))
            if diagnosis.worst_machine is not None:
                sp.set("worst", diagnosis.worst_machine)
        return diagnosis

    def diagnose_fleet(
        self, advance: Callable[[float], None], window_s: float = 1.0
    ):
        """Algorithm 1 across the fleet, scans fanned out.

        Every machine's window-opening ``begin`` runs (fanned out)
        before ``advance`` moves time ONCE, then every window-closing
        ``finish`` runs — so all per-machine reports measure the same
        interval, which is what makes their verdicts comparable.  The
        merged :class:`~repro.core.diagnosis.report.FleetDiagnosis`
        flags machines whose verdicts rest on degraded data.
        """
        names = self.machines()
        with obs.span("controller.diagnose_fleet", machines=len(names)):
            scan = self.begin_fleet_scan(window_s, machines=names)
            advance(window_s)
            return self.finish_fleet_scan(scan)

    # -- zone roll-up (what crosses the zone -> fleet wire) ---------------------------

    def build_zone_report(self, diagnosis, window_s: Optional[float] = None):
        """Summarize a shard diagnosis into per-machine scalars.

        Each machine contributes its health state, verdicts, total
        ranked loss and the Figure-6 rates read from the trailing
        mirror window — O(1) scalars per machine, no time series.  The
        report's ``seq`` increments per call, making its wire replay
        idempotent at the root.
        """
        window = window_s if window_s is not None else diagnosis.window_s
        return self._zone_report(window, diagnosis.reports.items())

    def build_coarse_report(
        self, window_s: float = 1.0, now: Optional[float] = None
    ):
        """Phase-1 roll-up: rates + health straight off the mirrors.

        The cheap half of two-phase streaming diagnosis: no Algorithm-1
        scan, no agent RPC, no window advance — just the trailing-window
        receive deltas read off the columns every machine's mirror
        already holds (agents push deltas on change, so the mirrors are
        current).
        ``now`` (the caller's clock — simulated time in tests) turns on
        the per-machine ``age_s`` staleness signal: the daemon's
        detector reads it to catch machines that silently stopped
        reporting.  Shares the zone's report sequence with the
        diagnosis-backed :meth:`build_zone_report`, so the root's
        monotonic replay dedup spans both kinds.
        """
        return self._zone_report(
            window_s, ((m, None) for m in self.machines()), now=now
        )

    def resume_reporting_from(self, seq: int) -> None:
        """Fast-forward the report sequence after a restart.

        A replacement zone process starts its sequence at zero, but the
        root remembers the crashed predecessor's floor and drops any
        replayed sequence — so a restarted zone re-subscribes, learns
        the floor (:meth:`~repro.core.net.client.ZoneClient.subscribe`),
        and jumps past it here.  Never moves the sequence backward.
        """
        if seq < 0:
            raise ValueError(f"seq must be >= 0: {seq!r}")
        with self._report_lock:
            self._report_seq = max(self._report_seq, seq)

    def _zone_report(
        self,
        window_s: float,
        reports: Iterable[Tuple[str, Optional[object]]],
        now: Optional[float] = None,
    ):
        """Summarize ``(machine, scan report or None)`` pairs and stamp
        the zone's next report ``seq``.

        Each machine costs one pass over its mirror's ring columns
        (:meth:`TimeSeriesStore.trailing_rx_deltas`: per element, the
        trailing window's receive deltas, no snapshot built) — the
        entire per-machine cost of the coarse monitoring phase.  A scan
        report supplies confidence, ranked loss, missing elements and
        verdicts; without one, confidence
        follows agent health and the loss is the window's own.  ``now``
        turns on ``age_s``, the age of the freshest sample.
        """
        from repro.core.diagnosis.report import (
            CONFIDENCE_DEGRADED,
            CONFIDENCE_FULL,
            MachineSummary,
            ZoneReport,
        )

        dt = max(window_s, 1e-9)
        summaries: Dict[str, MachineSummary] = {}
        for machine, report in reports:
            mirror = self.mirror_for(machine)
            deltas, last_ts = mirror.store.trailing_rx_deltas(window_s)
            rx_pkts = rx_bytes = lost = 0.0
            for d_pkts, d_bytes, growth in deltas:
                rx_pkts += d_pkts
                rx_bytes += d_bytes
                lost += max(0.0, growth)
            elements = len(deltas)
            health = mirror.health.state
            if report is None:
                confidence = (
                    CONFIDENCE_FULL if health == HEALTHY else CONFIDENCE_DEGRADED
                )
                loss_pkts, missing, verdicts = lost, 0, ()
            else:
                confidence = report.confidence
                loss_pkts = sum(el.loss_pkts for el in report.ranked)
                missing = len(report.missing_elements)
                verdicts = tuple(report.verdicts)
            age = 0.0
            if now is not None and last_ts is not None:
                age = max(0.0, now - last_ts)
            summaries[machine] = MachineSummary(
                machine=machine,
                health=health,
                confidence=confidence,
                loss_pkts=loss_pkts,
                throughput_pps=rx_pkts / dt,
                pkt_loss_rate=(lost / rx_pkts) if rx_pkts > 0 else 0.0,
                avg_pkt_size=(rx_bytes / rx_pkts) if rx_pkts > 0 else 0.0,
                elements=elements,
                missing_elements=missing,
                verdicts=verdicts,
                age_s=age,
            )
        with self._report_lock:
            self._report_seq += 1
            seq = self._report_seq
        return ZoneReport(
            zone=self.name,
            seq=seq,
            window_s=window_s,
            machines=summaries,
        )

    # -- memory accounting -----------------------------------------------------------

    def store_nbytes(self, export: bool = False) -> Dict[str, int]:
        """History buffer bytes across this shard's mirrors, by tier.

        O(mirrors × elements) array-length sums — cheap enough for the
        daemon's coarse cadence.  ``export`` publishes each tier as a
        :data:`STORE_BYTES_METRIC` gauge (labels ``zone``/``tier`` are
        both fleet-bounded).
        """
        with self._registry_lock:
            mirrors = list(self._mirrors.values())
        totals: Dict[str, int] = {}
        for mirror in mirrors:
            for tier, n in mirror.store.nbytes().items():
                totals[tier] = totals.get(tier, 0) + n
        if export:
            for tier, n in sorted(totals.items()):
                obs.gauge(
                    STORE_BYTES_METRIC, float(n), zone=self.name, tier=tier
                )
        return totals

    # -- health and data quality ---------------------------------------------------------

    def data_quality(
        self, machine_name: str, now: Optional[float] = None
    ) -> DataQuality:
        """Staleness/quality annotation for answers about one machine.

        ``now`` (the caller's notion of current time — simulated time in
        tests) turns the annotation's ``age_s`` on; without it only the
        health state and failure counts are reported.
        """
        return self.mirror_for(machine_name).data_quality(now)

    def mirror_latest(self, machine: str, element_id: str) -> CounterSnapshot:
        """Latest mirrored snapshot, lazily refreshing on first miss."""
        mirror = self.mirror_for(machine)
        try:
            return mirror.store.latest(element_id)
        except StoreError:
            mirror.sync()
        try:
            return mirror.store.latest(element_id)
        except StoreError:
            raise KeyError(
                f"machine {machine!r} has no element {element_id!r}"
            ) from None

    # -- the split-phase observation (Figure 6's observe, sleep(T), observe) ------------

    def open_window(self, elements: Iterable[Located]) -> "OpenWindow":
        """Open one observation window over ``(machine, element id)`` pairs.

        Refreshes each owning machine once, in sorted order — one
        delta-batched exchange per machine, however many elements — and
        reads every start from the mirror.  A pair with no start (the
        mirror holds nothing for it, or this zone does not own its
        machine) is missing; a machine this zone does not own is never
        refreshed.  Thread-safe against other windows on other machines.
        """
        pairs = list(dict.fromkeys(elements))
        opened = OpenWindow(
            machines=sorted({m for m, _ in pairs if m in self._mirrors})
        )
        for machine in opened.machines:
            self.refresh(machine)
        for pair in pairs:
            try:
                opened.starts[pair] = self.mirror_latest(*pair)
            except KeyError:
                opened.missing.append(pair)
        return opened

    def close_window(
        self, opened: "OpenWindow"
    ) -> Tuple[Dict[Located, CounterWindow], List[Located], Dict[str, DataQuality]]:
        """Close a window after the caller's time advance.

        Refreshes the same machines again and returns ``(windows,
        missing, quality)``: a :class:`CounterWindow` per pair that has
        both ends, the missing pairs (no start first, then no end, each
        in the order given), and the :class:`DataQuality` of every
        refreshed machine.  When an agent is unreachable both refreshes
        are no-ops and its windows collapse onto the mirror's last
        snapshot (rates read 0); the quality annotation is what says
        that 0 means "no fresh data", not "no traffic".
        """
        for machine in opened.machines:
            self.refresh(machine)
        windows: Dict[Located, CounterWindow] = {}
        missing = list(opened.missing)
        for pair, start in opened.starts.items():
            try:
                windows[pair] = CounterWindow(start, self.mirror_latest(*pair))
            except KeyError:
                missing.append(pair)
        quality = {m: self.data_quality(m) for m in opened.machines}
        return windows, missing, quality

    # -- Figure 6 over the mirror ----------------------------------------------------------

    def get_attr(
        self,
        tenant_id: str,
        element_logical: str,
        attrs: Optional[Iterable[str]] = None,
    ) -> CounterSnapshot:
        """``vNet[tenantID].elem[elementID].attr[attributes]``.

        Answered from the controller mirror — no agent RPC.  An element
        never seen before triggers one lazy refresh of its machine's
        mirror.  With ``attrs`` the snapshot holds only those that the
        element exports.  While an agent is down this is the mirror's
        last knowledge; :meth:`data_quality` says how much to trust it.
        """
        snap = self.mirror_latest(*self.vnet(tenant_id).locate(element_logical))
        return snap if attrs is None else snap.subset(attrs)

    def window(
        self,
        tenant_id: str,
        element_logical: str,
        t0: float,
        t1: float,
    ) -> CounterWindow:
        """The element's mirrored activity over ``[t0, t1]``, from history
        (a tiered store stitches its fine ring with the coarse tiers)."""
        machine, element_id = self.vnet(tenant_id).locate(element_logical)
        self.mirror_latest(machine, element_id)  # lazy-populate on miss
        return self.mirror_for(machine).store.window(element_id, t0, t1)

    def _trailing(
        self, tenant_id: str, element_logical: str, window_s: float
    ) -> CounterWindow:
        """The element's trailing ``window_s`` mirror window."""
        machine, element_id = self.vnet(tenant_id).locate(element_logical)
        self.mirror_latest(machine, element_id)  # lazy-populate on miss
        return self.mirror_for(machine).store.window_ending_now(element_id, window_s)

    def get_throughput(
        self, tenant_id: str, element_logical: str, attr: str = "rx_bytes",
        window_s: float = 1.0,
    ) -> float:
        """Average throughput over the trailing window, bytes/second."""
        return self._trailing(tenant_id, element_logical, window_s).rate(attr)

    def get_pkt_loss(
        self, tenant_id: str, element_logical: str,
        in_attr: str = "rx_pkts", out_attr: str = "tx_pkts",
        window_s: float = 1.0,
    ) -> float:
        """Packets lost within the element over the trailing window."""
        return self._trailing(tenant_id, element_logical, window_s).pkt_loss(
            in_attr, out_attr
        )

    def get_avg_pkt_size(
        self, tenant_id: str, element_logical: str,
        bytes_attr: str = "rx_bytes", pkts_attr: str = "rx_pkts",
        window_s: float = 1.0,
    ) -> float:
        """Average packet size over the trailing window, bytes."""
        return self._trailing(tenant_id, element_logical, window_s).avg_pkt_size(
            bytes_attr, pkts_attr
        )


@dataclass
class OpenWindow:
    """The start half of one split-phase observation.

    Made by :meth:`ZoneController.open_window`, closed once by
    :meth:`ZoneController.close_window` after the caller advances time.
    ``machines`` are the owned machines refreshed at each edge.
    """

    machines: List[str]
    starts: Dict[Located, CounterSnapshot] = field(default_factory=dict)
    missing: List[Located] = field(default_factory=list)


@dataclass
class ZoneScan:
    """In-flight split-phase fleet scan: windows open, not yet closed.

    Produced by :meth:`ZoneController.begin_fleet_scan`; consumed
    exactly once by :meth:`ZoneController.finish_fleet_scan` after the
    caller advances time.  ``scans`` holds each machine's
    :class:`OpenWindow`.
    """

    zone: str
    window_s: float
    detector: "object"
    scans: Dict[str, OpenWindow]
    machines: List[str]
    wall0: float
    peak_workers: int = 1


@dataclass
class ZoneRecord:
    """The root tier's entire knowledge of one zone — scalars only."""

    zone: str
    #: Report-age liveness record (HEALTHY/SUSPECT/DEAD).
    health: Liveness
    #: Last accepted report sequence (replays at or below are dropped).
    last_seq: int = 0
    #: Latest accepted roll-up, or None before the first report.
    latest: Optional["object"] = None
    reports_accepted: int = 0
    reports_dropped: int = 0
    subscribed: bool = False
    #: False while the zone is failed over (off the ring, record kept).
    active: bool = True


@dataclass(frozen=True)
class ZoneCheck:
    """Outcome of one :meth:`FleetController.check_zones` sweep.

    ``moves`` is the single batched :func:`moved_keys` diff across
    every failover/recovery this sweep performed — the deployment layer
    applies it once (see :func:`apply_shard_moves`) instead of chasing
    per-zone move maps.
    """

    now: float
    #: zone -> liveness state after the sweep (every zone present).
    states: Dict[str, str]
    #: machine -> (old zone, new zone) for machines that re-home.
    moves: Dict[str, Tuple[Optional[str], Optional[str]]]
    #: Zones this sweep evicted from the ring (newly DEAD).
    failed_over: Tuple[str, ...] = ()
    #: Zones this sweep put back on the ring (proof-of-life returned).
    recovered: Tuple[str, ...] = ()

    def describe(self) -> str:
        bits = [
            f"zone check @ {self.now:.3f}: "
            + ", ".join(f"{z}={s}" for z, s in sorted(self.states.items()))
        ]
        if self.failed_over:
            bits.append(f"  failed over: {', '.join(self.failed_over)}")
        if self.recovered:
            bits.append(f"  recovered: {', '.join(self.recovered)}")
        if self.moves:
            bits.append(f"  {len(self.moves)} machine(s) re-homed")
        return "\n".join(bits)


class FleetController:
    """The root of the hierarchy: hash ring + zone roll-ups, no mirrors.

    Holds (a) the consistent-hash ring assigning machines to zones,
    rebalancing on zone join/leave, and (b) the latest
    :class:`~repro.core.diagnosis.report.ZoneReport` per zone, merged
    on demand into a :class:`~repro.core.diagnosis.report.FleetRollup`.
    It deliberately has no ``register_agent``: per-machine time series
    and agent handles stop at the zone tier, which is what bounds the
    root's memory to O(machines) scalars rather than O(machines ×
    elements × history).

    The root is also the failure detector for its zones: every accepted
    report feeds the zone's :class:`~repro.core.health.Liveness`
    clock, and a :meth:`check_zones` sweep (run on the heartbeat
    cadence) decays silent zones through SUSPECT to DEAD, evicts dead
    zones from the ring (their shard re-homes to survivors via one
    batched :func:`~repro.core.sharding.moved_keys` diff), and re-admits
    zones whose reports resume.  Liveness transitions happen *only* in
    :meth:`ingest_zone_report` and :meth:`check_zones` — never as a side
    effect of a read — so simulations and tests stay deterministic.  ``clock`` is
    injectable for exactly that reason; deployments default to
    ``time.monotonic``.
    """

    def __init__(
        self,
        name: str = "perfsight-fleet",
        replicas: int = DEFAULT_REPLICAS,
        zone_policy: Optional[ZoneHealthPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.name = name
        self.ring = HashRing(replicas)
        self.zone_policy = (
            zone_policy if zone_policy is not None else ZoneHealthPolicy()
        )
        self._clock = clock
        self._zones: Dict[str, ZoneRecord] = {}
        self._machines: List[str] = []  # names only — never handles
        self._lock = threading.Lock()
        self.failovers = 0
        self.recoveries = 0

    # -- membership and shard ownership ------------------------------------------

    def zones(self) -> List[str]:
        with self._lock:
            return sorted(self._zones)

    def fleet_machines(self) -> List[str]:
        with self._lock:
            return sorted(self._machines)

    def track_machines(self, machine_names: Iterable[str]) -> None:
        """Tell the root which machine *names* exist (strings only)."""
        with self._lock:
            known = set(self._machines)
            for name in machine_names:
                if name not in known:
                    self._machines.append(name)
                    known.add(name)

    def register_zone(
        self, zone: str
    ) -> Dict[str, Tuple[Optional[str], Optional[str]]]:
        """Add a zone to the ring; returns the shard moves it causes.

        The moves map (machine -> (old zone, new zone)) is what the
        deployment layer acts on: each moved machine's agent handle is
        unregistered from its old :class:`ZoneController` and
        registered with the new one.  Consistent hashing keeps the map
        to ~1/n of the fleet.
        """
        before = self._assignment()
        with self._lock:
            if zone in self._zones:
                raise ValueError(f"zone {zone!r} already registered")
            record = ZoneRecord(
                zone=zone,
                health=Liveness.for_zone(zone, self.zone_policy.heartbeat_s),
            )
            # Arm the liveness deadline now: a zone that registers and
            # never pushes a single report must still decay to DEAD.
            record.health.arm(self._clock())
            self._zones[zone] = record
        self.ring.add_node(zone)
        moves = moved_keys(before, self._assignment())
        obs.gauge(ZONE_LIVENESS_METRIC, ZONE_STATE_VALUES[HEALTHY], zone=zone)
        obs.gauge(ZONE_ACTIVE_METRIC, 1.0, zone=zone)
        obs.event(
            "fleet.zone_joined", obs.INFO,
            zone=zone, moves=len(moves), zones=len(self._zones),
        )
        return moves

    def remove_zone(
        self, zone: str
    ) -> Dict[str, Tuple[Optional[str], Optional[str]]]:
        """Drop a zone permanently; returns the shard moves it causes.

        This is decommissioning — the record is forgotten.  For a zone
        that merely died and may come back, :meth:`check_zones` fails
        it over instead, keeping the record (and its replay-dedup seq
        floor) across the outage.  ``discard_node`` tolerates the zone already being off
        the ring because a failover beat the operator to it.
        """
        before = self._assignment()
        with self._lock:
            if zone not in self._zones:
                raise KeyError(f"zone {zone!r} is not registered")
            del self._zones[zone]
        self.ring.discard_node(zone)
        moves = moved_keys(before, self._assignment())
        obs.event(
            "fleet.zone_left", obs.WARNING,
            zone=zone, moves=len(moves), zones=len(self._zones),
        )
        return moves

    # -- failover and recovery (the self-healing plane) ---------------------------

    def check_zones(self, now: Optional[float] = None) -> ZoneCheck:
        """One liveness sweep: decay silent zones, fail over, recover.

        Run this on the heartbeat cadence.  Active zones are re-judged
        by report age; any that decayed to DEAD are evicted from the
        ring.  Inactive zones whose health snapped back to HEALTHY (a
        report arrived — proof of life) are re-admitted.  All ring
        changes in one sweep produce a single batched moves diff.
        """
        now = self._clock() if now is None else now
        with self._lock:
            records = [self._zones[z] for z in sorted(self._zones)]
        before = self._assignment()
        failed_over: List[str] = []
        recovered: List[str] = []
        states: Dict[str, str] = {}
        for record in records:
            state = (
                record.health.evaluate(now) if record.active
                else record.health.state
            )
            # One lock hold checks and flips ``active``, so racing
            # sweeps fail a zone over, or re-admit it, exactly once.
            with self._lock:
                evict = record.active and state == DEAD
                readmit = not record.active and state == HEALTHY
                if evict:
                    record.active = False
                    self.failovers += 1
                elif readmit:
                    record.active = True
                    record.health.arm(now)
                    self.recoveries += 1
            if evict:
                self.ring.discard_node(record.zone)
                obs.counter(FAILOVERS_METRIC, zone=record.zone)
                obs.event(
                    "fleet.zone_failed_over", obs.ERROR,
                    zone=record.zone, reason="heartbeat",
                )
                failed_over.append(record.zone)
            elif readmit:
                self.ring.add_node(record.zone)
                obs.event("fleet.zone_recovered", obs.INFO, zone=record.zone)
                recovered.append(record.zone)
            states[record.zone] = state
            # Steady-state export (not just on transition): a freshly
            # scraped root always shows every zone's current liveness.
            obs.gauge(
                ZONE_LIVENESS_METRIC, ZONE_STATE_VALUES[state], zone=record.zone
            )
            obs.gauge(
                ZONE_ACTIVE_METRIC,
                1.0 if record.active else 0.0,
                zone=record.zone,
            )
        moves = moved_keys(before, self._assignment()) if (
            failed_over or recovered
        ) else {}
        return ZoneCheck(
            now=now,
            states=states,
            moves=moves,
            failed_over=tuple(failed_over),
            recovered=tuple(recovered),
        )

    def zone_states(self) -> Dict[str, str]:
        """zone -> current liveness state (read-only, no transitions)."""
        with self._lock:
            return {z: r.health.state for z, r in self._zones.items()}

    def _assignment(self) -> Dict[str, str]:
        if not len(self.ring):
            return {}
        return self.ring.assign(self.fleet_machines())

    def zone_for(self, machine_name: str) -> str:
        """The zone currently owning a machine."""
        return self.ring.node_for(machine_name)

    def shards(self) -> Dict[str, List[str]]:
        """zone -> sorted machines it currently owns."""
        return self.ring.shards(self.fleet_machines())

    # -- the ZONE_SUBSCRIBE / ZONE_REPORT plane -----------------------------------

    def subscribe_zone(self, zone: str) -> Dict[str, int]:
        """A zone announcing it will push reports; returns the ack floor.

        Idempotent: re-subscribing (a zone reconnecting after a network
        blip) just re-reads the floor, so the zone knows which report
        sequences the root has already accepted.
        """
        with self._lock:
            record = self._zones.get(zone)
            if record is None:
                raise KeyError(f"zone {zone!r} is not registered")
            record.subscribed = True
            return {"zone_seq": record.last_seq}

    def ingest_zone_report(self, report, now: Optional[float] = None) -> bool:
        """Accept one pushed zone roll-up; False for a stale replay.

        What makes a retried OP_ZONE_REPORT safe: a duplicate delivery
        (client retry after a lost response) carries the same ``seq``
        and is dropped here without disturbing the accepted state.

        Any accepted report is proof of life: it feeds the zone's
        liveness clock and snaps its health back to HEALTHY from any
        state.  (A *replay* does not — a retried duplicate proves the
        network delivered an old frame, not that the zone is alive now.)
        The ring re-admission itself waits for the next
        :meth:`check_zones` sweep so shard moves stay batched.
        """
        now = self._clock() if now is None else now
        with self._lock:
            record = self._zones.get(report.zone)
            if record is None:
                raise KeyError(f"zone {report.zone!r} is not registered")
            if report.seq <= record.last_seq:
                record.reports_dropped += 1
                return False
            record.last_seq = report.seq
            record.latest = report
            record.reports_accepted += 1
        record.health.record_success(now)
        return True

    def zone_record(self, zone: str) -> ZoneRecord:
        with self._lock:
            try:
                return self._zones[zone]
            except KeyError:
                raise KeyError(f"zone {zone!r} is not registered") from None

    # -- fleet merge ---------------------------------------------------------------

    def rollup(self, now: Optional[float] = None):
        """Merge the latest report of every zone into a fleet view.

        Zones judged DEAD (or failed over off the ring) contribute *no*
        report to the merged views — their machines are being re-homed
        and the survivors' next reports cover them; merging the corpse's
        last words would double-count the shard.  They surface instead
        in ``zone_quality`` / ``down_zones``.  Merely-SUSPECT zones are
        still merged but carry a ``stale`` annotation, so an old report
        is never silently passed off as fresh.  This is a read: no
        liveness transitions happen here (see :meth:`check_zones`).
        """
        from repro.core.diagnosis.report import FleetRollup, ZoneQuality

        now = self._clock() if now is None else now
        with self._lock:
            records = dict(self._zones)
        latest = {}
        quality = {}
        for zone, record in records.items():
            q = ZoneQuality(
                zone=zone,
                state=record.health.state,
                active=record.active,
                age_s=record.health.age_s(now),
                last_seq=record.last_seq,
            )
            quality[zone] = q
            if record.latest is not None and not q.zone_down:
                latest[zone] = record.latest
        window_s = max((r.window_s for r in latest.values()), default=0.0)
        return FleetRollup(window_s=window_s, zones=latest, zone_quality=quality)


def apply_shard_moves(
    moves: Dict[str, Tuple[Optional[str], Optional[str]]],
    zones: Dict[str, ZoneController],
    handle_for: Optional[Callable[[str], AgentHandle]] = None,
) -> Dict[str, str]:
    """Act on a :func:`~repro.core.sharding.moved_keys` diff.

    The deployment half of a rebalance or failover: for every moved
    machine, pull its handle out of the old :class:`ZoneController` and
    register it with the new one.  The root never holds handles, so
    when the old zone is gone (dead process, no entry in ``zones``, or
    the machine already unregistered) ``handle_for`` mints a fresh
    handle — the same factory a deployment used at bring-up.

    Returns machine -> new zone for the moves actually applied.  A move
    whose destination zone is not in ``zones`` is skipped (it will be
    re-applied when that zone appears); a move with no handle source at
    all raises, because silently dropping a machine from every shard is
    exactly the stranding this plane exists to prevent.
    """
    applied: Dict[str, str] = {}
    for machine in sorted(moves):
        old, new = moves[machine]
        handle: Optional[AgentHandle] = None
        src = zones.get(old) if old is not None else None
        if src is not None:
            try:
                handle = src.unregister_agent(machine)
            except KeyError:
                handle = None
        if new is None or new not in zones:
            continue
        if handle is None and handle_for is not None:
            handle = handle_for(machine)
        if handle is None:
            raise KeyError(
                f"no handle source for machine {machine!r} "
                f"(old zone {old!r} unavailable and no handle_for factory)"
            )
        zones[new].register_agent(machine, handle)
        applied[machine] = new
    obs.event(
        "fleet.shard_moves_applied", obs.INFO,
        moves=len(moves), applied=len(applied),
    )
    return applied
