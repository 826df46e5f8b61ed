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
separate, batched :meth:`Controller.refresh` step — called on a cadence
by long-running deployments, or explicitly by tests and tools that need
pull semantics.  Agents are reached through an ``AgentHandle`` —
in-process for simulations and tests, or the TCP client in
:mod:`repro.core.net` for the real split-process deployment — whose one
collection method, ``collect_blocks``, yields the changed rows as
columnar ``SeriesBlock``s that a mirror applies without building a dict.

The collection plane is failure-tolerant: a sync that cannot reach its
agent feeds the mirror's :class:`~repro.core.health.AgentHealth` state
machine instead of raising, and the controller keeps answering queries
from the (now aging) mirror.  Callers that care can ask for the
machine's :class:`~repro.core.health.DataQuality` annotation — or use
the ``*_with_quality`` variants — to learn how trustworthy an answer
is.

The collection plane is also *concurrent*: against a fleet, one slow or
dead agent must not stretch a refresh from max(RTT) to sum(RTT), so
:meth:`Controller.refresh_concurrent` (and
:meth:`Controller.refresh` with ``concurrent=True``) fans the
per-machine syncs out over a bounded worker pool.  Each mirror carries
its own lock, so a fan-out worker and a lazy ``mirror_latest`` refresh
never interleave inside one mirror's sync; cross-mirror state
(``store``, ``health``) is independently thread-safe.
:meth:`Controller.refresh_report` exposes the per-machine breakdown,
and :meth:`Controller.diagnose_fleet` runs Algorithm 1 across the whole
fleet with the per-machine scans fanned out around a single shared
window advance.

At fleet scale the flat design stops working: one process holding 500+
mirrors and polling 500+ agents per round is both a memory and a
wall-clock wall.  The control plane is therefore *hierarchical*:

* :class:`ZoneController` is the reusable mirror + refresh +
  Algorithm-1/2 tier — everything above — owning one consistent-hashed
  shard of machines (see :mod:`repro.core.sharding`).  It also accepts
  agent *pushes* (:meth:`ZoneController.ingest_push`) so agents ship
  deltas on change instead of waiting to be polled, and summarizes its
  shard into a :class:`~repro.core.diagnosis.report.ZoneReport` of
  per-machine scalars.
* :class:`Controller` is the single-zone alias that keeps the flat
  deployments (tests, small labs) working unchanged.
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
    AgentHealth,
    DataQuality,
    HealthPolicy,
    ZoneHealth,
    ZoneHealthPolicy,
)
from repro.core.net.client import AgentUnreachable
from repro.core.net.protocol import ProtocolError
from repro.core.records import StatRecord
from repro.core.sharding import DEFAULT_REPLICAS, HashRing, moved_keys
from repro.core.store import SeriesBlock, StoreError, TimeSeriesStore
from repro.core.tiers import TieredWindowStore

#: Failures of the collection path itself — swallowed into health
#: tracking.  Anything else (an agent *refusing* an op, a programming
#: error) still propagates.
COLLECTION_ERRORS = (AgentUnreachable, ProtocolError, ConnectionError, OSError)

#: Self-observability names (``machine`` labels are fleet-bounded).
SYNC_TOTAL_METRIC = "perfsight_mirror_syncs_total"
SYNC_SNAPSHOTS_METRIC = "perfsight_mirror_snapshots_total"
STALENESS_METRIC = "perfsight_mirror_staleness_seconds"
REFRESH_WORKERS_METRIC = "perfsight_controller_refresh_workers"
PUSH_ROWS_METRIC = "perfsight_zone_pushed_rows_total"
ZONE_REPORTS_METRIC = "perfsight_fleet_zone_reports_total"
FAILOVERS_METRIC = "perfsight_fleet_failovers_total"
REHOMED_METRIC = "perfsight_fleet_rehomed_machines_total"
ZONE_AGE_METRIC = "perfsight_fleet_zone_report_age_seconds"
ZONE_ACTIVE_METRIC = "perfsight_fleet_zone_active"
STORE_BYTES_METRIC = "perfsight_store_bytes"

T = TypeVar("T")

#: Default fan-out width for concurrent refresh / fleet diagnosis.
DEFAULT_MAX_WORKERS = 8


class AgentHandle(Protocol):
    """What the controller needs from an agent, local or remote."""

    name: str

    def query(
        self,
        element_ids: Optional[Iterable[str]] = None,
        attrs: Optional[Iterable[str]] = None,
    ) -> List[StatRecord]: ...

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
        health_policy: Optional[HealthPolicy] = None,
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
        self.health = AgentHealth(health_policy, name=machine)
        self.last_error: Optional[BaseException] = None
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
                self.last_error = exc
                self.health.record_failure(exc)
                obs.counter(SYNC_TOTAL_METRIC, machine=self.machine, ok="false")
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
            obs.counter(SYNC_TOTAL_METRIC, machine=self.machine, ok="true")
            obs.counter(
                SYNC_SNAPSHOTS_METRIC, float(received), machine=self.machine
            )
            sp.set("snapshots", received)
            return received

    def data_quality(self, now: Optional[float] = None) -> DataQuality:
        """The staleness annotation for answers served from this mirror."""
        last_ts: Optional[float] = None
        for eid in self.store.element_ids():
            ts = self.store.latest(eid).timestamp
            last_ts = ts if last_ts is None else max(last_ts, ts)
        age = None
        if now is not None and last_ts is not None:
            age = max(0.0, now - last_ts)
            obs.gauge(STALENESS_METRIC, age, machine=self.machine)
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

    :meth:`Controller.refresh` returns only the total snapshot count;
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

    @property
    def unhealthy(self) -> List[str]:
        """Machines whose agent health is not HEALTHY after the round."""
        return sorted(
            m for m, r in self.machines.items() if r.health_state != "healthy"
        )

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
    fleet tier.  Used standalone (via the :class:`Controller` alias) it
    is exactly the old flat controller.
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
        #: to the tiered store (benchmarks pass a flat-store factory to
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

    def register_agent(
        self,
        machine_name: str,
        agent: AgentHandle,
        health_policy: Optional[HealthPolicy] = None,
    ) -> None:
        with self._registry_lock:
            if machine_name in self._agents:
                raise ValueError(f"machine {machine_name!r} already has an agent")
            self._agents[machine_name] = agent
            self._mirrors[machine_name] = AgentMirror(
                machine_name,
                agent,
                health_policy,
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

    def refresh(
        self,
        machine_name: Optional[str] = None,
        concurrent: bool = False,
        max_workers: Optional[int] = None,
    ) -> int:
        """Pull deltas into the mirror(s); returns snapshots received.

        This is the explicit collection step — and the pull-semantics
        escape hatch for tests: after ``refresh()`` the mirrors reflect
        agent state as of now.  One batched exchange per machine,
        regardless of how many elements changed.

        ``concurrent=True`` fans the per-machine syncs out over the
        worker pool (see :meth:`refresh_concurrent`); the default stays
        serial so single-machine tests and simulations remain strictly
        deterministic.

        An unreachable agent does not raise: the failure feeds its
        health state machine and the machine contributes 0 snapshots.
        Check :meth:`health_for` / :meth:`data_quality` to observe it.
        """
        if machine_name is not None:
            return self.mirror_for(machine_name).sync()
        if concurrent:
            return self.refresh_concurrent(max_workers=max_workers)
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
        agent's health state machine: data arriving proves the path up.

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
        obs.counter(PUSH_ROWS_METRIC, float(shipped), machine=machine_name)
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
        context is propagated into the pool workers), so a slow agent is
        visible as the long child bar in the span tree.
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
            error=None if ok else repr(mirror.last_error),
        )

    def _fan_out(
        self,
        tasks: List[Tuple[str, Callable[[str], "T"]]],
        max_workers: Optional[int] = None,
    ) -> Tuple[Dict[str, "T"], int]:
        """Run ``fn(label)`` for every (label, fn) over the worker pool.

        Returns results keyed by label plus the peak number of
        simultaneously-active workers (the saturation figure exported on
        :data:`REFRESH_WORKERS_METRIC`).  The submitting thread's trace
        context is copied into each worker, so spans opened inside the
        work parent on the caller's span — one fresh context copy per
        task, since a single Context cannot be entered concurrently.

        Worker exceptions propagate to the caller: the fan-out units
        (sync, diagnosis scans) already convert expected collection
        failures into health state, so anything escaping is a bug.
        """
        width = max_workers if max_workers is not None else self.max_workers
        if width < 1:
            raise ValueError(f"max_workers must be >= 1: {width!r}")
        width = min(width, max(len(tasks), 1))
        gauge_state = {"active": 0, "peak": 0}
        gauge_lock = threading.Lock()

        def tracked(fn: Callable[[str], "T"], label: str) -> "T":
            with gauge_lock:
                gauge_state["active"] += 1
                gauge_state["peak"] = max(gauge_state["peak"], gauge_state["active"])
                active = gauge_state["active"]
            obs.gauge(REFRESH_WORKERS_METRIC, float(active))
            try:
                return fn(label)
            finally:
                with gauge_lock:
                    gauge_state["active"] -= 1
                    active = gauge_state["active"]
                obs.gauge(REFRESH_WORKERS_METRIC, float(active))

        with ThreadPoolExecutor(
            max_workers=width, thread_name_prefix=f"{self.name}-worker"
        ) as pool:
            futures = [
                (
                    label,
                    pool.submit(
                        contextvars.copy_context().run, tracked, fn, label
                    ),
                )
                for label, fn in tasks
            ]
            results = {label: future.result() for label, future in futures}
        return results, gauge_state["peak"]

    # -- fleet diagnosis -------------------------------------------------------------

    def begin_fleet_scan(
        self,
        window_s: float = 1.0,
        machines: Optional[Iterable[str]] = None,
        rulebook: Optional["object"] = None,
        max_workers: Optional[int] = None,
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
            scans, peak = self._fan_out(
                [(m, detector.begin) for m in names], max_workers
            )
        return ZoneScan(
            zone=self.name,
            window_s=window_s,
            detector=detector,
            scans=scans,
            machines=names,
            wall0=wall0,
            peak_workers=peak,
        )

    def finish_fleet_scan(
        self, scan: "ZoneScan", max_workers: Optional[int] = None
    ):
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
                    (m, lambda m_: scan.detector.finish_observed(scan.scans[m_]))
                    for m in scan.machines
                ],
                max_workers,
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
        self,
        advance: Callable[[float], None],
        window_s: float = 1.0,
        machines: Optional[Iterable[str]] = None,
        rulebook: Optional["object"] = None,
        max_workers: Optional[int] = None,
    ):
        """Algorithm 1 across the fleet, scans fanned out concurrently.

        Every machine's window-opening ``begin`` runs (in parallel)
        before ``advance`` moves time ONCE, then every window-closing
        ``finish`` runs — so all per-machine reports measure the same
        interval, which is what makes their verdicts comparable.  The
        merged :class:`~repro.core.diagnosis.report.FleetDiagnosis`
        flags machines whose verdicts rest on degraded data.
        """
        names = list(machines) if machines is not None else self.machines()
        with obs.span("controller.diagnose_fleet", machines=len(names)):
            scan = self.begin_fleet_scan(
                window_s, machines=names, rulebook=rulebook,
                max_workers=max_workers,
            )
            advance(window_s)
            return self.finish_fleet_scan(scan, max_workers=max_workers)

    # -- zone roll-up (what crosses the zone -> fleet wire) ---------------------------

    def build_zone_report(self, diagnosis, window_s: Optional[float] = None):
        """Summarize a shard diagnosis into per-machine scalars.

        Each machine contributes its health state, verdicts, total
        ranked loss and the Figure-6 rates read from the trailing
        mirror window — O(1) scalars per machine, no time series.  The
        report's ``seq`` increments per call, making its wire replay
        idempotent at the root.
        """
        from repro.core.diagnosis.report import MachineSummary, ZoneReport

        from repro.core.diagnosis.report import ZoneAggregates

        window = window_s if window_s is not None else diagnosis.window_s
        summaries: Dict[str, "MachineSummary"] = {}
        for machine, report in diagnosis.reports.items():
            summaries[machine] = self._summarize_machine(machine, report, window)
        with self._report_lock:
            self._report_seq += 1
            seq = self._report_seq
        return ZoneReport(
            zone=self.name,
            seq=seq,
            window_s=window,
            machines=summaries,
            aggregates=ZoneAggregates.from_summaries(summaries),
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

    def _window_scalars(
        self, machine: str, window_s: float
    ) -> Tuple[float, float, float, int, Optional[float]]:
        """Figure-6 rates off one machine's trailing mirror window.

        Returns ``(rx_pkts, rx_bytes, lost, elements, last_ts)`` where
        ``last_ts`` is the freshest sample timestamp seen (None when the
        mirror is empty).  O(elements) memoized window lookups — this is
        the entire per-machine cost of the coarse monitoring phase.
        """
        mirror = self.mirror_for(machine)
        rx_pkts = rx_bytes = lost = 0.0
        elements = 0
        last_ts: Optional[float] = None
        for eid in mirror.store.element_ids():
            try:
                win = mirror.store.window_ending_now(eid, window_s)
            except StoreError:
                continue
            elements += 1
            rx_pkts += win.delta("rx_pkts")
            rx_bytes += win.delta("rx_bytes")
            lost += max(0.0, win.pkt_loss())
            ts = win.end.timestamp
            last_ts = ts if last_ts is None else max(last_ts, ts)
        return rx_pkts, rx_bytes, lost, elements, last_ts

    def _summarize_machine(self, machine: str, report, window_s: float):
        """One machine's scalar summary from its mirror + scan report."""
        from repro.core.diagnosis.report import MachineSummary

        mirror = self.mirror_for(machine)
        rx_pkts, rx_bytes, lost, elements, _ = self._window_scalars(
            machine, window_s
        )
        dt = max(window_s, 1e-9)
        return MachineSummary(
            machine=machine,
            health=mirror.health.state,
            confidence=report.confidence,
            loss_pkts=sum(el.loss_pkts for el in report.ranked),
            throughput_pps=rx_pkts / dt,
            pkt_loss_rate=(lost / rx_pkts) if rx_pkts > 0 else 0.0,
            avg_pkt_size=(rx_bytes / rx_pkts) if rx_pkts > 0 else 0.0,
            elements=elements,
            missing_elements=len(report.missing_elements),
            verdicts=tuple(report.verdicts),
        )

    def build_coarse_report(
        self, window_s: float = 1.0, now: Optional[float] = None
    ):
        """Phase-1 roll-up: rates + health straight off the mirrors.

        The cheap half of two-phase streaming diagnosis: no Algorithm-1
        scan, no agent RPC, no window advance — just the memoized
        trailing-window scalars every machine's mirror already holds
        (agents push deltas on change, so the mirrors are current).
        ``now`` (the caller's clock — simulated time in tests) turns on
        the per-machine ``age_s`` staleness signal: the daemon's
        detector reads it to catch machines that silently stopped
        reporting.  Shares the zone's report sequence with the
        diagnosis-backed :meth:`build_zone_report`, so the root's
        monotonic replay dedup spans both kinds.
        """
        from repro.core.diagnosis.report import (
            CONFIDENCE_DEGRADED,
            CONFIDENCE_FULL,
            MachineSummary,
            ZoneAggregates,
            ZoneReport,
        )

        summaries: Dict[str, "MachineSummary"] = {}
        dt = max(window_s, 1e-9)
        for machine in self.machines():
            rx_pkts, rx_bytes, lost, elements, last_ts = self._window_scalars(
                machine, window_s
            )
            health = self.mirror_for(machine).health.state
            age = 0.0
            if now is not None and last_ts is not None:
                age = max(0.0, now - last_ts)
            summaries[machine] = MachineSummary(
                machine=machine,
                health=health,
                confidence=(
                    CONFIDENCE_FULL if health == HEALTHY else CONFIDENCE_DEGRADED
                ),
                loss_pkts=lost,
                throughput_pps=rx_pkts / dt,
                pkt_loss_rate=(lost / rx_pkts) if rx_pkts > 0 else 0.0,
                avg_pkt_size=(rx_bytes / rx_pkts) if rx_pkts > 0 else 0.0,
                elements=elements,
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
            aggregates=ZoneAggregates.from_summaries(summaries),
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

    def health_for(self, machine_name: str) -> AgentHealth:
        """The health state machine tracking one agent's collection path."""
        return self.mirror_for(machine_name).health

    def data_quality(
        self, machine_name: str, now: Optional[float] = None
    ) -> DataQuality:
        """Staleness/quality annotation for answers about one machine.

        ``now`` (the caller's notion of current time — simulated time in
        tests) turns the annotation's ``age_s`` on; without it only the
        health state and failure counts are reported.
        """
        return self.mirror_for(machine_name).data_quality(now)

    def _locate(self, tenant_id: str, element_logical: str) -> Tuple[str, str]:
        return self.vnet(tenant_id).locate(element_logical)

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

    # -- the GetAttr primitive (Figure 6) --------------------------------------------------

    def get_attr(
        self,
        tenant_id: str,
        element_logical: str,
        attrs: Optional[Iterable[str]] = None,
    ) -> StatRecord:
        """``vNet[tenantID].elem[elementID].attr[attributes]``.

        Answered from the controller mirror — no agent RPC.  An element
        never seen before triggers one lazy refresh of its machine's
        mirror so cold starts behave like the old pull path.
        """
        machine, element_id = self._locate(tenant_id, element_logical)
        return self.mirror_latest(machine, element_id).to_record(attrs)

    def get_attr_with_quality(
        self,
        tenant_id: str,
        element_logical: str,
        attrs: Optional[Iterable[str]] = None,
        now: Optional[float] = None,
    ) -> Tuple[StatRecord, DataQuality]:
        """:meth:`get_attr` plus the serving mirror's quality annotation.

        This is how a diagnosis application keeps getting answers while
        an agent is down — the record is the mirror's last knowledge,
        and the annotation says exactly how much to trust it.
        """
        machine, element_id = self._locate(tenant_id, element_logical)
        record = self.mirror_latest(machine, element_id).to_record(attrs)
        return record, self.data_quality(machine, now)

    def window(
        self,
        tenant_id: str,
        element_logical: str,
        t0: float,
        t1: float,
    ) -> CounterWindow:
        """The element's mirrored activity over ``[t0, t1]``."""
        machine, element_id = self._locate(tenant_id, element_logical)
        self.mirror_latest(machine, element_id)  # lazy-populate on miss
        return self.mirror_for(machine).store.window(element_id, t0, t1)

    def machine_window(
        self, machine_name: str, element_id: str, t0: float, t1: float
    ) -> CounterWindow:
        """Mirror window lookup by physical element id (diagnostics)."""
        self.mirror_latest(machine_name, element_id)
        return self.mirror_for(machine_name).store.window(element_id, t0, t1)

    # -- O(1) Figure-6 routines over the trailing mirror window ----------------------------

    def get_throughput(
        self, tenant_id: str, element_logical: str, attr: str = "rx_bytes",
        window_s: float = 1.0,
    ) -> float:
        """Average throughput over the trailing window, bytes/second."""
        machine, element_id = self._locate(tenant_id, element_logical)
        self.mirror_latest(machine, element_id)
        win = self.mirror_for(machine).store.window_ending_now(element_id, window_s)
        return win.rate(attr)

    def get_pkt_loss(
        self, tenant_id: str, element_logical: str,
        in_attr: str = "rx_pkts", out_attr: str = "tx_pkts",
        window_s: float = 1.0,
    ) -> float:
        """Packets lost within the element over the trailing window."""
        machine, element_id = self._locate(tenant_id, element_logical)
        self.mirror_latest(machine, element_id)
        win = self.mirror_for(machine).store.window_ending_now(element_id, window_s)
        return win.pkt_loss(in_attr, out_attr)

    def get_avg_pkt_size(
        self, tenant_id: str, element_logical: str,
        bytes_attr: str = "rx_bytes", pkts_attr: str = "rx_pkts",
        window_s: float = 1.0,
    ) -> float:
        """Average packet size over the trailing window, bytes."""
        machine, element_id = self._locate(tenant_id, element_logical)
        self.mirror_latest(machine, element_id)
        win = self.mirror_for(machine).store.window_ending_now(element_id, window_s)
        return win.avg_pkt_size(bytes_attr, pkts_attr)

    # -- raw pull path (legacy escape hatch) -----------------------------------------------

    def query_machine(
        self,
        machine_name: str,
        element_ids: Optional[Iterable[str]] = None,
        attrs: Optional[Iterable[str]] = None,
    ) -> List[StatRecord]:
        """Raw synchronous per-machine pull, bypassing the mirror."""
        return self.agent_for(machine_name).query(element_ids, attrs)


@dataclass
class ZoneScan:
    """In-flight split-phase fleet scan: windows open, not yet closed.

    Produced by :meth:`ZoneController.begin_fleet_scan`; consumed
    exactly once by :meth:`ZoneController.finish_fleet_scan` after the
    caller advances time.  ``detector`` and the per-machine ``scans``
    hold the captured window starts.
    """

    zone: str
    window_s: float
    detector: "object"
    scans: Dict[str, "object"]
    machines: List[str]
    wall0: float
    peak_workers: int = 1


class Controller(ZoneController):
    """The flat single-tier controller — one zone owning everything.

    Kept as the default for tests, simulations and small deployments;
    behaviourally identical to the pre-hierarchy controller.
    """

    def __init__(
        self,
        name: str = "perfsight-controller",
        max_workers: int = DEFAULT_MAX_WORKERS,
        store_factory: Optional[Callable[[], TimeSeriesStore]] = None,
    ) -> None:
        super().__init__(
            name=name, max_workers=max_workers, store_factory=store_factory
        )


@dataclass
class ZoneRecord:
    """The root tier's entire knowledge of one zone — scalars only."""

    zone: str
    #: Last accepted report sequence (replays at or below are dropped).
    last_seq: int = 0
    #: Latest accepted roll-up, or None before the first report.
    latest: Optional["object"] = None
    reports_accepted: int = 0
    reports_dropped: int = 0
    subscribed: bool = False
    #: Report-age liveness state machine (HEALTHY/SUSPECT/DEAD).
    health: ZoneHealth = field(default_factory=ZoneHealth)
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

    @property
    def changed(self) -> bool:
        """True when shard ownership changed and moves need applying."""
        return bool(self.failed_over or self.recovered)

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
    report feeds the zone's :class:`~repro.core.health.ZoneHealth`
    clock, and a :meth:`check_zones` sweep (run on the heartbeat
    cadence) decays silent zones through SUSPECT to DEAD, evicts dead
    zones from the ring (their shard re-homes to survivors via one
    batched :func:`~repro.core.sharding.moved_keys` diff), and re-admits
    zones whose reports resume.  Liveness transitions happen *only* in
    ``record_report`` and ``check_zones`` — never as a side effect of a
    read — so simulations and tests stay deterministic.  ``clock`` is
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
                zone=zone, health=ZoneHealth(self.zone_policy, name=zone)
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
        that merely died and may come back, the failover plane uses
        :meth:`deactivate_zone` / :meth:`reactivate_zone` instead, which
        keep the record (and its replay-dedup seq floor) across the
        outage.  ``discard_node`` tolerates the zone already being off
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

    def deactivate_zone(
        self, zone: str, reason: str = "dead"
    ) -> Dict[str, Tuple[Optional[str], Optional[str]]]:
        """Evict a zone from the ring but keep its record; returns moves.

        The failover half: the zone's shard re-homes to survivors (the
        moves map is exactly the dead shard — consistent hashing leaves
        every other machine where it was), while the record — and with
        it the report seq floor — survives, so a recovered zone's
        replayed reports still dedup correctly.  Idempotent for a zone
        already inactive.
        """
        before = self._assignment()
        with self._lock:
            record = self._zones.get(zone)
            if record is None:
                raise KeyError(f"zone {zone!r} is not registered")
            if not record.active:
                return {}
            record.active = False
            self.failovers += 1
        self.ring.discard_node(zone)
        moves = moved_keys(before, self._assignment())
        obs.counter(FAILOVERS_METRIC, zone=zone)
        obs.counter(REHOMED_METRIC, float(len(moves)))
        obs.event(
            "fleet.zone_failed_over", obs.ERROR,
            zone=zone, reason=reason, moves=len(moves),
        )
        return moves

    def reactivate_zone(
        self, zone: str
    ) -> Dict[str, Tuple[Optional[str], Optional[str]]]:
        """Re-admit a recovered zone to the ring; returns the moves.

        Consistent hashing puts exactly the machines the zone owned
        before its death back onto it (same ring points), so recovery
        undoes the failover moves and nothing else.  Idempotent for a
        zone already active.
        """
        with self._lock:
            record = self._zones.get(zone)
            if record is None:
                raise KeyError(f"zone {zone!r} is not registered")
            if record.active:
                return {}
        before = self._assignment()
        with self._lock:
            record = self._zones[zone]
            record.active = True
            record.health.arm(self._clock())
            self.recoveries += 1
        self.ring.add_node(zone)
        moves = moved_keys(before, self._assignment())
        obs.counter(REHOMED_METRIC, float(len(moves)))
        obs.event(
            "fleet.zone_recovered", obs.INFO, zone=zone, moves=len(moves),
        )
        return moves

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
            if record.active:
                state = record.health.evaluate(now)
                if state == DEAD:
                    with self._lock:
                        still = record.active
                        if still:
                            record.active = False
                            self.failovers += 1
                    if still:
                        self.ring.discard_node(record.zone)
                        failed_over.append(record.zone)
                        obs.counter(FAILOVERS_METRIC, zone=record.zone)
                        obs.event(
                            "fleet.zone_failed_over", obs.ERROR,
                            zone=record.zone, reason="heartbeat",
                        )
            else:
                state = record.health.state
                if state == HEALTHY:
                    with self._lock:
                        record.active = True
                        record.health.arm(now)
                        self.recoveries += 1
                    self.ring.add_node(record.zone)
                    recovered.append(record.zone)
                    obs.event(
                        "fleet.zone_recovered", obs.INFO, zone=record.zone,
                    )
            states[record.zone] = state
            age = record.health.age_s(now)
            if age is not None:
                obs.gauge(ZONE_AGE_METRIC, age, zone=record.zone)
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
        if moves:
            obs.counter(REHOMED_METRIC, float(len(moves)))
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

        The idempotency contract behind OP_ZONE_REPORT's membership in
        the retry-safe op set: a duplicate delivery (client retry after
        a lost response) carries the same ``seq`` and is dropped here
        without disturbing the accepted state.

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
                obs.counter(ZONE_REPORTS_METRIC, zone=report.zone, ok="replay")
                return False
            record.last_seq = report.seq
            record.latest = report
            record.reports_accepted += 1
        record.health.record_report(now)
        obs.counter(ZONE_REPORTS_METRIC, zone=report.zone, ok="true")
        return True

    def latest_report(self, zone: str):
        with self._lock:
            record = self._zones.get(zone)
            if record is None:
                raise KeyError(f"zone {zone!r} is not registered")
            return record.latest

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
