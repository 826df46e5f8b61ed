"""Agent health tracking for the collection plane.

PerfSight's controller depends on a fleet of per-server agents reached
over a management network; both the agents and the network can fail
while the dataplane being diagnosed keeps running.  A diagnosis system
that dies with its own measurement path is useless exactly when it is
needed most, so the controller tracks a small per-agent health state
machine and keeps answering queries from its mirror stores — with an
explicit data-quality annotation — while an agent is unreachable.

States::

    HEALTHY --(degraded_after consecutive failed syncs)--> DEGRADED
    DEGRADED --(dead_after consecutive failed syncs)-----> DEAD
    DEGRADED/DEAD --(recover_after consecutive successes)-> HEALTHY

Thresholds are counted in *consecutive* collection attempts, not wall
time, so the machine behaves identically under simulated and real
clocks and under any refresh cadence.

The hierarchy's root tier tracks the same idea one level up, but in
*time* rather than attempts: a zone is expected to push a report every
heartbeat period, and the root judges liveness by how far the last
accepted report lags the deadline (:class:`ZoneHealth`)::

    HEALTHY --(no report for suspect_after heartbeats)--> SUSPECT
    SUSPECT --(no report for dead_after heartbeats)-----> DEAD
    any state --(a report arrives)----------------------> HEALTHY

Attempt counting would not work at the root: the root does not call
zones, zones call the root, so "consecutive failures" has no observer
there — absence of evidence is the only signal, and absence is
measured in heartbeats.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro import obs

#: The three agent health states, in degradation order.
HEALTHY = "healthy"
DEGRADED = "degraded"
DEAD = "dead"

HEALTH_STATES = (HEALTHY, DEGRADED, DEAD)

#: Zone liveness adds SUSPECT between healthy and dead: a zone that
#: missed one heartbeat is probably slow, not gone — Dapper's two-phase
#: shape (cheap suspicion first, expensive recovery only on confirmed
#: death) applied to the control plane itself.
SUSPECT = "suspect"

ZONE_STATES = (HEALTHY, SUSPECT, DEAD)

_STATE_RANK = {state: rank for rank, state in enumerate(HEALTH_STATES)}


def count_states(states: Iterable[str]) -> Dict[str, int]:
    """Histogram of health states, every known state always present.

    The hierarchy's roll-up currency: a zone summarizes its shard as
    these three integers instead of forwarding per-agent objects, and
    the fleet tier adds histograms together.
    """
    counts = dict.fromkeys(HEALTH_STATES, 0)
    for state in states:
        counts[state] = counts.get(state, 0) + 1
    return counts


def merge_state_counts(parts: Iterable[Dict[str, int]]) -> Dict[str, int]:
    """Sum per-zone state histograms into a fleet histogram."""
    total = dict.fromkeys(HEALTH_STATES, 0)
    for part in parts:
        for state, n in part.items():
            total[state] = total.get(state, 0) + n
    return total


def worst_state(states: Iterable[str]) -> str:
    """The most degraded state present (HEALTHY for an empty input).

    Unknown states rank worst: a roll-up must not report a fleet
    healthier than a tier it failed to understand.
    """
    worst = HEALTHY
    worst_rank = _STATE_RANK[worst]
    for state in states:
        rank = _STATE_RANK.get(state, len(HEALTH_STATES))
        if rank > worst_rank:
            worst, worst_rank = state, rank
    return worst

#: Self-observability: every state-machine edge is kept in
#: ``transitions`` and emitted as a structured event (severity scales
#: with how bad the new state is).
_TRANSITION_SEVERITY = {HEALTHY: obs.INFO, DEGRADED: obs.WARNING, DEAD: obs.ERROR}


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds of the per-agent health state machine.

    ``degraded_after`` consecutive failed syncs move a HEALTHY agent to
    DEGRADED; ``dead_after`` consecutive failures to DEAD; and
    ``recover_after`` consecutive successful syncs bring any non-HEALTHY
    agent back to HEALTHY.
    """

    degraded_after: int = 1
    dead_after: int = 3
    recover_after: int = 1

    def __post_init__(self) -> None:
        if self.degraded_after < 1:
            raise ValueError(f"degraded_after must be >= 1: {self.degraded_after!r}")
        if self.dead_after < self.degraded_after:
            raise ValueError(
                f"dead_after ({self.dead_after!r}) must be >= degraded_after "
                f"({self.degraded_after!r})"
            )
        if self.recover_after < 1:
            raise ValueError(f"recover_after must be >= 1: {self.recover_after!r}")


class AgentHealth:
    """Tracks one agent's collection-path health at the controller."""

    def __init__(
        self, policy: Optional[HealthPolicy] = None, name: str = ""
    ) -> None:
        self.policy = policy if policy is not None else HealthPolicy()
        #: The tracked agent/machine, for events (optional but useful).
        self.name = name
        # Concurrent refresh workers may record outcomes for the same
        # agent (a retried sync racing a health probe); the state machine
        # itself stays consistent under that.
        self._lock = threading.Lock()
        self.state = HEALTHY
        self.consecutive_failures = 0
        self.consecutive_successes = 0
        self.total_failures = 0
        self.total_successes = 0
        self.last_error: Optional[BaseException] = None
        #: Every (from_state, to_state) edge taken, in order.
        self.transitions: List[Tuple[str, str]] = []

    # -- event ingestion ---------------------------------------------------------

    def record_success(self) -> str:
        """One successful collection exchange; returns the new state."""
        with self._lock:
            self.total_successes += 1
            self.consecutive_failures = 0
            self.consecutive_successes += 1
            if (
                self.state != HEALTHY
                and self.consecutive_successes >= self.policy.recover_after
            ):
                self._transition(HEALTHY)
            return self.state

    def record_failure(self, error: Optional[BaseException] = None) -> str:
        """One failed collection exchange; returns the new state."""
        with self._lock:
            self.total_failures += 1
            self.consecutive_successes = 0
            self.consecutive_failures += 1
            if error is not None:
                self.last_error = error
            if self.consecutive_failures >= self.policy.dead_after:
                if self.state != DEAD:
                    self._transition(DEAD)
            elif self.consecutive_failures >= self.policy.degraded_after:
                if self.state == HEALTHY:
                    self._transition(DEGRADED)
            return self.state

    def _transition(self, new_state: str) -> None:
        self.transitions.append((self.state, new_state))
        obs.event(
            "health.transition",
            _TRANSITION_SEVERITY[new_state],
            agent=self.name,
            from_state=self.state,
            to_state=new_state,
            consecutive_failures=self.consecutive_failures,
        )
        self.state = new_state

    # -- views -------------------------------------------------------------------

    @property
    def healthy(self) -> bool:
        return self.state == HEALTHY

    def state_sequence(self) -> List[str]:
        """The states visited so far, starting from HEALTHY."""
        return [HEALTHY] + [to for _, to in self.transitions]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AgentHealth(state={self.state!r}, "
            f"fails={self.consecutive_failures}, oks={self.consecutive_successes})"
        )


@dataclass(frozen=True)
class DataQuality:
    """Staleness/quality annotation attached to mirror-served answers.

    ``state`` is the serving agent's health state at answer time;
    ``last_snapshot_ts`` the newest counter timestamp the mirror holds
    for that machine (None for an empty mirror); ``age_s`` how far that
    timestamp lags the caller-supplied reference time, when one was
    given.  ``resets`` counts counter re-baselines the mirror performed
    (agent restarts observed through the data).
    """

    machine: str
    state: str
    consecutive_failures: int = 0
    failed_syncs: int = 0
    last_snapshot_ts: Optional[float] = None
    age_s: Optional[float] = None
    resets: int = 0

    @property
    def stale(self) -> bool:
        """True when the answer may lag the dataplane's true state."""
        return self.state != HEALTHY

    def describe(self) -> str:
        if not self.stale:
            return f"{self.machine}: fresh ({self.state})"
        age = f", data {self.age_s:.3f}s old" if self.age_s is not None else ""
        return (
            f"{self.machine}: STALE ({self.state}, "
            f"{self.consecutive_failures} consecutive failed syncs{age})"
        )


# -- zone liveness (the root tier's view of its aggregators) ------------------

#: Self-observability name for the zone state machine (its edges are
#: kept in ``transitions``).
ZONE_LIVENESS_METRIC = "perfsight_fleet_zone_liveness_state"

#: Numeric encoding of zone liveness for the labelled root gauge —
#: dashboards alert on ``> 0`` without parsing state strings.
ZONE_STATE_VALUES = {HEALTHY: 0.0, SUSPECT: 1.0, DEAD: 2.0}

_ZONE_SEVERITY = {HEALTHY: obs.INFO, SUSPECT: obs.WARNING, DEAD: obs.ERROR}

_ZONE_RANK = {state: rank for rank, state in enumerate(ZONE_STATES)}


@dataclass(frozen=True)
class ZoneHealthPolicy:
    """Deadlines of the per-zone liveness state machine at the root.

    A live zone pushes a report at least every ``heartbeat_s``.  A zone
    whose last report is older than ``suspect_after`` heartbeats is
    SUSPECT; older than ``dead_after`` heartbeats, DEAD.  The defaults
    (1 and 2 heartbeats) give the acceptance bound the failover plane
    is built around: a killed zone is detected within two heartbeat
    periods.
    """

    heartbeat_s: float = 1.0
    suspect_after: float = 1.0
    dead_after: float = 2.0

    def __post_init__(self) -> None:
        if self.heartbeat_s <= 0:
            raise ValueError(f"heartbeat_s must be positive: {self.heartbeat_s!r}")
        if self.suspect_after <= 0:
            raise ValueError(
                f"suspect_after must be positive: {self.suspect_after!r}"
            )
        if self.dead_after < self.suspect_after:
            raise ValueError(
                f"dead_after ({self.dead_after!r}) must be >= suspect_after "
                f"({self.suspect_after!r})"
            )

    def state_for_age(self, age_s: float) -> str:
        """The liveness state implied by a report age (pure function)."""
        if age_s >= self.dead_after * self.heartbeat_s:
            return DEAD
        if age_s >= self.suspect_after * self.heartbeat_s:
            return SUSPECT
        return HEALTHY


class ZoneHealth:
    """Tracks one zone's liveness at the fleet root, by report age.

    Unlike :class:`AgentHealth` (attempt-counted, because the
    controller actively calls its agents), the root only *receives*:
    a zone that died simply stops pushing, so liveness is judged by
    comparing the last accepted report's arrival time against the
    heartbeat deadline.  ``record_report`` is the proof-of-life edge —
    any accepted report snaps the zone back to HEALTHY from any state;
    ``evaluate`` drives the age-based decay.
    """

    def __init__(
        self, policy: Optional[ZoneHealthPolicy] = None, name: str = ""
    ) -> None:
        self.policy = policy if policy is not None else ZoneHealthPolicy()
        self.name = name
        self._lock = threading.Lock()
        self.state = HEALTHY
        #: Arrival time of the last accepted report (None before any).
        self.last_report_ts: Optional[float] = None
        self.reports_seen = 0
        #: Every (from_state, to_state) edge taken, in order.
        self.transitions: List[Tuple[str, str]] = []

    def record_report(self, now: float) -> str:
        """An accepted report arrived at ``now``; returns the new state."""
        with self._lock:
            self.last_report_ts = now
            self.reports_seen += 1
            if self.state != HEALTHY:
                self._transition(HEALTHY)
            return self.state

    def evaluate(self, now: float) -> str:
        """Re-judge liveness against the deadline; returns the state.

        A zone that has never reported ages from its registration — the
        caller seeds ``last_report_ts`` via :meth:`arm` so a zone that
        registers and immediately dies is still detected.
        """
        with self._lock:
            if self.last_report_ts is None:
                return self.state
            implied = self.policy.state_for_age(max(0.0, now - self.last_report_ts))
            if implied != self.state:
                # Only decay here: recovery edges come exclusively from
                # record_report (evidence), never from re-evaluation.
                if _ZONE_RANK[implied] > _ZONE_RANK[self.state]:
                    self._transition(implied)
            return self.state

    def arm(self, now: float) -> None:
        """Start the liveness clock without counting a report.

        Called at registration (and reactivation) so the deadline is
        armed from the moment the root starts expecting heartbeats.
        """
        with self._lock:
            if self.last_report_ts is None or now > self.last_report_ts:
                self.last_report_ts = now

    def age_s(self, now: float) -> Optional[float]:
        """How far the last report lags ``now`` (None before any)."""
        with self._lock:
            if self.last_report_ts is None:
                return None
            return max(0.0, now - self.last_report_ts)

    def _transition(self, new_state: str) -> None:
        self.transitions.append((self.state, new_state))
        obs.gauge(ZONE_LIVENESS_METRIC, ZONE_STATE_VALUES[new_state], zone=self.name)
        obs.event(
            "zone_health.transition",
            _ZONE_SEVERITY[new_state],
            zone=self.name,
            from_state=self.state,
            to_state=new_state,
        )
        self.state = new_state

    @property
    def healthy(self) -> bool:
        return self.state == HEALTHY

    @property
    def dead(self) -> bool:
        return self.state == DEAD

    def state_sequence(self) -> List[str]:
        """The states visited so far, starting from HEALTHY."""
        return [HEALTHY] + [to for _, to in self.transitions]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ZoneHealth(zone={self.name!r}, state={self.state!r})"
