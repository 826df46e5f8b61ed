"""Peer liveness for the collection and control planes.

PerfSight's controller reaches its per-server agents over a management
network (Sections 4.2-4.3), and agents, zones and that network can all
fail while the dataplane being diagnosed keeps running.  A diagnosis
system that dies with its own measurement path is useless exactly when
it is needed most, so each tier keeps one :class:`Liveness` record per
peer it depends on, and keeps answering from what it last saw — with
an explicit data-quality annotation — while a peer is down.

One rule, for every peer::

    HEALTHY --(one missed unit)----------> DEGRADED / SUSPECT
    any     --(dead_after missed units)--> DEAD
    any     --(proof of life)------------> HEALTHY

Missed units only move a record down; only proof of life (a successful
exchange, an accepted report) moves it back up.  The unit depends on
who calls whom:

* A peer this side *calls* is counted: a zone's mirror of an agent
  (DEAD after 3) and an agent's push target (DEAD after its
  ``rehome_after``).  A unit is one failed exchange, and the middle
  state is DEGRADED.  Counting attempts, not time, keeps the record
  identical under simulated and real clocks and any refresh cadence.
* A peer that *calls this side* is age-judged: the root's view of a
  zone (DEAD after 2).  The root never calls a zone, so a failed
  exchange has no observer there; silence is the only signal, and a
  unit is one heartbeat of it since the last report.  The middle state
  is SUSPECT.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

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


#: Missed units before DEAD: failed syncs for an agent mirror,
#: heartbeats of silence for a zone.  An agent's push target goes DEAD
#: after the agent's ``rehome_after``.
AGENT_DEAD_AFTER = 3
ZONE_DEAD_AFTER = 2

#: Self-observability name for the zone records (their gauge and
#: ``zone_health.transition`` events).
ZONE_LIVENESS_METRIC = "perfsight_fleet_zone_liveness_state"

#: Numeric encoding of zone liveness for the labelled root gauge —
#: dashboards alert on ``> 0`` without parsing state strings.
ZONE_STATE_VALUES = {HEALTHY: 0.0, SUSPECT: 1.0, DEAD: 2.0}

#: Event severity scales with how bad the new state is.
_SEVERITY = {
    HEALTHY: obs.INFO, DEGRADED: obs.WARNING, SUSPECT: obs.WARNING, DEAD: obs.ERROR,
}


class Liveness:
    """One peer's liveness record: the module's rule under one lock.

    With ``heartbeat_s`` the record is age-judged (:meth:`evaluate`
    counts heartbeats of silence since the last proof of life); without
    it the record is counted and :meth:`evaluate` leaves it alone.
    Every edge is kept in ``transitions`` and handed to
    ``on_transition(record, from_state, to_state)`` under the lock.
    """

    def __init__(
        self,
        dead_after: int,
        heartbeat_s: Optional[float] = None,
        name: str = "",
        on_transition: Optional[Callable[["Liveness", str, str], None]] = None,
    ) -> None:
        self.dead_after = dead_after
        self.heartbeat_s = heartbeat_s
        self.name = name
        self._on_transition = on_transition
        self._middle = DEGRADED if heartbeat_s is None else SUSPECT
        # Concurrent workers record outcomes for one peer (a fan-out
        # sync racing a push, a report racing a sweep).
        self._lock = threading.Lock()
        self.state = HEALTHY
        self.consecutive_failures = 0
        self.last_error: Optional[BaseException] = None
        #: Time of the last proof of life, or of :meth:`arm` if later.
        self.last_success_ts: Optional[float] = None
        #: Every (from_state, to_state) edge taken, in order.
        self.transitions: List[Tuple[str, str]] = []

    @classmethod
    def for_agent(cls, name: str) -> "Liveness":
        """A zone's record of one agent, emitting ``health.transition``."""
        return cls(AGENT_DEAD_AFTER, name=name, on_transition=_agent_edge)

    @classmethod
    def for_zone(cls, name: str, heartbeat_s: float) -> "Liveness":
        """The root's record of one zone, emitting ``zone_health.transition``."""
        return cls(ZONE_DEAD_AFTER, heartbeat_s, name, _zone_edge)

    def record_success(self, now: Optional[float] = None) -> str:
        """Proof of life (at ``now``, for an age-judged record); returns the state."""
        with self._lock:
            if now is not None:
                self.last_success_ts = now
            self.consecutive_failures = 0
            if self.state != HEALTHY:
                self._transition(HEALTHY)
            return self.state

    def record_failure(self, error: Optional[BaseException] = None) -> str:
        """One failed exchange, one missed unit; returns the state."""
        with self._lock:
            self.consecutive_failures += 1
            if error is not None:
                self.last_error = error
            self._decay(self.consecutive_failures)
            return self.state

    def evaluate(self, now: float) -> str:
        """Judge the silence since the last proof of life; returns the state.

        A record never armed (and a counted one) has no clock to judge.
        """
        with self._lock:
            if self.heartbeat_s is not None and self.last_success_ts is not None:
                age_s = max(0.0, now - self.last_success_ts)
                if age_s >= self.dead_after * self.heartbeat_s:
                    self._decay(self.dead_after)
                elif age_s >= self.heartbeat_s:
                    self._decay(1)
            return self.state

    def arm(self, now: float) -> None:
        """Start the silence clock at ``now`` without counting proof of life.

        Called when the root starts expecting heartbeats (registration,
        re-admission), so a zone that never reports still goes DEAD.
        The clock never moves back.
        """
        with self._lock:
            if self.last_success_ts is None or now > self.last_success_ts:
                self.last_success_ts = now

    def age_s(self, now: float) -> Optional[float]:
        """How far the last proof of life lags ``now`` (None before any)."""
        with self._lock:
            if self.last_success_ts is None:
                return None
            return max(0.0, now - self.last_success_ts)

    def _decay(self, missed: int) -> None:
        if missed >= self.dead_after:
            if self.state != DEAD:
                self._transition(DEAD)
        elif self.state == HEALTHY:
            self._transition(self._middle)

    def _transition(self, new_state: str) -> None:
        self.transitions.append((self.state, new_state))
        if self._on_transition is not None:
            self._on_transition(self, self.state, new_state)
        self.state = new_state


def _agent_edge(record: Liveness, from_state: str, to_state: str) -> None:
    obs.event(
        "health.transition",
        _SEVERITY[to_state],
        agent=record.name,
        from_state=from_state,
        to_state=to_state,
        consecutive_failures=record.consecutive_failures,
    )


def _zone_edge(record: Liveness, from_state: str, to_state: str) -> None:
    obs.gauge(ZONE_LIVENESS_METRIC, ZONE_STATE_VALUES[to_state], zone=record.name)
    obs.event(
        "zone_health.transition",
        _SEVERITY[to_state],
        zone=record.name,
        from_state=from_state,
        to_state=to_state,
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


@dataclass(frozen=True)
class ZoneHealthPolicy:
    """The heartbeat the root expects from every zone.

    A live zone pushes a report at least every ``heartbeat_s``; a zone
    silent for one heartbeat is SUSPECT and for two is DEAD, which is
    the acceptance bound the failover plane is built around: a killed
    zone is detected within two heartbeat periods.
    """

    heartbeat_s: float = 1.0

    def __post_init__(self) -> None:
        if self.heartbeat_s <= 0:
            raise ValueError(f"heartbeat_s must be positive: {self.heartbeat_s!r}")
