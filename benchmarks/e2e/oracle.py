"""The correctness oracle: every verdict scored against the injected truth.

The expectations below are the paper's Table 1 and Algorithm 2 written out
by hand, *not* read back from ``repro.core.rulebook`` -- a rule-book edit
that changes a verdict must fail here.

Scored operations (``attempted``) and how each can fail (``failed``):

* every injected fault must get its correct verdict within
  ``deadline_rounds`` of its first counter bump (else *missing*);
* every verdict the program shows must be explained by a fault active in
  the window it was computed over (else *spurious*), and a verdict on a
  faulted machine must carry the fault's location class, scope and
  resources (else *wrong*);
* every Figure-6 read the workload issues must equal the generator's truth;
* every sync, report delivery and -- at quiescence -- every mirror row
  versus its agent store row is counted by the world and added here.
"""

from __future__ import annotations

import re
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from benchmarks.e2e.replay import Fault

#: Table 1, by injected row: (location class, scope, resources).
TABLE_1: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "pnic": ("pnic", "shared", ("incoming-bandwidth",)),
    "pcpu_backlog": ("pcpu_backlog", "shared", ("outgoing-bandwidth", "memory-space")),
    "pnic_txq": ("pnic_txq", "shared", ("outgoing-bandwidth",)),
    "tun_one": ("tun", "individual", ("vm-bottleneck",)),
    "tun_all": ("tun", "shared", ("host-cpu", "memory-bandwidth")),
}

_VERDICT_RE = re.compile(
    r"^Verdict\(location_class='([^']*)', resources=\[([^\]]*)\], scope='([^']*)'"
)
_MB_RE = re.compile(
    r"^MiddleboxVerdict\(name='([^']*)',.*is_root_cause=(True|False), "
    r"label='([^']*)'"
)

VerdictKey = Tuple[str, str, Tuple[str, ...]]


def verdict_key(verdict: object) -> Optional[VerdictKey]:
    """(class, scope, resources) of a ``Verdict`` or of its ``str()``.

    The daemon keeps incident verdicts as strings; roll-ups carry the
    dataclass.  Returns None for anything that is not an Algorithm-1
    verdict.
    """
    if isinstance(verdict, str):
        m = _VERDICT_RE.match(verdict)
        if m is None:
            return None
        resources = tuple(r.strip().strip("'") for r in m.group(2).split(",") if r.strip())
        return m.group(1), m.group(3), resources
    return (
        verdict.location_class,  # type: ignore[attr-defined]
        verdict.scope,  # type: ignore[attr-defined]
        tuple(verdict.resources),  # type: ignore[attr-defined]
    )


def middlebox_key(verdict: object) -> Optional[Tuple[str, bool, str]]:
    """(name, is_root_cause, label) of a ``MiddleboxVerdict`` or its ``str()``."""
    if isinstance(verdict, str):
        m = _MB_RE.match(verdict)
        if m is None:
            return None
        return m.group(1), m.group(2) == "True", m.group(3)
    return verdict.name, verdict.is_root_cause, verdict.label  # type: ignore[attr-defined]


class Oracle:
    """Accumulates ``attempted``/``failed`` and per-fault verdict latency."""

    def __init__(self, deadline_rounds: int = 3) -> None:
        self.deadline_rounds = deadline_rounds
        self.faults: List[Fault] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    # -- bookkeeping ------------------------------------------------------------------

    def add_fault(self, fault: Fault) -> None:
        self.faults.append(fault)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def count(self, attempted: int, failed: int, what: str) -> None:
        """Fold in operations the world counted itself (syncs, rows, ...)."""
        self.attempted += attempted
        if failed:
            self.failed += failed
            if len(self.failures) < 20:
                self.failures.append(f"{failed} x {what}")

    def _credit(self, fault: Fault, round_no: int, wall: float) -> None:
        if fault.verdict_round is None:
            fault.verdict_round = round_no
            fault.verdict_wall = wall

    def _recent(self, kind: str, round_no: int, lookback: int) -> List[Fault]:
        """Faults of ``kind`` whose effect can show in round ``round_no``."""
        return [
            f for f in self.faults
            if f.kind == kind and f.start <= round_no < f.end + lookback
        ]

    # -- Algorithm 1 -------------------------------------------------------------------

    def see_machine_verdicts(
        self,
        round_no: int,
        wall: float,
        seen: Iterable[Tuple[str, object]],
        lookback: int = 0,
        root_visible: Optional[Iterable[str]] = None,
    ) -> None:
        """Score ``(machine, verdict)`` pairs visible after ``round_no``.

        ``lookback`` is how many rounds after a fault ends its drops can
        still sit inside a diagnosis window (0 on the replay fleet, where a
        window is exactly one round; more on the simulated dataplane, whose
        queues drain).  ``root_visible`` -- machines the fleet root
        currently reports as lossy -- gates the credit: a verdict only
        counts once the root can see its machine too.
        """
        visible = set(root_visible) if root_visible is not None else None
        live = self._recent("drop", round_no, lookback) + self._recent(
            "spike", round_no, lookback
        )
        by_machine: Dict[str, List[Fault]] = {}
        for f in live:
            by_machine.setdefault(f.machine, []).append(f)
        for machine, verdict in seen:
            key = verdict_key(verdict)
            if key is None:
                continue
            self.attempted += 1
            faults = by_machine.get(machine)
            if not faults:
                self.fail(f"round {round_no}: spurious {key} on {machine}")
                continue
            match = [f for f in faults if TABLE_1[f.row] == key]
            if not match:
                want = [TABLE_1[f.row] for f in faults]
                self.fail(f"round {round_no}: {machine} got {key}, wanted {want}")
                continue
            if visible is None or machine in visible:
                for f in match:
                    self._credit(f, round_no, wall)

    # -- Algorithm 2 -------------------------------------------------------------------

    def see_chain_verdicts(
        self, round_no: int, wall: float, tenant: str, verdicts: Sequence[object],
        lookback: int = 0,
    ) -> None:
        """Score one Algorithm-2 pass over ``tenant``'s chain."""
        keys = [k for k in map(middlebox_key, verdicts) if k is not None]
        if not keys:
            return
        self.attempted += 1
        faults = [
            f for f in self._recent("chain", round_no, lookback) + self._recent(
                "slow", round_no, lookback
            )
            if f.tenant == tenant
        ]
        roots = sorted(name for name, is_root, _ in keys if is_root)
        blamed = sorted(
            (name, label) for name, is_root, label in keys
            if is_root and label in ("overloaded", "underloaded")
        )
        if not faults:
            if blamed:
                self.fail(f"round {round_no}: {tenant} spuriously blames {blamed}")
            return
        fault = faults[0]
        if not fault.active(round_no):
            # Draining after the fault cleared: either answer is right.
            return
        if roots == [fault.root] and blamed == [(fault.root, fault.label)]:
            self._credit(fault, round_no, wall)
        else:
            self.fail(
                f"round {round_no}: {tenant} roots {roots} {blamed}, "
                f"wanted {fault.root} ({fault.label})"
            )

    # -- partitions (staleness / health verdicts) ---------------------------------------

    def see_incident_reasons(
        self, round_no: int, wall: float, opened: Iterable[Tuple[str, str]],
        root_degraded: Iterable[str],
    ) -> None:
        """Score incidents opened this round for non-loss reasons.

        A partitioned agent must trip ``health`` or ``staleness`` on its
        own machine, and the root must list the machine as degraded.
        """
        degraded = set(root_degraded)
        live = {f.machine: f for f in self._recent("partition", round_no, 0)}
        for machine, reason in opened:
            if reason not in ("health", "staleness"):
                continue
            self.attempted += 1
            fault = live.get(machine)
            if fault is None:
                self.fail(f"round {round_no}: spurious {reason} incident on {machine}")
            elif machine in degraded:
                self._credit(fault, round_no, wall)

    # -- Figure-6 reads ------------------------------------------------------------------

    def see_read(self, what: str, got: float, want: float) -> None:
        self.attempted += 1
        if abs(got - want) > 1e-6 * max(1.0, abs(want)):
            self.fail(f"{what}: read {got!r}, truth {want!r}")

    def see_range(self, what: str, got: float, lo: float, hi: float) -> None:
        """A read whose exact answer depends on which old samples survived."""
        self.attempted += 1
        slack = 1e-6 * max(1.0, abs(hi))
        if not lo - slack <= got <= hi + slack:
            self.fail(f"{what}: read {got!r}, truth within [{lo!r}, {hi!r}]")

    # -- deadlines and summary ------------------------------------------------------------

    def close_round(self, round_no: int) -> None:
        """Fail faults whose verdict deadline passed this round."""
        for f in self.faults:
            if (
                f.verdict_round is None
                and f.bump_round is not None
                and round_no == f.bump_round + self.deadline_rounds
            ):
                self.attempted += 1
                self.fail(
                    f"fault {f.id} ({f.kind} {f.row or f.root} on "
                    f"{f.machine or f.tenant}) got no verdict by round {round_no}"
                )

    def scored(self) -> List[Fault]:
        """Faults that received their correct verdict."""
        return [f for f in self.faults if f.verdict_round is not None]

    def finish(self) -> None:
        """Count every credited fault as one passed operation."""
        self.attempted += len(self.scored())

    def verdict_latency(self) -> Tuple[Optional[float], Optional[float], int]:
        """(median seconds, median rounds, faults scored).

        Seconds are *program* seconds: the world's clock only runs inside
        timed rounds, so the benchmark's own between-round work (garbage
        collection, scoring) is not billed to the program.
        """
        scored = [f for f in self.scored() if f.bump_wall is not None]
        if not scored:
            return None, None, 0
        secs = [f.verdict_wall - f.bump_wall for f in scored]
        rounds = [f.verdict_round - f.bump_round + 1 for f in scored]
        return statistics.median(secs), statistics.median(rounds), len(scored)
