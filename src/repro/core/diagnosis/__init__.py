"""Diagnostic applications built on the controller interfaces (Section 5).

* :mod:`contention` — Algorithm 1: rank virtualization-stack elements by
  packet loss, map the top locations through the Table-1 rule book, and
  split contention from single-VM bottlenecks by loss spread.
* :mod:`propagation` — Algorithm 2: classify chained middleboxes as
  Read/WriteBlocked from their I/O-time counters and eliminate blocked
  chains to isolate the root cause.
* :mod:`bottleneck` — the Section-5.1 bottleneck-middlebox detector
  (suspicious set by utilization, confirmed by light-weight statistics).
* :mod:`operator` — the Section-7.3 operator workflows (migrate, scale
  out) driving the above.
"""

from repro.core.diagnosis.bottleneck import BottleneckDetector
from repro.core.diagnosis.contention import ContentionDetector
from repro.core.diagnosis.propagation import RootCauseLocator
from repro.core.diagnosis.report import (
    ContentionReport,
    ElementLoss,
    MiddleboxVerdict,
    RootCauseReport,
)
from repro.core.diagnosis.states import MiddleboxState, classify_window

__all__ = [
    "BottleneckDetector",
    "ContentionDetector",
    "ContentionReport",
    "ElementLoss",
    "MiddleboxState",
    "MiddleboxVerdict",
    "RootCauseLocator",
    "RootCauseReport",
    "classify_window",
]
