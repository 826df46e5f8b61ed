"""PerfSight core: statistics gathering, agents, controller, diagnosis.

This package implements the paper's primary contribution (Sections 3-5 of
the IMC'15 paper): the element counter abstraction, per-element collection
channels, the per-server agent, the central controller with its vNet
registry, the utility query routines of Figure 6, the Table-1 rule book,
and the two diagnostic applications (Algorithms 1 and 2).
"""

from repro.core.counters import (
    CounterOverheadModel,
    CounterSet,
    CounterSnapshot,
    IOTimeCounter,
)
from repro.core.health import (
    DEAD,
    DEGRADED,
    HEALTHY,
    DataQuality,
    Liveness,
)

__all__ = [
    "CounterOverheadModel",
    "CounterSet",
    "CounterSnapshot",
    "DEAD",
    "DEGRADED",
    "DataQuality",
    "HEALTHY",
    "IOTimeCounter",
    "Liveness",
]
