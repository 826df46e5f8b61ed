"""The unified statistics record format (Section 4.2).

Agents return element statistics to the controller in one generic shape::

    <TimeStamp, Element, (attr1, value1), (attr2, value2), ...>

which abstracts over the heterogeneity of the underlying elements (kernel
devices, vswitch rules, QEMU, middlebox software).  :class:`StatRecord` is
that shape, as an agent's in-process query returns it; over the wire the
same counters travel as packed ``bin1`` rows (:mod:`repro.core.net.codec`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Tuple


@dataclass(frozen=True)
class StatRecord:
    """One element's counter snapshot at one timestamp.

    ``element_id`` is the agent-local element identifier (e.g. ``eth0``,
    ``tun-vm3``, ``qemu-vm3``); ``machine`` names the physical server whose
    agent produced the record.  ``attrs`` maps counter names to cumulative
    values, exactly as in the paper's example::

        <t1, eth0, ("Rx bytes", v1), ("Tx bytes", v2), ...>
    """

    timestamp: float
    element_id: str
    attrs: Mapping[str, float]
    machine: str = ""

    def get(self, attr: str, default: float = 0.0) -> float:
        return float(self.attrs.get(attr, default))

    def __getitem__(self, attr: str) -> float:
        return float(self.attrs[attr])

    def __contains__(self, attr: str) -> bool:
        return attr in self.attrs

    def items(self) -> Iterator[Tuple[str, float]]:
        return iter(self.attrs.items())

    def subset(self, attrs) -> "StatRecord":
        """A record restricted to the requested attributes.

        Missing attributes are omitted (not defaulted), so callers can tell
        "element does not export this counter" from "counter is zero".
        """
        picked = {a: float(self.attrs[a]) for a in attrs if a in self.attrs}
        return StatRecord(self.timestamp, self.element_id, picked, self.machine)
