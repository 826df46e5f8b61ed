"""NAT middlebox: address translation relay.

Per-packet cost (table lookup + header rewrite) with a bounded
translation table; when the table is full, new "flows" are refused and
counted at the ``<name>.table_full`` location.  The byte stream itself
is relayed 1:1.
"""

from __future__ import annotations

from typing import Dict

from repro.middleboxes.base import RelayApp

NAT_CPU_PER_PKT = 1.5e-6


class Nat(RelayApp):
    """Source NAT with a bounded translation table."""

    def __init__(self, sim, vm, name, table_size: int = 65536, **kw):
        if table_size <= 0:
            raise ValueError(f"table_size must be positive: {table_size!r}")
        kw.setdefault("cpu_per_pkt", NAT_CPU_PER_PKT)
        kw.setdefault("io_unit_bytes", 1500.0)
        kw.setdefault("mb_type", "nat")
        super().__init__(sim, vm, name, **kw)
        self.table_size = table_size
        self._table: Dict[str, int] = {}
        self._next_port = 10000
        self.refused_flows = 0

    def translate(self, flow_id: str) -> int:
        """Allocate (or look up) the external port for a logical flow.

        Raises ``KeyError``-style refusal accounting when the table is
        exhausted; callers treat a negative return as refusal.
        """
        if flow_id in self._table:
            return self._table[flow_id]
        if len(self._table) >= self.table_size:
            self.refused_flows += 1
            self.counters.count_drop(f"{self.name}.table_full", 1.0, 0.0)
            return -1
        port = self._next_port
        self._next_port += 1
        self._table[flow_id] = port
        return port

    def release(self, flow_id: str) -> None:
        self._table.pop(flow_id, None)
