"""Middlebox state classification (Section 5.2).

The paper's conditions, from two counter samples over interval T:

    ReadBlocked  iff  (t2_i - t1_i) > (b2_i - b1_i) / C
    WriteBlocked iff  (t2_o - t1_o) > (b2_o - b1_o) / C

i.e. the average per-I/O-call throughput fell below the vNIC capacity C,
which can only happen if the calls spent time blocked (memory copies run
orders of magnitude faster than C).

We add a guard band ``theta`` (default 0.9): a middlebox relaying at
exactly link rate measures b/t marginally above C with ideal counters
and marginally around it with noisy ones, so the effective test is
``b/t < theta * C``.  theta=1.0 recovers the paper's literal condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.counters import CounterWindow


@dataclass(frozen=True)
class MiddleboxState:
    """One middlebox's inferred state over a sampling window."""

    name: str
    read_blocked: bool
    write_blocked: bool
    in_rate_bps: Optional[float]  # b_in/t_in; None if no input activity
    out_rate_bps: Optional[float]  # b_out/t_out; None if no output activity
    capacity_bps: float

    @property
    def blocked(self) -> bool:
        return self.read_blocked or self.write_blocked

    def describe(self) -> str:
        tags = []
        if self.read_blocked:
            tags.append("ReadBlocked")
        if self.write_blocked:
            tags.append("WriteBlocked")
        if not tags:
            tags.append("unblocked")
        def fmt(rate):
            return "N/A" if rate is None else f"{rate / 1e6:.1f}Mbps"
        return (
            f"{self.name}: {'+'.join(tags)} "
            f"(b/ti={fmt(self.in_rate_bps)}, b/to={fmt(self.out_rate_bps)}, "
            f"C={self.capacity_bps / 1e6:.0f}Mbps)"
        )


def _rate(d_bytes: float, d_time: float) -> Optional[float]:
    if d_time <= 0 and d_bytes <= 0:
        return None
    if d_time <= 0:
        return float("inf")
    return 8.0 * d_bytes / d_time


def classify_window(
    window: CounterWindow,
    capacity_bps: float,
    theta: float = 0.9,
    name: Optional[str] = None,
) -> MiddleboxState:
    """Classify one middlebox from a mirrored counter window."""
    if capacity_bps <= 0:
        raise ValueError(f"capacity must be positive: {capacity_bps!r}")
    if not 0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1]: {theta!r}")
    in_rate = _rate(window.delta("inBytes"), window.delta("inTime"))
    out_rate = _rate(window.delta("outBytes"), window.delta("outTime"))
    threshold = theta * capacity_bps
    read_blocked = in_rate is not None and in_rate < threshold
    write_blocked = out_rate is not None and out_rate < threshold
    return MiddleboxState(
        name=name if name is not None else window.element_id,
        read_blocked=read_blocked,
        write_blocked=write_blocked,
        in_rate_bps=in_rate,
        out_rate_bps=out_rate,
        capacity_bps=capacity_bps,
    )
