"""Self-observability metrics: counters, gauges and histograms.

PerfSight's evaluation is largely about the tool's *own* cost — Table 2
prices the time counters, Figure 9 the collection channels, Figure 16
the agent CPU.  A reproduction that cannot measure itself cannot defend
those numbers, so this module gives the pipeline a small metrics plane
of its own: a :class:`MetricsRegistry` of named families (counter,
gauge, histogram) with Prometheus-style text exposition.

Naming and cardinality follow the Prometheus conventions, scoped down:

* metric names are ``perfsight_<component>_<what>_<unit>`` (snake case,
  base units — seconds, bytes);
* labels identify bounded dimensions only — a channel *kind* (6 values),
  a wire *op*, a *zone* — never per-element or per-flow ids, whose
  cardinality grows with the workload.  A family refuses to grow past
  :data:`MAX_CHILDREN` label combinations so a mislabelled hot path
  fails loudly instead of eating memory.  A fleet may be larger than
  that, so a family written on every sweep, sync, push or RPC takes no
  *agent* or *machine* label.

Histograms use fixed buckets (no per-sample storage) so observation is
O(buckets) in the worst case and O(log buckets) via bisect; quantiles
are estimated by linear interpolation within the winning bucket, the
same estimate Prometheus's ``histogram_quantile`` computes server-side.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

#: Refuse more label combinations than this per family (cardinality guard).
MAX_CHILDREN = 256

#: Default histogram bucket upper bounds, seconds: spans the micro-second
#: collection channels (Figure 9) through multi-second wire retries.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

#: Bucket preset for detection-latency style histograms measured in
#: *monitoring rounds* rather than seconds.  The streaming daemon
#: detects injected faults within single-digit rounds, so the
#: micro-second wire buckets above would collapse every observation
#: into one bucket; these resolve 1..64 rounds instead.
DETECTION_LATENCY_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelKey = Tuple[Tuple[str, str], ...]


class MetricsError(Exception):
    """Misuse of the metrics registry (bad name, type clash, blow-up)."""


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(key: LabelKey, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(key)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Counter:
    """Monotonically increasing count (resets only with its registry)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError(f"counter increments must be >= 0: {amount!r}")
        self.value += amount


class Gauge:
    """A value that goes up and down (a level, a staleness age)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with Prometheus-style quantile estimates."""

    __slots__ = ("bounds", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise MetricsError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise MetricsError(f"bucket bounds must strictly increase: {bounds}")
        self.bounds = bounds
        #: One slot per finite bound plus the +Inf overflow bucket.
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (``q`` in [0, 1]) by bucket interpolation.

        Within the winning bucket the estimate interpolates linearly
        between its lower and upper bound; the overflow bucket is clamped
        to the largest observation (there is no upper bound to lerp to).
        """
        if not 0.0 <= q <= 1.0:
            raise MetricsError(f"quantile must be within [0, 1]: {q!r}")
        if self.count == 0:
            raise MetricsError("quantile of an empty histogram")
        rank = q * self.count
        cumulative = 0
        for i, n in enumerate(self.bucket_counts):
            if n == 0:
                continue
            if cumulative + n >= rank:
                if i == len(self.bounds):  # the +Inf bucket
                    return self.max
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = self.bounds[i]
                frac = (rank - cumulative) / n
                return min(lower + (upper - lower) * frac, self.max)
            cumulative += n
        return self.max


_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """One named metric family: shared type/help, per-label children."""

    __slots__ = ("name", "type", "help", "buckets", "children")

    def __init__(
        self, name: str, mtype: str, help_text: str,
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.name = name
        self.type = mtype
        self.help = help_text
        self.buckets = buckets
        self.children: Dict[LabelKey, object] = {}

    def child(self, labels: Dict[str, object]):
        key = _label_key(labels)
        metric = self.children.get(key)
        if metric is None:
            if len(self.children) >= MAX_CHILDREN:
                raise MetricsError(
                    f"family {self.name!r} exceeded {MAX_CHILDREN} label "
                    f"combinations — label values must be bounded "
                    f"(kinds, ops, machines), not per-element ids"
                )
            for k, _ in key:
                if not _LABEL_RE.match(k):
                    raise MetricsError(f"bad label name {k!r} on {self.name!r}")
            if self.type == "histogram":
                metric = Histogram(self.buckets or DEFAULT_BUCKETS)
            else:
                metric = _TYPES[self.type]()
            self.children[key] = metric
        return metric


class MetricsRegistry:
    """Registry of metric families keyed by name.

    ``counter(name, **labels)`` (and friends) get-or-create, so
    instrumentation sites need no setup step; re-registering a name as a
    different type raises.  ``render_prometheus`` emits the text
    exposition format; ``snapshot`` a JSON-able dict for the CLI.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    def _family(
        self, name: str, mtype: str, help_text: str,
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> _Family:
        family = self._families.get(name)
        if family is None:
            if not _NAME_RE.match(name):
                raise MetricsError(f"bad metric name: {name!r}")
            family = self._families[name] = _Family(name, mtype, help_text, buckets)
        elif family.type != mtype:
            raise MetricsError(
                f"metric {name!r} already registered as {family.type}, "
                f"not {mtype}"
            )
        if help_text and not family.help:
            family.help = help_text
        return family

    # -- get-or-create accessors ---------------------------------------------------

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._family(name, "counter", help).child(labels)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._family(name, "gauge", help).child(labels)  # type: ignore[return-value]

    def histogram(
        self, name: str, help: str = "",
        buckets: Optional[Iterable[float]] = None, **labels,
    ) -> Histogram:
        bounds = tuple(buckets) if buckets is not None else None
        return self._family(name, "histogram", help, bounds).child(labels)  # type: ignore[return-value]

    # -- introspection ------------------------------------------------------------

    def names(self) -> List[str]:
        return sorted(self._families)

    def get(self, name: str, **labels):
        """An existing metric, or None — never creates (for tests/CLI)."""
        family = self._families.get(name)
        if family is None:
            return None
        return family.children.get(_label_key(labels))

    def children(self, name: str) -> Dict[LabelKey, object]:
        family = self._families.get(name)
        return dict(family.children) if family is not None else {}

    def __len__(self) -> int:
        return sum(len(f.children) for f in self._families.values())

    # -- exposition -----------------------------------------------------------------

    def render_prometheus(self) -> str:
        """The text exposition format, families sorted by name."""
        lines: List[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.type}")
            for key in sorted(family.children):
                metric = family.children[key]
                if isinstance(metric, Histogram):
                    cumulative = 0
                    for bound, n in zip(metric.bounds, metric.bucket_counts):
                        cumulative += n
                        labels = _render_labels(key, ("le", _format_value(bound)))
                        lines.append(f"{name}_bucket{labels} {cumulative}")
                    labels = _render_labels(key, ("le", "+Inf"))
                    lines.append(f"{name}_bucket{labels} {metric.count}")
                    lines.append(
                        f"{name}_sum{_render_labels(key)} "
                        f"{_format_value(metric.sum)}"
                    )
                    lines.append(f"{name}_count{_render_labels(key)} {metric.count}")
                else:
                    lines.append(
                        f"{name}{_render_labels(key)} "
                        f"{_format_value(metric.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict[str, dict]:
        """JSON-able dump: {name: {type, help, series: [{labels, ...}]}}."""
        out: Dict[str, dict] = {}
        for name in sorted(self._families):
            family = self._families[name]
            series = []
            for key in sorted(family.children):
                metric = family.children[key]
                entry: Dict[str, object] = {"labels": dict(key)}
                if isinstance(metric, Histogram):
                    entry.update(
                        count=metric.count,
                        sum=metric.sum,
                        mean=metric.mean,
                        min=metric.min if metric.count else None,
                        max=metric.max if metric.count else None,
                        p50=metric.quantile(0.5) if metric.count else None,
                        p99=metric.quantile(0.99) if metric.count else None,
                    )
                else:
                    entry["value"] = metric.value
                series.append(entry)
            out[name] = {"type": family.type, "help": family.help, "series": series}
        return out
