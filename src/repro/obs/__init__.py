"""Self-observability plane: metrics, trace spans and structured events.

The instrumentation contract, in order of importance:

1. **Near-free when disabled.**  By default no hub is installed and
   every facade call below is a global load, a None check and a return
   — the collection hot path (``Agent.poll_once`` through
   ``Channel.read_versioned``) must not pay for telemetry nobody asked
   for — our analog of the paper's Table-2 "the counters are cheap"
   argument.  ``benchmarks/e2e`` takes every end-to-end number with no
   hub installed, so this cost is inside each measured round.
2. **One switch.**  ``install()`` puts a process-wide
   :class:`Observability` hub in place; every instrumented module picks
   it up on its next call — no plumbing a registry through ten
   constructors.  ``installed()`` scopes a hub to a ``with`` block for
   tests and the CLI.
3. **Spans propagate.**  The active span's :class:`TraceContext` rides
   the agent-controller protocol frames, so a controller-side query
   span and the agent-side handler span share one trace id (see
   :mod:`repro.obs.spans`).

Instrumentation sites call the module-level facade
(``obs.observe(...)``, ``obs.span(...)``, ``obs.event(...)``) rather
than holding a registry, precisely so the disabled path stays a single
None check.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.events import (
    DEBUG,
    ERROR,
    INFO,
    SEVERITIES,
    WARNING,
    Event,
    EventLog,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    DETECTION_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
)
from repro.obs.spans import Span, SpanRecorder, TraceContext

__all__ = [
    "DEBUG", "INFO", "WARNING", "ERROR", "SEVERITIES",
    "Event", "EventLog",
    "Counter", "Gauge", "Histogram", "MetricsError", "MetricsRegistry",
    "DEFAULT_BUCKETS", "DETECTION_LATENCY_BUCKETS",
    "Span", "SpanRecorder", "TraceContext",
    "Observability", "install", "uninstall", "installed", "current",
    "enabled", "counter", "gauge", "observe", "event", "span",
    "span_from_wire", "current_trace", "start_span", "attached",
]


class Observability:
    """One hub bundling the three sinks the pipeline reports into."""

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        spans: Optional[SpanRecorder] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans = spans if spans is not None else SpanRecorder()
        self.events = events if events is not None else EventLog()


class _NullSpan:
    """The shared do-nothing span handed out while no hub is installed."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def set(self, key: str, value: object) -> "_NullSpan":
        return self

    def start(self) -> "_NullSpan":
        return self

    def finish(self, status: Optional[str] = None) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()

#: The installed hub, or None (the default: all facade calls no-op).
_HUB: Optional[Observability] = None


def install(hub: Optional[Observability] = None) -> Observability:
    """Install ``hub`` (or a fresh one) process-wide; returns it."""
    global _HUB
    if hub is None:
        hub = Observability()
    _HUB = hub
    return hub


def uninstall() -> None:
    """Remove the installed hub; instrumentation reverts to no-ops."""
    global _HUB
    _HUB = None


def current() -> Optional[Observability]:
    return _HUB


def enabled() -> bool:
    return _HUB is not None


@contextmanager
def installed(hub: Optional[Observability] = None) -> Iterator[Observability]:
    """Scope a hub to a ``with`` block, restoring the previous one after."""
    global _HUB
    previous = _HUB
    active = hub if hub is not None else Observability()
    _HUB = active
    try:
        yield active
    finally:
        _HUB = previous


# -- the instrumentation facade (hot-path safe) -----------------------------------


def counter(name: str, amount: float = 1.0, **labels) -> None:
    """Increment a counter — no-op without a hub."""
    hub = _HUB
    if hub is not None:
        hub.metrics.counter(name, **labels).inc(amount)


def gauge(name: str, value: float, **labels) -> None:
    """Set a gauge — no-op without a hub."""
    hub = _HUB
    if hub is not None:
        hub.metrics.gauge(name, **labels).set(value)


def observe(name: str, value: float, buckets=None, **labels) -> None:
    """Observe into a histogram — no-op without a hub.

    ``buckets`` picks a bucket preset (e.g.
    :data:`DETECTION_LATENCY_BUCKETS`) and is honored only by the call
    that first registers the family, matching the registry semantics.
    """
    hub = _HUB
    if hub is not None:
        hub.metrics.histogram(name, buckets=buckets, **labels).observe(value)


def event(name: str, severity: str = INFO, **fields) -> None:
    """Emit a structured event — no-op without a hub."""
    hub = _HUB
    if hub is not None:
        hub.events.emit(name, severity, **fields)


def span(name: str, **attrs):
    """A nested span context manager — a shared no-op without a hub."""
    hub = _HUB
    if hub is None:
        return _NULL_SPAN
    return hub.spans.span(name, **attrs)


def span_from_wire(name: str, wire_ctx: object, **attrs):
    """A handler span parented on a peer's wire trace field.

    ``wire_ctx`` is the raw (untrusted) value of the frame's trace
    field; malformed input roots a fresh trace instead of failing the
    request.  No-op without a hub.
    """
    hub = _HUB
    if hub is None:
        return _NULL_SPAN
    return hub.spans.span_from_wire(name, TraceContext.from_wire(wire_ctx), **attrs)


def start_span(name: str, **attrs):
    """A started *detached* span for long-lived work — no-op without a hub.

    Unlike :func:`span` it is not a context manager: the caller keeps it
    open across arbitrarily many calls (an incident spanning many
    monitoring rounds), nests children under it via :func:`attached`,
    and closes it with ``finish()``.
    """
    hub = _HUB
    if hub is None:
        return _NULL_SPAN
    return hub.spans.start_span(name, **attrs)


@contextmanager
def attached(span_obj) -> Iterator[object]:
    """Make a detached span current for the block — no-op without a hub."""
    hub = _HUB
    if hub is None or isinstance(span_obj, _NullSpan):
        yield span_obj
        return
    with hub.spans.attach(span_obj):
        yield span_obj


def current_trace() -> Optional[TraceContext]:
    """The active span's wire context, or None (no hub / no span)."""
    hub = _HUB
    if hub is None:
        return None
    return hub.spans.current_context()
