"""Span tracing from outside the program, for the traced run only.

``install`` replaces the functions in :data:`TARGETS` with timing wrappers
(class attributes and module attributes are swapped; nothing under ``src/``
is edited) and ``uninstall`` puts the originals back.  A span is *name,
start, end, parent*; spans are kept in per-thread flat arrays and analysed
after the run:

* **self time** of a span is its duration minus the part of that interval
  its child spans cover (the union, so two fan-out workers running at once
  are not subtracted twice);
* the parent link rides a ``contextvars`` variable, which
  ``ZoneController._fan_out`` copies into its workers, so a sync running on
  a pool thread still parents on the scan that caused it.  Threads the
  program starts some other way (the TCP servers' handlers) root their own
  spans.

Under a fan-out both workers hold spans open while only one holds the GIL,
so worker-thread self times include GIL wait and the per-name totals can
add up to more than the round's wall time; shares are therefore reported
against the *sum of self times*, and ``trace.unattributed_share`` against
the driver thread's ``round`` span alone.

End-to-end numbers never come from a traced run.
"""

from __future__ import annotations

import contextvars
import importlib
import itertools
import json
import threading
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (module, class or None, attribute, span name).  Layers are module names.
TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.simnet.engine", "Simulator", "run", "simnet.run"),
    ("repro.core.channels", "Channel", "read_versioned", "channels.read_versioned"),
    ("repro.core.agent", "Agent", "poll_once", "agent.poll_once"),
    ("repro.core.agent", "Agent", "push_once", "agent.push_once"),
    ("repro.core.agent", "Agent", "collect_blocks", "agent.collect_blocks"),
    ("repro.core.store", "TimeSeriesStore", "append", "store.append"),
    ("repro.core.store", "TimeSeriesStore", "drain_blocks", "store.drain_blocks"),
    ("repro.core.store", "TimeSeriesStore", "changed_blocks", "store.changed_blocks"),
    ("repro.core.store", "TimeSeriesStore", "apply_blocks", "store.apply_blocks"),
    ("repro.core.store", "TimeSeriesStore", "window_ending_now",
     "store.window_ending_now"),
    ("repro.core.store", "TimeSeriesStore", "latest", "store.latest"),
    ("repro.core.tiers", "TieredWindowStore", "window", "tiers.window"),
    ("repro.core.net.codec", None, "encode_batch_response",
     "codec.encode_batch_response"),
    ("repro.core.net.codec", None, "decode_batch_response",
     "codec.decode_batch_response"),
    ("repro.core.net.codec", None, "encode_zone_report", "codec.encode_zone_report"),
    ("repro.core.net.codec", None, "decode_zone_report", "codec.decode_zone_report"),
    ("repro.core.net.client", "RemoteAgentHandle", "collect_blocks",
     "net.client.collect_blocks"),
    ("repro.core.net.client", "ZoneClient", "push_report", "net.client.push_report"),
    # The HELLO exchange on the hot path is the lazy per-connection
    # negotiation, not the public diagnostics wrapper around it.
    ("repro.core.net.client", "WireClient", "_negotiate", "net.client.hello"),
    ("repro.core.controller", "AgentMirror", "sync", "controller.mirror.sync"),
    ("repro.core.controller", "ZoneController", "ingest_push",
     "controller.zone.ingest_push"),
    ("repro.core.controller", "ZoneController", "refresh_report",
     "controller.zone.refresh_report"),
    ("repro.core.controller", "ZoneController", "begin_fleet_scan",
     "controller.zone.begin_fleet_scan"),
    ("repro.core.controller", "ZoneController", "finish_fleet_scan",
     "controller.zone.finish_fleet_scan"),
    ("repro.core.controller", "ZoneController", "build_coarse_report",
     "controller.zone.build_coarse_report"),
    ("repro.core.controller", "ZoneController", "build_zone_report",
     "controller.zone.build_zone_report"),
    ("repro.core.controller", "ZoneController", "store_nbytes",
     "controller.zone.store_nbytes"),
    ("repro.core.controller", "ZoneController", "get_pkt_loss", "query.get_pkt_loss"),
    ("repro.core.controller", "ZoneController", "get_throughput",
     "query.get_throughput"),
    ("repro.core.query", "QueryRunner", "get_throughput_between", "query.history"),
    ("repro.core.query", "QueryRunner", "get_pkt_loss_between", "query.history"),
    ("repro.core.controller", "FleetController", "ingest_zone_report",
     "controller.fleet.ingest_zone_report"),
    ("repro.core.controller", "FleetController", "rollup", "controller.fleet.rollup"),
    ("repro.core.controller", "FleetController", "check_zones",
     "controller.fleet.check_zones"),
    ("repro.core.daemon", "DiagnosisDaemon", "tick", "daemon.tick"),
    ("repro.core.diagnosis.contention", "ContentionDetector", "begin",
     "diagnosis.contention.begin"),
    ("repro.core.diagnosis.contention", "ContentionDetector", "finish",
     "diagnosis.contention.finish"),
    ("repro.core.diagnosis.propagation", "RootCauseLocator", "run",
     "diagnosis.propagation.run"),
    ("repro.core.rulebook", "RuleBook", "diagnose_all", "rulebook.diagnose_all"),
    ("repro.core.diagnosis.report", "FleetMergeBuffers", "merge", "report.merge"),
    ("repro.core.diagnosis.report", "ZoneAggregates", "from_summaries",
     "sketches.from_summaries"),
    ("repro.core.diagnosis.report", "ZoneReport", "to_wire", "report.to_wire"),
    ("repro.core.diagnosis.report", "ZoneReport", "from_wire", "report.from_wire"),
)

#: Spans the benchmark opens itself (its own glue and load generator).
ROUND = "round"
LOADGEN = "loadgen.bump"

SPAN_NAMES: Tuple[str, ...] = tuple(
    dict.fromkeys(t[3] for t in TARGETS)
) + (ROUND, LOADGEN)

_current: contextvars.ContextVar[int] = contextvars.ContextVar(
    "e2e_span", default=-1
)


class _Buffer:
    """One thread's spans as flat arrays (36 bytes a span)."""

    __slots__ = ("tid", "ids", "names", "starts", "ends", "parents")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.ids = array("q")
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")


class Tracer:
    """Collects spans while installed; analysed once the run is over."""

    def __init__(self) -> None:
        self._name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._buffers_lock = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._buffers_lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def wrap(self, fn: Callable, name: str) -> Callable:
        name_id = self._name_ids[name]
        next_id = self._ids.__next__
        clock = time.perf_counter
        get_buffer = self._buffer
        current = _current

        def traced(*args, **kwargs):
            sid = next_id()
            parent = current.get()
            token = current.set(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                current.reset(token)
                buf = get_buffer()
                buf.ids.append(sid)
                buf.names.append(name_id)
                buf.starts.append(t0)
                buf.ends.append(t1)
                buf.parents.append(parent)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """An explicit span around the benchmark's own code."""
        sid = next(self._ids)
        parent = _current.get()
        token = _current.set(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            _current.reset(token)
            buf = self._buffer()
            buf.ids.append(sid)
            buf.names.append(self._name_ids[name])
            buf.starts.append(t0)
            buf.ends.append(t1)
            buf.parents.append(parent)

    # -- install / uninstall ---------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module_name, class_name, attr, name in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            raw = owner.__dict__[attr] if class_name else getattr(owner, attr)
            if isinstance(raw, classmethod):
                patched: object = classmethod(self.wrap(raw.__func__, name))
            elif isinstance(raw, staticmethod):
                patched = staticmethod(self.wrap(raw.__func__, name))
            else:
                patched = self.wrap(raw, name)
            self._patched.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- analysis --------------------------------------------------------------------

    def span_count(self) -> int:
        return sum(len(b.ids) for b in self._buffers)

    def analyse(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        starts: Dict[int, float] = {}
        ends: Dict[int, float] = {}
        names: Dict[int, int] = {}
        children: Dict[int, List[Tuple[float, float]]] = {}
        for buf in self._buffers:
            for sid, name_id, t0, t1, parent in zip(
                buf.ids, buf.names, buf.starts, buf.ends, buf.parents
            ):
                starts[sid] = t0
                ends[sid] = t1
                names[sid] = name_id
                if parent >= 0:
                    children.setdefault(parent, []).append((t0, t1))
        out = {
            name: {"calls": 0.0, "total_s": 0.0, "self_s": 0.0}
            for name in SPAN_NAMES
        }
        for sid, name_id in names.items():
            t0, t1 = starts[sid], ends[sid]
            covered = 0.0
            kids = children.get(sid)
            if kids:
                if len(kids) > 1:
                    kids.sort()
                reach = t0
                for c0, c1 in kids:
                    c0 = max(c0, reach)
                    c1 = min(c1, t1)
                    if c1 > c0:
                        covered += c1 - c0
                        reach = c1
            row = out[SPAN_NAMES[name_id]]
            row["calls"] += 1.0
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - covered
        return out

    def durations(self, name: str) -> List[float]:
        """Every recorded duration of one span name (for percentiles)."""
        want = self._name_ids[name]
        out: List[float] = []
        for buf in self._buffers:
            out.extend(
                t1 - t0
                for n, t0, t1 in zip(buf.names, buf.starts, buf.ends)
                if n == want
            )
        return out

    def write_chrome_trace(self, path: str, max_events: int = 200_000) -> int:
        """Write Chrome trace-event JSON (``chrome://tracing``, Perfetto).

        One complete (``"ph": "X"``) event per span, microsecond
        timestamps relative to the first span, ``tid`` = recording thread.
        Only the earliest ``max_events`` spans are written so a long run
        still opens in a viewer.
        """
        rows: List[Tuple[float, float, int, int]] = []
        for buf in self._buffers:
            rows.extend(zip(buf.starts, buf.ends, buf.names, itertools.repeat(buf.tid)))
        rows.sort()
        rows = rows[:max_events]
        origin = rows[0][0] if rows else 0.0
        events = [
            {
                "name": SPAN_NAMES[name_id],
                "ph": "X",
                "ts": round((t0 - origin) * 1e6, 3),
                "dur": round((t1 - t0) * 1e6, 3),
                "pid": 1,
                "tid": tid,
            }
            for t0, t1, name_id, tid in rows
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        return len(events)


@contextmanager
def maybe_span(tracer: Optional[Tracer], name: str) -> Iterator[None]:
    """``tracer.span(name)``, or nothing at all on the untraced run."""
    if tracer is None:
        yield
    else:
        with tracer.span(name):
            yield
