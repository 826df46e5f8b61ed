"""Unit tests for the self-observability plane (repro/obs)."""

import json

import pytest

from repro import obs
from repro.core.agent import PUSH_FAILURES_METRIC
from repro.core.channels import READ_LATENCY_METRIC
from repro.core.controller import ZoneController
from repro.obs.events import DEFAULT_MAX_EVENTS, EventLog
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MAX_CHILDREN,
    Histogram,
    MetricsError,
    MetricsRegistry,
)
from repro.obs.spans import SpanRecorder, TraceContext
from repro.scenarios.common import Harness
from repro.simnet.trace import Series


class TestCounter:
    def test_get_or_create_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("perfsight_test_total").inc()
        reg.counter("perfsight_test_total").inc(2.5)
        assert reg.get("perfsight_test_total").value == 3.5

    def test_labelled_children_are_independent(self):
        reg = MetricsRegistry()
        reg.counter("perfsight_test_total", kind="a").inc()
        reg.counter("perfsight_test_total", kind="b").inc(5)
        assert reg.get("perfsight_test_total", kind="a").value == 1.0
        assert reg.get("perfsight_test_total", kind="b").value == 5.0
        assert len(reg.children("perfsight_test_total")) == 2

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        reg.counter("perfsight_test_total", a="1", b="2").inc()
        reg.counter("perfsight_test_total", b="2", a="1").inc()
        assert reg.get("perfsight_test_total", a="1", b="2").value == 2.0

    def test_negative_increment_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricsError):
            reg.counter("perfsight_test_total").inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("perfsight_test_level")
        g.set(5.0)
        g.inc(2.0)
        g.dec(3.0)
        assert g.value == 4.0


class TestHistogram:
    def test_observe_counts_and_sum(self):
        h = Histogram(buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == 105.0
        assert h.min == 0.5
        assert h.max == 100.0
        # one per finite bucket, one in overflow
        assert h.bucket_counts == [1, 1, 1, 1]

    def test_mean(self):
        h = Histogram(buckets=(10.0,))
        assert h.mean == 0.0
        h.observe(2.0)
        h.observe(4.0)
        assert h.mean == 3.0

    def test_quantile_tracks_exact_percentile(self):
        """The bucket-interpolated estimate stays within one bucket of
        the exact Series.percentile over a spread of samples."""
        h = Histogram(DEFAULT_BUCKETS)
        s = Series()
        values = [i * 1e-4 for i in range(1, 200)]  # 0.1ms .. ~20ms
        for v in values:
            h.observe(v)
            s.append(0.0, v)
        for q in (0.5, 0.9, 0.99):
            exact = s.percentile(q)
            estimate = h.quantile(q)
            # bucket-resolution estimate: right bucket, interpolated
            assert estimate == pytest.approx(exact, rel=0.35)

    def test_quantile_clamped_to_max(self):
        h = Histogram(buckets=(1.0,))
        h.observe(0.2)
        assert h.quantile(1.0) <= h.max

    def test_quantile_overflow_bucket_returns_max(self):
        h = Histogram(buckets=(1.0,))
        h.observe(50.0)
        assert h.quantile(0.5) == 50.0

    def test_quantile_empty_or_out_of_range(self):
        h = Histogram(buckets=(1.0,))
        with pytest.raises(MetricsError):
            h.quantile(0.5)
        h.observe(0.5)
        with pytest.raises(MetricsError):
            h.quantile(1.5)

    def test_bad_bucket_bounds(self):
        with pytest.raises(MetricsError):
            Histogram(buckets=())
        with pytest.raises(MetricsError):
            Histogram(buckets=(2.0, 1.0))

    def test_custom_buckets_via_registry(self):
        reg = MetricsRegistry()
        h = reg.histogram("perfsight_test_seconds", buckets=(0.1, 1.0))
        assert h.bounds == (0.1, 1.0)


class TestRegistry:
    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("perfsight_test_total")
        with pytest.raises(MetricsError):
            reg.gauge("perfsight_test_total")

    def test_bad_metric_and_label_names(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricsError):
            reg.counter("bad name!")
        with pytest.raises(MetricsError):
            reg.counter("perfsight_ok_total", **{"0bad": "x"})

    def test_cardinality_guard(self):
        reg = MetricsRegistry()
        for i in range(MAX_CHILDREN):
            reg.counter("perfsight_test_total", i=str(i))
        with pytest.raises(MetricsError, match="label"):
            reg.counter("perfsight_test_total", i="overflow")

    def test_get_never_creates(self):
        reg = MetricsRegistry()
        assert reg.get("perfsight_ghost_total") is None
        reg.counter("perfsight_test_total", kind="a")
        assert reg.get("perfsight_test_total", kind="b") is None
        assert len(reg) == 1

    def test_render_prometheus(self):
        reg = MetricsRegistry()
        reg.counter("perfsight_reqs_total", help="requests", op="query").inc(3)
        reg.gauge("perfsight_age_seconds").set(1.5)
        h = reg.histogram("perfsight_lat_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        text = reg.render_prometheus()
        assert "# HELP perfsight_reqs_total requests" in text
        assert "# TYPE perfsight_reqs_total counter" in text
        assert 'perfsight_reqs_total{op="query"} 3' in text
        assert "perfsight_age_seconds 1.5" in text
        # cumulative buckets + +Inf + sum/count
        assert 'perfsight_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'perfsight_lat_seconds_bucket{le="1"} 2' in text
        assert 'perfsight_lat_seconds_bucket{le="+Inf"} 3' in text
        assert "perfsight_lat_seconds_count 3" in text

    def test_render_escapes_label_values(self):
        reg = MetricsRegistry()
        reg.counter("perfsight_test_total", msg='say "hi"\n').inc()
        text = reg.render_prometheus()
        assert r'msg="say \"hi\"\n"' in text

    def test_snapshot_is_json_able(self):
        reg = MetricsRegistry()
        reg.counter("perfsight_reqs_total", op="query").inc()
        reg.histogram("perfsight_lat_seconds").observe(0.01)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["perfsight_reqs_total"]["type"] == "counter"
        hist = snap["perfsight_lat_seconds"]["series"][0]
        assert hist["count"] == 1
        assert hist["p50"] is not None


class TestSpans:
    def test_nesting_parent_child(self):
        rec = SpanRecorder()
        with rec.span("outer") as outer:
            with rec.span("inner") as inner:
                assert rec.current() is inner
            assert rec.current() is outer
        assert rec.current() is None
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_sibling_spans_share_trace(self):
        rec = SpanRecorder()
        with rec.span("root"):
            with rec.span("a") as a:
                pass
            with rec.span("b") as b:
                pass
        assert a.trace_id == b.trace_id
        assert a.parent_id == b.parent_id

    def test_separate_roots_get_separate_traces(self):
        rec = SpanRecorder()
        with rec.span("one") as one:
            pass
        with rec.span("two") as two:
            pass
        assert one.trace_id != two.trace_id

    def test_duration_and_attrs(self):
        rec = SpanRecorder()
        with rec.span("timed", op="query") as sp:
            sp.set("extra", 7)
        assert sp.duration_s >= 0.0
        assert sp.attrs == {"op": "query", "extra": 7}

    def test_exception_marks_error_and_propagates(self):
        rec = SpanRecorder()
        with pytest.raises(RuntimeError):
            with rec.span("doomed"):
                raise RuntimeError("boom")
        (sp,) = rec.finished()
        assert sp.status == "error"
        assert "boom" in sp.attrs["error"]
        assert rec.current() is None  # contextvar restored

    def test_ring_retention(self):
        rec = SpanRecorder(max_spans=3)
        for i in range(5):
            with rec.span(f"s{i}"):
                pass
        assert [s.name for s in rec.finished()] == ["s2", "s3", "s4"]
        assert rec.started == 5

    def test_span_from_wire_links_remote_parent(self):
        rec = SpanRecorder()
        ctx = TraceContext(trace_id="t" * 16, span_id="s" * 16)
        with rec.span_from_wire("handler", ctx) as sp:
            pass
        assert sp.trace_id == ctx.trace_id
        assert sp.parent_id == ctx.span_id
        assert sp.remote_parent

    def test_span_from_wire_none_degrades_to_root(self):
        rec = SpanRecorder()
        with rec.span_from_wire("handler", None) as sp:
            pass
        assert sp.parent_id is None
        assert not sp.remote_parent

    def test_wire_context_roundtrip_and_garbage(self):
        ctx = TraceContext(trace_id="abc", span_id="def")
        assert TraceContext.from_wire(ctx.to_wire()) == ctx
        for garbage in (None, "str", 42, [], {}, {"trace_id": "x"},
                        {"trace_id": "", "span_id": "y"},
                        {"trace_id": 1, "span_id": 2}):
            assert TraceContext.from_wire(garbage) is None

    def test_accessors_and_render_tree(self):
        rec = SpanRecorder()
        with rec.span("root", tenant="acme"):
            with rec.span("child"):
                pass
        root = rec.by_name("root")[0]
        tree = rec.render_tree(root.trace_id)
        lines = tree.splitlines()
        assert lines[0].startswith("root ")
        assert "[tenant=acme]" in lines[0]
        assert lines[1].startswith("  child ")
        assert rec.slowest(1)[0].name in ("root", "child")
        assert len(rec.by_trace(root.trace_id)) == 2

    def test_render_tree_orphan_becomes_root(self):
        # a span whose parent is not in the buffer (recorded in another
        # process, or evicted) renders unindented as a root
        rec = SpanRecorder()
        ctx = TraceContext(trace_id="t" * 16, span_id="elsewhere")
        with rec.span_from_wire("orphan", ctx):
            pass
        tree = rec.render_tree(ctx.trace_id)
        assert tree.startswith("orphan ")

    def test_to_dict(self):
        rec = SpanRecorder()
        with rec.span("s", k="v"):
            pass
        d = rec.finished()[0].to_dict()
        assert d["name"] == "s"
        assert d["attrs"] == {"k": "v"}
        assert json.dumps(d)  # JSON-able


class TestEventLog:
    def test_emit_and_filter(self):
        log = EventLog(clock=lambda: 42.0)
        log.emit("a", obs.INFO, x=1)
        log.emit("b", obs.ERROR)
        log.emit("a", obs.WARNING)
        assert len(log) == 3
        assert [e.name for e in log.events(name="a")] == ["a", "a"]
        assert [e.name for e in log.events(min_severity=obs.WARNING)] == ["b", "a"]
        assert log.events()[0].ts == 42.0

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            EventLog().emit("x", "fatal")

    def test_ring_bound(self):
        log = EventLog(max_events=2)
        for i in range(5):
            log.emit(f"e{i}")
        assert [e.name for e in log.events()] == ["e3", "e4"]
        assert log.emitted == 5
        assert log.by_severity[obs.INFO] == 5
        assert DEFAULT_MAX_EVENTS >= 2

    def test_json_lines(self):
        log = EventLog(clock=lambda: 1.0)
        log.emit("sync", machine="m1")
        (line,) = log.to_json_lines().splitlines()
        doc = json.loads(line)
        assert doc == {"name": "sync", "severity": "info", "ts": 1.0,
                       "machine": "m1"}


class TestFacade:
    """The module-level obs.* functions and the install switch."""

    def test_disabled_by_default_all_noop(self):
        assert not obs.enabled()
        assert obs.current() is None
        obs.counter("perfsight_x_total")
        obs.gauge("perfsight_x_level", 1.0)
        obs.observe("perfsight_x_seconds", 0.1)
        obs.event("nothing.happens")
        assert obs.current_trace() is None
        with obs.span("ghost") as sp:
            sp.set("k", "v")
        with obs.span_from_wire("ghost", {"trace_id": "t", "span_id": "s"}):
            pass
        # still nothing anywhere to land in
        assert obs.current() is None

    def test_installed_scopes_a_hub(self):
        hub = obs.Observability()
        with obs.installed(hub) as active:
            assert active is hub
            assert obs.enabled()
            obs.counter("perfsight_x_total", kind="a")
            obs.observe("perfsight_x_seconds", 0.25)
            obs.event("it.happened", obs.WARNING, n=1)
            with obs.span("work", op="q") as sp:
                assert obs.current_trace() == sp.context
        assert not obs.enabled()
        assert hub.metrics.get("perfsight_x_total", kind="a").value == 1.0
        assert hub.metrics.get("perfsight_x_seconds").count == 1
        assert hub.events.events(name="it.happened")[0].severity == obs.WARNING
        assert hub.spans.by_name("work")[0].attrs["op"] == "q"

    def test_installed_restores_previous_hub(self):
        outer = obs.install()
        try:
            with obs.installed() as inner:
                assert obs.current() is inner
            assert obs.current() is outer
        finally:
            obs.uninstall()
        assert obs.current() is None

    def test_install_uninstall(self):
        hub = obs.install()
        try:
            assert obs.current() is hub
            obs.counter("perfsight_x_total")
            assert hub.metrics.get("perfsight_x_total").value == 1.0
        finally:
            obs.uninstall()
        assert not obs.enabled()

    def test_span_from_wire_facade_parses_raw_field(self):
        with obs.installed() as hub:
            with obs.span_from_wire(
                "handler", {"trace_id": "t1", "span_id": "s1"}
            ) as sp:
                pass
            assert sp.trace_id == "t1"
            assert sp.parent_id == "s1"
            with obs.span_from_wire("handler", "garbage") as sp2:
                pass
            assert sp2.parent_id is None
        assert len(hub.spans.finished()) == 2


class TestFleetLargerThanLabelBound:
    """A fleet of more agents than a family may hold label sets."""

    def test_collection_steps_under_a_hub_take_no_per_agent_label(self):
        h = Harness()
        names = [f"m{i:03d}" for i in range(MAX_CHILDREN + 1)]
        for name in names:
            h.add_machine(name)
        push_zone = ZoneController("push-zone")
        with obs.installed() as hub:
            for name in names:
                h.agents[name].poll_once()
            for name in names:
                agent = h.agents[name]
                assert h.controller.refresh(name) > 0
                push_zone.register_local_agent(agent)
                agent.start_pushing(push_zone)  # one immediate push_once
                agent.stop_pushing()
                assert agent.total_pushes == 1
                quality = h.controller.data_quality(name, now=h.sim.now)
                assert quality.age_s is not None
        assert push_zone.pushed_rows > 0
        # Read latency is labelled by element kind, never by agent; the
        # per-agent push-failure gauge is written only when a push fails.
        assert 0 < len(hub.metrics.children(READ_LATENCY_METRIC)) <= 6
        assert PUSH_FAILURES_METRIC not in hub.metrics.names()
