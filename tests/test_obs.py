"""Unit tests for the observability layer: tracer, metrics, events, the
per-round renderer."""

import pytest

from repro.errors import ObservabilityError, TraceSchemaError
from repro.obs import (
    GLOBAL_REGISTRY,
    NULL_TRACER,
    SCHEMA_VERSION,
    EventLog,
    MetricsRegistry,
    NullTracer,
    Span,
    Tracer,
    activate,
    active_registry,
    build_trace,
    render_profile,
)
from repro.obs.metrics import BYTES_BUCKETS, Counter, Gauge, Histogram


class FakeClock:
    """Deterministic monotonic clock: each read advances by ``step``."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_span_records_interval(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("query", kind="query", sites=2) as span:
            pass
        assert span.name == "query"
        assert span.kind == "query"
        assert span.attributes == {"sites": 2}
        assert span.start_s == 1.0
        assert span.end_s == 2.0
        assert span.duration_s == 1.0
        assert span.parent_id is None

    def test_nesting_via_parent_ids(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("query") as outer:
            with tracer.span("round") as middle:
                with tracer.span("round.encode") as inner:
                    pass
            with tracer.span("round") as sibling:
                pass
        assert outer.parent_id is None
        assert middle.parent_id == outer.span_id
        assert inner.parent_id == middle.span_id
        assert sibling.parent_id == outer.span_id
        assert tracer.children_of(outer) == [middle, sibling]
        assert [span.name for span in tracer.spans] == [
            "query", "round", "round.encode", "round",
        ]

    def test_open_span_duration_is_zero(self):
        tracer = Tracer(clock=FakeClock())
        handle = tracer.span("query")
        span = handle.__enter__()
        assert span.duration_s == 0.0
        assert tracer.finished() == []
        handle.__exit__(None, None, None)
        assert tracer.finished() == [span]

    def test_error_marks_span(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("round") as span:
                raise ValueError("boom")
        assert span.attributes["error"] is True
        assert span.end_s is not None

    def test_queries(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("round"):
            pass
        with tracer.span("round"):
            pass
        assert len(tracer.spans_named("round")) == 2
        assert tracer.total_s("round") == pytest.approx(2.0)
        assert tracer.total_s("nothing") == 0.0

    def test_set_is_chainable(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("round") as span:
            assert span.set(bytes=10) is span
        assert span.attributes["bytes"] == 10

    def test_span_dict_round_trip(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("round.merge", kind="coordinator", rows=3) as span:
            pass
        assert Span.from_dict(span.to_dict()) == span

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.spans == ()
        with NULL_TRACER.span("query", kind="query", sites=9) as span:
            assert span.set(bytes=1) is span
        assert NULL_TRACER.spans == ()
        # The handle is shared: no allocation per span when tracing is off.
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")
        assert NullTracer() is not NULL_TRACER  # but instances stay stateless


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_monotonic(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ObservabilityError):
            counter.inc(-1)
        assert counter.snapshot() == {"type": "counter", "value": 5}

    def test_gauge(self):
        gauge = Gauge("g")
        gauge.set(2.5)
        gauge.add(-1.0)
        assert gauge.value == 1.5

    def test_gauge_set_and_snapshot_take_the_metric_lock(self):
        """``set``/``snapshot`` must use the same lock as ``add``'s
        read-modify-write — an unlocked ``set`` racing an ``add`` is
        silently lost, an unlocked ``snapshot`` can observe a torn write.

        Regression test: ``set`` (and ``snapshot``) used to write/read
        ``value`` without acquiring ``_lock``.
        """

        class RecordingLock:
            def __init__(self):
                self.acquisitions = 0

            def __enter__(self):
                self.acquisitions += 1

            def __exit__(self, *exc):
                return False

        gauge = Gauge("g")
        lock = RecordingLock()
        gauge._lock = lock
        gauge.set(5.0)
        assert lock.acquisitions == 1, "Gauge.set must hold the metric lock"
        gauge.add(2.0)
        assert lock.acquisitions == 2
        assert gauge.snapshot() == {"type": "gauge", "value": 7.0}
        assert lock.acquisitions == 3, "Gauge.snapshot must hold the metric lock"

    def test_histogram_buckets(self):
        histogram = Histogram("h", boundaries=(1.0, 10.0))
        for value in (0.5, 5.0, 100.0):
            histogram.observe(value)
        assert histogram.counts == [1, 1, 1]  # last is the overflow bucket
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(105.5)

    def test_histogram_boundary_is_inclusive_le(self):
        # Prometheus `le` semantics: a value exactly equal to a boundary
        # belongs in that bucket, not the next one.
        histogram = Histogram("h", boundaries=(1.0, 10.0))
        histogram.observe(1.0)
        histogram.observe(10.0)
        assert histogram.counts == [1, 1, 0]
        histogram.observe(10.000001)
        assert histogram.counts == [1, 1, 1]

    def test_histogram_cumulative_counts(self):
        histogram = Histogram("h", boundaries=(1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5.0, 50.0, 500.0):
            histogram.observe(value)
        # Per-bucket counts stay per-bucket; the cumulative view is what
        # Prometheus _bucket{le=...} series carry, ending at the total.
        assert histogram.counts == [2, 1, 1, 1]
        assert histogram.cumulative_counts() == [2, 3, 4, 5]
        assert histogram.cumulative_counts()[-1] == histogram.count

    def test_histogram_quantile_interpolates(self):
        from repro.obs import histogram_quantile

        boundaries = (1.0, 2.0, 4.0)
        cumulative = [0, 10, 10]  # all 10 observations in (1, 2]
        assert histogram_quantile(boundaries, cumulative, 0.5) == pytest.approx(1.5)
        assert histogram_quantile(boundaries, cumulative, 1.0) == pytest.approx(2.0)
        # Empty series and q clamping stay defined.
        assert histogram_quantile(boundaries, [0, 0, 0], 0.9) == 0.0
        assert histogram_quantile((), [], 0.9) == 0.0

    def test_histogram_quantile_overflow_clamps(self):
        from repro.obs import histogram_quantile

        # Observations past the last boundary cannot be located better
        # than "at the last finite boundary".
        boundaries = (1.0, 2.0)
        cumulative = [0, 0, 5]  # trailing entry = total incl. overflow
        assert histogram_quantile(boundaries, cumulative, 0.99) == 2.0

    def test_histogram_validation(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", boundaries=())
        with pytest.raises(ObservabilityError):
            Histogram("h", boundaries=(2.0, 1.0))

    def test_registry_identity_and_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("net.bytes", site="site0", direction="down")
        # Same identity regardless of label order.
        assert registry.counter("net.bytes", direction="down", site="site0") is counter
        assert counter.name == "net.bytes{direction=down,site=site0}"
        counter.inc(7)
        assert registry.value_of("net.bytes", site="site0", direction="down") == 7
        assert registry.value_of("net.bytes", site="other") == 0
        assert len(registry) == 1

    def test_registry_type_conflict(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ObservabilityError):
            registry.gauge("x")

    def test_sum_matching(self):
        registry = MetricsRegistry()
        registry.counter("net.bytes", direction="down").inc(10)
        registry.counter("net.bytes", direction="up").inc(3)
        registry.counter("net.bytes.other").inc(100)
        assert registry.sum_matching("net.bytes{") == 13

    def test_snapshot_is_plain_data(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.histogram("h", boundaries=BYTES_BUCKETS).observe(100.0)
        snapshot = registry.snapshot()
        assert snapshot["c"] == {"type": "counter", "value": 2}
        assert snapshot["h"]["type"] == "histogram"
        assert sum(snapshot["h"]["counts"]) == 1

    def test_activate_scopes_the_active_registry(self):
        assert active_registry() is GLOBAL_REGISTRY
        scoped = MetricsRegistry()
        with activate(scoped) as registry:
            assert registry is scoped
            assert active_registry() is scoped
        assert active_registry() is GLOBAL_REGISTRY

    def test_activate_restores_on_error(self):
        scoped = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with activate(scoped):
                raise RuntimeError("boom")
        assert active_registry() is GLOBAL_REGISTRY


# ---------------------------------------------------------------------------
# Event log (JSONL schema)
# ---------------------------------------------------------------------------


def small_trace() -> EventLog:
    tracer = Tracer(clock=FakeClock())
    with tracer.span("query", kind="query"):
        with tracer.span("round", kind="round", index=0):
            pass
    registry = MetricsRegistry()
    registry.counter("gmdj.tuples_emitted").inc(12)
    log = build_trace(tracer, registry)
    return log


class TestEventLog:
    def test_build_trace_contents(self):
        log = small_trace()
        assert len(log.records_of("span")) == 2
        assert len(log.records_of("metric")) == 1
        names = [span.name for span in log.spans()]
        assert names == ["query", "round"]

    def test_header_and_round_trip(self):
        log = small_trace()
        text = log.dumps()
        first_line = text.splitlines()[0]
        assert '"record": "header"' in first_line
        assert f'"schema_version": {SCHEMA_VERSION}' in first_line
        assert EventLog.loads(text) == log

    def test_dump_load_file(self, tmp_path):
        log = small_trace()
        path = tmp_path / "trace.jsonl"
        log.dump(path)
        assert EventLog.load(path) == log

    def test_null_tracer_contributes_no_spans(self):
        log = build_trace(NULL_TRACER, MetricsRegistry())
        assert log.records_of("span") == []

    def test_rejects_bad_version(self):
        log = small_trace()
        text = log.dumps().replace(
            f'"schema_version": {SCHEMA_VERSION}', '"schema_version": 999'
        )
        with pytest.raises(TraceSchemaError):
            EventLog.loads(text)
        with pytest.raises(TraceSchemaError):
            EventLog(schema_version=999).validate()

    def test_rejects_missing_header(self):
        with pytest.raises(TraceSchemaError):
            EventLog.loads("")
        with pytest.raises(TraceSchemaError):
            EventLog.loads('{"record": "span"}')

    def test_rejects_malformed_lines(self):
        header = small_trace().dumps().splitlines()[0]
        with pytest.raises(TraceSchemaError):
            EventLog.loads(header + "\nnot json")
        with pytest.raises(TraceSchemaError):
            EventLog.loads(header + '\n{"no_tag": 1}')

    def test_validates_record_shapes(self):
        log = EventLog()
        log.append("span", name="x")  # missing the other required fields
        with pytest.raises(TraceSchemaError):
            log.validate()
        log = EventLog()
        log.append("metric", name="m", type="teapot", value=1)
        with pytest.raises(TraceSchemaError):
            log.validate()
        log = EventLog()
        log.append("stats", bytes_total=0)  # missing "rounds"
        with pytest.raises(TraceSchemaError):
            log.validate()

    def test_unknown_record_types_survive(self):
        log = EventLog()
        log.append("future-extension", payload=[1, 2, 3])
        log.validate()
        assert EventLog.loads(log.dumps()) == log


# ---------------------------------------------------------------------------
# Timeline rendering
# ---------------------------------------------------------------------------


class TestTimeline:
    @staticmethod
    def fake_stats():
        from repro.distributed.stats import ExecutionStats

        stats = ExecutionStats()
        round_stats = stats.new_round("md", "steps=1 sites=2")
        round_stats.site("site0").bytes_down = 100
        round_stats.site("site0").bytes_up = 200
        round_stats.site("site0").compute_s = 0.004
        round_stats.site("site0").tuples_up = 5
        round_stats.site("site1").bytes_down = 50
        round_stats.site("site1").compute_s = 0.001
        round_stats.coordinator_compute_s = 0.002
        return stats

    def test_totals_come_from_stats(self):
        from repro.net.costmodel import WAN

        stats = self.fake_stats()
        breakdown = stats.breakdown(WAN)
        footer = render_profile(stats, WAN).splitlines()[-2:]
        assert stats.bytes_total == 350
        assert footer == [
            f"totals: rounds={stats.round_count} bytes={stats.bytes_total} "
            f"(down={stats.bytes_down} up={stats.bytes_up}) "
            f"tuples={stats.tuples_total}",
            f"        site_compute={stats.site_compute_s():.6f}s "
            f"coordinator_compute={stats.coordinator_compute_s():.6f}s "
            f"modeled_communication={breakdown['communication_s']:.6f}s "
            f"total={breakdown['total_s']:.6f}s",
        ]

    def test_render_contains_rows_and_footer(self):
        from repro.net.costmodel import WAN

        text = render_profile(self.fake_stats(), WAN)
        assert "round 0 [md]" in text
        assert "site0" in text and "site1" in text
        assert "merge" in text and "#" in text
        assert "<" in text and "=" in text and ">" in text
        assert "totals: rounds=1 bytes=350 (down=150 up=200) tuples=5" in text
        assert "site_compute=0.004000s" in text

    def test_render_empty_stats(self):
        from repro.distributed.stats import ExecutionStats

        text = render_profile(ExecutionStats())
        assert "totals: rounds=0 bytes=0" in text
