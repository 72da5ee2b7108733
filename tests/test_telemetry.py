"""The cluster telemetry plane, end to end.

Covers the cross-process observability stack: NTP-style clock-offset
estimation over the PING frame and skew-corrected span replay (no
negative durations, no child-before-parent, with a deliberate ±50 ms
site-clock offset injected via ``REPRO_SITE_CLOCK_OFFSET_S``), per-site
metrics export over the TELEMETRY frame (``ProcessCluster.scrape`` with
``site=`` labels, the ``repro top --cluster`` panel, the degraded
``/healthz``), the crash flight recorder (bounded ring, atomic dumps, a
SIGKILL-ed site leaving a loadable post-mortem), and the speculative-
span exclusion rule (an abandoned straggler attempt's spans are tagged
``speculative`` and never double-counted by EXPLAIN ANALYZE).
"""

from __future__ import annotations

import io
import json
import os
import urllib.error
import urllib.request

import pytest

from conftest import make_flows
from repro.distributed import OptimizationOptions, SimulatedCluster, execute_query
from repro.distributed.deployment import ProcessCluster
from repro.distributed.evaluator import ExecutionConfig
from repro.distributed.siteserver import CLOCK_OFFSET_ENV
from repro.errors import ObservabilityError
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import DistinctBase, GMDJExpression, MDStep
from repro.net.faults import FaultPlan
from repro.obs import (
    SCHEMA_VERSION,
    ClockMap,
    ClockSample,
    EventLog,
    FlightRecorder,
    MetricsRegistry,
    Tracer,
    align_span,
    build_profile,
    build_trace,
    cluster_sites,
    estimate_offset,
    flight_path,
    load_flight_dir,
    parse_prometheus_text,
    prometheus_text,
    render_top,
    start_metrics_server,
    summarize,
)
from repro.obs.diff import load_artifact
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, detail
from repro.warehouse.partition import HashPartitioner

SITES = 4
FLOW = make_flows(count=240, seed=17, routers=8)
KEY = detail.SourceAS == base.SourceAS


def correlated_expression():
    inner = MDStep(
        "Flow",
        [MDBlock([count_star("cnt"), AggSpec("sum", detail.NumBytes, "s")], KEY)],
    )
    outer = MDStep(
        "Flow",
        [MDBlock([count_star("big")], KEY & (detail.NumBytes >= base.s / base.cnt))],
    )
    return GMDJExpression(DistinctBase("Flow", ["SourceAS", "DestAS"]), [inner, outer])


def build_simulated(sites: int = SITES) -> SimulatedCluster:
    cluster = SimulatedCluster.with_sites(sites)
    cluster.load_partitioned("Flow", FLOW, HashPartitioner(["SourceAS"], sites))
    return cluster


@pytest.fixture(scope="module")
def deployed(tmp_path_factory):
    root = tmp_path_factory.mktemp("telemetry-cluster")
    with ProcessCluster.from_simulated(build_simulated(), str(root)) as cluster:
        yield cluster


def run_traced(cluster, **config_kwargs):
    tracer = Tracer()
    registry = MetricsRegistry()
    cluster.reset_network(metrics=registry)
    config = ExecutionConfig(
        executor="sockets", retry_backoff_s=0.0, **config_kwargs
    )
    result = execute_query(
        cluster,
        correlated_expression(),
        options=OptimizationOptions.none(),
        config=config,
        tracer=tracer,
        metrics=registry,
    )
    return result, tracer, registry


def assert_span_invariants(tracer):
    """Skew-corrected replay must never produce impossible timelines."""
    by_id = {span.span_id: span for span in tracer.spans}
    for span in tracer.finished():
        assert span.end_s >= span.start_s, (
            f"negative duration on {span.name}: {span.start_s}..{span.end_s}"
        )
    for span in tracer.spans:
        parent = by_id.get(span.parent_id)
        if parent is None:
            continue
        assert span.start_s >= parent.start_s - 1e-9, (
            f"{span.name} starts before its parent {parent.name}"
        )
        if span.end_s is not None and parent.end_s is not None:
            assert span.end_s <= parent.end_s + 1e-9, (
                f"{span.name} ends after its parent {parent.name}"
            )


# ---------------------------------------------------------------------------
# Clock-skew estimation (unit)
# ---------------------------------------------------------------------------


class TestClockEstimation:
    def test_ntp_offset_and_rtt(self):
        # Site clock runs 1 s ahead; symmetric 0.1 s round trip.
        sample = estimate_offset(0.0, 1.05, 1.05, 0.1)
        assert sample.offset_s == pytest.approx(1.0)
        assert sample.rtt_s == pytest.approx(0.1)
        assert sample.error_bound_s == pytest.approx(0.05)

    def test_offset_sign_convention_site_minus_coordinator(self):
        # Site clock 0.5 s behind: offset is negative.
        sample = estimate_offset(10.0, 9.55, 9.55, 10.1)
        assert sample.offset_s == pytest.approx(-0.5)

    def test_reply_before_request_rejected(self):
        with pytest.raises(ObservabilityError):
            estimate_offset(1.0, 2.0, 2.0, 0.5)  # t3 < t0
        with pytest.raises(ObservabilityError):
            estimate_offset(0.0, 2.0, 1.0, 0.5)  # t2 < t1

    def test_negative_rtt_sample_rejected(self):
        with pytest.raises(ObservabilityError):
            ClockSample(offset_s=0.0, rtt_s=-0.1)

    def test_clock_map_keeps_lowest_rtt_sample(self):
        clock_map = ClockMap()
        clock_map.record("site0", ClockSample(offset_s=0.2, rtt_s=0.5))
        clock_map.record("site0", ClockSample(offset_s=0.1, rtt_s=0.01))
        clock_map.record("site0", ClockSample(offset_s=0.3, rtt_s=0.9))
        assert clock_map.offset_of("site0") == pytest.approx(0.1)
        assert clock_map.sample_of("site0").rtt_s == pytest.approx(0.01)

    def test_unknown_site_has_zero_offset(self):
        clock_map = ClockMap()
        assert clock_map.offset_of("nowhere") == 0.0
        assert clock_map.offset_of(None) == 0.0
        assert "nowhere" not in clock_map

    def test_round_trip(self):
        clock_map = ClockMap()
        clock_map.record("site0", ClockSample(offset_s=0.05, rtt_s=0.002))
        clock_map.record("site1", ClockSample(offset_s=-0.04, rtt_s=0.001))
        loaded = ClockMap.from_dict(clock_map.to_dict())
        assert loaded.to_dict() == clock_map.to_dict()
        assert sorted(loaded.sites()) == ["site0", "site1"]


class TestAlignSpan:
    def test_offset_is_subtracted(self):
        start, end = align_span(10.5, 10.7, 0.5)
        assert (start, end) == (pytest.approx(10.0), pytest.approx(10.2))

    def test_clamp_into_parent_preserves_duration(self):
        # Residual error pushes the span 0.1 s before its parent: shift
        # it forward, keep the measured duration.
        start, end = align_span(0.9, 1.1, 0.0, parent_start_s=1.0, parent_end_s=5.0)
        assert start == pytest.approx(1.0)
        assert end == pytest.approx(1.2)

    def test_end_clamped_to_parent_end(self):
        start, end = align_span(1.0, 9.0, 0.0, parent_start_s=0.0, parent_end_s=2.0)
        assert start == pytest.approx(1.0)
        assert end == pytest.approx(2.0)

    def test_inverted_span_rejected(self):
        with pytest.raises(ObservabilityError):
            align_span(2.0, 1.0, 0.0)


class TestReplaySkew:
    @pytest.mark.parametrize("offset_s", [0.05, -0.05])
    def test_replayed_spans_land_inside_parent(self, offset_s):
        # Parent opens at t=1; everything after (replay's "now", the
        # parent close) happens at t=10, so the remote 2..3 s spans fit.
        times = iter([1.0] + [10.0] * 8)
        tracer = Tracer(clock=times.__next__)
        with tracer.span("parent", kind="round") as parent:
            remote = [
                {
                    "name": "remote.work",
                    "kind": "site",
                    "span_id": 1,
                    "parent_id": None,
                    "start_s": 2.0 + offset_s,
                    "end_s": 3.0 + offset_s,
                    "attributes": {"site": "siteX"},
                },
                {
                    "name": "remote.child",
                    "kind": "site",
                    "span_id": 2,
                    "parent_id": 1,
                    "start_s": 2.2 + offset_s,
                    "end_s": 2.8 + offset_s,
                    "attributes": {},
                },
            ]
            tracer.replay(
                remote, clock_offset_s=offset_s, site_id="siteX", process="site"
            )
        replayed = [span for span in tracer.spans if span.process == "site"]
        assert len(replayed) == 2
        work = next(span for span in replayed if span.name == "remote.work")
        child = next(span for span in replayed if span.name == "remote.child")
        # The offset was removed: back on the coordinator clock.
        assert work.start_s == pytest.approx(2.0)
        assert work.end_s == pytest.approx(3.0)
        assert child.start_s == pytest.approx(2.2)
        # Provenance is stamped for schema v3.
        assert work.site_id == "siteX"
        assert work.clock_offset_s == pytest.approx(offset_s)
        # Remote parentage was re-rooted under the live parent span.
        assert work.parent_id == parent.span_id
        assert child.parent_id == work.span_id
        assert_span_invariants(tracer)

    def test_gross_skew_is_clamped_not_negative(self):
        tracer = Tracer(clock=lambda: 1.0)
        with tracer.span("parent", kind="round"):
            # A span claiming to start long before the parent opened.
            tracer.replay(
                [
                    {
                        "name": "remote.early",
                        "kind": "site",
                        "span_id": 1,
                        "parent_id": None,
                        "start_s": -50.0,
                        "end_s": -49.5,
                        "attributes": {},
                    }
                ],
                clock_offset_s=0.0,
                site_id="siteY",
                process="site",
            )
        assert_span_invariants(tracer)


# ---------------------------------------------------------------------------
# Flight recorder (unit)
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_is_bounded_and_counts_drops(self):
        recorder = FlightRecorder(capacity=3, process="site", site_id="s0")
        for index in range(5):
            recorder.record_event("tick", index=index)
        assert len(recorder) == 3
        assert recorder.dropped == 2
        kept = [record["index"] for record in recorder.snapshot()]
        assert kept == [2, 3, 4]

    def test_dump_load_round_trip(self, tmp_path):
        recorder = FlightRecorder(capacity=8, process="site", site_id="s1")
        recorder.record_event("boot", port=1234)
        recorder.record_fault(error="RemoteSiteError", message="boom")
        tracer = Tracer(clock=iter([1.0, 2.0]).__next__)
        with tracer.span("round.evaluate", kind="site", site="s1"):
            pass
        recorder.record_spans(tracer.finished())
        path = recorder.dump(flight_path(tmp_path, "site", "s1"))
        assert os.path.basename(path) == "flight-site-s1.jsonl"

        loaded = EventLog.load(path)
        assert (loaded.origin["process"], loaded.origin["site_id"]) == ("site", "s1")
        assert len(loaded.records) == 3
        assert loaded.records_of("fault")[0]["message"] == "boom"
        spans = loaded.spans()
        assert [span.name for span in spans] == ["round.evaluate"]
        # Atomic write: no leftover temp file next to the dump.
        assert [name for name in os.listdir(tmp_path) if ".tmp." in name] == []

    def test_a_dump_is_a_current_schema_event_log(self, tmp_path):
        # A fresh recorder's dump is itself loadable: header only.
        assert EventLog.loads(FlightRecorder().dumps()).records == []
        recorder = FlightRecorder(process="site", site_id="s2")
        tracer = Tracer(clock=iter([1.0, 2.0]).__next__)
        with tracer.span("round.evaluate", kind="site", site="s2"):
            pass
        recorder.record_spans(tracer.finished())
        recorder.record_event("request", kind="round")
        event_log = EventLog.loads(recorder.dumps())
        assert event_log.schema_version == SCHEMA_VERSION
        span_records = event_log.records_of("span")
        assert len(span_records) == 1
        assert span_records[0]["process"] == "site"
        assert span_records[0]["site_id"] == "s2"
        # What the loader returns, written back, is what it loads again.
        assert EventLog.loads(event_log.dumps()) == event_log

    def test_diff_load_artifact_classifies_flight_dumps(self, tmp_path):
        recorder = FlightRecorder(process="coordinator")
        recorder.record_event("query", query_id=9)
        path = recorder.dump(flight_path(tmp_path, "coordinator"))
        kind, payload = load_artifact(path)
        assert kind == "trace"
        assert payload.records_of("event")[0]["query_id"] == 9

    def test_load_flight_dir(self, tmp_path):
        FlightRecorder(process="coordinator").dump(
            flight_path(tmp_path, "coordinator")
        )
        FlightRecorder(process="site", site_id="s0").dump(
            flight_path(tmp_path, "site", "s0")
        )
        logs = load_flight_dir(tmp_path)
        assert [log.origin["process"] for log in logs] == ["coordinator", "site"]
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ObservabilityError, match="no flight records"):
            load_flight_dir(empty)
        with pytest.raises(ObservabilityError, match="cannot read"):
            load_flight_dir(tmp_path / "does-not-exist")

    def test_dump_appends_what_was_recorded_since_the_last_dump(self, tmp_path):
        recorder = FlightRecorder(capacity=4, process="site", site_id="s3")
        for index in range(6):  # the ring is full and has dropped two
            recorder.record_event("tick", index=index)
        path = recorder.dump(flight_path(tmp_path, "site", "s3"))
        before = os.path.getsize(path)
        inode = os.stat(path).st_ino
        added = [recorder.record_event("tick", index=index) for index in (6, 7)]
        recorder.dump(path)
        expected = "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in added
        )
        assert os.path.getsize(path) - before == len(expected.encode("utf-8"))
        assert os.stat(path).st_ino == inode  # appended to, not replaced
        with open(path, encoding="utf-8") as handle:
            assert handle.read().endswith(expected)
        # A dump with nothing new leaves the file alone.
        recorder.dump(path)
        assert os.path.getsize(path) - before == len(expected.encode("utf-8"))
        loaded = EventLog.load(path)
        assert loaded.records == recorder.snapshot()
        assert loaded.origin["dropped"] == recorder.dropped == 4

    def test_dump_file_stays_within_twice_the_ring(self, tmp_path):
        capacity = 8
        recorder = FlightRecorder(capacity=capacity)
        path = flight_path(tmp_path, "coordinator")
        rewrites, inode = 0, None
        for index in range(5 * capacity):
            recorder.record_event("tick", index=index)
            if index % 3 == 0:
                recorder.record_fault(message="x" * index)
            recorder.dump(path)
            with open(path, encoding="utf-8") as handle:
                assert len(handle.read().splitlines()) <= 2 * capacity + 1
            if os.stat(path).st_ino != inode:
                rewrites, inode = rewrites + 1, os.stat(path).st_ino
            # Whatever the file holds, what loads is the ring.
            loaded = EventLog.load(path)
            assert loaded.records == recorder.snapshot()
            assert loaded.origin["dropped"] == recorder.dropped
        assert 2 <= rewrites <= 8  # about once per ``capacity`` records of 54
        assert [name for name in os.listdir(tmp_path) if ".tmp." in name] == []

    def test_dump_rewrites_when_it_cannot_append(self, tmp_path):
        recorder = FlightRecorder(capacity=4)
        recorder.record_event("one")
        first = recorder.dump(tmp_path / "a.jsonl")
        recorder.record_event("two")
        second = recorder.dump(tmp_path / "b.jsonl")  # another path: whole ring
        assert len(EventLog.load(second).records) == 2
        assert len(EventLog.load(first).records) == 1
        os.remove(second)
        recorder.record_event("three")
        recorder.dump(second)  # the file is gone: whole ring again
        assert [r["name"] for r in EventLog.load(second).records] == [
            "one", "two", "three"
        ]
        # More records than the ring holds since the last dump: appending
        # the survivors would lose count of the ones in between.
        for index in range(9):
            recorder.record_event("burst", index=index)
        recorder.dump(second)
        loaded = EventLog.load(second)
        assert loaded.records == recorder.snapshot()
        assert loaded.origin["dropped"] == recorder.dropped == 8

    def test_torn_final_line_is_dropped_and_only_that(self, tmp_path):
        recorder = FlightRecorder(capacity=8)
        for index in range(3):
            recorder.record_event("tick", index=index)
        text = recorder.dumps()
        torn = text[: len(text) - 9]  # killed inside the last write
        assert [r["index"] for r in EventLog.loads(torn).records] == [0, 1]
        # Cut between the last line and its newline: nothing is lost.
        assert len(EventLog.loads(text[:-1]).records) == 3
        lines = text.splitlines()
        lines[2] = lines[2][:-5]
        with pytest.raises(ObservabilityError, match="line 3"):
            EventLog.loads("\n".join(lines) + "\n")
        with pytest.raises(ObservabilityError, match="line 1"):
            EventLog.loads(lines[0][:-5])
        # Only an appended-to file is forgiven its last line: the same
        # records under a trace's header (one written whole) still raise.
        as_trace = EventLog(EventLog.loads(text).records).dumps()
        with pytest.raises(ObservabilityError, match="line 4"):
            EventLog.loads(as_trace[: len(as_trace) - 9])

    def test_unsupported_version_rejected(self):
        text = FlightRecorder().dumps().replace(
            f'"schema_version": {SCHEMA_VERSION}', '"schema_version": 99'
        )
        with pytest.raises(ObservabilityError, match="version"):
            EventLog.loads(text)

    def test_malformed_ring_header_rejected(self):
        text = FlightRecorder(capacity=4).dumps()
        for good, bad in (
            ('"capacity": 4', '"capacity": 0'),
            ('"capacity": 4', '"capacity": "4"'),
            ('"dropped": 0', '"dropped": -1'),
            ('"process": "coordinator"', '"process": "elsewhere"'),
        ):
            assert good in text
            with pytest.raises(ObservabilityError, match="line 1"):
                EventLog.loads(text.replace(good, bad))


# ---------------------------------------------------------------------------
# Metrics merge + /healthz + top panel (unit)
# ---------------------------------------------------------------------------


class TestMergeSnapshot:
    def test_counters_merge_as_deltas(self):
        source = MetricsRegistry()
        source.counter("site.requests").inc(5)
        target = MetricsRegistry()
        target.merge_snapshot(source.snapshot(), site="s0")
        source.counter("site.requests").inc(2)
        target.merge_snapshot(source.snapshot(), site="s0")
        assert target.counter("site.requests", site="s0").value == 7

    def test_counter_reset_reassigns(self):
        target = MetricsRegistry()
        target.merge_snapshot(
            {"site.requests": {"type": "counter", "value": 10}}, site="s0"
        )
        # The site restarted: its counter went backwards.
        target.merge_snapshot(
            {"site.requests": {"type": "counter", "value": 3}}, site="s0"
        )
        assert target.counter("site.requests", site="s0").value == 3

    def test_gauges_and_histograms_carry_labels(self):
        source = MetricsRegistry()
        source.gauge("site.connections").set(4)
        source.histogram("site.request.seconds", boundaries=(0.1, 1.0)).observe(
            0.5
        )
        target = MetricsRegistry()
        target.merge_snapshot(source.snapshot(), site="s3")
        text = prometheus_text(target)
        assert 'site_connections{site="s3"} 4' in text
        assert 'site_request_seconds_bucket{le="1",site="s3"} 1' in text


class TestHealthz:
    def _get(self, url):
        try:
            with urllib.request.urlopen(url, timeout=5.0) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_healthy_with_probe(self):
        with start_metrics_server(
            MetricsRegistry(), health_probe=lambda: []
        ) as server:
            status, health = self._get(
                server.url.replace("/metrics", "/healthz")
            )
        assert status == 200
        assert health["status"] == "ok"
        assert health["dead_sites"] == []

    def test_dead_sites_turn_healthz_degraded(self):
        with start_metrics_server(
            MetricsRegistry(), health_probe=lambda: ["site2", "site0"]
        ) as server:
            status, health = self._get(
                server.url.replace("/metrics", "/healthz")
            )
        assert status == 503
        assert health["status"] == "degraded"
        assert health["dead_sites"] == ["site0", "site2"]

    def test_probe_failure_is_degraded_not_a_crash(self):
        def probe():
            raise OSError("connection refused")

        with start_metrics_server(MetricsRegistry(), health_probe=probe) as server:
            status, health = self._get(
                server.url.replace("/metrics", "/healthz")
            )
        assert status == 503
        assert health["status"] == "degraded"
        assert "OSError" in health["probe_error"]


class TestClusterPanel:
    def samples(self):
        registry = MetricsRegistry()
        registry.gauge("site.up", site="s0").set(1)
        registry.gauge("site.up", site="s1").set(0)
        registry.gauge("site.pid", site="s0").set(4242)
        registry.counter("site.requests", site="s0").inc(7)
        registry.counter("site.rows", site="s0").inc(125)
        registry.counter("site.bytes", site="s0", direction="down").inc(2048)
        registry.counter("site.bytes", site="s0", direction="up").inc(4096)
        registry.gauge("site.rss.bytes", site="s0").set(1 << 20)
        return parse_prometheus_text(prometheus_text(registry))

    def test_cluster_sites_reads_site_families(self):
        per_site = cluster_sites(self.samples())
        assert per_site["s0"]["up"] is True
        assert per_site["s1"]["up"] is False
        assert per_site["s0"]["pid"] == 4242
        assert per_site["s0"]["requests"] == 7
        assert per_site["s0"]["rows"] == 125
        assert per_site["s0"]["down"] == 2048
        assert per_site["s0"]["up_bytes"] == 4096

    def test_render_top_shows_cluster_panel(self):
        frame = render_top(summarize(self.samples()), "cluster demo")
        assert "cluster sites:" in frame
        assert "s0" in frame and "DOWN" in frame

    def test_no_site_families_no_panel(self):
        frame = render_top(summarize({}), "plain")
        assert "cluster sites:" not in frame


# ---------------------------------------------------------------------------
# Trace schema v3 provenance (unit)
# ---------------------------------------------------------------------------


class TestSchemaV3Provenance:
    def traced(self, clock_map=None):
        tracer = Tracer(clock=iter(float(n) for n in range(1, 50)).__next__)
        with tracer.span("query", kind="query"):
            pass
        return build_trace(tracer, MetricsRegistry(), clock_map=clock_map)

    def test_span_records_carry_process(self):
        log = self.traced()
        assert all(
            record["process"] == "coordinator"
            for record in log.records_of("span")
        )

    def test_clock_record_round_trips(self):
        clock_map = ClockMap()
        clock_map.record("site0", ClockSample(offset_s=0.05, rtt_s=0.001))
        log = self.traced(clock_map=clock_map)
        loaded = EventLog.loads(log.dumps())
        clocks = loaded.records_of("clock")
        assert len(clocks) == 1
        assert clocks[0]["sites"]["site0"]["offset_s"] == pytest.approx(0.05)


# ---------------------------------------------------------------------------
# Live cluster: skew-corrected tracing with an injected ±50 ms offset
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("injected_offset_s", [0.05, -0.05])
def test_skewed_site_clocks_are_corrected(
    tmp_path_factory, monkeypatch, injected_offset_s
):
    """Sites running ±50 ms off the coordinator clock still produce a
    coherent merged timeline: the PING exchange measures the offset and
    replay removes it before re-rooting the shipped spans."""
    monkeypatch.setenv(CLOCK_OFFSET_ENV, str(injected_offset_s))
    root = tmp_path_factory.mktemp(f"skew-{injected_offset_s:+.2f}")
    simulated = build_simulated(sites=2)
    with ProcessCluster.from_simulated(simulated, str(root)) as cluster:
        result, tracer, _registry = run_traced(cluster)

    offsets = {
        site_id: entry["offset_s"]
        for site_id, entry in result.stats.clock_offsets.items()
    }
    assert sorted(offsets) == ["site0", "site1"]
    for measured in offsets.values():
        # Loopback RTT is far below 50 ms, so the estimate is tight.
        assert measured == pytest.approx(injected_offset_s, abs=0.02)

    assert_span_invariants(tracer)
    site_spans = [span for span in tracer.spans if span.process == "site"]
    assert site_spans, "no site spans were replayed"
    assert {span.site_id for span in site_spans} == {"site0", "site1"}
    for span in site_spans:
        assert span.clock_offset_s == pytest.approx(injected_offset_s, abs=0.02)

    # The trace artifact records the clock map alongside the spans.
    log = build_trace(
        tracer,
        MetricsRegistry(),
        result.stats,
        clock_map=ClockMap.from_dict(result.stats.clock_offsets),
    )
    loaded = EventLog.loads(log.dumps())
    assert loaded.records_of("clock")
    assert any(
        record.get("process") == "site" for record in loaded.records_of("span")
    )
    assert "clock sync: 2 site(s)" in result.stats.summary()


# ---------------------------------------------------------------------------
# Live cluster: per-site metrics export
# ---------------------------------------------------------------------------


def test_scrape_aggregates_per_site_registries(deployed):
    result, _tracer, registry = run_traced(deployed)
    assert result.stats.rounds

    # Site health takes one road home, the scrape: a run's own registry
    # holds no site_requests* / site_rss* family.
    assert "site_requests" not in prometheus_text(registry)
    assert "site_rss" not in prometheus_text(registry)

    scraped = deployed.scrape(MetricsRegistry())
    text = prometheus_text(scraped)
    samples = parse_prometheus_text(text)
    for site_id in deployed.site_ids:
        assert ({"site": site_id}, 1.0) in samples["site_up"]
    per_site = cluster_sites(samples)
    assert sorted(per_site) == sorted(deployed.site_ids)
    for site_id in deployed.site_ids:
        assert per_site[site_id]["up"] is True
        assert per_site[site_id]["requests"] >= 1
        assert per_site[site_id]["pid"]
    frame = render_top(summarize(samples), "cluster")
    assert "cluster sites:" in frame

    assert deployed.dead_sites() == []


def test_cluster_top_panel_via_cli(deployed, capsys):
    from repro.cli import main

    code = main(
        ["top", "--cluster", deployed.root, "--iterations", "1"],
        out=io.StringIO(),
    )
    assert code == 0


# ---------------------------------------------------------------------------
# Speculative straggler: abandoned spans excluded from profiles
# ---------------------------------------------------------------------------


def test_abandoned_speculative_spans_are_excluded_from_profiles(deployed):
    """Satellite regression: a seeded straggler triggers speculation; the
    abandoned attempt's spans are tagged ``speculative=True`` and EXPLAIN
    ANALYZE does not double-count them in per-stage totals."""
    deployed.install_faults(
        FaultPlan.stragglers(deployed.site_ids, seed=7, delay_s=0.8, rounds=(1,))
    )
    try:
        result, tracer, _registry = run_traced(
            deployed, speculation=True, speculation_factor=2.0
        )
    finally:
        deployed.install_faults(None)

    assert result.stats.speculative_legs == 1
    speculative = [
        span for span in tracer.spans if span.attributes.get("speculative")
    ]
    assert speculative, "the abandoned attempt left no tagged spans"
    victims = {span.attributes.get("site") for span in speculative}
    assert len(victims) == 1  # only the straggler's leg was tagged

    profile = build_profile(tracer.finished(), result.stats)
    straggled_round = next(
        round_profile
        for round_profile in profile["rounds"]
        if round_profile["index"] == 1
    )
    encode = next(
        operator
        for operator in straggled_round["operators"]
        if operator["name"] == "round.encode"
    )
    # One encode per site: the abandoned attempt's duplicate encode span
    # was skipped, not absorbed.
    assert encode["calls"] == len(deployed.site_ids)


# ---------------------------------------------------------------------------
# Live cluster: what `trace --flight --json` emits is what the loader loads
# ---------------------------------------------------------------------------


def test_flight_json_of_an_unnumbered_query_loads(deployed, tmp_path):
    from repro.cli import main

    result, _tracer, _registry = run_traced(deployed)  # no query_id
    assert result.stats.query_id is None
    # What `cluster dump` calls, on the cluster whose coordinator ring
    # holds the query (the command attaches with a fresh one).
    deployed.dump_flight(tmp_path)
    out = io.StringIO()
    assert main(["trace", "--flight", str(tmp_path), "--json"], out=out) == 0
    files = out.getvalue().split('{"capacity"')[1:]
    assert len(files) == 1 + len(deployed.site_ids)
    names = set()
    for text in files:
        log = EventLog.loads('{"capacity"' + text)
        names.update(record.get("name") for record in log.records_of("event"))
        assert all("query_id" not in record for record in log.records)
    assert {"query", "request"} <= names


# ---------------------------------------------------------------------------
# Live cluster: kill + flight dump post-mortem (keep last: kills a site)
# ---------------------------------------------------------------------------


def test_killed_site_leaves_a_loadable_flight_dump(deployed, tmp_path):
    result, _tracer, _registry = run_traced(deployed)
    assert result.stats.rounds
    victim = deployed.site_ids[-1]
    deployed.kill_site(victim)

    assert deployed.dead_sites() == [victim]
    assert deployed.liveness()[victim] is False

    paths = deployed.dump_flight()
    names = sorted(os.path.basename(path) for path in paths)
    assert "flight-coordinator.jsonl" in names
    assert f"flight-site-{victim}.jsonl" in names

    # The dead site's dump is its last per-request crash dump — loadable
    # with the one loader trace tooling uses.
    victim_path = next(path for path in paths if victim in path)
    log = EventLog.load(victim_path)
    assert log.origin["site_id"] == victim
    assert log.records_of("request") or log.records_of("event")
    assert log.schema_version == SCHEMA_VERSION
    assert log.records_of("span"), "crash dump lost the site's spans"

    # The coordinator ring recorded the kill and the query lifecycle.
    coordinator = EventLog.load(
        next(path for path in paths if "coordinator" in path)
    )
    events = {record.get("name") for record in coordinator.records_of("event")}
    assert "kill" in events
    assert "query" in events

    # `repro trace --flight` renders the post-mortem without a live site.
    from repro.cli import main

    out = io.StringIO()
    assert main(["trace", "--flight", victim_path], out=out) == 0
    rendered = out.getvalue()
    assert f"site {victim}" in rendered
    assert "span" in rendered

    # `repro cluster dump` attaches to the same deployment from outside,
    # names the dead site, and writes a directory `trace --flight` reads.
    out = io.StringIO()
    code = main(
        ["cluster", "dump", "--dir", deployed.root, "--out", str(tmp_path)],
        out=out,
    )
    assert code == 0
    assert "flight record(s)" in out.getvalue()
    assert f"dead site(s): {victim}" in out.getvalue()
    # The post-mortem the command exists for is in the directory it wrote:
    # the killed site's dump is copied from the store like a live site's.
    copied = tmp_path / f"flight-site-{victim}.jsonl"
    assert copied.exists() and str(copied) in out.getvalue()
    copied_log = EventLog.load(copied)
    assert copied_log.origin["site_id"] == victim
    assert copied_log.records_of("span")
    out = io.StringIO()
    assert main(["trace", "--flight", str(tmp_path)], out=out) == 0
    assert "flight [coordinator]" in out.getvalue()
    assert f"flight [site {deployed.site_ids[0]}]" in out.getvalue()
    assert f"flight [site {victim}]" in out.getvalue()

    deployed.restart_site(victim)
    assert deployed.dead_sites() == []
