"""Prometheus exposition, the /metrics endpoint, and the repro-top consumer."""

import os
import subprocess
import sys

import pytest

import repro
from repro.errors import ObservabilityError
from repro.obs import (
    MetricsRegistry,
    parse_prometheus_text,
    prometheus_text,
    scrape,
    start_metrics_server,
)
from repro.obs.export import sanitize_name, split_key
from repro.obs.top import (
    latency_quantiles_ms,
    outcome_counts,
    render_top,
    site_bytes,
    stage_quantiles_ms,
    summarize,
)

#: The directory ``repro`` is imported from, for a child interpreter.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("net.bytes", direction="down", site="site0").inc(32)
    registry.counter("net.bytes", direction="up", site="site0").inc(200)
    registry.counter("service.queries").inc(3)
    registry.gauge("service.in_flight").set(1)
    histogram = registry.histogram("service.latency_s", boundaries=(0.1, 1.0))
    for value in (0.05, 0.1, 0.5, 5.0):
        histogram.observe(value)
    return registry


class TestExposition:
    def test_sanitize_name(self):
        assert sanitize_name("net.bytes") == "net_bytes"
        assert sanitize_name("9lives") == "_9lives"

    def test_split_key_inverts_metric_key(self):
        assert split_key("net.bytes{direction=down,site=site0}") == (
            "net.bytes",
            {"direction": "down", "site": "site0"},
        )
        assert split_key("service.queries") == ("service.queries", {})

    def test_counters_gain_total_suffix_and_labels(self):
        text = prometheus_text(populated_registry())
        assert (
            'net_bytes_total{direction="down",site="site0"} 32' in text
        )
        assert "# TYPE net_bytes counter" in text
        assert "service_queries_total 3" in text
        assert "service_in_flight 1" in text
        assert "# TYPE service_in_flight gauge" in text

    def test_histogram_buckets_are_cumulative_le(self):
        text = prometheus_text(populated_registry())
        # 0.05 and the exactly-at-boundary 0.1 are both <= 0.1.
        assert 'service_latency_s_bucket{le="0.1"} 2' in text
        assert 'service_latency_s_bucket{le="1"} 3' in text
        assert 'service_latency_s_bucket{le="+Inf"} 4' in text
        assert "service_latency_s_count 4" in text

    def test_type_mixing_is_rejected(self):
        # "x.y" and "x_y" sanitize to the same exposition family; a
        # counter and a gauge cannot share it.
        registry = MetricsRegistry()
        registry.counter("x.y").inc()
        registry.gauge("x_y").set(1)
        with pytest.raises(ObservabilityError, match="mixes types"):
            prometheus_text(registry)

    def test_parse_round_trip(self):
        registry = populated_registry()
        samples = parse_prometheus_text(prometheus_text(registry))
        assert samples["service_queries_total"] == [({}, 3.0)]
        by_le = {
            labels["le"]: value
            for labels, value in samples["service_latency_s_bucket"]
        }
        assert by_le == {"0.1": 2.0, "1": 3.0, "+Inf": 4.0}

    def test_parse_rejects_garbage_with_line_number(self):
        with pytest.raises(ObservabilityError, match="line 2"):
            parse_prometheus_text("ok_metric 1\n{{{nonsense\n")

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", path='a"b\\c').inc()
        text = prometheus_text(registry)
        samples = parse_prometheus_text(text)
        assert samples["c_total"][0][0]["path"] == 'a"b\\c'


class TestMetricsServer:
    def test_live_scrape_on_ephemeral_port(self):
        registry = populated_registry()
        with start_metrics_server(registry, port=0) as server:
            samples = scrape(server.url)
            assert samples["service_queries_total"] == [({}, 3.0)]
            # Live writers show up on the next scrape.
            registry.counter("service.queries").inc()
            assert scrape(server.url)["service_queries_total"] == [({}, 4.0)]
            # /healthz answers a JSON liveness document; unknown paths
            # 404 without killing the server.
            import json
            import urllib.error
            import urllib.request

            from repro.obs.events import SCHEMA_VERSION

            health = server.url.replace("/metrics", "/healthz")
            with urllib.request.urlopen(health, timeout=5) as response:
                assert response.headers["Content-Type"].startswith(
                    "application/json"
                )
                body = json.loads(response.read())
            assert body["status"] == "ok"
            assert body["uptime_s"] >= 0.0
            assert body["trace_schema_version"] == SCHEMA_VERSION
            assert body["metric_count"] == len(registry)
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    server.url.replace("/metrics", "/nope"), timeout=5
                )


class TestTopConsumer:
    def test_summarize_and_quantiles(self):
        samples = parse_prometheus_text(prometheus_text(populated_registry()))
        summary = summarize(samples)
        assert summary["queries"] == 3.0
        assert summary["in_flight"] == 1.0
        assert summary["site_bytes"] == {"site0": {"down": 32, "up": 200}}
        latency = summary["latency_ms"]
        assert latency["count"] == 4
        assert latency["p50"] == pytest.approx(100.0)  # 2 of 4 obs <= 0.1s
        assert latency["p99"] == pytest.approx(1000.0)  # overflow clamps to 1s
        assert latency["mean"] == pytest.approx(5.65 / 4 * 1000.0)

    def test_site_bytes_ignores_unlabelled_series(self):
        samples = {"net_bytes_total": [({"direction": "down"}, 10.0)]}
        assert site_bytes(samples) == {}

    def test_latency_quantiles_empty_without_histogram(self):
        assert latency_quantiles_ms({}) == {}

    def test_stage_panel_separates_labelled_series(self):
        registry = MetricsRegistry()
        lookup = registry.histogram(
            "service.stage_s", boundaries=(0.1, 1.0), stage="lookup"
        )
        for value in (0.05, 0.05):
            lookup.observe(value)
        registry.histogram(
            "service.stage_s", boundaries=(0.1, 1.0), stage="execute"
        ).observe(0.5)
        registry.histogram(
            "service.latency_by_outcome_s", boundaries=(0.1,), outcome="hit"
        ).observe(0.01)
        registry.histogram(
            "service.latency_by_outcome_s", boundaries=(0.1,), outcome="fresh"
        ).observe(0.5)
        samples = parse_prometheus_text(prometheus_text(registry))

        stages = stage_quantiles_ms(samples)
        # Canonical lifecycle order, and each stage sees only its own
        # label's observations (the label-blind sum would report 3).
        assert list(stages) == ["lookup", "execute"]
        assert stages["lookup"]["count"] == 2
        assert stages["execute"]["count"] == 1
        assert stages["lookup"]["p50"] <= stages["execute"]["p50"]
        assert outcome_counts(samples) == {"hit": 1, "fresh": 1}

        summary = summarize(samples)
        assert summary["stages_ms"] == stages
        frame = render_top(summary)
        assert "stages:" in frame
        assert "lookup" in frame and "execute" in frame
        assert "outcomes: fresh=1 hit=1" in frame

    def test_stage_panel_placeholder_before_traffic(self):
        frame = render_top(summarize({}))
        assert "no service.stage_s samples yet" in frame

    def test_render_top_frame(self):
        samples = parse_prometheus_text(prometheus_text(populated_registry()))
        frame = render_top(summarize(samples), "http://x/metrics", 3)
        assert "repro top — http://x/metrics (frame 3)" in frame
        assert "queries=3" in frame
        assert "p50=100.0ms" in frame
        assert "site0" in frame

    def test_render_top_before_any_traffic(self):
        frame = render_top(summarize({}))
        assert "no service.latency_s samples yet" in frame
        assert "no net.bytes samples yet" in frame

    def test_top_loop_returns_1_when_unreachable(self):
        import io

        from repro.obs.top import top_loop

        out = io.StringIO()
        code = top_loop(
            "http://127.0.0.1:1/metrics",
            interval_s=0.0,
            iterations=2,
            out=out,
            sleep=lambda _s: None,
        )
        assert code == 1
        assert "unreachable" in out.getvalue()


class TestServerLifecycle:
    def test_stop_is_idempotent_and_joins_the_thread(self):
        server = start_metrics_server(populated_registry(), port=0)
        assert server._thread.is_alive()
        server.stop()
        assert not server._thread.is_alive()
        server.stop()  # second stop is a no-op, not an error
        server.close()  # and close() stays as an alias

    def test_port_is_rebindable_immediately_after_stop(self):
        # The EADDRINUSE regression: serve teardown must release the
        # fixed --metrics-port so a quick restart can bind it again.
        first = start_metrics_server(populated_registry(), port=0)
        port = first.port
        first.stop()
        second = start_metrics_server(populated_registry(), port=port)
        try:
            assert second.port == port
            assert scrape(second.url)["service_queries_total"] == [({}, 3.0)]
        finally:
            second.stop()

    def test_server_sets_so_reuseaddr(self):
        from repro.obs import export

        assert export._http_classes()[1].allow_reuse_address is True


def test_a_site_server_start_imports_no_http_module():
    """The telemetry endpoint and scrape client import ``http.server`` and
    ``urllib.request`` where they are used: a site server's start (and every
    CLI call) pays for neither."""
    script = (
        "import sys, repro.distributed.siteserver; "
        "print(sorted({'urllib.request', 'http.server'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    finished = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert finished.stdout.strip() == "[]"
