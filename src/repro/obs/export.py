"""Prometheus text-format exposition of a :class:`MetricsRegistry`.

Three pieces, all stdlib-only:

- :func:`prometheus_text` renders a registry snapshot in text exposition
  format 0.0.4 — counters gain the ``_total`` suffix, histograms emit
  cumulative ``_bucket{le=...}`` series (Prometheus ``le`` semantics,
  including the ``+Inf`` bucket) plus ``_sum``/``_count``, and internal
  dotted names/labels (``net.bytes{direction=down,site=site0}``) are
  sanitized to the exposition charset;
- :class:`MetricsServer` serves ``GET /metrics`` (and ``/healthz``,
  which answers a JSON liveness document: status, server uptime, the
  trace schema version, and the registry's metric count) from an
  ``http.server.ThreadingHTTPServer`` on a daemon thread — this is
  what ``repro serve --metrics-port`` starts;
- :func:`parse_prometheus_text` / :func:`scrape` read an exposition back
  into ``{family: [(labels, value), ...]}`` — the consumer side used by
  ``repro top`` and the CI smoke job.

The registry is shared with live writers; ``snapshot()`` is taken under
each metric's lock, so a scrape observes a consistent value per metric
(not a consistent cut across metrics, which Prometheus does not require).
"""

from __future__ import annotations

import json
import re
import threading
import time
from typing import Dict, List, Tuple

from repro.errors import ObservabilityError
from repro.obs.events import SCHEMA_VERSION
from repro.obs.metrics import MetricsRegistry

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def sanitize_name(name: str) -> str:
    """Map an internal metric name to the exposition charset."""
    sanitized = _NAME_SANITIZE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def split_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`repro.obs.metrics._metric_key`: name + label dict."""
    if "{" not in key:
        return key, {}
    name, _, encoded = key.partition("{")
    labels = {}
    for pair in encoded.rstrip("}").split(","):
        if not pair:
            continue
        label, _, value = pair.partition("=")
        labels[label] = value
    return name, labels


def _escape_label_value(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _render_labels(labels: Dict[str, str], extra: Dict[str, str] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    encoded = ",".join(
        f'{_LABEL_SANITIZE.sub("_", label)}="{_escape_label_value(value)}"'
        for label, value in sorted(merged.items())
    )
    return "{" + encoded + "}"


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in Prometheus text exposition format 0.0.4."""
    families: Dict[str, dict] = {}
    for key, snapshot in registry.snapshot().items():
        name, labels = split_key(key)
        family_name = sanitize_name(name)
        family = families.setdefault(
            family_name, {"type": snapshot["type"], "series": []}
        )
        if family["type"] != snapshot["type"]:
            raise ObservabilityError(
                f"metric family {family_name!r} mixes types "
                f"{family['type']!r} and {snapshot['type']!r}"
            )
        family["series"].append((labels, snapshot))

    lines: List[str] = []
    for family_name in sorted(families):
        family = families[family_name]
        kind = family["type"]
        sample_name = family_name + "_total" if kind == "counter" else family_name
        lines.append(f"# HELP {family_name} repro.obs metric {family_name}")
        lines.append(f"# TYPE {family_name} {kind}")
        for labels, snapshot in family["series"]:
            if kind in ("counter", "gauge"):
                lines.append(
                    f"{sample_name}{_render_labels(labels)} "
                    f"{_format_value(snapshot['value'])}"
                )
                continue
            # Histogram: cumulative le-buckets + sum + count.
            running = 0
            for boundary, bucket_count in zip(
                snapshot["boundaries"], snapshot["counts"]
            ):
                running += bucket_count
                lines.append(
                    f"{family_name}_bucket"
                    f"{_render_labels(labels, {'le': _format_value(boundary)})} "
                    f"{running}"
                )
            lines.append(
                f"{family_name}_bucket{_render_labels(labels, {'le': '+Inf'})} "
                f"{snapshot['count']}"
            )
            lines.append(
                f"{family_name}_sum{_render_labels(labels)} "
                f"{_format_value(snapshot['sum'])}"
            )
            lines.append(
                f"{family_name}_count{_render_labels(labels)} {snapshot['count']}"
            )
    return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> Dict[str, List[Tuple[dict, float]]]:
    """Parse an exposition into ``{sample_name: [(labels, value), ...]}``.

    Sample names are kept verbatim (``net_bytes_total``,
    ``service_latency_s_bucket``, ...); ``# HELP``/``# TYPE`` comments
    are skipped. Raises :class:`~repro.errors.ObservabilityError` on an
    unparseable sample line, which is what the CI smoke job asserts.
    """
    samples: Dict[str, List[Tuple[dict, float]]] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ObservabilityError(
                f"exposition line {line_number} does not parse: {line!r}"
            )
        labels = {}
        encoded = match.group("labels")
        if encoded:
            for label, value in _LABEL_PAIR.findall(encoded):
                labels[label] = value.replace('\\"', '"').replace("\\\\", "\\")
        raw = match.group("value")
        value = float("inf") if raw == "+Inf" else float(raw)
        samples.setdefault(match.group("name"), []).append((labels, value))
    return samples


# ---------------------------------------------------------------------------
# HTTP endpoint
# ---------------------------------------------------------------------------


class _MetricsRoutes:
    """What the endpoint answers: mixed into ``http.server``'s request
    handler (:func:`_http_classes`)."""

    server_version = "repro-obs/2"

    def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0]
        if path in ("/metrics", "/metrics/"):
            body = prometheus_text(self.server.registry).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", CONTENT_TYPE)
        elif path == "/healthz":
            health = {
                "status": "ok",
                "uptime_s": time.monotonic() - self.server.started_monotonic,
                "trace_schema_version": SCHEMA_VERSION,
                "metric_count": len(self.server.registry),
            }
            status_code = 200
            probe = getattr(self.server, "health_probe", None)
            if probe is not None:
                # A cluster-liveness probe (e.g. ProcessCluster.dead_sites):
                # any unreachable site turns the endpoint degraded — a
                # non-200 so orchestrators and load balancers notice.
                try:
                    dead_sites = sorted(probe())
                except Exception as error:  # noqa: BLE001 - report, don't die
                    health["status"] = "degraded"
                    health["probe_error"] = f"{type(error).__name__}: {error}"
                    status_code = 503
                else:
                    health["dead_sites"] = dead_sites
                    if dead_sites:
                        health["status"] = "degraded"
                        status_code = 503
            body = (json.dumps(health, sort_keys=True) + "\n").encode("utf-8")
            self.send_response(status_code)
            self.send_header("Content-Type", "application/json; charset=utf-8")
        else:
            body = b"not found; try /metrics\n"
            self.send_response(404)
            self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # scrapes every few seconds would spam stderr


_HTTP_CLASSES: tuple = ()


def _http_classes() -> tuple:
    """``(handler, server)`` classes of the endpoint, made on first use.

    ``http.server`` is imported here, not by the module: every importer of
    ``repro`` (a site server, each CLI call) would pay for it, and only a
    running endpoint uses it.
    """
    global _HTTP_CLASSES
    if not _HTTP_CLASSES:
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        handler = type("_MetricsHandler", (_MetricsRoutes, BaseHTTPRequestHandler), {})
        # Without SO_REUSEADDR a quick serve restart races the TIME_WAIT of
        # the previous listener and dies with EADDRINUSE on a fixed
        # --metrics-port. http.server sets allow_reuse_address on POSIX, but
        # make the requirement explicit rather than inherited.
        server = type(
            "_ReusableHTTPServer", (ThreadingHTTPServer,),
            {"allow_reuse_address": True, "daemon_threads": True},
        )
        _HTTP_CLASSES = (handler, server)
    return _HTTP_CLASSES


class MetricsServer:
    """A ``/metrics`` endpoint on a daemon thread; stop() to stop.

    ``stop()`` is idempotent: it shuts the serve loop down, closes the
    listening socket (releasing the port for the next bind), and joins
    the serving thread, so callers can put it in a ``finally`` without
    guarding against double teardown. ``close()`` is an alias.
    """

    def __init__(self, registry: MetricsRegistry, port: int = 0,
                 host: str = "127.0.0.1", health_probe=None):
        handler, server = _http_classes()
        self._http = server((host, port), handler)
        self._http.registry = registry
        self._http.started_monotonic = time.monotonic()
        #: Optional zero-arg callable returning the list of dead site
        #: ids; any non-empty result flips /healthz to 503 "degraded".
        self._http.health_probe = health_probe
        self.host = host
        self.port = self._http.server_address[1]
        self.url = f"http://{host}:{self.port}/metrics"
        self._stopped = False
        self._thread = threading.Thread(
            target=self._http.serve_forever,
            name="repro-metrics",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        self._http.shutdown()
        self._http.server_close()
        self._thread.join(timeout=5.0)

    def close(self) -> None:
        self.stop()

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_metrics_server(
    registry: MetricsRegistry,
    port: int = 0,
    host: str = "127.0.0.1",
    health_probe=None,
) -> MetricsServer:
    """Start serving ``registry`` at ``http://host:port/metrics``.

    ``port=0`` picks a free ephemeral port (see ``server.port``/``.url``).
    ``health_probe`` (optional zero-arg callable returning dead site
    ids) makes ``/healthz`` answer 503 with the dead-site list when the
    attached cluster has unreachable sites.
    """
    return MetricsServer(registry, port=port, host=host, health_probe=health_probe)


def scrape(url: str, timeout_s: float = 5.0) -> Dict[str, List[Tuple[dict, float]]]:
    """Fetch and parse one exposition from ``url``."""
    import urllib.request  # here, not at import: see _http_classes

    with urllib.request.urlopen(url, timeout=timeout_s) as response:
        body = response.read().decode("utf-8")
    return parse_prometheus_text(body)
