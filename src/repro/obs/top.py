"""`repro top`: a terminal dashboard over the /metrics endpoint.

Polls a Prometheus exposition produced by
:class:`~repro.obs.export.MetricsServer` (normally ``repro serve
--metrics-port``) and renders the query service's operational state:
in-flight and queued queries, cache hit ratio, admission
rejections/timeouts, per-site wire bytes, latency histogram quantiles
(p50/p90/p99 reconstructed from the cumulative ``le`` buckets), and a
query-lifecycle panel: per-stage (admission/lookup/plan/execute/merge)
quantiles from ``service.stage_s{stage=...}`` plus per-outcome
submission counts from ``service.latency_by_outcome_s{outcome=...}``.
Pure consumer: everything here works from the parsed samples alone, so
it can watch any process exposing the same metric names.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.obs.export import scrape
from repro.obs.metrics import histogram_quantile
from repro.obs.profile import _fmt_bytes

#: Quantiles the dashboard (and the bench baseline) report.
QUANTILES: Tuple[Tuple[float, str], ...] = ((0.5, "p50"), (0.9, "p90"), (0.99, "p99"))

Samples = Dict[str, List[Tuple[dict, float]]]


def _total(samples: Samples, name: str, **match) -> float:
    total = 0.0
    for labels, value in samples.get(name, ()):
        if all(labels.get(key) == str(wanted) for key, wanted in match.items()):
            total += value
    return total


def _histogram_series(samples: Samples, family: str, **match):
    """Rebuild (boundaries, cumulative, count, sum) from bucket samples.

    With ``match`` keywords only bucket/count/sum samples carrying those
    exact label values contribute — that is how one ``stage=`` series is
    pulled out of the multi-series ``service_stage_s`` family. Without
    ``match`` every series in the family is summed (label-blind), which
    is what the single-series ``service_latency_s`` panel relies on.
    """
    buckets: Dict[float, float] = {}
    for labels, value in samples.get(f"{family}_bucket", ()):
        le = labels.get("le")
        if le is None:
            continue
        if not all(labels.get(key) == str(want) for key, want in match.items()):
            continue
        bound = float("inf") if le == "+Inf" else float(le)
        buckets[bound] = buckets.get(bound, 0.0) + value
    if not buckets:
        return None
    boundaries = sorted(bound for bound in buckets if bound != float("inf"))
    cumulative = [int(buckets[bound]) for bound in boundaries]
    count = int(_total(samples, f"{family}_count", **match))
    cumulative.append(count)
    return boundaries, cumulative, count, _total(samples, f"{family}_sum", **match)


def latency_quantiles_ms(
    samples: Samples, family: str = "service_latency_s", **match
) -> dict:
    """p50/p90/p99 (+mean, count) in milliseconds from the exposition."""
    series = _histogram_series(samples, family, **match)
    if series is None:
        return {}
    boundaries, cumulative, count, total_s = series
    quantiles = {
        label: histogram_quantile(boundaries, cumulative, q) * 1000.0
        for q, label in QUANTILES
    }
    quantiles["mean"] = (total_s / count) * 1000.0 if count else 0.0
    quantiles["count"] = count
    return quantiles


def _label_values(samples: Samples, name: str, label: str) -> List[str]:
    values = {
        labels[label]
        for labels, _value in samples.get(name, ())
        if label in labels
    }
    return sorted(values)


def stage_quantiles_ms(samples: Samples) -> dict:
    """Per-lifecycle-stage quantiles from ``service.stage_s{stage=...}``.

    Returns ``{stage: {p50, p90, p99, mean, count}}`` (milliseconds) for
    every stage label observed in the exposition, in the service's
    canonical admission→merge order with unknown stages appended.
    """
    observed = _label_values(samples, "service_stage_s_count", "stage")
    canonical = ("admission", "lookup", "plan", "execute", "merge")
    ordered = [stage for stage in canonical if stage in observed]
    ordered += [stage for stage in observed if stage not in canonical]
    per_stage = {}
    for stage in ordered:
        quantiles = latency_quantiles_ms(samples, "service_stage_s", stage=stage)
        if quantiles:
            per_stage[stage] = quantiles
    return per_stage


def outcome_counts(samples: Samples) -> dict:
    """``{outcome: submissions}`` from ``service.latency_by_outcome_s``."""
    per_outcome = {}
    for labels, value in samples.get("service_latency_by_outcome_s_count", ()):
        outcome = labels.get("outcome")
        if outcome is None:
            continue
        per_outcome[outcome] = per_outcome.get(outcome, 0) + int(value)
    return per_outcome


def site_bytes(samples: Samples) -> dict:
    """``{site: {"down": bytes, "up": bytes}}`` from net_bytes_total."""
    per_site: dict = {}
    for labels, value in samples.get("net_bytes_total", ()):
        site = labels.get("site")
        direction = labels.get("direction")
        if site is None or direction not in ("down", "up"):
            continue
        entry = per_site.setdefault(site, {"down": 0, "up": 0})
        entry[direction] += int(value)
    return per_site


def socket_stats(samples: Samples) -> dict:
    """Per-connection socket transport counters, when deployed over TCP.

    Reads the ``net.socket.*`` families the
    :class:`~repro.net.socket_channel.SocketChannel` maintains. Empty
    dict when the process runs the in-memory transport — the dashboard
    only shows the panel for socket deployments.
    """
    per_site: dict = {}

    def entry(site: str) -> dict:
        return per_site.setdefault(
            site,
            {"down": 0, "up": 0, "framing": 0, "frames": 0, "reconnects": 0},
        )

    for labels, value in samples.get("net_socket_bytes_total", ()):
        site, direction = labels.get("site"), labels.get("direction")
        if site is None or direction not in ("down", "up"):
            continue
        entry(site)[direction] += int(value)
    for labels, value in samples.get("net_socket_framing_bytes_total", ()):
        if labels.get("site") is not None:
            entry(labels["site"])["framing"] += int(value)
    for labels, value in samples.get("net_socket_frames_total", ()):
        if labels.get("site") is not None:
            entry(labels["site"])["frames"] += int(value)
    for labels, value in samples.get("net_socket_reconnects_total", ()):
        if labels.get("site") is not None:
            entry(labels["site"])["reconnects"] += int(value)
    return per_site


def cluster_sites(samples: Samples) -> dict:
    """Per-site telemetry from a cluster scrape (``site_*`` families).

    Reads the families :meth:`repro.distributed.deployment.ProcessCluster.scrape`
    aggregates out of each siteserver's own registry — liveness
    (``site_up``/``site_pid``), request/row/byte counters, queue depth,
    RSS — keyed by the ``site=`` label; the scrape is the only road these
    take, so each appears once per site. Empty dict when the exposition
    has no site families, which is how the dashboard decides whether to
    show the panel.
    """
    per_site: dict = {}

    def entry(site: str) -> dict:
        return per_site.setdefault(
            site,
            {
                "up": None,
                "pid": None,
                "requests": 0,
                "errors": 0,
                "rows": 0,
                "down": 0,
                "up_bytes": 0,
                "queue_depth": 0,
                "rss_bytes": 0,
                "request_ms": {},
            },
        )

    simple = (
        ("site_up", "up"),
        ("site_pid", "pid"),
        ("site_requests_total", "requests"),
        ("site_errors_total", "errors"),
        ("site_rows_total", "rows"),
        ("site_queue_depth", "queue_depth"),
        ("site_rss_bytes", "rss_bytes"),
    )
    for family, field in simple:
        for labels, value in samples.get(family, ()):
            site = labels.get("site")
            if site is not None:
                entry(site)[field] = int(value)
    for labels, value in samples.get("site_bytes_total", ()):
        site, direction = labels.get("site"), labels.get("direction")
        if site is None or direction not in ("down", "up"):
            continue
        field = "down" if direction == "down" else "up_bytes"
        entry(site)[field] = int(value)
    for site in per_site:
        per_site[site]["request_ms"] = latency_quantiles_ms(
            samples, "site_request_seconds", site=site
        )
        if per_site[site]["up"] is not None:
            per_site[site]["up"] = bool(per_site[site]["up"])
    return per_site


def summarize(samples: Samples) -> dict:
    """One dashboard frame's numbers, from one scrape."""
    hits = _total(samples, "service_cache_hit_total")
    misses = _total(samples, "service_cache_miss_total")
    lookups = hits + misses
    return {
        "in_flight": _total(samples, "service_in_flight"),
        "queue_depth": _total(samples, "service_queue_depth"),
        "queries": _total(samples, "service_queries_total"),
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_refreshes": _total(samples, "service_cache_refresh_total"),
        "hit_ratio": (hits / lookups) if lookups else 0.0,
        "rejected": _total(samples, "service_admission_rejected_total"),
        "timeouts": _total(samples, "service_admission_timeout_total"),
        "appends": _total(samples, "service_appends_total"),
        "latency_ms": latency_quantiles_ms(samples),
        "stages_ms": stage_quantiles_ms(samples),
        "outcomes": outcome_counts(samples),
        "site_bytes": site_bytes(samples),
        "socket": socket_stats(samples),
        "cluster": cluster_sites(samples),
    }


def render_top(summary: dict, url: str = "", iteration: Optional[int] = None) -> str:
    """Render one frame of the dashboard as plain text."""
    title = "repro top"
    if url:
        title += f" — {url}"
    if iteration is not None:
        title += f" (frame {iteration})"
    lines = [title]
    lines.append(
        f"service: in_flight={summary['in_flight']:.0f} "
        f"queued={summary['queue_depth']:.0f} | "
        f"queries={summary['queries']:.0f} "
        f"cache_hit={summary['hit_ratio'] * 100:.1f}% "
        f"({summary['cache_hits']:.0f}/{summary['cache_hits'] + summary['cache_misses']:.0f}) "
        f"refreshes={summary['cache_refreshes']:.0f} | "
        f"rejected={summary['rejected']:.0f} "
        f"timeouts={summary['timeouts']:.0f} "
        f"appends={summary['appends']:.0f}"
    )
    latency = summary["latency_ms"]
    if latency:
        lines.append(
            f"latency: p50={latency['p50']:.1f}ms p90={latency['p90']:.1f}ms "
            f"p99={latency['p99']:.1f}ms mean={latency['mean']:.1f}ms "
            f"n={latency['count']}"
        )
    else:
        lines.append("latency: (no service.latency_s samples yet)")
    stages = summary.get("stages_ms", {})
    if stages:
        lines.append("stages:")
        label_width = max(len(stage) for stage in stages)
        for stage, quantiles in stages.items():
            lines.append(
                f"  {stage.ljust(label_width)}  "
                f"p50={quantiles['p50']:.1f}ms p90={quantiles['p90']:.1f}ms "
                f"p99={quantiles['p99']:.1f}ms n={quantiles['count']}"
            )
    else:
        lines.append("stages: (no service.stage_s samples yet)")
    outcomes = summary.get("outcomes", {})
    if outcomes:
        lines.append(
            "outcomes: "
            + " ".join(
                f"{outcome}={count}" for outcome, count in sorted(outcomes.items())
            )
        )
    per_site = summary["site_bytes"]
    if per_site:
        lines.append("site bytes:")
        label_width = max(len(site) for site in per_site)
        for site in sorted(per_site):
            entry = per_site[site]
            lines.append(
                f"  {site.ljust(label_width)}  "
                f"down={_fmt_bytes(entry['down'])} up={_fmt_bytes(entry['up'])} "
                f"total={_fmt_bytes(entry['down'] + entry['up'])}"
            )
    else:
        lines.append("site bytes: (no net.bytes samples yet)")
    per_socket = summary.get("socket") or {}
    if per_socket:
        lines.append("socket transport:")
        label_width = max(len(site) for site in per_socket)
        for site in sorted(per_socket):
            entry = per_socket[site]
            lines.append(
                f"  {site.ljust(label_width)}  "
                f"down={_fmt_bytes(entry['down'])} up={_fmt_bytes(entry['up'])} "
                f"framing=+{_fmt_bytes(entry['framing'])} "
                f"frames={entry['frames']} reconnects={entry['reconnects']}"
            )
    cluster = summary.get("cluster") or {}
    if cluster:
        lines.append("cluster sites:")
        label_width = max(len(site) for site in cluster)
        for site in sorted(cluster):
            entry = cluster[site]
            if entry["up"] is None:
                state = "?"
            else:
                state = "up" if entry["up"] else "DOWN"
            parts = [
                f"  {site.ljust(label_width)}  {state:<4}",
                f"pid={entry['pid'] or '-'}",
                f"req={entry['requests']}",
                f"err={entry['errors']}",
                f"rows={entry['rows']}",
                f"down={_fmt_bytes(entry['down'])}",
                f"up={_fmt_bytes(entry['up_bytes'])}",
                f"queue={entry['queue_depth']}",
                f"rss={_fmt_bytes(entry['rss_bytes'])}",
            ]
            request_ms = entry.get("request_ms") or {}
            if request_ms:
                parts.append(
                    f"p50={request_ms['p50']:.1f}ms p99={request_ms['p99']:.1f}ms"
                )
            lines.append(" ".join(parts))
    return "\n".join(lines)


def top_loop(
    url: str,
    interval_s: float = 2.0,
    iterations: int = 0,
    out=None,
    sleep=time.sleep,
) -> int:
    """:func:`cluster_top_loop` over one ``/metrics`` endpoint."""
    return cluster_top_loop(
        lambda: scrape(url), url, interval_s, iterations, out, sleep
    )


def cluster_top_loop(
    scrape_samples,
    label: str = "cluster",
    interval_s: float = 2.0,
    iterations: int = 0,
    out=None,
    sleep=time.sleep,
) -> int:
    """Poll + render until ``iterations`` frames (0 = until interrupted).

    ``scrape_samples`` is a zero-arg callable returning parsed samples
    (``repro top --cluster`` wires it to ``ProcessCluster.scrape()``
    rendered through the exposition round trip, so the panel sees
    exactly what a Prometheus server would). Returns 0 when at least one
    scrape succeeded, 1 when none did. A scrape that raises
    :class:`OSError`/:class:`~repro.errors.ReproError` prints a notice
    and keeps polling (the service may still be starting).
    """
    import sys

    from repro.errors import ReproError

    if out is None:
        out = sys.stdout
    frame = 0
    succeeded = False
    try:
        while True:
            frame += 1
            try:
                samples = scrape_samples()
            except (OSError, ReproError) as error:
                print(f"repro top — {label} unreachable: {error}", file=out)
            else:
                succeeded = True
                print(render_top(summarize(samples), label, frame), file=out)
            if iterations and frame >= iterations:
                break
            sleep(interval_s)
    except KeyboardInterrupt:
        pass
    return 0 if succeeded else 1
