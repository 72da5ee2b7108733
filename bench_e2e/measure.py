"""The end-to-end run: one set-up, a fixed number of timed passes, seven metrics.

Unit of work: an *op* is one SQL statement taken from text to checked
result relation, or one ``QueryService.append``; a *pass* is the
workload's fixed, ordered script of ops. Latency samples are per pass, so
each distribution is unimodal even though ops are heterogeneous. The
calibration kernel runs between passes while the system is idle and every
time is reported at reference speed (see :mod:`bench_e2e.calibrate`).
"""

from __future__ import annotations

import os
import statistics
import time

from bench_e2e import calibrate, procstat
from bench_e2e.workloads import WARMUP_PASSES

UNITS = {
    "setup_s": "s",
    "pass_p50_ms": "ms",
    "pass_p75_ms": "ms",
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "wire_bytes_per_op": "B",
    "rss_peak_mb": "MiB",
}


class Tally:
    """Ops attempted and failed, over warm-up and timed passes alike."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, session, index: int, outcomes: list) -> None:
        self.attempted += len(outcomes)
        self.failed += session.check(index, outcomes)


def set_up(session, tally: Tally, write_s: float) -> dict:
    """Start the system and warm it; returns the phases of ``setup_s`` in
    reference seconds (``write_s`` was measured by the prepare child).

    The kernel is sampled before, between and after the two phases; warm-up
    answers are checked after the timed region. Making the warm-up passes'
    inputs (append deltas) costs a few milliseconds and stays inside it to
    keep the clock simple.
    """
    before = calibrate.sample_ms()
    started = time.perf_counter()
    session.start()
    deployed = time.perf_counter()
    between = calibrate.sample_ms()
    warm_started = time.perf_counter()
    warm = []
    for index in range(WARMUP_PASSES):
        session.prepare_pass(index)
        warm.append((index, session.run_pass(index)))
    ended = time.perf_counter()
    after = calibrate.sample_ms()
    for index, outcomes in warm:
        tally.add(session, index, outcomes)
    phases = {
        "write_s": write_s,
        "deploy_s": (deployed - started) * calibrate.scale(before, between),
        "warm_s": (ended - warm_started) * calibrate.scale(between, after),
        "raw_s": (deployed - started) + (ended - warm_started),
    }
    phases["setup_s"] = phases["write_s"] + phases["deploy_s"] + phases["warm_s"]
    return phases


class PassSeries:
    """Per-pass samples of one timed phase, raw; ``wall_s``/``cpu_s`` give
    them at reference speed."""

    def __init__(self, ops_per_pass: int):
        self.ops_per_pass = ops_per_pass
        self.raw_s: list = []
        self.kernel_ms: list = []  # before the first pass and after every pass
        self.runner_cpu_raw_s: list = []
        self.sites_cpu_raw_s: list = []
        self.wire_bytes = 0
        self.framing_bytes = 0
        self.frames = 0
        self.spans: list = []  # (start, end) on CLOCK_MONOTONIC, for the tracer
        self.capped = False  # ``--seconds`` ran out before the last pass

    @property
    def ops(self) -> int:
        return len(self.raw_s) * self.ops_per_pass

    @property
    def scales(self) -> list:
        return calibrate.pass_scales(self.kernel_ms)

    @property
    def wall_s(self) -> list:
        return [raw * scale for raw, scale in zip(self.raw_s, self.scales)]

    @property
    def coord_cpu_s(self) -> list:
        return [raw * scale for raw, scale in zip(self.runner_cpu_raw_s, self.scales)]

    @property
    def cpu_s(self) -> list:
        return [
            (runner + sites) * scale
            for runner, sites, scale in zip(
                self.runner_cpu_raw_s, self.sites_cpu_raw_s, self.scales
            )
        ]


def run_passes(
    session, tally: Tally, passes: int, seconds: float, first_index: int
) -> PassSeries:
    """Run ``passes`` timed passes, the kernel sampled around each.

    ``seconds`` only caps the phase: a machine so slow that it runs out
    stops early and the series says ``capped`` (counts no longer repeat).
    """
    series = PassSeries(session.workload.ops_per_pass)
    pids = list(session.site_pids().values())
    deadline = time.perf_counter() + seconds
    series.kernel_ms.append(calibrate.sample_ms())
    for index in range(first_index, first_index + passes):
        if series.raw_s and time.perf_counter() >= deadline:
            series.capped = True
            break
        session.prepare_pass(index)
        wire_before = session.wire()
        sites_cpu_before = sum(procstat.cpu_seconds(pid) for pid in pids)
        busy_before = time.process_time()
        started = time.monotonic()
        outcomes = session.run_pass(index)
        ended = time.monotonic()
        busy = time.process_time() - busy_before
        sites_cpu = sum(procstat.cpu_seconds(pid) for pid in pids) - sites_cpu_before
        wire_after = session.wire()
        series.kernel_ms.append(calibrate.sample_ms())
        series.wire_bytes += wire_after[0] - wire_before[0]
        series.framing_bytes += wire_after[1] - wire_before[1]
        series.frames += wire_after[2] - wire_before[2]
        series.spans.append((started, ended))
        series.raw_s.append(ended - started)
        series.runner_cpu_raw_s.append(busy)
        series.sites_cpu_raw_s.append(sites_cpu)
        tally.add(session, index, outcomes)
    return series


def quartile3(values: list) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def peak_rss_mb(session) -> dict:
    sites = [procstat.peak_rss_mb(pid) for pid in session.site_pids().values()]
    return {"coord": procstat.peak_rss_mb(os.getpid()), "sites": sites}


def run_end_to_end(session, prepared: dict, passes: int, seconds: float) -> dict:
    """One set-up, then ``passes`` timed passes; returns the result."""
    tally = Tally()
    try:
        phases = set_up(session, tally, prepared["write_s"])
        series = run_passes(session, tally, passes, seconds, WARMUP_PASSES)
        rss = peak_rss_mb(session)
        tally.failed += session.finish()
    finally:
        session.close()

    metrics = {
        "setup_s": phases["setup_s"],
        "pass_p50_ms": statistics.median(series.wall_s) * 1000.0,
        "pass_p75_ms": quartile3(series.wall_s) * 1000.0,
        "ops_per_s": series.ops / sum(series.wall_s),
        "cpu_ms_per_op": sum(series.cpu_s) / series.ops * 1000.0,
        "wire_bytes_per_op": series.wire_bytes / series.ops,
        "rss_peak_mb": rss["coord"] + sum(rss["sites"]),
    }
    info = {
        "passes": len(series.raw_s),
        "capped": series.capped,
        "ops_per_pass": series.ops_per_pass,
        "raw": {
            "setup_s": phases["raw_s"] + prepared["write_raw_s"],
            "pass_p50_ms": statistics.median(series.raw_s) * 1000.0,
            "pass_p75_ms": quartile3(series.raw_s) * 1000.0,
            "ops_per_s": series.ops / sum(series.raw_s),
        },
        "setup_phases_s": phases,
        "calibration_ms": [round(value, 2) for value in series.kernel_ms],
        "pass_raw_s": [round(value, 5) for value in series.raw_s],
        "datagen_s": prepared["datagen_s"],
        "verify_s": prepared["verify_s"],
        "detail_rows": prepared["detail_rows"],
        "loadavg": os.getloadavg(),
        **calibrate.summary(series.kernel_ms),
    }
    warnings = []
    if series.capped:
        warnings.append(
            f"--seconds {seconds:g} ran out after {len(series.raw_s)} of {passes} passes"
        )
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "info": info,
        "warnings": warnings,
    }
