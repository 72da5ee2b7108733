"""Figure 5 — combined reductions scale-up (Section 5.3).

Paper's claims, asserted on the regenerated data:

- at a fixed 4 sites, growing the per-site data size 1x..4x gives a
  *linear* increase in evaluation time both with and without the
  optimizations;
- applying all reductions cuts evaluation time by a large factor
  ("nearly half" on the paper's testbed; the exact factor depends on the
  network model — we assert >= 25% and report the measured value);
- the breakdown of the optimized query into site computation,
  coordinator computation and communication grows linearly in each
  component;
- the constant-group-count variant behaves comparably.

The executor sweep (``test_fig5_executor_sweep``) additionally runs the
same combined query at 8 sites under each execution engine — ``serial``
in this process, ``sockets`` on one site-server process per site —
reporting measured wall-clock next to the modeled max-over-sites time.
Timing assertions are gated on the core count — equivalence (identical
rows and byte accounting) is asserted always.

Run standalone for the printed report::

    python benchmarks/bench_fig5_combined.py
"""

import os

from conftest import BENCH_MODEL, SCALEUP_BASE_SCALE, print_series
from repro.bench import executor_sweep, figure5, growth_exponent
from repro.bench.harness import format_table

SCALE_FACTORS = (1, 2, 3, 4)
SWEEP_SITES = 8
#: Larger than the figure-5 points so per-round site compute dominates
#: the per-leg dispatch overhead (a thread hand-off and a socket round
#: trip) being measured.
SWEEP_SCALE = SCALEUP_BASE_SCALE * 40


def run_growing():
    return figure5(
        base_scale=SCALEUP_BASE_SCALE, scale_factors=SCALE_FACTORS, model=BENCH_MODEL
    )


def run_constant_groups():
    return figure5(
        base_scale=SCALEUP_BASE_SCALE,
        scale_factors=SCALE_FACTORS,
        model=BENCH_MODEL,
        constant_groups=True,
    )


def test_fig5_combined_scaleup(benchmark):
    series = benchmark.pedantic(run_growing, rounds=1, iterations=1)
    print_series(
        series,
        [
            ("site_compute_s", "site compute (s)"),
            ("coordinator_compute_s", "coordinator compute (s)"),
            ("communication_s", "communication (s)"),
        ],
    )
    xs = list(SCALE_FACTORS)

    # Linear growth in both arms (bytes and modeled time).
    for arm in ("no_optimizations", "all_optimizations"):
        assert growth_exponent(xs, series.column(arm, "bytes_total")) < 1.3
        assert growth_exponent(xs, series.column(arm, "total_time_s")) < 1.3

    # The optimizations cut evaluation time substantially at every scale.
    plain = series.column("no_optimizations", "total_time_s")
    optimized = series.column("all_optimizations", "total_time_s")
    for plain_time, optimized_time in zip(plain, optimized):
        assert optimized_time < 0.75 * plain_time
    print(
        f"\nspeedup from optimizations: "
        f"{[f'{p / o:.1f}x' for p, o in zip(plain, optimized)]}"
    )

    # Breakdown components of the optimized arm each grow ~linearly.
    for component in ("site_compute_s", "communication_s"):
        values = series.column("all_optimizations", component)
        if min(values) > 0:
            assert growth_exponent(xs, values) < 1.6


def run_executor_sweep():
    return executor_sweep(scale=SWEEP_SCALE, sites=SWEEP_SITES, repetitions=3)


def print_sweep(report):
    headers = ["executor", "wall (s)", "modeled max-over-sites (s)", "speedup"]
    rows = [
        [
            name,
            f"{entry['wall_s']:.4f}",
            f"{entry['modeled_max_over_sites_s']:.4f}",
            f"{entry['speedup_vs_serial']:.2f}x",
        ]
        for name, entry in report["executors"].items()
    ]
    print()
    print(f"== executor sweep ({report['sites']} sites, scale {report['scale']}) ==")
    print(format_table(headers, rows))


def test_fig5_executor_sweep(benchmark):
    report = benchmark.pedantic(run_executor_sweep, rounds=1, iterations=1)
    print_sweep(report)

    # Equivalence (rows + byte accounting) is asserted inside
    # executor_sweep; here we check the timing model and — on machines
    # with real parallelism — the wall-clock win itself.
    engines = report["executors"]
    for entry in engines.values():
        assert entry["modeled_max_over_sites_s"] <= entry["site_compute_total_s"]
    serial_wall = engines["serial"]["wall_s"]
    sockets_wall = engines["sockets"]["wall_s"]
    cores = os.cpu_count() or 1
    if cores >= 8:
        assert serial_wall / sockets_wall >= 3.0, (
            f"expected >=3x at {SWEEP_SITES} sites on {cores} cores, got "
            f"{serial_wall / sockets_wall:.2f}x"
        )
    elif cores >= 2:
        assert sockets_wall <= serial_wall * 1.5, (
            "parallel executor slower than serial on a multi-core machine"
        )


def test_fig5_constant_groups(benchmark):
    series = benchmark.pedantic(run_constant_groups, rounds=1, iterations=1)
    print_series(series)
    xs = list(SCALE_FACTORS)

    # Group count fixed: result size must not grow with data size.
    rows = series.column("all_optimizations", "result_rows")
    assert len(set(rows)) == 1

    # Optimizations still win, and traffic stays flat-to-linear.
    for point in series.measurements:
        assert (
            point["all_optimizations"].bytes_total
            < point["no_optimizations"].bytes_total
        )
    assert growth_exponent(xs, series.column("no_optimizations", "bytes_total")) < 1.3


if __name__ == "__main__":
    print(
        run_growing().show(
            [
                ("site_compute_s", "site compute (s)"),
                ("coordinator_compute_s", "coordinator compute (s)"),
                ("communication_s", "communication (s)"),
            ]
        )
    )
    print()
    print(run_constant_groups().show())
    print_sweep(run_executor_sweep())
