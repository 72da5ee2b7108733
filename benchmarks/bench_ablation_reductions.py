"""Ablation: each Skalla optimization toggled in isolation.

DESIGN.md calls out four independent plan rewrites (coalescing, sync
reduction, aware group reduction, independent group reduction). This
bench runs the combined-reductions query at 8 sites with each toggle
alone, quantifying every optimization's individual contribution against
the no-optimizations baseline and the all-optimizations plan.

Run standalone for the printed report::

    python benchmarks/bench_ablation_reductions.py
"""

from conftest import BENCH_MODEL, SPEEDUP_SCALE
from repro.bench import combined_query, format_table, run_arms, speedup_cluster
from repro.bench.figures import HIGH_CARDINALITY_KEY
from repro.data.tpcr import TPCRConfig, generate_tpcr
from repro.distributed import OptimizationOptions

ARMS = {
    "baseline": OptimizationOptions.none(),
    "coalescing": OptimizationOptions(
        coalescing=True,
        sync_reduction=False,
        aware_group_reduction=False,
        independent_group_reduction=False,
        site_pruning=False,
    ),
    "sync_reduction": OptimizationOptions(
        coalescing=False,
        sync_reduction=True,
        aware_group_reduction=False,
        independent_group_reduction=False,
        site_pruning=False,
    ),
    "independent_gr": OptimizationOptions(
        coalescing=False,
        sync_reduction=False,
        aware_group_reduction=False,
        independent_group_reduction=True,
        site_pruning=False,
    ),
    "aware_gr": OptimizationOptions(
        coalescing=False,
        sync_reduction=False,
        aware_group_reduction=True,
        independent_group_reduction=False,
        site_pruning=False,
    ),
    "all": OptimizationOptions.all(),
}


def run_ablation():
    tpcr = generate_tpcr(TPCRConfig(scale=SPEEDUP_SCALE))
    cluster = speedup_cluster(tpcr, participating=8, total_sites=8)
    return run_arms(
        cluster, combined_query(HIGH_CARDINALITY_KEY), ARMS, model=BENCH_MODEL
    )


def render(measurements):
    headers = ["arm", "time (s)", "bytes", "tuples", "syncs"]
    rows = []
    for name, measurement in measurements.items():
        rows.append(
            [
                name,
                f"{measurement.total_time_s:.4f}",
                str(measurement.bytes_total),
                str(measurement.tuples_total),
                str(measurement.synchronizations),
            ]
        )
    return format_table(headers, rows)


def test_ablation_each_optimization_helps(benchmark):
    measurements = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    print()
    print(render(measurements))

    baseline = measurements["baseline"]
    combined = measurements["all"]

    # Every single toggle beats the baseline on traffic.
    for name in ("coalescing", "sync_reduction", "independent_gr"):
        assert measurements[name].bytes_total < baseline.bytes_total, name

    # Coalescing merges the two independent stages: 4 -> 3 syncs; sync
    # reduction alone collapses the whole chain to a single round.
    assert baseline.synchronizations == 4
    assert measurements["coalescing"].synchronizations == 3
    assert measurements["sync_reduction"].synchronizations == 1
    assert combined.synchronizations == 1

    # All optimizations together dominate every single-toggle arm.
    for name, measurement in measurements.items():
        assert combined.bytes_total <= measurement.bytes_total, name

    # Aware reduction cannot fire from the declared phi here (phi constrains
    # NationKey, the query groups on CustName) — the plan must fall back
    # gracefully: no fragment is narrowed, so the arm ships the baseline's
    # tuples. Only the observed distribution applies, and it narrows no
    # fragment either; but a round it applies to ships each site
    # positionally against the site's own answer, without CustName: the
    # baseline's 61 524 bytes less the key columns left behind, plus a
    # 21-byte digest prefix a fragment (47 700 of 62 852 while every FLOAT
    # column shipped raw doubles).
    assert measurements["aware_gr"].tuples_total == baseline.tuples_total
    assert measurements["aware_gr"].bytes_total == 46_372


if __name__ == "__main__":
    print(render(run_ablation()))
