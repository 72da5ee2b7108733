"""Figure 4 — synchronization reduction without coalescing (Section 5.2).

Paper's claims, asserted on the regenerated data:

- high cardinality: without sync reduction the correlated query is
  ~quadratic in sites (3 synchronizations); with sync reduction the
  whole chain runs locally (Corollary 1 via the CustName -> NationKey
  functional dependency) with a single synchronization and linear growth;
- low cardinality (grouping on a non-partitioned attribute): only
  Proposition 2 applies (3 -> 2 synchronizations); the query gets
  cheaper, but less than coalescing achieves, because the sites still
  make two passes over R — site computation stays roughly the same, the
  saving is synchronization overhead only.

Run standalone for the printed report::

    python benchmarks/bench_fig4_sync_reduction.py
"""

from conftest import BENCH_MODEL, PARTICIPATING, SPEEDUP_SCALE, print_series
from repro.bench import (
    LOW_CARDINALITY_KEY,
    NO_OPTS,
    SYNC_REDUCED,
    correlated_query,
    figure4,
    growth_exponent,
    speedup_cluster,
)
from repro.data.tpcr import TPCRConfig, generate_tpcr
from repro.distributed import execute_query
from repro.obs import MetricsRegistry


def run_figure4():
    return figure4(
        scale=SPEEDUP_SCALE, participating=PARTICIPATING, model=BENCH_MODEL
    )


def detail_tuples_examined(cluster, options) -> int:
    """Detail tuples the sites' GMDJ kernels scan for the low-cardinality
    query under one arm: the deterministic measure of site work."""
    registry = MetricsRegistry()
    cluster.reset_network()
    execute_query(
        cluster, correlated_query(LOW_CARDINALITY_KEY), options, metrics=registry
    )
    return int(registry.value_of("gmdj.tuples_examined"))


def test_fig4_sync_reduction(benchmark):
    result = benchmark.pedantic(run_figure4, rounds=1, iterations=1)
    high = result["high"]
    low = result["low"]
    print_series(high, [("synchronizations", "synchronizations")])
    print_series(low, [("synchronizations", "synchronizations")])
    xs = high.x_values

    # High cardinality: quadratic vs linear, 3 vs 1 synchronizations.
    assert growth_exponent(xs, high.column("no_sync_reduction", "bytes_total")) > 1.5
    assert growth_exponent(xs, high.column("sync_reduction", "bytes_total")) < 1.25
    for point in high.measurements:
        assert point["no_sync_reduction"].synchronizations == 3
        assert point["sync_reduction"].synchronizations == 1

    # Low cardinality: Proposition 2 only (3 -> 2), still cheaper.
    for point in low.measurements:
        assert point["sync_reduction"].synchronizations == 2
        assert point["sync_reduction"].bytes_total < point["no_sync_reduction"].bytes_total

    # The paper: low-cardinality site work is "nearly the same" — sync
    # reduction does not cut local computation the way coalescing does.
    # Counted in detail tuples scanned (two passes over R either way), not
    # in a ratio of two ~1 ms wall-clock readings.
    tpcr = generate_tpcr(TPCRConfig(scale=SPEEDUP_SCALE))
    cluster = speedup_cluster(tpcr, PARTICIPATING[-1])
    assert (
        detail_tuples_examined(cluster, SYNC_REDUCED)
        == detail_tuples_examined(cluster, NO_OPTS)
        == 2 * len(tpcr)
    )


if __name__ == "__main__":
    result = run_figure4()
    print(result["high"].show([("synchronizations", "synchronizations")]))
    print()
    print(result["low"].show([("synchronizations", "synchronizations")]))
