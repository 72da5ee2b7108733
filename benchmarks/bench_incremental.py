"""Extension: incremental refresh vs full re-evaluation.

A standing per-customer report over the distributed TPC-R warehouse
absorbs a stream of appended line items. Refresh cost should track the
*delta* size (plus one |X| shipment down per site), while re-evaluation
tracks the full history — the gap widens as history accumulates. A
refresh that finds no new group scans exactly the appended rows: its
``gmdj.tuples_examined`` is the batch size.

Run standalone for the printed report::

    python benchmarks/bench_incremental.py
"""

from conftest import SPEEDUP_SCALE
from repro.bench import format_table
from repro.data.tpcr import TPCRConfig, generate_tpcr, nation_partitioner, register_tpcr_fds
from repro.distributed import (
    IncrementalView,
    OptimizationOptions,
    SimulatedCluster,
    execute_query,
)
from repro.obs.metrics import MetricsRegistry, activate
from repro.queries.olap import group_by_query
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import detail

SITES = 4
BATCHES = 4


def report_expression():
    return group_by_query(
        "TPCR",
        ["CustKey"],
        [
            count_star("items"),
            AggSpec("sum", detail.Price, "revenue"),
            AggSpec("max", detail.Price, "largest"),
        ],
    )


def run_stream():
    partitioner = nation_partitioner(SITES)
    initial = generate_tpcr(TPCRConfig(scale=SPEEDUP_SCALE, seed=41))
    cluster = SimulatedCluster.with_sites(SITES)
    cluster.load_partitioned("TPCR", initial, partitioner)
    register_tpcr_fds(cluster.catalog)

    expression = report_expression()
    view = IncrementalView(cluster, expression)

    measurements = []
    for batch_number in range(1, BATCHES + 1):
        batch = generate_tpcr(
            TPCRConfig(scale=SPEEDUP_SCALE / 10, seed=41 + batch_number)
        )
        pieces = partitioner.split(batch)
        deltas = {
            site_id: piece
            for site_id, piece in zip(cluster.site_ids, pieces)
            if len(piece)
        }
        cluster.reset_network()
        registry = MetricsRegistry()
        with activate(registry):
            refresh = view.refresh(deltas)
        refresh_bytes = refresh.stats.bytes_total
        examined = registry.value_of("gmdj.tuples_examined")

        # Full re-evaluation over the grown history, for comparison.
        cluster.reset_network()
        full = execute_query(cluster, expression, OptimizationOptions.none())
        assert full.relation.same_rows_any_order_of_columns(refresh.relation)

        measurements.append(
            (
                batch_number,
                len(batch),
                refresh_bytes,
                full.stats.bytes_total,
                refresh.stats.tuples_up,
                full.stats.tuples_total,
                refresh.new_groups,
                examined,
            )
        )
    return measurements


def render(measurements) -> str:
    return format_table(
        [
            "batch",
            "delta rows",
            "refresh bytes",
            "re-eval bytes",
            "refresh up-tuples",
            "re-eval tuples",
            "new groups",
            "refresh scanned",
        ],
        [[str(value) for value in row] for row in measurements],
    )


def test_incremental_refresh_cheaper_than_reevaluation(benchmark):
    measurements = benchmark.pedantic(run_stream, rounds=1, iterations=1)
    print()
    print(render(measurements))

    for (
        _batch, rows, refresh_bytes, full_bytes, refresh_up, full_tuples, new_groups, scanned,
    ) in measurements:
        # The refresh's up-leg carries only touched groups; the full
        # evaluation re-ships every group both ways.
        assert refresh_up < full_tuples
        assert refresh_bytes < full_bytes
        # Without a new group the refresh round scans the appended rows only.
        if not new_groups:
            assert scanned == rows
    assert any(not row[6] for row in measurements), "every batch added a group"


if __name__ == "__main__":
    print(render(run_stream()))
