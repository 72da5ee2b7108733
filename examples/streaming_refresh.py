"""A standing traffic report that follows the live flow feed.

The paper's routers dump flow records continuously; this example keeps a
per-AS traffic report *standing* while new flows arrive, using the
incremental refresh built on Theorem 1's mergeable sub-aggregates: each
refresh ships only the delta's contribution (touched groups), never
re-reads old data — except when a brand-new AS appears, whose group must
be back-filled from the full history once.

Run: ``python examples/streaming_refresh.py``
"""

from repro import (
    AggSpec,
    GMDJExpression,
    MDBlock,
    MDStep,
    SimulatedCluster,
    base,
    count_star,
    detail,
)
from repro.data import FlowConfig, generate_flows, router_partitioner
from repro.distributed import IncrementalView
from repro.gmdj import DistinctBase

ROUTERS = 4


def build_cluster(initial):
    config = FlowConfig(flow_count=1, router_count=ROUTERS)  # partitioner shape
    cluster = SimulatedCluster.with_sites(ROUTERS)
    cluster.load_partitioned("Flow", initial, router_partitioner(config))
    return cluster


def traffic_report_expression():
    return GMDJExpression(
        DistinctBase("Flow", ["SourceAS"]),
        [
            MDStep(
                "Flow",
                [
                    MDBlock(
                        [
                            count_star("flows"),
                            AggSpec("sum", detail.NumBytes, "bytes"),
                            AggSpec("max", detail.NumBytes, "largest"),
                        ],
                        base.SourceAS == detail.SourceAS,
                    )
                ],
            )
        ],
    )


def split_by_router(relation):
    config = FlowConfig(flow_count=1, router_count=ROUTERS)
    pieces = router_partitioner(config).split(relation)
    return {
        f"site{index}": piece for index, piece in enumerate(pieces) if len(piece)
    }


def main():
    initial = generate_flows(FlowConfig(flow_count=2000, router_count=ROUTERS, seed=31))
    cluster = build_cluster(initial)
    view = IncrementalView(cluster, traffic_report_expression())
    print(f"initial report over {len(initial)} flows, {view.group_count} ASes")
    print(view.relation().sorted_by(["bytes"], descending=True).pretty(max_rows=5))
    print()

    for minute in range(1, 4):
        batch = generate_flows(
            FlowConfig(flow_count=300, router_count=ROUTERS, seed=31 + minute)
        )
        cluster.append("Flow", split_by_router(batch))
        result = view.refresh()
        shipped = result.stats.bytes_total
        print(
            f"minute {minute}: +{len(batch)} flows, {result.new_groups} new ASes, "
            f"{shipped} bytes shipped for the refresh"
        )
        print(result.relation.sorted_by(["bytes"], descending=True).pretty(max_rows=5))
        print()

    # The standing view equals a from-scratch evaluation at every point.
    reference = traffic_report_expression().evaluate_centralized(
        cluster.conceptual_tables()
    )
    assert reference.same_rows_any_order_of_columns(view.relation())
    print("standing view verified against full re-evaluation ✓")


if __name__ == "__main__":
    main()
