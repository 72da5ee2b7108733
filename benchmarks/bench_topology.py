"""Extension: star coordinator vs a two-level merge tree (Section 6).

The paper's future work proposes "a multi-tiered coordinator
architecture or spanning-tree networks". This bench quantifies the win
on the group-reduction workload at 16 sites: regional combiners merge
their sites' sub-results by key before forwarding, so the root link
carries O(regions · |Q|) per round instead of O(sites · |Q|).

Run standalone for the printed report::

    python benchmarks/bench_topology.py
"""

from conftest import BENCH_MODEL, SPEEDUP_SCALE
from repro.bench import correlated_query, format_table
from repro.bench.figures import HIGH_CARDINALITY_KEY
from repro.data.tpcr import TPCRConfig, generate_tpcr, nation_partitioner, register_tpcr_fds
from repro.distributed import (
    OptimizationOptions,
    SimulatedCluster,
    execute_query,
    execute_query_scheduled,
)

SITES = 16
REGION_COUNTS = (2, 4, 8)


def build_cluster() -> SimulatedCluster:
    cluster = SimulatedCluster.with_sites(SITES)
    tpcr = generate_tpcr(TPCRConfig(scale=SPEEDUP_SCALE * 2))
    cluster.load_partitioned("TPCR", tpcr, nation_partitioner(SITES))
    register_tpcr_fds(cluster.catalog)
    return cluster


def run_topologies():
    cluster = build_cluster()
    expression = correlated_query(HIGH_CARDINALITY_KEY)
    reference = expression.evaluate_centralized(cluster.conceptual_tables())
    options = OptimizationOptions.none()  # isolate the topology effect

    star = execute_query(cluster, expression, options)
    assert reference.same_rows_any_order_of_columns(star.relation)
    # "Uplink busy time": the coordinator/root has ONE wide-area access
    # link shared by all its children, so its serialized transfer time is
    # (total bytes crossing it) / bandwidth — the quantity a coordinator
    # tree exists to reduce. Per-channel response times are also reported.
    star_busy = star.stats.bytes_total / BENCH_MODEL.bandwidth_bytes_per_s
    rows = [
        (
            "star",
            star.stats.bytes_total,  # all traffic crosses the coordinator
            star.stats.bytes_total,
            star_busy,
        )
    ]

    for region_count in REGION_COUNTS:
        cluster.reset_network()
        tree = execute_query_scheduled(
            cluster, expression, options, topology=f"hierarchical:{region_count}"
        )
        assert reference.same_rows_any_order_of_columns(tree.relation)
        busy = tree.stats.root_link_bytes / BENCH_MODEL.bandwidth_bytes_per_s
        rows.append(
            (
                f"tree r={region_count}",
                tree.stats.root_link_bytes,
                tree.stats.bytes_total,
                busy,
            )
        )
    return rows


def render(rows) -> str:
    return format_table(
        ["topology", "root-link bytes", "total bytes", "root uplink busy (s)"],
        [
            [name, str(root), str(total), f"{seconds:.4f}"]
            for name, root, total, seconds in rows
        ],
    )


def test_tree_topology_compresses_root_link(benchmark):
    rows = benchmark.pedantic(run_topologies, rounds=1, iterations=1)
    print()
    print(render(rows))

    star_root = rows[0][1]
    by_name = {name: (root, total, seconds) for name, root, total, seconds in rows}

    # Every tree's root link carries less than the star coordinator's link.
    for region_count in REGION_COUNTS:
        root, _total, _seconds = by_name[f"tree r={region_count}"]
        assert root < star_root

    # Fewer regions -> stronger compression of the root link.
    assert by_name["tree r=2"][0] < by_name["tree r=8"][0]

    # On a shared root uplink, every tree beats the star's busy time.
    star_busy = rows[0][3]
    for region_count in REGION_COUNTS:
        assert by_name[f"tree r={region_count}"][2] < star_busy


if __name__ == "__main__":
    print(render(run_topologies()))
