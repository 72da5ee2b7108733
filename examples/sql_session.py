"""An analyst session in the OLAP SQL dialect, on star and tree topologies.

Demonstrates the two main extensions beyond the paper's core system:

- the **SQL front-end** (the "query generator" role of the paper's
  Figure 1): queries are typed, parsed to GMDJ expressions and planned
  by Egil like any other query;
- the **merge tree** (the paper's future-work architecture, Section 6):
  the same queries run with two regional combiners under the
  coordinator, and we compare how many bytes cross the root's wide-area
  uplink;
- results are exported to CSV for downstream tools.

Run: ``python examples/sql_session.py``
"""

import io

from repro import (
    OptimizationOptions,
    SimulatedCluster,
    execute_query,
    parse_olap_query,
)
from repro.data import (
    TPCRConfig,
    generate_tpcr,
    nation_partitioner,
    register_tpcr_fds,
)
from repro.distributed import execute_query_scheduled
from repro.relalg import write_csv

SITES = 8

QUERIES = {
    "nation revenue": (
        "SELECT NationKey, COUNT(*) AS items, SUM(Price) AS revenue "
        "FROM TPCR GROUP BY NationKey"
    ),
    "suppliers above their average": (
        "SELECT SuppKey, COUNT(*) AS items, AVG(Price) AS avg_price "
        "FROM TPCR GROUP BY SuppKey "
        "THEN SELECT COUNT(*) AS above, MAX(Price) AS top "
        "WHERE Price >= avg_price"
    ),
    "discounted heavy lines per customer": (
        "SELECT CustName, COUNT(*) AS items, AVG(Quantity) AS avg_qty "
        "FROM TPCR WHERE Discount >= 0.05 GROUP BY CustName "
        "THEN SELECT COUNT(*) AS heavy WHERE Quantity >= avg_qty * 1.5"
    ),
}


def build_cluster() -> SimulatedCluster:
    cluster = SimulatedCluster.with_sites(SITES)
    tpcr = generate_tpcr(TPCRConfig(scale=0.002))
    cluster.load_partitioned("TPCR", tpcr, nation_partitioner(SITES))
    register_tpcr_fds(cluster.catalog)
    print(f"warehouse: {len(tpcr)} line items across {SITES} sites\n")
    return cluster


def main():
    cluster = build_cluster()
    options = OptimizationOptions.all()

    for title, sql in QUERIES.items():
        print(f"== {title} ==")
        print(f"   {sql}")
        expression = parse_olap_query(sql)

        cluster.reset_network()
        star = execute_query(cluster, expression, options)
        reference = expression.evaluate_centralized(cluster.conceptual_tables())
        assert reference.same_rows_any_order_of_columns(star.relation)

        cluster.reset_network()
        tree = execute_query_scheduled(
            cluster, expression, options, topology="hierarchical:2"
        )
        assert reference.same_rows_any_order_of_columns(tree.relation)

        print(
            f"   star: {star.plan.synchronization_count} sync(s), "
            f"{star.stats.bytes_total} bytes at the coordinator"
        )
        print(
            f"   tree: root uplink {tree.stats.root_link_bytes} bytes "
            f"({tree.stats.topology})"
        )
        print(star.relation.pretty(max_rows=5))
        print()

    # Export the last result for downstream tooling.
    buffer = io.StringIO()
    write_csv(star.relation, buffer)
    lines = buffer.getvalue().splitlines()
    print(f"CSV export: {len(lines) - 1} data rows; header: {lines[0][:70]}...")


if __name__ == "__main__":
    main()
