"""What ``round_floor``'s statements ship, pinned byte for byte.

S1–S4 over 3 000 TPCR rows on 4 sites (seed 101, NationKey-partitioned,
``round_floor``'s shape), each under the optimiser's defaults and with it
off. None of them ships a positional round, so a change to how an
observed round ships its fragments must leave every number here as it is.
"""

import pytest

from bench_e2e.workloads import (
    S1_CORRELATED,
    S2_CUBE_CELL,
    S3_REGION_ROLLUP,
    S4_MONTH_MARGINAL,
)
from repro.data.tpcr import TPCRConfig, generate_tpcr, nation_partitioner, register_tpcr_fds
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.evaluator import ExecutionConfig, execute_query
from repro.distributed.optimizer import OptimizationOptions
from repro.queries.sql import parse_olap_query

#: Statement -> (bytes with the default options, bytes with none).
BYTES = {
    "S1": (771, 2_689),
    "S2": (3_821, 6_358),
    "S3": (597, 985),
    "S4": (1_848, 2_268),
}
STATEMENTS = {
    "S1": S1_CORRELATED,
    "S2": S2_CUBE_CELL,
    "S3": S3_REGION_ROLLUP,
    "S4": S4_MONTH_MARGINAL,
}


@pytest.fixture(scope="module")
def round_floor():
    cluster = SimulatedCluster.with_sites(4)
    tpcr = generate_tpcr(TPCRConfig(scale=3_000 / 6_000_000, seed=101))
    cluster.load_partitioned("TPCR", tpcr, nation_partitioner(4))
    register_tpcr_fds(cluster.catalog)
    return cluster


@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_each_statement_ships_its_pinned_bytes(round_floor, name):
    expression = parse_olap_query(STATEMENTS[name])
    config = ExecutionConfig(executor="serial")
    shipped = tuple(
        execute_query(round_floor, expression, options, config).stats.bytes_total
        for options in (OptimizationOptions(), OptimizationOptions.none())
    )
    assert shipped == BYTES[name]
