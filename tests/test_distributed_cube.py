"""Tests for the distributed cube / marginal executors."""

import pytest

from conftest import assert_relations_equal, make_flows
from repro.distributed import OptimizationOptions, SimulatedCluster
from repro.queries import (
    cube_single_expression,
    execute_cube_distributed,
    execute_marginals_distributed,
    grand_total_expression,
)
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import detail
from repro.warehouse.partition import HashPartitioner, RoundRobinPartitioner

FLOW = make_flows(count=240, seed=111)
DIMS = ["RouterId", "DestAS"]
AGGS = [count_star("flows"), AggSpec("avg", detail.NumBytes, "avg_nb")]


def build_cluster(partitioner=None):
    cluster = SimulatedCluster.with_sites(4)
    cluster.load_partitioned(
        "Flow", FLOW, partitioner or HashPartitioner(["SourceAS"], 4)
    )
    return cluster


class TestGrandTotalExpression:
    def test_single_row_all_data(self):
        cluster = build_cluster()
        from repro.distributed import execute_query

        expression = grand_total_expression("Flow", AGGS)
        result = execute_query(cluster, expression, OptimizationOptions.none())
        assert len(result.relation) == 1
        row = dict(zip(result.relation.schema.names, result.relation.rows[0]))
        assert row["flows"] == len(FLOW)
        expected_avg = sum(FLOW.column("NumBytes")) / len(FLOW)
        assert row["avg_nb"] == pytest.approx(expected_avg)

    def test_optimizations_do_not_change_it(self):
        cluster = build_cluster()
        from repro.distributed import execute_query

        expression = grand_total_expression("Flow", AGGS)
        plain = execute_query(cluster, expression, OptimizationOptions.none())
        cluster.reset_network()
        optimized = execute_query(cluster, expression, OptimizationOptions.all())
        assert_relations_equal(plain.relation, optimized.relation)


class TestDistributedCube:
    def test_matches_single_expression_cube(self):
        cluster = build_cluster()
        cube = execute_cube_distributed(
            cluster, "Flow", DIMS, AGGS, OptimizationOptions.all()
        )
        conceptual = cluster.conceptual_table("Flow")
        reference = cube_single_expression(
            conceptual, "Flow", DIMS, AGGS
        ).evaluate_centralized({"Flow": conceptual})
        assert_relations_equal(cube, reference)

    def test_round_robin_partitioning(self):
        cluster = build_cluster(RoundRobinPartitioner(4))
        cube = execute_cube_distributed(
            cluster, "Flow", ["RouterId"], AGGS, OptimizationOptions.none()
        )
        # 1 dim: distinct routers + the ALL row.
        routers = len(FLOW.distinct_project(["RouterId"]))
        assert len(cube) == routers + 1

    def test_all_cell_present_once(self):
        cluster = build_cluster()
        cube = execute_cube_distributed(
            cluster, "Flow", DIMS, AGGS, OptimizationOptions.all()
        )
        all_rows = [
            row for row in cube.rows if row[0] is None and row[1] is None
        ]
        assert len(all_rows) == 1
        assert all_rows[0][2] == len(FLOW)


class TestDistributedMarginals:
    def test_stacks_all_attributes(self):
        cluster = build_cluster()
        marginals = execute_marginals_distributed(
            cluster, "Flow", DIMS, AGGS, OptimizationOptions.all()
        )
        attributes = {row[0] for row in marginals.rows}
        assert attributes == set(DIMS)
        router_rows = [row for row in marginals.rows if row[0] == "RouterId"]
        assert sum(row[2] for row in router_rows) == len(FLOW)
