"""Unit tests for the OLAP query builders."""

import pytest

from conftest import assert_relations_equal, make_flows
from oracle.algebra import group_by
from repro.distributed import OptimizationOptions, SimulatedCluster, execute_query
from repro.errors import PlanError
from repro.gmdj.expression import LiteralBase
from repro.queries.olap import (
    QueryBuilder,
    group_by_query,
    key_condition,
    windowed_comparison_query,
)
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, detail
from repro.relalg.relation import Relation
from repro.relalg.schema import INT, Schema
from repro.warehouse.partition import ValueListPartitioner

FLOW = make_flows(count=200, seed=41)
TABLES = {"Flow": FLOW}


class TestGroupByQuery:
    def test_matches_sql_group_by(self):
        expression = group_by_query(
            "Flow",
            ["SourceAS"],
            [count_star("cnt"), AggSpec("avg", detail.NumBytes, "m")],
        )
        result = expression.evaluate_centralized(TABLES)
        reference = group_by(
            FLOW, ["SourceAS"], [count_star("cnt"), AggSpec("avg", detail.NumBytes, "m")]
        )
        assert_relations_equal(result, reference)

    def test_where_filters_detail_only(self):
        expression = group_by_query(
            "Flow",
            ["SourceAS"],
            [count_star("cnt")],
            where=detail.NumBytes > 10_000,
        )
        result = expression.evaluate_centralized(TABLES)
        # Groups are defined by the full table, so every SourceAS appears,
        # possibly with count 0 — unlike SQL GROUP BY over a filtered table.
        assert len(result) == len(FLOW.distinct_project(["SourceAS"]))
        assert any(row[1] == 0 for row in result.rows)

    def test_multi_key(self):
        expression = group_by_query("Flow", ["SourceAS", "DestAS"], [count_star("c")])
        result = expression.evaluate_centralized(TABLES)
        assert len(result) == len(FLOW.distinct_project(["SourceAS", "DestAS"]))


class TestKeyCondition:
    def test_builds_equality_chain(self):
        condition = key_condition(["a", "b"])
        assert condition.attrs("b") == frozenset(["a", "b"])
        assert condition.attrs("r") == frozenset(["a", "b"])


class TestQueryBuilder:
    def test_example1_shape(self):
        expression = (
            QueryBuilder("Flow", keys=["SourceAS", "DestAS"])
            .stage([count_star("cnt1"), AggSpec("sum", detail.NumBytes, "sum1")])
            .stage(
                [count_star("cnt2")],
                extra=detail.NumBytes >= base.sum1 / base.cnt1,
            )
            .build()
        )
        assert len(expression.steps) == 2
        result = expression.evaluate_centralized(TABLES)
        position = result.schema.position("cnt2")
        cnt1 = result.schema.position("cnt1")
        for row in result.rows:
            assert 0 < row[position] <= row[cnt1]

    def test_requires_stage(self):
        with pytest.raises(PlanError):
            QueryBuilder("Flow", keys=["SourceAS"]).build()

    def test_literal_base_relation(self):
        literal = Relation(Schema.of(("SourceAS", INT),), [(1,), (999,)])
        expression = (
            QueryBuilder("Flow", keys=["SourceAS"], base_relation=literal)
            .stage([count_star("c")])
            .build()
        )
        assert isinstance(expression.base_source, LiteralBase)
        result = expression.evaluate_centralized(TABLES)
        assert len(result) == 2

    def test_custom_blocks_stage(self):
        from repro.gmdj.blocks import MDBlock

        blocks = [MDBlock([count_star("c")], base.SourceAS == detail.SourceAS)]
        expression = (
            QueryBuilder("Flow", keys=["SourceAS"]).stage([], blocks=blocks).build()
        )
        assert expression.steps[0].blocks == tuple(blocks)

    def test_detail_table_override(self):
        expression = (
            QueryBuilder("Flow", keys=["SourceAS"])
            .stage([count_star("c")], detail_table="Flow2")
            .build()
        )
        assert expression.steps[0].detail == "Flow2"


class TestWindowedComparison:
    def test_semantics(self):
        expression = windowed_comparison_query(
            "Flow", ["SourceAS"], detail.NumBytes, fraction=0.10
        )
        result = expression.evaluate_centralized(TABLES)
        max_position = result.schema.position("m_max")
        count_position = result.schema.position("m_near_count")
        # Cross-check a group by hand.
        row = result.rows[0]
        group_value = row[0]
        group_rows = [
            flow_row
            for flow_row in FLOW.rows
            if flow_row[FLOW.schema.position("SourceAS")] == group_value
        ]
        position = FLOW.schema.position("NumBytes")
        maximum = max(flow_row[position] for flow_row in group_rows)
        near = sum(
            1 for flow_row in group_rows if flow_row[position] >= 0.9 * maximum
        )
        assert row[max_position] == maximum
        assert row[count_position] == near
        assert all(row[count_position] >= 1 for row in result.rows)

    def test_fraction_validated(self):
        with pytest.raises(PlanError):
            windowed_comparison_query("Flow", ["SourceAS"], detail.NumBytes, 1.5)

    def test_distributed_matches(self):
        cluster = SimulatedCluster.with_sites(4)
        cluster.load_partitioned(
            "Flow", FLOW, ValueListPartitioner.spread("SourceAS", range(16), 4)
        )
        expression = windowed_comparison_query(
            "Flow", ["SourceAS"], detail.NumBytes, fraction=0.25
        )
        reference = expression.evaluate_centralized(cluster.conceptual_tables())
        result = execute_query(cluster, expression, OptimizationOptions.all())
        assert_relations_equal(reference, result.relation)
