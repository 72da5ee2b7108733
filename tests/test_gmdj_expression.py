"""Unit tests for GMDJ expression chains."""

import pytest

from conftest import assert_relations_equal, brute_force_gmdj, make_flows, same_rows
from repro.errors import PlanError, SchemaError
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import (
    DistinctBase,
    GMDJExpression,
    LiteralBase,
    MDStep,
)
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, detail
from repro.relalg.relation import Relation
from repro.relalg.schema import INT, Schema

FLOW = make_flows(count=100, seed=8)
TABLES = {"Flow": FLOW}
KEY_CONDITION = base.SourceAS == detail.SourceAS


def one_step(output="cnt", condition=KEY_CONDITION):
    return MDStep("Flow", [MDBlock([count_star(output)], condition)])


class TestSources:
    def test_distinct_base(self):
        source = DistinctBase("Flow", ["SourceAS"])
        assert source.key == ("SourceAS",)
        assert source.table_name == "Flow"
        evaluated = source.evaluate(TABLES)
        assert same_rows(evaluated, FLOW.distinct_project(["SourceAS"]))
        assert source.schema({"Flow": FLOW.schema}).names == ("SourceAS",)

    def test_distinct_base_needs_attrs(self):
        with pytest.raises(SchemaError):
            DistinctBase("Flow", [])

    def test_literal_base(self):
        relation = Relation(Schema.of(("SourceAS", INT),), [(1,), (2,)])
        source = LiteralBase(relation, ["SourceAS"])
        assert source.evaluate(TABLES) is relation
        assert source.key == ("SourceAS",)
        assert source.table_name is None

    def test_literal_base_validates_key(self):
        relation = Relation(Schema.of(("SourceAS", INT),), [(1,)])
        with pytest.raises(Exception):
            LiteralBase(relation, ["nope"])


class TestMDStep:
    def test_output_names(self):
        step = MDStep(
            "Flow",
            [
                MDBlock([count_star("c"), AggSpec("sum", detail.NumBytes, "s")], KEY_CONDITION),
                MDBlock([count_star("c2")], KEY_CONDITION),
            ],
        )
        assert step.output_names() == ("c", "s", "c2")

    def test_needs_blocks(self):
        with pytest.raises(PlanError):
            MDStep("Flow", [])

    def test_str(self):
        assert "Flow" in str(one_step())


class TestGMDJExpression:
    def test_requires_steps(self):
        with pytest.raises(PlanError):
            GMDJExpression(DistinctBase("Flow", ["SourceAS"]), [])

    def test_requires_base_source(self):
        with pytest.raises(PlanError):
            GMDJExpression(FLOW, [one_step()])

    def test_duplicate_outputs_rejected(self):
        with pytest.raises(SchemaError):
            GMDJExpression(
                DistinctBase("Flow", ["SourceAS"]), [one_step("c"), one_step("c")]
            )

    def test_metadata(self):
        expression = GMDJExpression(
            DistinctBase("Flow", ["SourceAS"]), [one_step("a"), one_step("b")]
        )
        assert expression.key == ("SourceAS",)
        assert expression.detail_tables() == ("Flow", "Flow")
        assert not expression.has_holistic

    def test_result_schema(self):
        expression = GMDJExpression(
            DistinctBase("Flow", ["SourceAS"]), [one_step("a"), one_step("b")]
        )
        schema = expression.result_schema({"Flow": FLOW.schema})
        assert schema.names == ("SourceAS", "a", "b")

    def test_describe(self):
        expression = GMDJExpression(DistinctBase("Flow", ["SourceAS"]), [one_step()])
        text = expression.describe()
        assert "B0" in text
        assert "B1" in text

    def test_holistic_flag(self):
        step = MDStep(
            "Flow", [MDBlock([AggSpec("median", detail.NumBytes, "m")], KEY_CONDITION)]
        )
        assert GMDJExpression(DistinctBase("Flow", ["SourceAS"]), [step]).has_holistic


class TestCentralizedEvaluation:
    def test_single_step(self):
        expression = GMDJExpression(DistinctBase("Flow", ["SourceAS"]), [one_step()])
        result = expression.evaluate_centralized(TABLES)
        reference = brute_force_gmdj(
            FLOW.distinct_project(["SourceAS"]), FLOW, expression.steps[0].blocks
        )
        assert_relations_equal(result, reference)

    def test_chain_feeds_aggregates_forward(self):
        inner = MDStep(
            "Flow",
            [
                MDBlock(
                    [count_star("cnt"), AggSpec("sum", detail.NumBytes, "total")],
                    KEY_CONDITION,
                )
            ],
        )
        outer = MDStep(
            "Flow",
            [
                MDBlock(
                    [count_star("above")],
                    KEY_CONDITION & (detail.NumBytes >= base.total / base.cnt),
                )
            ],
        )
        expression = GMDJExpression(DistinctBase("Flow", ["SourceAS"]), [inner, outer])
        result = expression.evaluate_centralized(TABLES)

        b1 = brute_force_gmdj(FLOW.distinct_project(["SourceAS"]), FLOW, inner.blocks)
        reference = brute_force_gmdj(b1, FLOW, outer.blocks)
        assert_relations_equal(result, reference)

    def test_unknown_detail_table(self):
        expression = GMDJExpression(
            DistinctBase("Flow", ["SourceAS"]),
            [MDStep("Mystery", [MDBlock([count_star("c")], KEY_CONDITION)])],
        )
        with pytest.raises(PlanError):
            expression.evaluate_centralized(TABLES)

    def test_literal_base_chain(self):
        literal = Relation(Schema.of(("SourceAS", INT),), [(0,), (1,), (99,)])
        expression = GMDJExpression(LiteralBase(literal, ["SourceAS"]), [one_step()])
        result = expression.evaluate_centralized(TABLES)
        assert len(result) == 3
        by_key = {row[0]: row[1] for row in result.rows}
        assert by_key[99] == 0  # group absent from the data still present
