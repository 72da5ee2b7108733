"""Tests for custom aggregate registration and the geomean aggregate."""

import math

import pytest

from conftest import assert_relations_equal, make_flows
from oracle.accumulate import accumulator
from repro.distributed import OptimizationOptions, SimulatedCluster, execute_query
from repro.errors import AggregateError
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import DistinctBase, GMDJExpression, MDStep
from repro.queries.olap import group_by_query
from repro.relalg.aggregates import (
    ALGEBRAIC,
    AggregateFunction,
    AggSpec,
    Component,
    MaxComponent,
    MinComponent,
    count_star,
    register_aggregate,
)
from repro.relalg.expressions import base, col, detail
from repro.relalg.schema import INT
from repro.warehouse.partition import RoundRobinPartitioner, ValueListPartitioner

FLOW = make_flows(count=150, seed=151)


def run(spec, values):
    state = accumulator(spec)
    for value in values:
        state.update(value)
    return state.result()


class TestGeomean:
    def test_basic(self):
        assert run(AggSpec("geomean", col.x, "g"), [2.0, 8.0]) == pytest.approx(4.0)

    def test_skips_nonpositive_and_null(self):
        result = run(AggSpec("geomean", col.x, "g"), [2.0, None, 0.0, -3.0, 8.0])
        assert result == pytest.approx(4.0)

    def test_empty_is_null(self):
        assert run(AggSpec("geomean", col.x, "g"), []) is None
        assert run(AggSpec("geomean", col.x, "g"), [-1.0]) is None

    def test_is_algebraic_and_decomposes(self):
        spec = AggSpec("geomean", col.x, "g")
        assert spec.classification == ALGEBRAIC
        left = accumulator(spec)
        right = accumulator(spec)
        for value in (2.0, 4.0):
            left.update(value)
        for value in (8.0, 16.0):
            right.update(value)
        merged = accumulator(spec)
        merged.load_sub_values(left.sub_values())
        merged.load_sub_values(right.sub_values())
        direct = run(spec, [2.0, 4.0, 8.0, 16.0])
        assert merged.result() == pytest.approx(direct)

    def test_distributed_evaluation(self):
        cluster = SimulatedCluster.with_sites(3)
        cluster.load_partitioned(
            "Flow", FLOW, ValueListPartitioner.spread("SourceAS", range(16), 3)
        )
        expression = group_by_query(
            "Flow", ["SourceAS"], [AggSpec("geomean", detail.NumBytes, "g")]
        )
        reference = expression.evaluate_centralized(cluster.conceptual_tables())
        result = execute_query(cluster, expression, OptimizationOptions.all())
        assert_relations_equal(reference, result.relation)


class SpreadFunction(AggregateFunction):
    """max - min: a custom algebraic aggregate for the registration test."""

    name = "spread"
    classification = ALGEBRAIC

    def components(self):
        return (("min", MinComponent()), ("max", MaxComponent()))

    def finalize(self, component_values):
        lowest, highest = component_values
        if lowest is None or highest is None:
            return None
        return highest - lowest


class TestRegistration:
    @pytest.fixture(autouse=True)
    def register_spread(self):
        try:
            register_aggregate("spread", lambda star: SpreadFunction())
        except AggregateError:
            pass  # already registered by an earlier test in this session
        yield

    def test_custom_aggregate_works(self):
        spec = AggSpec("spread", col.x, "s")
        assert run(spec, [3.0, 10.0, 7.0]) == 7.0
        assert run(spec, []) is None

    def test_custom_aggregate_in_sql(self):
        from repro.queries.sql import parse_olap_query

        expression = parse_olap_query(
            "SELECT SourceAS, SPREAD(NumBytes) AS s FROM Flow GROUP BY SourceAS"
        )
        result = expression.evaluate_centralized({"Flow": FLOW})
        assert "s" in result.schema

    def test_custom_aggregate_distributed(self):
        cluster = SimulatedCluster.with_sites(3)
        cluster.load_partitioned(
            "Flow", FLOW, ValueListPartitioner.spread("SourceAS", range(16), 3)
        )
        expression = group_by_query(
            "Flow", ["SourceAS"], [AggSpec("spread", detail.NumBytes, "s")]
        )
        reference = expression.evaluate_centralized(cluster.conceptual_tables())
        result = execute_query(cluster, expression, OptimizationOptions.all())
        assert_relations_equal(reference, result.relation)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(AggregateError):
            register_aggregate("spread", lambda star: SpreadFunction())

    def test_replace_allowed(self):
        register_aggregate("spread", lambda star: SpreadFunction(), replace=True)

    def test_invalid_name(self):
        with pytest.raises(AggregateError):
            register_aggregate("not a name", lambda star: SpreadFunction())

    def test_factory_type_checked(self):
        with pytest.raises(AggregateError):
            register_aggregate("bogus", lambda star: object())

    def test_result_type_respected(self):
        class IntResult(SpreadFunction):
            name = "intspread"
            result_type = INT

        register_aggregate("intspread", lambda star: IntResult(), replace=True)
        spec = AggSpec("intspread", col.x, "s")
        assert spec.result_attribute().type == INT


class _AbsMaxComponent(Component):
    """Largest magnitude seen: a kind the kernels have no rule for, so the
    site folds it through ``Component.update`` and the coordinator through
    ``Component.combine``, each in the ordered object loop."""

    kind = "absmax"

    def initial(self):
        return None

    def update(self, accumulator, value):
        return accumulator if value is None else self.combine(accumulator, abs(value))

    def combine(self, left, right):
        if left is None or right is None:
            return right if left is None else left
        return max(left, right)


class _AbsMaxFunction(AggregateFunction):
    name = "absmax"
    classification = ALGEBRAIC

    def components(self):
        return (("", _AbsMaxComponent()),)

    def finalize(self, component_values):
        return component_values[0]


class TestCustomAggregateThroughNarrowedRounds:
    """Observed-distribution group reduction with a custom component: the
    round that is observed folds it through ``Component.combine`` in the
    ordered object loop, and the probe hands over what it touched as it
    does for the built-in kinds."""

    @pytest.fixture(autouse=True)
    def register_absmax(self):
        register_aggregate("absmax", lambda star: _AbsMaxFunction(), replace=True)
        yield

    def expression(self):
        key = (base.SourceAS == detail.SourceAS) & (base.DestAS == detail.DestAS)
        above = key & (detail.NumBytes >= base.m)
        steps = [
            MDStep("Flow", [MDBlock([AggSpec("avg", detail.NumBytes, "m")], key)]),
            MDStep("Flow", [MDBlock([AggSpec("absmax", detail.NumBytes, "top")], above)]),
            MDStep("Flow", [MDBlock([count_star("n")], above & (base.top > 0))]),
        ]
        return GMDJExpression(DistinctBase("Flow", ["SourceAS", "DestAS"]), steps)

    def test_narrowed_equals_unnarrowed_equals_centralized(self):
        cluster = SimulatedCluster.with_sites(3)
        cluster.load_partitioned("Flow", FLOW, RoundRobinPartitioner(3))
        expression = self.expression()
        narrowed = execute_query(cluster, expression, OptimizationOptions.all())
        plain = execute_query(
            cluster, expression, OptimizationOptions(aware_group_reduction=False)
        )
        assert [r.observed_reduction for r in narrowed.plan.rounds] == [
            False, True, True,
        ]
        assert narrowed.relation.rows == plain.relation.rows
        assert_relations_equal(
            expression.evaluate_centralized(cluster.conceptual_tables()),
            narrowed.relation,
        )
        for round_index in (1, 2):
            for site_id in cluster.site_ids:
                assert (
                    narrowed.stats.rounds[round_index].sites[site_id].tuples_down
                    == narrowed.stats.rounds[round_index - 1].sites[site_id].tuples_up
                )
        assert narrowed.stats.tuples_total < plain.stats.tuples_total
