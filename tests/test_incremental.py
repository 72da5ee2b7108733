"""Tests for incremental (append-only) view refresh."""

import random

import pytest

from conftest import assert_relations_equal, make_flows, FLOW_TEST_SCHEMA
from repro.distributed import OptimizationOptions, SimulatedCluster
from repro.distributed.incremental import IncrementalView
from repro.distributed.stats import ExecutionStats
from repro.errors import PlanError, SchemaError
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import DistinctBase, GMDJExpression, LiteralBase, MDStep
from repro.obs.metrics import MetricsRegistry, activate
from repro.queries.olap import QueryBuilder
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, detail
from repro.relalg.relation import Relation
from repro.relalg.schema import INT, Schema
from repro.warehouse.partition import ValueListPartitioner

INITIAL = make_flows(count=200, seed=121)
KEY = base.SourceAS == detail.SourceAS

AGGS = [
    count_star("cnt"),
    AggSpec("avg", detail.NumBytes, "m"),
    AggSpec("min", detail.NumBytes, "lo"),
    AggSpec("max", detail.NumBytes, "hi"),
]


def single_step_expression(extra=None):
    condition = KEY if extra is None else KEY & extra
    step = MDStep("Flow", [MDBlock(AGGS, condition)])
    return GMDJExpression(DistinctBase("Flow", ["SourceAS"]), [step])


def build_cluster(initial=INITIAL):
    cluster = SimulatedCluster.with_sites(4)
    cluster.load_partitioned(
        "Flow", initial, ValueListPartitioner.spread("SourceAS", range(16), 4)
    )
    return cluster


def deltas_for(cluster, rows):
    """Split delta rows to sites per the cluster's partitioning."""
    partitioner = ValueListPartitioner.spread("SourceAS", range(16), 4)
    pieces = partitioner.split(Relation(FLOW_TEST_SCHEMA, rows))
    return {
        site_id: piece
        for site_id, piece in zip(cluster.site_ids, pieces)
        if len(piece)
    }


def reference_result(expression, cluster):
    return expression.evaluate_centralized(cluster.conceptual_tables())


class TestValidation:
    def test_rejects_chains(self):
        cluster = build_cluster()
        chain = (
            QueryBuilder("Flow", ["SourceAS"])
            .stage([count_star("c"), AggSpec("avg", detail.NumBytes, "m")])
            .stage([count_star("big")], extra=detail.NumBytes >= base.m)
            .build()
        )
        with pytest.raises(PlanError):
            IncrementalView(cluster, chain)

    def test_rejects_holistic(self):
        cluster = build_cluster()
        step = MDStep(
            "Flow", [MDBlock([AggSpec("median", detail.NumBytes, "med")], KEY)]
        )
        expression = GMDJExpression(DistinctBase("Flow", ["SourceAS"]), [step])
        with pytest.raises(PlanError):
            IncrementalView(cluster, expression)

    def test_rejects_degraded_base_state(self):
        """A degrade-mode run excluded sites, so its state is an
        under-approximation: building a view on it must fail loudly and
        name the missing sites, not silently refresh a wrong base.

        Regression test: degraded ``ExecutionStats`` used to be accepted.
        """
        cluster = build_cluster()
        expression = single_step_expression()
        stats = ExecutionStats(failure_mode="degrade")
        stats.new_round("md").exclude("site2")
        with pytest.raises(PlanError) as excinfo:
            IncrementalView(cluster, expression, source_stats=stats)
        assert "site2" in str(excinfo.value)
        # A clean (non-degraded) run's stats are accepted.
        clean = ExecutionStats()
        clean.new_round("md")
        IncrementalView(cluster, expression, source_stats=clean)

    def test_rejects_schema_mismatch(self):
        cluster = build_cluster()
        view = IncrementalView(cluster, single_step_expression())
        bad = Relation(Schema.of(("x", INT)), [(1,)])
        with pytest.raises(SchemaError):
            view.refresh({"site0": bad})


class TestInitialState:
    def test_matches_full_evaluation(self):
        cluster = build_cluster()
        expression = single_step_expression()
        view = IncrementalView(cluster, expression)
        assert_relations_equal(view.relation(), reference_result(expression, cluster))

    def test_group_count(self):
        cluster = build_cluster()
        view = IncrementalView(cluster, single_step_expression())
        assert view.group_count == len(INITIAL.distinct_project(["SourceAS"]))


class TestRefresh:
    def test_refresh_equals_full_reevaluation(self):
        cluster = build_cluster()
        expression = single_step_expression()
        view = IncrementalView(cluster, expression)
        new_flows = make_flows(count=80, seed=122)
        result = view.refresh(deltas_for(cluster, new_flows.rows))
        assert_relations_equal(result.relation, reference_result(expression, cluster))

    def test_new_groups_see_old_data(self):
        # Overlapping-group condition: a brand-new group must aggregate
        # OLD rows too. Condition: NumBytes above a per-group threshold.
        # Build initial data with SourceAS 15 deliberately absent.
        from repro.relalg.expressions import col

        initial = INITIAL.select(~(col.SourceAS == 15))
        assert len(initial) < len(INITIAL)
        cluster = build_cluster(initial)
        condition = detail.NumBytes >= base.SourceAS * 10.0
        step = MDStep("Flow", [MDBlock([count_star("cnt")], condition)])
        expression = GMDJExpression(DistinctBase("Flow", ["SourceAS"]), [step])
        view = IncrementalView(cluster, expression)
        delta_rows = [(15 % 4, 15, 0, 55.0)]
        result = view.refresh(deltas_for(cluster, delta_rows))
        assert result.new_groups == 1
        assert_relations_equal(result.relation, reference_result(expression, cluster))
        # The new group's count covers old rows satisfying the condition,
        # not just the single delta row.
        by_key = {row[0]: row[1] for row in result.relation.rows}
        old_matching = sum(
            1
            for row in cluster.conceptual_table("Flow").rows
            if row[3] >= 150.0
        )
        assert by_key[15] == old_matching

    def test_repeated_refreshes(self):
        cluster = build_cluster()
        expression = single_step_expression(extra=detail.NumBytes > 100)
        view = IncrementalView(cluster, expression)
        rng = random.Random(9)
        for round_index in range(4):
            rows = [
                (
                    rng.randrange(0, 16) % 4,
                    rng.randrange(0, 16),
                    rng.randrange(0, 8),
                    float(rng.randrange(40, 4000)),
                )
                for _ in range(30)
            ]
            # Fix RouterId consistency with SourceAS pinning of the fixture.
            rows = [(source_as % 4, source_as, dest, volume) for _router, source_as, dest, volume in rows]
            view.refresh(deltas_for(cluster, rows))
        assert_relations_equal(view.relation(), reference_result(expression, cluster))

    def test_empty_delta_is_noop(self):
        cluster = build_cluster()
        expression = single_step_expression()
        view = IncrementalView(cluster, expression)
        before = view.relation()
        result = view.refresh({})
        assert result.new_groups == 0
        assert_relations_equal(before, result.relation)

    def test_literal_base_never_grows(self):
        cluster = build_cluster()
        literal = Relation(Schema.of(("SourceAS", INT)), [(0,), (1,), (99,)])
        step = MDStep("Flow", [MDBlock(AGGS, KEY)])
        expression = GMDJExpression(LiteralBase(literal, ["SourceAS"]), [step])
        view = IncrementalView(cluster, expression)
        new_flows = make_flows(count=40, seed=123)
        result = view.refresh(deltas_for(cluster, new_flows.rows))
        assert result.new_groups == 0
        assert len(result.relation) == 3
        assert_relations_equal(result.relation, reference_result(expression, cluster))

    def test_refresh_traffic_smaller_than_reevaluation(self):
        cluster = build_cluster()
        expression = single_step_expression()
        view = IncrementalView(cluster, expression)
        small_delta = deltas_for(cluster, make_flows(count=10, seed=124).rows)
        result = view.refresh(small_delta)
        # Delta up-leg only carries touched groups.
        assert result.stats.tuples_up <= 10


class TestRefreshCost:
    def test_a_refresh_without_new_groups_scans_only_the_appended_rows(self):
        """The refresh round reads each site's append log since the
        version the view holds, not the partition: with one block and no
        detail-only filter, its scans examine exactly Σ|Δᵢ| rows."""
        cluster = build_cluster()
        expression = single_step_expression()
        view = IncrementalView(cluster, expression)
        known = {row[1] for row in INITIAL.rows}
        for seed in (126, 127):
            rows = [row for row in make_flows(count=60, seed=seed).rows if row[1] in known]
            deltas = deltas_for(cluster, rows)
            registry = MetricsRegistry()
            with activate(registry):
                result = view.refresh(deltas)
            assert result.new_groups == 0
            assert registry.value_of("gmdj.tuples_examined") == len(rows) > 0
            assert_relations_equal(result.relation, reference_result(expression, cluster))
