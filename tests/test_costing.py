"""Tests for the plan cost estimator, validated against measured traffic."""

import pytest

from repro.bench.figures import correlated_query, HIGH_CARDINALITY_KEY, LOW_CARDINALITY_KEY
from repro.bench.harness import speedup_cluster
from repro.data.tpcr import TPCRConfig, generate_tpcr
from repro.distributed import (
    OptimizationOptions,
    execute_plan,
    plan_query,
)
from repro.distributed.costing import (
    PlanEstimate,
    StatisticsStore,
    TableStatistics,
    compare_plans,
    estimate_group_count,
    estimate_plan,
)
from repro.errors import CatalogError

TPCR = generate_tpcr(TPCRConfig(scale=0.0005, seed=13))


def build(participating=4):
    cluster = speedup_cluster(TPCR, participating, 8)
    statistics = StatisticsStore()
    statistics.register_from_relation(
        "TPCR", cluster.conceptual_table("TPCR")
    )
    return cluster, statistics


class TestStatisticsStore:
    def test_register_from_relation(self):
        _cluster, statistics = build()
        table_statistics = statistics.get("TPCR")
        assert table_statistics.row_count > 0
        assert table_statistics.cardinality("NationKey") <= 25
        assert table_statistics.cardinality("Ghost") is None

    def test_missing_table(self):
        with pytest.raises(CatalogError):
            StatisticsStore().get("nope")

    def test_manual_registration(self):
        statistics = StatisticsStore()
        statistics.register("T", TableStatistics(100, {"a": 10}))
        assert statistics.has("T")
        assert statistics.get("T").cardinality("a") == 10


class TestGroupCountEstimate:
    def test_single_attribute(self):
        cluster, statistics = build()
        plan = plan_query(
            correlated_query(HIGH_CARDINALITY_KEY),
            cluster.catalog,
            OptimizationOptions.none(),
        )
        estimate = estimate_group_count(plan, statistics)
        actual = len(
            cluster.conceptual_table("TPCR").distinct_project(HIGH_CARDINALITY_KEY)
        )
        assert estimate == actual  # exact statistics -> exact estimate

    def test_capped_by_row_count(self):
        statistics = StatisticsStore()
        statistics.register("T", TableStatistics(50, {"a": 100, "b": 100}))
        from repro.gmdj.blocks import MDBlock
        from repro.gmdj.expression import DistinctBase, GMDJExpression, MDStep
        from repro.relalg.aggregates import count_star
        from repro.relalg.expressions import base, detail
        from repro.warehouse.catalog import DistributionCatalog

        catalog = DistributionCatalog()
        catalog.register("T", ["s0"])
        expression = GMDJExpression(
            DistinctBase("T", ["a", "b"]),
            [
                MDStep(
                    "T",
                    [
                        MDBlock(
                            [count_star("c")],
                            (base.a == detail.a) & (base.b == detail.b),
                        )
                    ],
                )
            ],
        )
        plan = plan_query(expression, catalog, OptimizationOptions.none())
        assert estimate_group_count(plan, statistics) == 50


class TestAccuracyAgainstMeasurement:
    @pytest.mark.parametrize("keys", [HIGH_CARDINALITY_KEY, LOW_CARDINALITY_KEY])
    @pytest.mark.parametrize(
        "options",
        [OptimizationOptions.none(), OptimizationOptions(False, False, False, True, False)],
        ids=["none", "independent_gr"],
    )
    def test_estimate_within_factor_two(self, keys, options):
        cluster, statistics = build(participating=4)
        plan = plan_query(correlated_query(keys), cluster.catalog, options)
        estimate = estimate_plan(plan, statistics, cluster.catalog)
        result = execute_plan(cluster, plan)
        measured = result.stats.tuples_total
        assert measured > 0
        ratio = estimate.tuples_total / measured
        assert 0.5 < ratio < 2.0, f"estimate {estimate.tuples_total} vs {measured}"

    def test_merged_base_estimate(self):
        cluster, statistics = build(participating=4)
        plan = plan_query(
            correlated_query(HIGH_CARDINALITY_KEY),
            cluster.catalog,
            OptimizationOptions(False, True, False, False, False),
        )
        assert plan.base.merged_into_chain
        estimate = estimate_plan(plan, statistics, cluster.catalog)
        result = execute_plan(cluster, plan)
        ratio = estimate.tuples_total / result.stats.tuples_total
        assert 0.5 < ratio < 2.0


class TestPlanComparison:
    def test_ranking_matches_measurement_order(self):
        cluster, statistics = build(participating=4)
        expression = correlated_query(HIGH_CARDINALITY_KEY)
        plans = {
            "none": plan_query(expression, cluster.catalog, OptimizationOptions.none()),
            "all": plan_query(expression, cluster.catalog, OptimizationOptions.all()),
        }
        ranked = compare_plans(plans, statistics, cluster.catalog)
        assert [name for name, _estimate in ranked] == ["all", "none"]

    def test_independent_reduction_ranks_above_the_baseline(self):
        cluster, statistics = build()
        expression = correlated_query(HIGH_CARDINALITY_KEY)
        plans = {
            "baseline": plan_query(
                expression, cluster.catalog, OptimizationOptions.none()
            ),
            "reductions": plan_query(
                expression,
                cluster.catalog,
                OptimizationOptions(False, False, False, True, False),
            ),
        }
        assert plans["reductions"].rounds[0].independent_reduction
        ranked = compare_plans(plans, statistics, cluster.catalog)
        assert [name for name, _estimate in ranked] == ["reductions", "baseline"]

    def test_bytes_estimate_positive(self):
        cluster, statistics = build()
        plan = plan_query(
            correlated_query(HIGH_CARDINALITY_KEY),
            cluster.catalog,
            OptimizationOptions.none(),
        )
        estimate = estimate_plan(plan, statistics, cluster.catalog)
        assert isinstance(estimate, PlanEstimate)
        assert estimate.bytes_total() > estimate.tuples_total


class TestObservedReductionEstimate:
    """The estimator prices observed-distribution group reduction: a
    narrowed round ships down what the round before shipped up."""

    S5_KEYS = ["PartKey", "SuppKey"]  # fine groups on non-partition keys

    def build(self, sites):
        from repro.data.tpcr import nation_partitioner
        from repro.distributed import SimulatedCluster

        cluster = SimulatedCluster.with_sites(sites)
        cluster.load_partitioned("TPCR", TPCR, nation_partitioner(sites))
        return cluster, StatisticsStore.from_cluster(cluster)

    @pytest.mark.parametrize("sites", [2, 8])
    def test_estimate_within_a_quarter_of_measured(self, sites):
        cluster, statistics = self.build(sites)
        plan = plan_query(
            correlated_query(self.S5_KEYS), cluster.catalog, OptimizationOptions.all()
        )
        assert plan.rounds[1].observed_reduction
        estimate = estimate_plan(plan, statistics, cluster.catalog)
        first, second = estimate.rounds
        assert second.tuples_down == first.tuples_up  # the identity
        measured = execute_plan(cluster, plan).stats
        assert measured.rounds[1].tuples_down == measured.rounds[0].tuples_up
        ratio = estimate.tuples_total / measured.tuples_total
        assert 0.75 < ratio < 1.25, f"{estimate.tuples_total} vs {measured.tuples_total}"

    def test_ablation_and_ranking_see_it(self):
        from repro.distributed.costing import estimate_optimization_impacts

        cluster, statistics = self.build(8)
        expression = correlated_query(self.S5_KEYS)
        narrowed = plan_query(expression, cluster.catalog, OptimizationOptions.all())
        plain = plan_query(
            expression, cluster.catalog, OptimizationOptions(aware_group_reduction=False)
        )
        ranked = compare_plans(
            {"plain": plain, "narrowed": narrowed}, statistics, cluster.catalog
        )
        assert [name for name, _estimate in ranked] == ["narrowed", "plain"]
        impacts = {
            impact.name: impact
            for impact in estimate_optimization_impacts(
                expression, cluster.catalog, statistics, plan=narrowed
            )
        }
        aware = impacts["aware_group_reduction"]
        assert "observed distribution" in aware.description
        # Round 2 ships 8 x |Q| down without it, about |Q| with it.
        assert aware.estimated_without_tuples > 2 * aware.estimated_with_tuples

    def test_topology_pricing_narrows_the_root_edges_only(self):
        from repro.distributed.costing import estimate_topology_costs

        cluster, statistics = self.build(8)
        expression = correlated_query(self.S5_KEYS)
        narrowed = plan_query(expression, cluster.catalog, OptimizationOptions.all())
        plain = plan_query(
            expression, cluster.catalog, OptimizationOptions(aware_group_reduction=False)
        )

        def priced(plan):
            return {
                estimate.label: estimate
                for estimate in estimate_topology_costs(plan, statistics, cluster.catalog)
            }

        with_it, without = priced(narrowed), priced(plain)
        for label in ("flat", "hierarchical:4"):
            assert with_it[label].root_link_bytes < without[label].root_link_bytes
            assert with_it[label].response_time_s < without[label].response_time_s
        # At the star every edge is a root edge: the whole saving shows.
        assert (
            without["flat"].root_link_bytes - with_it["flat"].root_link_bytes
            > without["hierarchical:4"].root_link_bytes
            - with_it["hierarchical:4"].root_link_bytes
        )
