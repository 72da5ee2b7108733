"""Tests for replicated (dimension) tables."""

import pytest

from conftest import assert_relations_equal, make_flows, same_rows
from repro.distributed import OptimizationOptions, SimulatedCluster, execute_query
from repro.errors import CatalogError
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import DistinctBase, GMDJExpression, MDStep
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, detail
from repro.relalg.relation import Relation
from repro.relalg.schema import FLOAT, INT, STR, Schema
from repro.warehouse.partition import ValueListPartitioner

FLOW = make_flows(count=200, seed=141)

AS_INFO = Relation(
    Schema.of(("SourceAS", INT), ("Tier", STR), ("Weight", FLOAT)),
    [(value, "big" if value % 3 == 0 else "small", float(value % 5 + 1)) for value in range(16)],
)


def build_cluster():
    cluster = SimulatedCluster.with_sites(4)
    cluster.load_partitioned(
        "Flow", FLOW, ValueListPartitioner.spread("SourceAS", range(16), 4)
    )
    cluster.load_replicated("ASInfo", AS_INFO)
    return cluster


class TestCatalogFlags:
    def test_register_replicated(self):
        cluster = build_cluster()
        assert cluster.catalog.is_replicated("ASInfo")
        assert not cluster.catalog.is_replicated("Flow")
        assert cluster.catalog.sites("ASInfo") == cluster.site_ids

    def test_replicated_rejects_distribution_facts(self):
        from repro.warehouse.catalog import DistributionCatalog

        catalog = DistributionCatalog()
        with pytest.raises(CatalogError):
            catalog.register(
                "T", ["s0"], partition_attrs=["a"], replicated=True
            )

    def test_conceptual_table_is_one_replica(self):
        cluster = build_cluster()
        assert same_rows(cluster.conceptual_table("ASInfo"), AS_INFO)


class TestReplicatedQueries:
    def replicated_query(self):
        step = MDStep(
            "ASInfo",
            [
                MDBlock(
                    [count_star("ases"), AggSpec("sum", detail.Weight, "weight")],
                    base.Tier == detail.Tier,
                )
            ],
        )
        return GMDJExpression(DistinctBase("ASInfo", ["Tier"]), [step])

    @pytest.mark.parametrize(
        "options",
        [OptimizationOptions.none(), OptimizationOptions.all()],
        ids=["none", "all"],
    )
    def test_single_site_answers(self, options):
        cluster = build_cluster()
        expression = self.replicated_query()
        reference = expression.evaluate_centralized(cluster.conceptual_tables())
        result = execute_query(cluster, expression, options)
        assert_relations_equal(reference, result.relation)
        for md_round in result.plan.rounds:
            assert len(md_round.sites) == 1

    def test_base_round_uses_one_replica(self):
        cluster = build_cluster()
        plan_result = execute_query(
            cluster, self.replicated_query(), OptimizationOptions.none()
        )
        assert len(plan_result.plan.base.sites) == 1

    def test_mixed_fact_and_dimension_chain(self):
        # Round 1 over the partitioned fact table, round 2 over the
        # replicated dimension table.
        flow_step = MDStep(
            "Flow",
            [
                MDBlock(
                    [count_star("flows")],
                    base.SourceAS == detail.SourceAS,
                )
            ],
        )
        info_step = MDStep(
            "ASInfo",
            [
                MDBlock(
                    [AggSpec("max", detail.Weight, "weight")],
                    (base.SourceAS == detail.SourceAS) & (base.flows > 0),
                )
            ],
        )
        expression = GMDJExpression(
            DistinctBase("Flow", ["SourceAS"]), [flow_step, info_step]
        )
        cluster = build_cluster()
        reference = expression.evaluate_centralized(cluster.conceptual_tables())
        for options in (OptimizationOptions.none(), OptimizationOptions.all()):
            cluster.reset_network()
            result = execute_query(cluster, expression, options)
            assert_relations_equal(reference, result.relation)
        assert len(result.plan.rounds[0].sites) == 4
        assert len(result.plan.rounds[1].sites) == 1

    def test_replication_cuts_traffic(self):
        cluster = build_cluster()
        expression = self.replicated_query()
        result = execute_query(cluster, expression, OptimizationOptions.none())
        # Hypothetical non-replicated handling would involve 4 sites; a
        # single-site plan ships a quarter of the round traffic. Sanity:
        # total tuples shipped is bounded by 3x the result size
        # (base up, fragment down, H up).
        assert result.stats.tuples_total <= 3 * len(result.relation)
