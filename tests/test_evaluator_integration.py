"""Integration tests: Alg. GMDJDistribEval against centralized evaluation.

The core correctness claim of the paper (Theorem 3) is that the
distributed algorithm computes the same result as centralized GMDJ
evaluation, for every combination of optimizations, under any
partitioning. These tests sweep that matrix.
"""

import itertools

import pytest

from conftest import assert_relations_equal, make_flows
from repro.distributed import (
    OptimizationOptions,
    SimulatedCluster,
    execute_plan,
    execute_query,
    plan_query,
)
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import DistinctBase, GMDJExpression, LiteralBase, MDStep
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, detail
from repro.relalg.relation import Relation
from repro.relalg.schema import INT, Schema
from repro.warehouse.partition import (
    HashPartitioner,
    RoundRobinPartitioner,
    ValueListPartitioner,
)

FLOW = make_flows(count=300, seed=33)
KEY2 = (base.SourceAS == detail.SourceAS) & (base.DestAS == detail.DestAS)
KEY1 = base.SourceAS == detail.SourceAS


def correlated_expression():
    inner = MDStep(
        "Flow",
        [MDBlock([count_star("cnt"), AggSpec("sum", detail.NumBytes, "s")], KEY2)],
    )
    outer = MDStep(
        "Flow",
        [MDBlock([count_star("big")], KEY2 & (detail.NumBytes >= base.s / base.cnt))],
    )
    return GMDJExpression(DistinctBase("Flow", ["SourceAS", "DestAS"]), [inner, outer])


def single_step_expression():
    step = MDStep(
        "Flow",
        [
            MDBlock(
                [
                    count_star("cnt"),
                    AggSpec("avg", detail.NumBytes, "m"),
                    AggSpec("min", detail.NumBytes, "lo"),
                    AggSpec("max", detail.NumBytes, "hi"),
                    AggSpec("var", detail.NumBytes, "v"),
                ],
                KEY1,
            )
        ],
    )
    return GMDJExpression(DistinctBase("Flow", ["SourceAS"]), [step])


def three_step_expression():
    first = MDStep("Flow", [MDBlock([count_star("c1")], KEY1)])
    second = MDStep(
        "Flow", [MDBlock([AggSpec("avg", detail.NumBytes, "m2")], KEY1 & (detail.DestAS < 4))]
    )
    third = MDStep(
        "Flow",
        [MDBlock([count_star("c3")], KEY1 & (detail.NumBytes >= base.m2))],
    )
    return GMDJExpression(DistinctBase("Flow", ["SourceAS"]), [first, second, third])


PARTITIONERS = {
    "value_list": lambda n: ValueListPartitioner.spread("SourceAS", range(16), n),
    "hash": lambda n: HashPartitioner(["SourceAS"], n),
    "round_robin": lambda n: RoundRobinPartitioner(n),
}

EXPRESSIONS = {
    "single": single_step_expression,
    "correlated": correlated_expression,
    "three_step": three_step_expression,
}

OPTION_SETS = {
    "none": OptimizationOptions.none(),
    "all": OptimizationOptions.all(),
    "coalesce_only": OptimizationOptions(
        coalescing=True,
        sync_reduction=False,
        aware_group_reduction=False,
        independent_group_reduction=False,
        site_pruning=False,
    ),
    "sync_only": OptimizationOptions(
        coalescing=False,
        sync_reduction=True,
        aware_group_reduction=False,
        independent_group_reduction=False,
        site_pruning=False,
    ),
    "reductions_only": OptimizationOptions(
        coalescing=False,
        sync_reduction=False,
        aware_group_reduction=True,
        independent_group_reduction=True,
        site_pruning=False,
    ),
}


def build_cluster(partitioner_name: str, sites: int) -> SimulatedCluster:
    cluster = SimulatedCluster.with_sites(sites)
    cluster.load_partitioned("Flow", FLOW, PARTITIONERS[partitioner_name](sites))
    return cluster


@pytest.mark.parametrize("partitioner_name", sorted(PARTITIONERS))
@pytest.mark.parametrize("expression_name", sorted(EXPRESSIONS))
@pytest.mark.parametrize("options_name", sorted(OPTION_SETS))
def test_distributed_matches_centralized(partitioner_name, expression_name, options_name):
    cluster = build_cluster(partitioner_name, 4)
    expression = EXPRESSIONS[expression_name]()
    reference = expression.evaluate_centralized(cluster.conceptual_tables())
    result = execute_query(cluster, expression, OPTION_SETS[options_name])
    assert_relations_equal(reference, result.relation)
    assert result.respects_theorem2()


@pytest.mark.parametrize("sites", [1, 2, 5])
def test_site_count_sweep(sites):
    cluster = build_cluster("value_list", sites)
    expression = correlated_expression()
    reference = expression.evaluate_centralized(cluster.conceptual_tables())
    for options in (OptimizationOptions.none(), OptimizationOptions.all()):
        result = execute_query(cluster, expression, options)
        assert_relations_equal(reference, result.relation)


class TestPlanShapes:
    def test_sync_reduction_single_round(self):
        cluster = build_cluster("value_list", 4)
        result = execute_query(
            cluster, correlated_expression(), OPTION_SETS["sync_only"]
        )
        assert result.plan.synchronization_count == 1
        assert result.stats.round_count == 1

    def test_no_opts_rounds_equal_steps_plus_base(self):
        cluster = build_cluster("value_list", 4)
        result = execute_query(
            cluster, correlated_expression(), OptimizationOptions.none()
        )
        assert result.stats.round_count == 3  # base + 2 MD rounds
        assert result.plan.synchronization_count == 3

    def test_hash_partitioning_still_chains(self):
        # Corollary 1 needs only the partition-attribute property, which
        # hash partitioning provides even without phi predicates.
        cluster = build_cluster("hash", 4)
        result = execute_query(
            cluster, correlated_expression(), OPTION_SETS["sync_only"]
        )
        assert result.stats.round_count == 1

    def test_round_robin_cannot_chain(self):
        cluster = build_cluster("round_robin", 4)
        result = execute_query(
            cluster, correlated_expression(), OPTION_SETS["sync_only"]
        )
        # Proposition 2 still merges the base; Corollary 1 cannot chain.
        assert result.stats.round_count == 2

    def test_reductions_cut_traffic(self):
        cluster = build_cluster("value_list", 4)
        expression = correlated_expression()
        plain = execute_query(cluster, expression, OptimizationOptions.none())
        cluster.reset_network()
        reduced = execute_query(cluster, expression, OPTION_SETS["reductions_only"])
        assert reduced.stats.bytes_total < plain.stats.bytes_total

    def test_aware_reduction_cuts_down_leg(self):
        cluster = build_cluster("value_list", 4)
        expression = single_step_expression()
        plain = execute_query(cluster, expression, OptimizationOptions.none())
        cluster.reset_network()
        aware_only = OptimizationOptions(
            coalescing=False,
            sync_reduction=False,
            aware_group_reduction=True,
            independent_group_reduction=False,
            site_pruning=False,
        )
        aware = execute_query(cluster, expression, aware_only)
        assert aware.stats.bytes_down < plain.stats.bytes_down
        assert_relations_equal(aware.relation, plain.relation)


class TestLiteralBase:
    def test_literal_base_with_foreign_groups(self):
        cluster = build_cluster("value_list", 4)
        literal = Relation(
            Schema.of(("SourceAS", INT),), [(0,), (1,), (2,), (999,)]
        )
        step = MDStep(
            "Flow", [MDBlock([count_star("cnt"), AggSpec("avg", detail.NumBytes, "m")], KEY1)]
        )
        expression = GMDJExpression(LiteralBase(literal, ["SourceAS"]), [step])
        reference = expression.evaluate_centralized(cluster.conceptual_tables())
        for options_name, options in OPTION_SETS.items():
            cluster.reset_network()
            result = execute_query(cluster, expression, options)
            assert_relations_equal(reference, result.relation), options_name
        by_key = {row[0]: row for row in result.relation.rows}
        assert by_key[999][1] == 0
        assert by_key[999][2] is None


class TestChannelsConsistency:
    def test_stats_match_network_counters(self):
        cluster = build_cluster("value_list", 4)
        result = execute_query(
            cluster, correlated_expression(), OptimizationOptions.none()
        )
        down, up = cluster.network.bytes_by_direction()
        assert result.stats.bytes_down + result.stats.round_count * 0 <= down
        # Channel totals include the header-only BASE_QUERY requests that
        # stats attribute to bytes_down as well; they must agree exactly.
        assert result.stats.bytes_down == down
        assert result.stats.bytes_up == up


class TestPlanReuse:
    def test_execute_plan_directly(self):
        cluster = build_cluster("value_list", 4)
        expression = correlated_expression()
        plan = plan_query(expression, cluster.catalog, OptimizationOptions.all())
        first = execute_plan(cluster, plan)
        cluster.reset_network()
        second = execute_plan(cluster, plan)
        assert_relations_equal(first.relation, second.relation)


class TestChainShipFilter:
    """A Theorem 4 ship filter over a sync-reduced chain is cut against X
    as it is *before* the round: it cannot read what the chain generates."""

    def expression(self, base_attrs):
        steps = [
            MDStep(
                "Flow",
                [MDBlock([count_star("cnt"), AggSpec("avg", detail.NumBytes, "m")], KEY1)],
            ),
            MDStep(
                "Flow",
                [MDBlock([count_star("c0")], KEY1 & (detail.NumBytes >= base.m))],
            ),
            MDStep(
                "Flow",
                [
                    MDBlock(
                        [AggSpec("max", detail.NumBytes, "mx")],
                        KEY1 & (detail.NumBytes >= base.m) & (base.c0 > 1),
                    )
                ],
            ),
        ]
        return GMDJExpression(DistinctBase("Flow", base_attrs), steps)

    @pytest.mark.parametrize("base_attrs", [["SourceAS", "DestAS"], ["SourceAS"]])
    def test_base_only_conjunct_over_a_chain_output(self, base_attrs):
        cluster = SimulatedCluster.with_sites(2)
        cluster.load_partitioned(
            "Flow", FLOW, ValueListPartitioner.spread("SourceAS", range(16), 2)
        )
        expression = self.expression(base_attrs)
        plan = plan_query(expression, cluster.catalog, OptimizationOptions.all())
        (chain,) = plan.rounds
        assert chain.is_chain and len(chain.steps) == 3
        # With the wider base Proposition 2 does not apply (θ does not entail
        # DestAS equality): the chain round ships a filtered fragment.
        assert chain.merged_base == (base_attrs == ["SourceAS"])
        assert all(chain.ship_filter(site) is not None for site in chain.sites)
        result = execute_plan(cluster, plan)
        assert_relations_equal(
            expression.evaluate_centralized(cluster.conceptual_tables()),
            result.relation,
        )
        assert result.respects_theorem2()
