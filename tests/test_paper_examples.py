"""The paper's worked examples (Sections 2 and 4), executable.

Each test transcribes one numbered example from the paper and checks the
behaviour the text claims — these double as documentation tying the
implementation back to the prose.
"""

import pytest

from conftest import assert_relations_equal
from oracle.interp import evaluate as interpret
from repro.data.flows import FlowConfig, generate_flows, router_partitioner
from repro.distributed import (
    OptimizationOptions,
    SimulatedCluster,
    execute_query,
    plan_query,
)
from repro.gmdj.analysis import derive_ship_filter
from repro.queries.olap import QueryBuilder
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import BASE_VAR, base, detail


def example1_expression():
    """Example 1: per (SourceAS, DestAS), total flows and flows whose
    NumBytes exceeds the pair's average — the two-GMDJ chain of Sec 2.2."""
    return (
        QueryBuilder("Flow", keys=["SourceAS", "DestAS"])
        .stage([count_star("cnt1"), AggSpec("sum", detail.NumBytes, "sum1")])
        .stage(
            [count_star("cnt2")],
            extra=detail.NumBytes >= base.sum1 / base.cnt1,
        )
        .build()
    )


def build_cluster(pinned=True):
    config = FlowConfig(
        flow_count=1500, router_count=4, seed=61, as_pinned_to_router=pinned
    )
    cluster = SimulatedCluster.with_sites(4)
    cluster.load_partitioned("Flow", generate_flows(config), router_partitioner(config))
    if pinned:
        # Examples 2/5: every SourceAS passes through one router.
        cluster.catalog.add_functional_dependency("SourceAS", "RouterId")
    return cluster


class TestExample1:
    """Section 2.2: the correlated aggregate query itself."""

    def test_cnt2_counts_above_average_flows(self):
        cluster = build_cluster()
        result = execute_query(
            cluster, example1_expression(), OptimizationOptions.none()
        )
        table = result.relation
        cnt1 = table.schema.position("cnt1")
        sum1 = table.schema.position("sum1")
        cnt2 = table.schema.position("cnt2")
        conceptual = cluster.conceptual_table("Flow")
        src = conceptual.schema.position("SourceAS")
        dst = conceptual.schema.position("DestAS")
        volume = conceptual.schema.position("NumBytes")
        for row in table.rows[:20]:
            group_rows = [
                r for r in conceptual.rows if r[src] == row[0] and r[dst] == row[1]
            ]
            average = sum(r[volume] for r in group_rows) / len(group_rows)
            expected = sum(1 for r in group_rows if r[volume] >= average)
            assert row[cnt1] == len(group_rows)
            assert row[cnt2] == expected
            assert row[sum1] == pytest.approx(sum(r[volume] for r in group_rows))


class TestExample2:
    """Section 4.1: phi = SourceAS in [1, 25] makes the ship filter
    b.SourceAS in [1, 25]."""

    def test_derived_filter(self):
        phi = detail.SourceAS.between(1, 25)
        theta = (base.SourceAS == detail.SourceAS) & (base.DestAS == detail.DestAS)
        ship_filter = derive_ship_filter([theta], phi)
        assert ship_filter is not None
        admit = lambda **row: bool(interpret(ship_filter, {BASE_VAR: row}))
        assert admit(SourceAS=1, DestAS=9)
        assert admit(SourceAS=25, DestAS=9)
        assert not admit(SourceAS=26, DestAS=9)
        assert not admit(SourceAS=0, DestAS=9)

    def test_revised_arithmetic_condition(self):
        # "assume the condition is revised to be
        #  B.DestAS + B.SourceAS < Flow.SourceAS*2. Then ~psi_i(b)
        #  becomes B.DestAS + B.SourceAS < 50."
        phi = detail.SourceAS.between(1, 25)
        theta = base.DestAS + base.SourceAS < detail.SourceAS * 2
        ship_filter = derive_ship_filter([theta], phi)
        admit = lambda **row: bool(interpret(ship_filter, {BASE_VAR: row}))
        assert admit(DestAS=24, SourceAS=25)
        assert not admit(DestAS=26, SourceAS=24)


class TestExample4:
    """Section 4.3: Proposition 2 merges the base synchronization,
    cutting the example's synchronizations from three to two."""

    def test_sync_count_drops_three_to_two(self):
        cluster = build_cluster(pinned=False)  # no partition attribute
        naive = plan_query(
            example1_expression(), cluster.catalog, OptimizationOptions.none()
        )
        assert naive.synchronization_count == 3
        merged = plan_query(
            example1_expression(),
            cluster.catalog,
            OptimizationOptions(False, True, False, False, False),
        )
        # Without a partition attribute only Proposition 2 fires: 3 -> 2.
        assert merged.synchronization_count == 2
        assert merged.base.merged_into_chain


class TestExample5:
    """Section 4.3: with SourceAS a partition attribute and (SourceAS,
    DestAS) the key, the whole query evaluates locally with a single
    synchronization at the coordinator."""

    def test_single_synchronization_plan(self):
        cluster = build_cluster(pinned=True)
        plan = plan_query(
            example1_expression(),
            cluster.catalog,
            OptimizationOptions(False, True, False, False, False),
        )
        assert plan.synchronization_count == 1
        assert len(plan.rounds) == 1
        assert plan.rounds[0].is_chain
        assert plan.base.merged_into_chain

    def test_result_identical_to_naive_plan(self):
        cluster = build_cluster(pinned=True)
        naive = execute_query(
            cluster, example1_expression(), OptimizationOptions.none()
        )
        cluster.reset_network()
        optimized = execute_query(
            cluster,
            example1_expression(),
            OptimizationOptions(False, True, False, False, False),
        )
        assert_relations_equal(naive.relation, optimized.relation)
        assert optimized.stats.bytes_total < naive.stats.bytes_total


class TestExample3:
    """Section 4.2: independent group reduction cuts each site's returned
    groups to the 1/k fraction it actually updates."""

    def test_up_traffic_reduction_fraction(self):
        cluster = build_cluster(pinned=True)
        expression = example1_expression()
        plain = execute_query(cluster, expression, OptimizationOptions.none())
        cluster.reset_network()
        reduced = execute_query(
            cluster,
            expression,
            OptimizationOptions(False, False, False, True, False),
        )
        assert_relations_equal(plain.relation, reduced.relation)
        # With SourceAS pinned, each of the 4 sites updates ~1/4 of the
        # groups: the MD-round up-leg drops to about n/k = 1/4.
        plain_up = plain.stats.tuples_up_md()
        reduced_up = reduced.stats.tuples_up_md()
        assert reduced_up < 0.5 * plain_up
