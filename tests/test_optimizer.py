"""Unit tests for Egil, the distributed-plan optimizer."""

import pytest

from repro.errors import HolisticAggregateError, PlanError
from repro.distributed.optimizer import OptimizationOptions, plan_query
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import DistinctBase, GMDJExpression, LiteralBase, MDStep
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, detail
from repro.relalg.relation import Relation
from repro.relalg.schema import INT, Schema
from repro.warehouse.catalog import DistributionCatalog

KEY = (base.nation == detail.nation) & (base.cust == detail.cust)
SITES = ("s0", "s1", "s2")


def make_catalog(partition_attrs=("nation",), with_phi=True):
    catalog = DistributionCatalog()
    phi_by_site = None
    if with_phi:
        phi_by_site = {
            site: detail.nation.is_in([index, index + 10])
            for index, site in enumerate(SITES)
        }
    catalog.register("T", SITES, phi_by_site, partition_attrs)
    return catalog


def correlated_expression():
    inner = MDStep(
        "T",
        [MDBlock([count_star("cnt"), AggSpec("avg", detail.v, "m")], KEY)],
    )
    outer = MDStep("T", [MDBlock([count_star("big")], KEY & (detail.v >= base.m))])
    return GMDJExpression(DistinctBase("T", ["nation", "cust"]), [inner, outer])


def independent_expression():
    first = MDStep("T", [MDBlock([count_star("c1")], KEY)])
    second = MDStep("T", [MDBlock([count_star("c2")], KEY & (detail.v > 0))])
    return GMDJExpression(DistinctBase("T", ["nation", "cust"]), [first, second])


class TestBaseline:
    def test_no_optimizations_plan(self):
        plan = plan_query(
            correlated_expression(), make_catalog(), OptimizationOptions.none()
        )
        assert len(plan.rounds) == 2
        assert plan.synchronization_count == 3
        assert not plan.base.merged_into_chain
        for md_round in plan.rounds:
            assert not md_round.independent_reduction
            assert not md_round.ship_filters
            assert md_round.sites == SITES

    def test_holistic_rejected(self):
        step = MDStep(
            "T", [MDBlock([AggSpec("median", detail.v, "m")], KEY)]
        )
        expression = GMDJExpression(DistinctBase("T", ["nation", "cust"]), [step])
        with pytest.raises(HolisticAggregateError):
            plan_query(expression, make_catalog(), OptimizationOptions.none())

    def test_unregistered_table_rejected(self):
        with pytest.raises(PlanError):
            plan_query(
                correlated_expression(), DistributionCatalog(), OptimizationOptions.none()
            )


class TestCoalescing:
    def test_independent_steps_merge(self):
        options = OptimizationOptions(
            coalescing=True,
            sync_reduction=False,
            aware_group_reduction=False,
            independent_group_reduction=False,
            site_pruning=False,
        )
        plan = plan_query(independent_expression(), make_catalog(), options)
        assert len(plan.rounds) == 1
        assert len(plan.rounds[0].steps) == 1  # truly merged, not chained
        assert any("coalescing" in note for note in plan.notes)

    def test_correlated_steps_do_not_merge(self):
        options = OptimizationOptions(
            coalescing=True,
            sync_reduction=False,
            aware_group_reduction=False,
            independent_group_reduction=False,
            site_pruning=False,
        )
        plan = plan_query(correlated_expression(), make_catalog(), options)
        assert len(plan.rounds) == 2


class TestSyncReduction:
    OPTIONS = OptimizationOptions(
        coalescing=False,
        sync_reduction=True,
        aware_group_reduction=False,
        independent_group_reduction=False,
        site_pruning=False,
    )

    def test_chain_with_partition_attribute(self):
        plan = plan_query(correlated_expression(), make_catalog(), self.OPTIONS)
        assert len(plan.rounds) == 1
        assert plan.rounds[0].is_chain
        assert plan.base.merged_into_chain
        assert plan.rounds[0].merged_base
        assert plan.synchronization_count == 1

    def test_no_chain_without_partition_attribute(self):
        plan = plan_query(
            correlated_expression(), make_catalog(partition_attrs=()), self.OPTIONS
        )
        assert len(plan.rounds) == 2
        # Proposition 2 still merges the base (theta entails key equality).
        assert plan.base.merged_into_chain
        assert plan.synchronization_count == 2

    def test_no_merge_without_key_entailment(self):
        # Group on cust only; conditions equate nation+cust, entailing the
        # key, so instead build a query whose condition misses the key.
        step = MDStep("T", [MDBlock([count_star("c")], base.nation == detail.nation)])
        expression = GMDJExpression(DistinctBase("T", ["nation", "cust"]), [step])
        plan = plan_query(expression, make_catalog(), self.OPTIONS)
        assert not plan.base.merged_into_chain

    def test_literal_base_never_merges(self):
        literal = Relation(
            Schema.of(("nation", INT), ("cust", INT)), [(0, 0), (1, 1)]
        )
        step = MDStep("T", [MDBlock([count_star("c")], KEY)])
        expression = GMDJExpression(LiteralBase(literal, ["nation", "cust"]), [step])
        plan = plan_query(expression, make_catalog(), self.OPTIONS)
        assert not plan.base.merged_into_chain
        assert not plan.base.is_distributed

    def test_partition_attribute_via_fd(self):
        catalog = make_catalog(partition_attrs=("nation",))
        catalog.add_functional_dependency("cust", "nation")
        # Condition equating only cust: chains because cust -> nation.
        condition = base.cust == detail.cust
        steps = [
            MDStep("T", [MDBlock([count_star("c1")], condition)]),
            MDStep(
                "T", [MDBlock([count_star("c2")], condition & (detail.v > base.c1))]
            ),
        ]
        expression = GMDJExpression(DistinctBase("T", ["cust"]), steps)
        plan = plan_query(expression, catalog, self.OPTIONS)
        assert len(plan.rounds) == 1
        assert plan.rounds[0].is_chain


class TestGroupReductions:
    def test_independent_reduction_flag(self):
        options = OptimizationOptions(
            coalescing=False,
            sync_reduction=False,
            aware_group_reduction=False,
            independent_group_reduction=True,
            site_pruning=False,
        )
        plan = plan_query(correlated_expression(), make_catalog(), options)
        assert all(md_round.independent_reduction for md_round in plan.rounds)

    def test_aware_filters_derived_from_phi(self):
        options = OptimizationOptions(
            coalescing=False,
            sync_reduction=False,
            aware_group_reduction=True,
            independent_group_reduction=False,
            site_pruning=False,
        )
        plan = plan_query(correlated_expression(), make_catalog(), options)
        first_round = plan.rounds[0]
        for site in SITES:
            assert first_round.ship_filter(site) is not None
        assert any("aware group reduction" in note for note in plan.notes)

    def test_aware_filters_absent_without_phi(self):
        options = OptimizationOptions(
            coalescing=False,
            sync_reduction=False,
            aware_group_reduction=True,
            independent_group_reduction=False,
            site_pruning=False,
        )
        plan = plan_query(
            correlated_expression(), make_catalog(with_phi=False), options
        )
        assert all(not md_round.ship_filters for md_round in plan.rounds)


class TestSitePruning:
    def test_impossible_sites_dropped(self):
        options = OptimizationOptions(
            coalescing=False,
            sync_reduction=False,
            aware_group_reduction=False,
            independent_group_reduction=False,
            site_pruning=True,
        )
        step = MDStep(
            "T",
            [MDBlock([count_star("c")], KEY & (detail.nation > 9))],
        )
        expression = GMDJExpression(DistinctBase("T", ["nation", "cust"]), [step])
        plan = plan_query(expression, make_catalog(), options)
        # phi sets are {0,10}, {1,11}, {2,12}: all contain a value > 9,
        # so none can be pruned by nation > 9...
        assert plan.rounds[0].sites == SITES

        step = MDStep(
            "T",
            [MDBlock([count_star("c")], KEY & (detail.nation > 10))],
        )
        expression = GMDJExpression(DistinctBase("T", ["nation", "cust"]), [step])
        plan = plan_query(expression, make_catalog(), options)
        # site s0 holds nations {0, 10}: cannot satisfy nation > 10.
        assert plan.rounds[0].sites == ("s1", "s2")

    def test_a_pruned_round_does_not_derive_the_base(self):
        """Proposition 2 lets round 1's sites derive B0, but s0's groups
        belong to the base too: with s0 pruned the base keeps its round."""
        step = MDStep("T", [MDBlock([count_star("c")], KEY & (detail.nation > 10))])
        expression = GMDJExpression(DistinctBase("T", ["nation", "cust"]), [step])
        plan = plan_query(expression, make_catalog(), OptimizationOptions.all())
        assert plan.rounds[0].sites == ("s1", "s2")
        assert plan.base.sites == SITES
        assert not plan.base.merged_into_chain
        assert not plan.rounds[0].merged_base

        step = MDStep("T", [MDBlock([count_star("c")], KEY & (detail.nation > 9))])
        expression = GMDJExpression(DistinctBase("T", ["nation", "cust"]), [step])
        plan = plan_query(expression, make_catalog(), OptimizationOptions.all())
        assert plan.base.merged_into_chain


class TestObservedReduction:
    """Theorem 4 from the observed distribution: proved or not applied."""

    # Non-partition keys (no chain) and no declared φᵢ: S5's shape.
    CATALOG = dict(partition_attrs=(), with_phi=False)

    def plan(self, expression, options=None, **catalog):
        return plan_query(
            expression,
            make_catalog(**(catalog or self.CATALOG)),
            options or OptimizationOptions.all(),
        )

    def test_correlated_second_round_is_marked_and_noted(self):
        plan = self.plan(correlated_expression())
        assert [md_round.observed_reduction for md_round in plan.rounds] == [False, True]
        assert any("observed distribution" in note for note in plan.notes)
        assert not any("aware group reduction skipped" in note for note in plan.notes)
        applied = dict(plan.applied_optimizations())
        assert "observed distribution: round 2" in applied["aware_group_reduction"]
        assert "observed-distribution group reduction" in plan.describe()

    def test_the_toggle_is_aware_group_reduction(self):
        options = OptimizationOptions(aware_group_reduction=False)
        plan = self.plan(correlated_expression(), options)
        assert not any(md_round.observed_reduction for md_round in plan.rounds)
        assert "aware_group_reduction" not in dict(plan.applied_optimizations())

    def test_first_round_after_a_base_round_is_never_marked(self):
        options = OptimizationOptions(sync_reduction=False, coalescing=False)
        plan = self.plan(correlated_expression(), options)
        assert not plan.base.merged_into_chain
        assert [md_round.observed_reduction for md_round in plan.rounds] == [False, True]

    def test_different_detail_table_is_not_marked(self):
        catalog = make_catalog(**self.CATALOG)
        catalog.register("U", SITES, None, ())
        inner = MDStep("T", [MDBlock([count_star("cnt")], KEY)])
        outer = MDStep("U", [MDBlock([count_star("big")], KEY & (detail.v >= base.cnt))])
        expression = GMDJExpression(DistinctBase("T", ["nation", "cust"]), [inner, outer])
        plan = plan_query(expression, catalog, OptimizationOptions.all())
        assert len(plan.rounds) == 2
        assert not any(md_round.observed_reduction for md_round in plan.rounds)
        assert any("aware group reduction skipped" in note for note in plan.notes)

    def test_condition_that_drops_a_key_conjunct_is_not_marked(self):
        inner = MDStep("T", [MDBlock([AggSpec("avg", detail.v, "m")], KEY)])
        outer = MDStep(
            "T",
            [MDBlock([count_star("big")], (base.nation == detail.nation) & (detail.v >= base.m))],
        )
        expression = GMDJExpression(DistinctBase("T", ["nation", "cust"]), [inner, outer])
        plan = self.plan(expression)
        assert len(plan.rounds) == 2
        assert not any(md_round.observed_reduction for md_round in plan.rounds)
        assert "aware_group_reduction" not in dict(plan.applied_optimizations())

    def test_one_unentailing_block_defeats_the_round(self):
        inner = MDStep("T", [MDBlock([AggSpec("avg", detail.v, "m")], KEY)])
        outer = MDStep(
            "T",
            [
                MDBlock([count_star("big")], KEY & (detail.v >= base.m)),
                MDBlock([count_star("far")], detail.v >= base.m),
            ],
        )
        expression = GMDJExpression(DistinctBase("T", ["nation", "cust"]), [inner, outer])
        assert not any(md_round.observed_reduction for md_round in self.plan(expression).rounds)

    def test_three_stages_narrow_twice(self):
        steps = [
            MDStep("T", [MDBlock([AggSpec("avg", detail.v, "m")], KEY)]),
            MDStep("T", [MDBlock([count_star("c0")], KEY & (detail.v >= base.m))]),
            MDStep(
                "T",
                [MDBlock([count_star("c1")], (detail.v >= base.m) & KEY & (base.c0 > 1))],
            ),
        ]
        expression = GMDJExpression(DistinctBase("T", ["nation", "cust"]), steps)
        plan = self.plan(expression)
        assert [md_round.observed_reduction for md_round in plan.rounds] == [False, True, True]

    def test_declared_and_observed_compose(self):
        # Partitioned on a non-key attribute of the conditions: no chain, but
        # ship filters exist — and round 2 still narrows on top of them.
        plan = self.plan(
            correlated_expression(),
            OptimizationOptions(sync_reduction=False),
            partition_attrs=(),
            with_phi=True,
        )
        second = plan.rounds[1]
        assert second.observed_reduction
        assert all(second.ship_filter(site) is not None for site in SITES)
        described = dict(plan.applied_optimizations())["aware_group_reduction"]
        assert "ship filters" in described and "observed distribution" in described

    def test_chain_ship_filter_leaves_out_what_the_chain_generates(self):
        key = base.nation == detail.nation
        steps = [
            MDStep("T", [MDBlock([AggSpec("avg", detail.v, "m")], key)]),
            MDStep("T", [MDBlock([count_star("c0")], key & (detail.v >= base.m))]),
            MDStep(
                "T",
                [MDBlock([count_star("c1")], key & (detail.v >= base.m) & (base.c0 > 1))],
            ),
        ]
        expression = GMDJExpression(DistinctBase("T", ["nation", "cust"]), steps)
        plan = plan_query(expression, make_catalog(), OptimizationOptions.all())
        (chain,) = plan.rounds
        assert chain.is_chain and not chain.merged_base
        for site in SITES:
            names = {field.name for field in chain.ship_filter(site).fields()}
            assert names == {"nation"}
