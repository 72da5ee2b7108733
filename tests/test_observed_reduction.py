"""Observed-distribution group reduction, end to end.

Theorem 4 with an observed φᵢ: when round k+1's conditions entail round
k's, each site is shipped only the groups it answered with in round k.
Pinned here on the benchmark's S5 shape (fine groups on non-partition
keys, so no ¬ψᵢ is derivable and the merged-base round 1 is what gets
observed): the exact tuple identity, Theorem 2, and the stated recovery
semantics — the set is read from the committed fold, an edge with a site
that did not answer the round before ships the whole fragment, and an
empty site still answers.
"""

import pytest

from conftest import assert_relations_equal
from repro.data.tpcr import TPCRConfig, generate_tpcr, nation_partitioner
from repro.distributed import (
    ExecutionConfig,
    MergeTree,
    OptimizationOptions,
    SimulatedCluster,
    execute_plan,
    plan_query,
)
from repro.distributed.stats import verify_against_network
from repro.net.faults import FaultPlan
from repro.queries.sql import parse_olap_query
from repro.relalg.relation import Relation

TPCR = generate_tpcr(TPCRConfig(scale=0.0005, seed=13))
S5 = (
    "SELECT PartKey, SuppKey, COUNT(*) AS cnt, AVG(Price) AS m FROM TPCR "
    "GROUP BY PartKey, SuppKey THEN SELECT COUNT(*) AS above WHERE Price >= m"
)
PLAIN = OptimizationOptions(aware_group_reduction=False)


def build(sites, faults=None, tpcr=TPCR):
    cluster = SimulatedCluster.with_sites(sites)
    cluster.load_partitioned("TPCR", tpcr, nation_partitioner(sites))
    if faults is not None:
        cluster.install_faults(FaultPlan.parse(faults))
    return cluster


def run(cluster, options=None, tree=None, **config):
    cluster.reset_network()  # fresh counters, the fault plan re-armed
    plan = plan_query(parse_olap_query(S5), cluster.catalog, options)
    result = execute_plan(
        cluster, plan, ExecutionConfig(retry_backoff_s=0.0, **config), tree=tree
    )
    assert verify_against_network(result.stats, cluster.network) == []
    return result


def edges(result, round_index):
    return result.stats.rounds[round_index].sites


class TestExactCounts:
    @pytest.mark.parametrize("sites", [2, 8])
    def test_each_site_is_shipped_what_it_answered_with(self, sites):
        cluster = build(sites)
        narrowed, plain = run(cluster), run(cluster, PLAIN)
        assert [r.observed_reduction for r in narrowed.plan.rounds] == [False, True]
        assert narrowed.relation.rows == plain.relation.rows
        assert_relations_equal(
            parse_olap_query(S5).evaluate_centralized(cluster.conceptual_tables()),
            narrowed.relation,
        )
        for site_id in cluster.site_ids:
            assert (
                edges(narrowed, 1)[site_id].tuples_down
                == edges(narrowed, 0)[site_id].tuples_up
            )
            assert edges(plain, 1)[site_id].tuples_down == len(plain.relation)
            # What comes back does not change: the fold sees the same rows.
            assert (
                edges(narrowed, 1)[site_id].tuples_up
                == edges(plain, 1)[site_id].tuples_up
            )
        assert narrowed.respects_theorem2() and plain.respects_theorem2()

    def test_eight_sites_ship_at_least_four_times_less_downstream(self):
        cluster = build(8)
        narrowed, plain = run(cluster), run(cluster, PLAIN)
        assert (
            4 * narrowed.stats.rounds[1].tuples_down
            <= plain.stats.rounds[1].tuples_down
        )
        assert 2 * narrowed.stats.rounds[1].bytes_down < plain.stats.rounds[1].bytes_down
        assert narrowed.stats.rounds[0].bytes_total == plain.stats.rounds[0].bytes_total

    def test_a_combiner_edge_takes_what_its_subtree_answered(self):
        cluster = build(8)
        tree = MergeTree.regions(cluster.site_ids, 4)
        narrowed = run(cluster, tree=tree)
        plain = run(cluster, PLAIN, tree=tree)
        assert narrowed.relation.rows == plain.relation.rows
        for region in tree.children:
            edge = edges(narrowed, 1)[region.name]
            # The union of what the sites below answered with is what the
            # combiner forwarded, one row per group ...
            assert edge.tuples_down == edges(narrowed, 0)[region.name].tuples_up
            # ... and below a combiner every child gets what it holds.
            for site_id in region.leaves():
                assert edges(narrowed, 1)[site_id].tuples_down == edge.tuples_down
        assert (
            2 * narrowed.stats.rounds[1].tuples_down
            <= plain.stats.rounds[1].tuples_down
        )

    def test_row_blocking_changes_nothing(self):
        cluster = build(4)
        reference = run(cluster)
        for row_block_size in (7, 5):
            result = run(cluster, row_block_size=row_block_size)
            assert result.relation.rows == reference.relation.rows
            for site_id in cluster.site_ids:
                assert (
                    edges(result, 1)[site_id].tuples_down
                    == edges(reference, 1)[site_id].tuples_down
                )

    def test_an_empty_site_gets_an_empty_fragment_and_still_answers(self):
        # Two of the 25 nations: sites 2.. of 4 hold no rows at all.
        position = TPCR.schema.position("NationKey")
        few = Relation(TPCR.schema, [row for row in TPCR.rows if row[position] < 2])
        cluster = build(4, tpcr=few)
        narrowed, plain = run(cluster), run(cluster, PLAIN)
        assert len(cluster.sites["site3"].warehouse.table("TPCR")) == 0
        assert narrowed.relation.rows == plain.relation.rows
        empty = edges(narrowed, 1)["site3"]
        assert empty.tuples_down == 0 and empty.tuples_up == 0
        assert empty.bytes_down > 0 and empty.bytes_up > 0  # frames still cross
        assert edges(plain, 1)["site3"].tuples_down == len(plain.relation)


class TestRecovery:
    """Change 5 of the issue: recovery semantics, stated."""

    @pytest.mark.parametrize(
        "faults",
        [
            "drop site=site1 round=1 dir=up times=1",
            "crash site=site2 round=1 times=2",
            "drop site=site1 round=2 dir=down times=1; crash site=site0 round=2 times=1",
            "corrupt site=site3 round=1 dir=up times=1; drop site=site3 round=2 dir=up times=1",
        ],
    )
    def test_retry_gives_the_fault_free_answer_and_fragments(self, faults):
        clean = run(build(4))
        retried = run(build(4, faults), failure_mode="retry", max_retries=4)
        assert retried.stats.retries > 0
        assert retried.relation.rows == clean.relation.rows
        for site_id in ("site0", "site1", "site2", "site3"):
            # Every attempt that got as far as shipping is charged the
            # same fragment, the fault-free one, again.
            shipped, fragment = (
                edges(result, 1)[site_id].tuples_down for result in (retried, clean)
            )
            attempts = 1 + edges(retried, 1)[site_id].retries
            assert shipped in [fragment * count for count in range(1, attempts + 1)]

    def test_a_retried_streaming_round_is_observed_from_the_committed_fold(self):
        # Three rounds without Proposition 2: the round that is observed
        # (round 1, ordinary) streams into the session and is retried.
        options = OptimizationOptions(sync_reduction=False)
        clean = run(build(4), options)
        assert [r.observed_reduction for r in clean.plan.rounds] == [False, True]
        retried = run(
            build(4, "drop site=site1 round=1 dir=up times=1"), options,
            failure_mode="retry", row_block_size=5,
        )
        assert retried.stats.retries == 1
        assert retried.relation.rows == run(build(4), options, row_block_size=5).relation.rows
        for site_id in ("site0", "site1", "site2", "site3"):
            assert (
                edges(retried, 2)[site_id].tuples_down
                == edges(clean, 2)[site_id].tuples_down
                == edges(clean, 1)[site_id].tuples_up
            )

    def test_a_site_excluded_from_round_one_gets_the_whole_fragment(self):
        faults = "crash site=site1 round=1 times=2"
        degraded = run(build(4, faults), failure_mode="degrade", max_retries=1)
        unnarrowed = run(
            build(4, faults), PLAIN, failure_mode="degrade", max_retries=1
        )
        assert degraded.stats.excluded_sites == ((0, "site1"),)  # stats index rounds from 0
        assert degraded.relation.rows == unnarrowed.relation.rows
        # site1 did not answer round 1: nothing was observed of it.
        assert edges(degraded, 1)["site1"].tuples_down == len(degraded.relation)
        for site_id in ("site0", "site2", "site3"):
            assert (
                edges(degraded, 1)[site_id].tuples_down
                == edges(degraded, 0)[site_id].tuples_up
            )

    def test_an_exclusion_beneath_a_combiner_unnarrows_its_edge(self):
        faults = "crash site=site1 round=1 times=2"
        cluster = build(4, faults)
        tree = MergeTree.regions(cluster.site_ids, 2)  # r0: site0,site2  r1: site1,site3
        degraded = run(cluster, tree=tree, failure_mode="degrade", max_retries=1)
        unnarrowed = run(
            build(4, faults), PLAIN, tree=tree, failure_mode="degrade", max_retries=1
        )
        assert degraded.relation.rows == unnarrowed.relation.rows
        with_site1, without = (
            region.name
            for region in sorted(tree.children, key=lambda r: "site1" not in r.leaves())
        )
        assert edges(degraded, 1)[with_site1].tuples_down == len(degraded.relation)
        assert (
            edges(degraded, 1)[without].tuples_down
            == edges(degraded, 0)[without].tuples_up
        )

    def test_a_site_excluded_from_round_two_changes_nothing_before_it(self):
        faults = "crash site=site2 round=2 times=2"
        degraded = run(build(4, faults), failure_mode="degrade", max_retries=1)
        unnarrowed = run(
            build(4, faults), PLAIN, failure_mode="degrade", max_retries=1
        )
        assert degraded.stats.excluded_sites == ((1, "site2"),)
        assert degraded.relation.rows == unnarrowed.relation.rows
