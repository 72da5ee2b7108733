"""Cost-driven merge-topology scheduling (scheduler + costing)."""

import pytest

from conftest import assert_relations_equal, make_flows, same_rows
from repro.distributed import (
    OptimizationOptions,
    SimulatedCluster,
    StatisticsStore,
    choose_topology,
    estimate_topology_costs,
    execute_plan,
    execute_plan_scheduled,
    execute_query_scheduled,
    plan_query,
)
from repro.distributed.evaluator import ExecutionConfig
from repro.errors import PlanError
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import DistinctBase, GMDJExpression, MDStep
from repro.net.costmodel import LAN, WAN, CostModel
from repro.net.faults import FaultPlan
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, detail
from repro.warehouse.partition import ValueListPartitioner

FLOW = make_flows(count=360, seed=91, routers=8)
KEY = base.SourceAS == detail.SourceAS

#: Root link saturated by cheap bandwidth: latency negligible, so the
#: merged-stream cap (|Q| rows per region/relay) dominates the ranking.
CONTENDED = CostModel(latency_s=0.0001, bandwidth_bytes_per_s=2.0e4)


def correlated_expression():
    inner = MDStep(
        "Flow",
        [MDBlock([count_star("cnt"), AggSpec("avg", detail.NumBytes, "m")], KEY)],
    )
    outer = MDStep(
        "Flow", [MDBlock([count_star("big")], KEY & (detail.NumBytes >= base.m))]
    )
    return GMDJExpression(DistinctBase("Flow", ["SourceAS"]), [inner, outer])


def build_cluster(sites=8):
    cluster = SimulatedCluster.with_sites(sites)
    cluster.load_partitioned(
        "Flow", FLOW, ValueListPartitioner.spread("SourceAS", range(16), sites)
    )
    return cluster


class TestTopologyEstimates:
    def test_flat_priced_first_with_alternatives(self):
        cluster = build_cluster(8)
        plan = plan_query(correlated_expression(), cluster.catalog)
        estimates = estimate_topology_costs(
            plan, StatisticsStore.from_cluster(cluster)
        )
        assert estimates[0].label == "flat"
        labels = [estimate.label for estimate in estimates]
        assert "hierarchical:2" in labels and "chain:2" in labels
        assert all(estimate.response_time_s > 0 for estimate in estimates)

    def test_candidate_gating_by_site_count(self):
        cluster = build_cluster(3)
        plan = plan_query(correlated_expression(), cluster.catalog)
        labels = [
            estimate.label
            for estimate in estimate_topology_costs(
                plan,
                StatisticsStore.from_cluster(cluster),
                region_counts=(2, 4),
                fanouts=(2, 3),
            )
        ]
        # 4 regions over 3 sites and fanout 3 over 3 sites are degenerate.
        assert "hierarchical:2" in labels
        assert "hierarchical:4" not in labels
        assert "chain:2" in labels
        assert "chain:3" not in labels

    def test_wan_latency_dominates_small_data(self):
        """On the default WAN every extra tier costs a round trip the
        tiny payloads cannot buy back, so flat wins."""
        cluster = build_cluster(8)
        plan = plan_query(correlated_expression(), cluster.catalog)
        estimates = estimate_topology_costs(
            plan, StatisticsStore.from_cluster(cluster), model=WAN
        )
        flat = next(e for e in estimates if e.kind == "flat")
        assert all(
            flat.response_time_s <= estimate.response_time_s
            for estimate in estimates
        )


class TestChooseTopology:
    def test_wan_small_data_chooses_flat(self):
        cluster = build_cluster(8)
        plan = plan_query(correlated_expression(), cluster.catalog)
        choice = choose_topology(plan, StatisticsStore.from_cluster(cluster))
        assert choice.topology == "flat"
        assert choice.estimated_saving_s == 0.0
        assert "flat star is cheapest" in choice.reason

    def test_contended_root_link_chooses_combiners(self):
        """When the root link's serialization dominates (negligible
        latency, scarce bandwidth), merging sub-results below the root
        caps each root stream at |Q| rows and a tree wins."""
        cluster = build_cluster(8)
        plan = plan_query(correlated_expression(), cluster.catalog)
        choice = choose_topology(
            plan, StatisticsStore.from_cluster(cluster), model=CONTENDED
        )
        assert choice.chosen.kind != "flat"
        assert choice.estimated_saving_s > 0
        flat = choice.flat
        assert choice.chosen.root_link_bytes < flat.root_link_bytes

    def test_allow_non_flat_false_pins_flat(self):
        cluster = build_cluster(8)
        plan = plan_query(correlated_expression(), cluster.catalog)
        choice = choose_topology(
            plan,
            StatisticsStore.from_cluster(cluster),
            model=CONTENDED,
            allow_non_flat=False,
        )
        assert choice.topology == "flat"
        assert choice.candidates == (choice.chosen,)

    def test_choice_dict_round_trips(self):
        cluster = build_cluster(4)
        plan = plan_query(correlated_expression(), cluster.catalog)
        record = choose_topology(
            plan, StatisticsStore.from_cluster(cluster)
        ).to_dict()
        assert record["topology"] == "flat"
        assert record["chosen"]["kind"] == "flat"
        assert len(record["candidates"]) >= 3


TOPOLOGIES = ["flat", "hierarchical:2", "hierarchical:4", "chain:2", "chain:3"]


class TestScheduledExecution:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_every_topology_is_bit_identical_to_flat(self, topology):
        cluster = build_cluster(8)
        plan = plan_query(
            correlated_expression(), cluster.catalog, OptimizationOptions.all()
        )
        reference = execute_plan(cluster, plan)
        cluster.reset_network()
        result = execute_plan_scheduled(cluster, plan, topology=topology)
        assert_relations_equal(reference.relation, result.relation)
        assert result.stats.topology == topology
        assert result.topology_choice.topology == topology
        assert result.topology_choice.measured_response_time_s > 0

    def test_auto_records_choice_and_label_agree(self):
        cluster = build_cluster(8)
        result = execute_query_scheduled(
            cluster, correlated_expression(), OptimizationOptions.all()
        )
        choice = result.topology_choice
        assert result.stats.topology == choice.topology
        assert result.stats.to_dict()["topology"] == choice.topology
        assert choice.measured_root_link_bytes is not None
        assert len(choice.candidates) >= 3

    def test_auto_executes_the_contended_winner(self):
        # Unoptimized plans ship the most tuples, so the contended root
        # link makes a tree the clear winner — and auto must execute it.
        cluster = build_cluster(8)
        result = execute_query_scheduled(
            cluster,
            correlated_expression(),
            OptimizationOptions.none(),
            model=CONTENDED,
        )
        choice = result.topology_choice
        assert choice.chosen.kind != "flat"
        assert result.stats.topology == choice.topology
        reference = execute_query_scheduled(
            build_cluster(8),
            correlated_expression(),
            OptimizationOptions.none(),
            topology="flat",
        )
        assert_relations_equal(reference.relation, result.relation)

    @pytest.mark.parametrize(
        "label", ["bogus", "hierarchical:0", "chain:-2", "tree:2", "chain:x"]
    )
    def test_malformed_topology_labels_raise(self, label):
        cluster = build_cluster(4)
        plan = plan_query(correlated_expression(), cluster.catalog)
        with pytest.raises(PlanError):
            execute_plan_scheduled(cluster, plan, topology=label)


class TestEdgesOnTrees:
    """Recovery, speculation and row blocking are applied per edge, so
    they neither pin ``auto`` to the star nor refuse a forced tree."""

    #: A dropped sub-result plus a bounded crash schedule on one site.
    TRANSIENT = "drop site=site1 round=1 dir=up; crash site=site1 rounds=1-2 times=4"

    def test_retry_on_a_tree_equals_fault_free_flat(self):
        cluster = build_cluster(8)
        plan = plan_query(
            correlated_expression(), cluster.catalog, OptimizationOptions.none()
        )
        clean = execute_plan(cluster, plan)
        cluster.install_faults(FaultPlan.parse(self.TRANSIENT))
        result = execute_plan_scheduled(
            cluster, plan,
            ExecutionConfig(failure_mode="retry", max_retries=5, retry_backoff_s=0.0),
            topology="hierarchical:2",
        )
        assert same_rows(result.relation, clean.relation)
        assert result.stats.retries > 0
        assert {event.kind for event in result.stats.faults} == {"drop", "crash"}
        assert not result.stats.degraded

    def test_degrade_on_a_tree_equals_flat_degrade(self):
        config = ExecutionConfig(
            failure_mode="degrade", max_retries=1, retry_backoff_s=0.0
        )
        results = {}
        for topology in ("flat", "hierarchical:2"):
            cluster = build_cluster(8)
            cluster.install_faults(
                FaultPlan.parse("crash site=site1 rounds=1-2 times=0")
            )
            plan = plan_query(
                correlated_expression(), cluster.catalog, OptimizationOptions.none()
            )
            results[topology] = execute_plan_scheduled(
                cluster, plan, config, topology=topology
            )
        flat, tree = results["flat"], results["hierarchical:2"]
        assert same_rows(tree.relation, flat.relation)
        assert tree.stats.excluded_sites == ((1, "site1"), (2, "site1"))
        assert flat.stats.excluded_sites == tree.stats.excluded_sites

    @pytest.mark.parametrize(
        "config, faulty",
        [
            (ExecutionConfig(failure_mode="retry"), True),
            (ExecutionConfig(speculation=True), False),
            (ExecutionConfig(row_block_size=3), False),
        ],
        ids=["faults", "speculation", "row_blocking"],
    )
    def test_auto_is_not_pinned_by_them(self, config, faulty):
        cluster = build_cluster(8)
        if faulty:
            cluster.install_faults(
                FaultPlan.stragglers(cluster.site_ids, seed=3, delay_s=0.0)
            )
        result = execute_query_scheduled(
            cluster,
            correlated_expression(),
            OptimizationOptions.none(),
            config=config,
            model=CONTENDED,
        )
        assert result.topology_choice.chosen.kind != "flat"
        assert "pinned" not in result.topology_choice.reason
        reference = execute_query_scheduled(
            build_cluster(8), correlated_expression(), OptimizationOptions.none(),
            topology="flat",
        )
        assert_relations_equal(reference.relation, result.relation)


class _Deployment:
    """Same surface as the cluster it wraps, but not a SimulatedCluster —
    what the scheduler sees when the sites live behind a real transport."""

    def __init__(self, cluster):
        self._cluster = cluster

    def __getattr__(self, name):
        return getattr(self._cluster, name)


class TestPinnedContexts:
    def test_a_real_transport_pins_auto_and_refuses_a_tree(self):
        cluster = build_cluster(8)
        plan = plan_query(
            correlated_expression(), cluster.catalog, OptimizationOptions.none()
        )
        deployment = _Deployment(cluster)
        auto = execute_plan_scheduled(
            deployment, plan, model=CONTENDED,
            statistics=StatisticsStore.from_cluster(cluster),
        )
        assert auto.stats.topology == "flat"
        assert "pinned to flat" in auto.topology_choice.reason
        assert "in-process sites" in auto.topology_choice.reason
        with pytest.raises(PlanError, match="in-process sites"):
            execute_plan_scheduled(deployment, plan, topology="hierarchical:2")
        with pytest.raises(PlanError, match="process cluster"):
            execute_plan_scheduled(
                cluster, plan, ExecutionConfig(executor="sockets"),
                topology="hierarchical:2",
            )


class TestPlannerEntryPoint:
    def test_plan_query_scheduled_returns_plan_and_choice(self):
        cluster = build_cluster(8)
        plan = plan_query(
            correlated_expression(), cluster.catalog, OptimizationOptions.all()
        )
        choice = choose_topology(
            plan, StatisticsStore.from_cluster(cluster), cluster.catalog
        )
        assert plan.rounds
        assert choice.topology == "flat"
        cluster2 = build_cluster(8)
        unoptimized = plan_query(
            correlated_expression(), cluster2.catalog, OptimizationOptions.none()
        )
        contended = choose_topology(
            unoptimized,
            StatisticsStore.from_cluster(cluster2),
            cluster2.catalog,
            model=CONTENDED,
        )
        assert contended.chosen.kind != "flat"


class TestReportModelAgreement:
    """Regression for the report-time model bug: ``response_time_s``
    used to default to WAN regardless of the model the run was planned
    and executed under."""

    def test_scheduled_measurement_uses_requested_model(self):
        cluster = build_cluster(8)
        plan = plan_query(correlated_expression(), cluster.catalog)
        lan = execute_plan_scheduled(
            cluster, plan, topology="hierarchical:2", model=LAN
        )
        cluster.reset_network()
        wan = execute_plan_scheduled(
            cluster, plan, topology="hierarchical:2", model=WAN
        )
        assert (
            lan.topology_choice.measured_response_time_s
            < wan.topology_choice.measured_response_time_s
        )


class TestProfileIntegration:
    def test_profile_carries_topology_and_reason(self):
        from repro.obs.profile import build_profile, render_profile

        cluster = build_cluster(8)
        plan = plan_query(correlated_expression(), cluster.catalog)
        result = execute_plan_scheduled(
            cluster, plan, topology="hierarchical:2"
        )
        profile = build_profile(
            (), result.stats, topology_choice=result.topology_choice
        )
        assert profile["topology"] == "hierarchical:2"
        assert profile["topology_reason"]
        rendered = render_profile(profile)
        assert "merge topology [hierarchical:2]" in rendered
