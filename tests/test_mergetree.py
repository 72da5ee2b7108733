"""Merge topology as data: MergeTree builders, the one round walk over
any tree (paper future work, Section 6) and the tree-shaped round
statistics."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_relations_equal, make_flows, same_rows
from repro.distributed import (
    MergeTree,
    OptimizationOptions,
    SimulatedCluster,
    execute_plan,
    execute_plan_scheduled,
    execute_query,
    plan_query,
    tree_for,
)
from repro.distributed.evaluator import ExecutionConfig
from repro.distributed.site import SkallaSite
from repro.distributed.stats import (
    ExecutionStats,
    RoundStats,
    SiteRoundStats,
    verify_against_network,
)
from repro.errors import NetworkError, PlanError
from repro.gmdj import operator as gmdj_operator
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import DistinctBase, GMDJExpression, MDStep
from repro.gmdj.operator import evaluate, evaluate_sub, merge_sub_results, super_aggregate
from repro.net.channel import DirectionStats
from repro.net.costmodel import LAN, WAN, CostModel
from repro.obs import MetricsRegistry, Tracer
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, detail
from repro.relalg.relation import Relation
from repro.warehouse.partition import RoundRobinPartitioner, ValueListPartitioner

FLOW = make_flows(count=400, seed=51)
KEY = base.SourceAS == detail.SourceAS

OPTION_SETS = {
    "none": OptimizationOptions.none(),
    "all": OptimizationOptions.all(),
    "sync_only": OptimizationOptions(False, True, False, False, False),
    "reductions": OptimizationOptions(False, False, True, True, False),
}

#: (builder, parameter) for every shape the scheduler can name.
SHAPES = [
    (MergeTree.regions, 1), (MergeTree.regions, 2), (MergeTree.regions, 4),
    (MergeTree.fanout, 2), (MergeTree.fanout, 3), (MergeTree.fanout, 8),
]


def correlated_expression():
    inner = MDStep(
        "Flow",
        [MDBlock([count_star("cnt"), AggSpec("avg", detail.NumBytes, "m")], KEY)],
    )
    outer = MDStep(
        "Flow", [MDBlock([count_star("big")], KEY & (detail.NumBytes >= base.m))]
    )
    return GMDJExpression(DistinctBase("Flow", ["SourceAS"]), [inner, outer])


def build_cluster(sites=8, partitioner=None):
    cluster = SimulatedCluster.with_sites(sites)
    partitioner = partitioner or ValueListPartitioner.spread("SourceAS", range(16), sites)
    cluster.load_partitioned("Flow", FLOW, partitioner)
    return cluster


def run_tree(cluster, tree, options=None, **kwargs):
    plan = plan_query(correlated_expression(), cluster.catalog, options)
    return execute_plan(cluster, plan, tree=tree, **kwargs)


class TestMergeTree:
    def test_leaves_and_depth(self):
        tree = MergeTree(
            "root",
            (MergeTree("r0", (MergeTree("a"), MergeTree("b"))), MergeTree("c")),
        )
        assert tree.leaves() == ("a", "b", "c")
        assert tree.depth() == 3
        assert not tree.is_star

    def test_duplicate_names_rejected(self):
        with pytest.raises(NetworkError):
            MergeTree("root", (MergeTree("a"), MergeTree("a"))).validate()

    def test_flat_is_the_star(self):
        tree = MergeTree.flat(["a", "b", "c"])
        assert tree.is_star and tree.depth() == 2
        assert tree.leaves() == ("a", "b", "c")

    def test_regions_deal_sites_round_robin(self):
        tree = MergeTree.regions(["a", "b", "c", "d", "e"], 2)
        assert [region.leaves() for region in tree.children] == [
            ("a", "c", "e"), ("b", "d"),
        ]
        full_width = MergeTree.regions(["a", "b", "c"], 3)
        assert all(len(region.children) == 1 for region in full_width.children)

    def test_fanout_shapes(self):
        sites = [f"site{index}" for index in range(8)]
        binary = MergeTree.fanout(sites, 2)
        assert binary.leaves() == tuple(sites)
        assert binary.depth() == 4  # 8 -> 4 -> 2 -> 1
        assert MergeTree.fanout(sites, 8).is_star
        lone = MergeTree.fanout(["only"], 2)
        assert not lone.is_leaf and lone.leaves() == ("only",)

    def test_no_sites_rejected(self):
        with pytest.raises(NetworkError):
            MergeTree.flat([])
        with pytest.raises(NetworkError):
            MergeTree.fanout([], 2)

    @pytest.mark.parametrize("region_count", [0, -1, 5, 2.0, True])
    def test_boundary_region_counts_raise(self, region_count):
        # Degenerate counts are caller bugs: ValueError, never an empty
        # region.
        with pytest.raises(ValueError, match="region_count"):
            MergeTree.regions(["a", "b", "c", "d"], region_count)

    @pytest.mark.parametrize("fanout", [1, 0, -3, 2.0, True])
    def test_boundary_fanouts_raise(self, fanout):
        # A fanout <= 1 never shrinks a level: ValueError before the
        # grouping loop could spin.
        with pytest.raises(ValueError, match="fanout"):
            MergeTree.fanout(["a", "b", "c"], fanout)

    def test_labels_name_the_builders(self):
        sites = ["a", "b", "c", "d"]
        assert tree_for("flat", sites) == MergeTree.flat(sites)
        assert tree_for("hierarchical:2", sites) == MergeTree.regions(sites, 2)
        assert tree_for("chain:3", sites) == MergeTree.fanout(sites, 3)

    @pytest.mark.parametrize(
        "label", ["ring", "tree:2", "hierarchical:x", "hierarchical:9", "chain:1"]
    )
    def test_bad_labels_raise_plan_error(self, label):
        with pytest.raises(PlanError):
            tree_for(label, ["a", "b", "c", "d"])


class TestMergeSubResults:
    def test_merge_then_super_equals_direct_super(self):
        base_relation = FLOW.distinct_project(["SourceAS"])
        blocks = [
            MDBlock([count_star("cnt"), AggSpec("avg", detail.NumBytes, "m")], KEY)
        ]
        h = None
        for start in range(4):
            piece = Relation(FLOW.schema, FLOW.rows[start::4])
            h_i, _touched = evaluate_sub(base_relation, piece, blocks)
            h = h_i if h is None else h.union_all(h_i)
        merged = merge_sub_results(h, ["SourceAS"], blocks)
        keys = [row[0] for row in merged.rows]
        assert len(keys) == len(set(keys))  # one row per key
        assert_relations_equal(
            super_aggregate(base_relation, merged, ["SourceAS"], blocks),
            evaluate(base_relation, FLOW, blocks),
        )

    def test_merge_is_idempotent(self):
        base_relation = FLOW.distinct_project(["SourceAS"])
        blocks = [MDBlock([count_star("cnt")], KEY)]
        h, _touched = evaluate_sub(base_relation, FLOW, blocks)
        once = merge_sub_results(h, ["SourceAS"], blocks)
        assert same_rows(once, merge_sub_results(once, ["SourceAS"], blocks))


class TestCorrectness:
    @pytest.mark.parametrize("options_name", sorted(OPTION_SETS))
    @pytest.mark.parametrize("builder, parameter", SHAPES)
    def test_matches_centralized(self, builder, parameter, options_name):
        cluster = build_cluster(8)
        reference = correlated_expression().evaluate_centralized(
            cluster.conceptual_tables()
        )
        result = run_tree(
            cluster, builder(cluster.site_ids, parameter), OPTION_SETS[options_name]
        )
        assert_relations_equal(reference, result.relation)
        assert len(result.stats.rounds) == result.plan.synchronization_count

    def test_round_robin_partitioning(self):
        cluster = build_cluster(6, RoundRobinPartitioner(6))
        reference = correlated_expression().evaluate_centralized(
            cluster.conceptual_tables()
        )
        result = run_tree(cluster, MergeTree.regions(cluster.site_ids, 2))
        assert_relations_equal(reference, result.relation)

    def test_tree_must_cover_plan_sites(self):
        cluster = build_cluster(4)
        with pytest.raises(PlanError):
            run_tree(cluster, MergeTree.regions(["site0", "site1"], 1))

    def test_leaf_root_rejected(self):
        with pytest.raises(NetworkError):
            run_tree(build_cluster(1), MergeTree("site0"))

    def test_duplicate_names_rejected_at_execution(self):
        cluster = build_cluster(2)
        tree = MergeTree("site0", (MergeTree("site0"), MergeTree("site1")))
        with pytest.raises(NetworkError):
            run_tree(cluster, tree)


class TestTraffic:
    def test_root_link_carries_less_than_star_coordinator(self):
        """The headline benefit: per-round root traffic is O(children of
        the root), not O(sites), because combiners merge sub-results."""
        cluster = build_cluster(8)
        options = OptimizationOptions.none()
        star = execute_query(cluster, correlated_expression(), options)
        for tree in (
            MergeTree.regions(cluster.site_ids, 2),
            MergeTree.fanout(cluster.site_ids, 2),
        ):
            stats = run_tree(cluster, tree, options).stats
            assert stats.root_link_bytes < star.stats.bytes_total
        # Two levels: the site links carry about what the star carried.
        two_level = run_tree(
            cluster, MergeTree.regions(cluster.site_ids, 2), options
        ).stats
        site_link_bytes = two_level.bytes_total - two_level.root_link_bytes
        assert site_link_bytes <= star.stats.bytes_total * 1.05

    def test_deeper_trees_cost_more_total_bytes(self):
        cluster = build_cluster(8)
        options = OptimizationOptions.none()
        shallow = run_tree(cluster, MergeTree.fanout(cluster.site_ids, 3), options)
        deep = run_tree(cluster, MergeTree.fanout(cluster.site_ids, 2), options)
        assert deep.stats.bytes_total > shallow.stats.bytes_total

    @pytest.mark.parametrize(
        "label, options_name, bytes_total, root_link_bytes",
        [
            # With raw doubles in every FLOAT block: 4152 / 4152, 1144 /
            # 1144, 5298 / 1146 and 7446 / 1146.
            pytest.param("flat", "none", 4080, 4080, id="flat-none"),
            pytest.param("flat", "all", 1072, 1072, id="flat-all"),
            pytest.param("hierarchical:2", "none", 5136, 1056, id="hierarchical:2-none"),
            pytest.param("chain:2", "none", 7200, 1056, id="chain:2-none"),
        ],
    )
    def test_byte_totals_are_pinned(
        self, label, options_name, bytes_total, root_link_bytes, row_oracle
    ):
        """Every edge charges HEADER_BYTES + the v3 encoding: the totals
        this fixture produces, star included, to the byte."""
        cluster = build_cluster(8)
        stats = run_tree(
            cluster,
            tree_for(label, cluster.site_ids),
            OPTION_SETS[options_name],
        ).stats
        assert (stats.bytes_total, stats.root_link_bytes) == (
            bytes_total, root_link_bytes,
        )


class TestConfigIsHonoured:
    @pytest.mark.parametrize("engine", ["row", "columnar"])
    @pytest.mark.parametrize("topology", ["hierarchical:2", "chain:2", "chain:3"])
    def test_codec_and_engine_reach_every_edge_and_site(
        self, topology, engine, monkeypatch, request
    ):
        """The wire format reaches every edge — each shipped block, relay
        hops included, is format v3 — and every site scans with the scan
        in place: the row oracle (the ``row_oracle`` fixture) or the vector
        scan."""
        if engine == "row":
            scan = request.getfixturevalue("row_oracle")
        else:
            scan = gmdj_operator._accumulate
        seen, versions = set(), set()
        original, record = SkallaSite.evaluate_round, DirectionStats.record

        def spy(self, *args, **kwargs):
            seen.add(gmdj_operator._accumulate)
            return original(self, *args, **kwargs)

        def spy_record(self, message):
            if message.payload is not None:
                versions.add(message.payload[:5])
            return record(self, message)

        monkeypatch.setattr(SkallaSite, "evaluate_round", spy)
        monkeypatch.setattr(DirectionStats, "record", spy_record)
        cluster = build_cluster(8)
        plan = plan_query(
            correlated_expression(), cluster.catalog, OptimizationOptions.none()
        )
        flat = execute_plan(cluster, plan, ExecutionConfig(executor="serial"))
        seen.clear()
        versions.clear()
        result = execute_plan_scheduled(cluster, plan, topology=topology)
        assert_relations_equal(flat.relation, result.relation)
        assert seen == {scan}
        assert versions == {b"SKRL\x03"}

    @pytest.mark.parametrize("topology", ["hierarchical:2", "chain:2"])
    def test_config_reaches_trees(self, topology):
        cluster = build_cluster(8)
        plan = plan_query(
            correlated_expression(), cluster.catalog, OptimizationOptions.none()
        )
        flat = execute_plan(cluster, plan, ExecutionConfig(executor="serial"))
        cluster.reset_network()
        config = ExecutionConfig(
            failure_mode="retry", max_retries=5, leg_timeout_s=1.0,
        )
        tracer = Tracer()
        result = execute_plan_scheduled(
            cluster, plan, config, tracer=tracer, topology=topology
        )
        assert same_rows(result.relation, flat.relation)
        assert result.stats.executor == "serial"
        assert result.stats.failure_mode == "retry"
        assert verify_against_network(result.stats, cluster.network) == []
        # The root's own encode/decode work is on the trace, per edge.
        root_edges = set(result.stats.rounds[1].root_edges())
        for name in ("round.encode", "round.decode"):
            traced = {
                span.attributes["site"]
                for span in tracer.spans_named(name)
                if span.kind == "coordinator"
            }
            assert traced == root_edges

    def test_row_blocking_costs_only_headers_on_a_tree(self):
        cluster = build_cluster(8)
        plan = plan_query(correlated_expression(), cluster.catalog)
        whole = execute_plan_scheduled(cluster, plan, topology="chain:2")
        blocked = execute_plan_scheduled(
            cluster, plan, ExecutionConfig(row_block_size=3), topology="chain:2"
        )
        assert same_rows(blocked.relation, whole.relation)
        assert blocked.stats.tuples_total == whole.stats.tuples_total
        # Headers plus the repeated schema of each extra block, per edge.
        assert blocked.stats.bytes_total > whole.stats.bytes_total


class TestHopSpans:
    def test_hop_encloses_the_work_below_it(self):
        cluster = build_cluster(8)
        tracer = Tracer()
        result = run_tree(
            cluster, MergeTree.regions(cluster.site_ids, 2),
            OptimizationOptions.none(), tracer=tracer, query_id=7,
        )
        hops = tracer.spans_named("combiner.hop")
        assert len(hops) == 2 * len(result.stats.rounds)
        for hop in hops:
            assert hop.attributes["query_id"] == 7
            assert hop.attributes["children"] == 4
            edge = result.stats.rounds[hop.attributes["round"]].sites[
                hop.attributes["node"]
            ]
            assert hop.attributes["bytes_up"] == edge.bytes_up
            below = [span for span in tracer.spans if span.parent_id == hop.span_id]
            assert {span.attributes["site"] for span in below} == set(
                result.stats.rounds[0].children[hop.attributes["node"]]
            )
            # Enclosed in time.
            for span in below:
                assert hop.start_s <= span.start_s <= span.end_s <= hop.end_s
            assert sum(span.duration_s for span in below) > 0


# -- round statistics: the tree recursion, hand-computed ----------------------

MODEL = CostModel(latency_s=0.0, bandwidth_bytes_per_s=1000)  # 1 KB/s, no latency

EDGES = {
    "combiner": (1000, 500, 0.1),  # 1.0 s down, 0.5 s up
    "s0": (2000, 1000, 0.3),
    "s1": (100, 100, 0.05),
    "s2": (400, 200, 0.2),
}


def make_round(names, children):
    round_stats = RoundStats(
        index=0, kind="md", children=children, coordinator_compute_s=0.2
    )
    for name in names:
        down, up, compute = EDGES[name]
        round_stats.sites[name] = SiteRoundStats(
            bytes_down=down, bytes_up=up, compute_s=compute
        )
    return round_stats


class TestRoundStats:
    def test_two_level_critical_path(self):
        round_stats = make_round(
            ["combiner", "s0", "s1"], {"combiner": ("s0", "s1")}
        )
        # slowest site: s0 = 2.0 + 0.3 + 1.0 = 3.3
        # combiner: 1.0 (down) + 3.3 + 0.1 (merge) + 0.5 (up) = 4.9
        # + coordinator 0.2 = 5.1
        assert round_stats.response_time_s(MODEL) == pytest.approx(5.1)
        assert round_stats.root_link_bytes == 1500
        assert round_stats.bytes_total == 4700

    def test_ragged_tree_critical_path(self):
        #   coordinator -> combiner -> (s0, s1);  coordinator -> s2
        round_stats = make_round(
            ["combiner", "s0", "s1", "s2"], {"combiner": ("s0", "s1")}
        )
        # combiner subtree 4.9 as above; s2: 0.4 + 0.2 + 0.2 = 0.8
        # max(4.9, 0.8) + coordinator 0.2 = 5.1
        assert round_stats.response_time_s(MODEL) == pytest.approx(5.1)
        assert round_stats.root_link_bytes == 1500 + 600
        assert round_stats.bytes_total == 4700 + 600
        stats = ExecutionStats(rounds=[round_stats])
        assert stats.root_link_bytes == 2100
        assert stats.response_time_s(MODEL) == pytest.approx(5.1)

    def test_star_is_the_depth_one_case(self):
        round_stats = make_round(["s0", "s1", "s2"], {})
        # max over sites (down + compute + up) + coordinator
        assert round_stats.response_time_s(MODEL) == pytest.approx(3.3 + 0.2)
        assert round_stats.root_link_bytes == round_stats.bytes_total

    def test_subtree_idle_this_round_costs_nothing(self):
        round_stats = make_round(["combiner", "s0"], {"combiner": ("s0", "s1")})
        assert round_stats.response_time_s(MODEL) == pytest.approx(5.1)


class TestReportModel:
    """``response_time_s()`` reports with the model the run was planned
    under, for every topology — not silently with WAN."""

    @pytest.mark.parametrize("topology", ["flat", "hierarchical:2", "chain:2"])
    def test_report_uses_planning_model(self, topology):
        cluster = build_cluster(8)
        plan = plan_query(correlated_expression(), cluster.catalog)
        result = execute_plan_scheduled(cluster, plan, topology=topology, model=LAN)
        stats = result.stats
        assert stats.response_time_s() == stats.response_time_s(LAN)
        assert stats.response_time_s() != stats.response_time_s(WAN)
        assert result.response_time_s() == stats.response_time_s(LAN)
        assert (
            result.topology_choice.measured_response_time_s
            == stats.response_time_s(LAN)
        )

    def test_default_model_stays_wan(self):
        cluster = build_cluster(4)
        stats = run_tree(cluster, MergeTree.regions(cluster.site_ids, 2)).stats
        assert stats.response_time_s() == stats.response_time_s(WAN)


# -- any nesting of the sites is a valid merge topology -----------------------

PROPERTY_SITES = SimulatedCluster.with_sites(6).site_ids


@st.composite
def merge_trees(draw):
    """A random nesting of the sites: depth <= 4, ragged, any leaf order."""
    level = [MergeTree(site_id) for site_id in draw(st.permutations(PROPERTY_SITES))]
    names = (f"n{index}" for index in itertools.count())
    for _tier in range(draw(st.integers(min_value=0, max_value=2))):
        cuts = sorted(
            draw(st.sets(st.integers(min_value=1, max_value=len(level) - 1)))
            if len(level) > 1
            else ()
        )
        groups = [
            level[start:stop]
            for start, stop in zip([0] + cuts, cuts + [len(level)])
        ]
        level = [
            group[0]
            if len(group) == 1 and draw(st.booleans())
            else MergeTree(next(names), group)
            for group in groups
        ]
    return MergeTree("root", level)


@given(
    tree=merge_trees(),
    toggles=st.tuples(
        st.booleans(), st.booleans(), st.booleans(), st.booleans(), st.booleans()
    ),
    row_block_size=st.sampled_from([0, 3]),
)
@settings(max_examples=40, deadline=None)
def test_random_nesting_matches_centralized(tree, toggles, row_block_size):
    cluster = build_cluster(len(PROPERTY_SITES))
    registry = MetricsRegistry()
    cluster.reset_network(metrics=registry)
    result = run_tree(
        cluster, tree, OptimizationOptions(*toggles), metrics=registry,
        config=ExecutionConfig(row_block_size=row_block_size),
    )
    reference = correlated_expression().evaluate_centralized(
        cluster.conceptual_tables()
    )
    assert_relations_equal(reference, result.relation)
    for round_stats in result.stats.rounds:
        for combiner in round_stats.children:
            if combiner in round_stats.sites:
                assert round_stats.sites[combiner].tuples_up <= len(reference)
    # The channels count every edge's traffic independently of the stats.
    on_the_wire = sum(
        snapshot["value"]
        for key, snapshot in registry.snapshot().items()
        if key.startswith("net.bytes{")
    )
    assert result.stats.bytes_total == on_the_wire


@given(
    tree=merge_trees(),
    toggles=st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()),
    on_the_key=st.booleans(),
    row_block_size=st.sampled_from([0, 3]),
)
@settings(max_examples=30, deadline=None)
def test_random_nesting_observed_reduction_on_and_off(
    tree, toggles, on_the_key, row_block_size
):
    """Narrowing the root's edges to what each subtree answered with
    changes what is shipped, on any nesting, and nothing else."""
    cluster = build_cluster(
        len(PROPERTY_SITES),
        None if on_the_key else RoundRobinPartitioner(len(PROPERTY_SITES)),
    )
    coalescing, sync_reduction, independent, pruning = toggles
    config = ExecutionConfig(row_block_size=row_block_size)

    def run(aware):
        cluster.reset_network()
        options = OptimizationOptions(
            coalescing, sync_reduction, aware, independent, pruning
        )
        result = run_tree(cluster, tree, options, config=config)
        assert verify_against_network(result.stats, cluster.network) == []
        return result

    narrowed, plain = run(True), run(False)
    assert narrowed.relation.rows == plain.relation.rows
    assert_relations_equal(
        correlated_expression().evaluate_centralized(cluster.conceptual_tables()),
        narrowed.relation,
    )
    for with_round, without_round, md_round in zip(
        narrowed.stats.rounds[-len(narrowed.plan.rounds):],
        plain.stats.rounds[-len(plain.plan.rounds):],
        narrowed.plan.rounds,
    ):
        for child in tree.children:
            edge = with_round.sites.get(child.name)
            if edge is None:
                continue
            unnarrowed = without_round.sites[child.name]
            if md_round.observed_reduction:
                assert edge.tuples_down <= unnarrowed.tuples_down
            elif not md_round.ship_filters:
                assert edge.tuples_down == unnarrowed.tuples_down
    if len(narrowed.plan.rounds) == 2 and not on_the_key:
        # Round robin spreads every group over the sites: each root edge of
        # round 2 carries exactly what came up it in round 1.
        assert narrowed.plan.rounds[1].observed_reduction
        first, second = narrowed.stats.rounds[-2:]
        for child in tree.children:
            if independent or narrowed.plan.rounds[0].merged_base:
                assert (
                    second.sites[child.name].tuples_down
                    == first.sites[child.name].tuples_up
                )
