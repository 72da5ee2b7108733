"""End-to-end observability: spans from real runs, breakdown additivity,
stats-vs-network cross-checks, and the tracing-overhead harness."""

import pytest

from conftest import make_flows
from repro.distributed import (
    OptimizationOptions,
    SimulatedCluster,
    execute_query,
)
from repro.distributed.stats import verify_against_network
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import DistinctBase, GMDJExpression, MDStep
from repro.net.costmodel import LAN, WAN
from repro.obs import EventLog, MetricsRegistry, Tracer, build_trace
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, detail

FLOW = make_flows(count=300, seed=17)
KEY = base.SourceAS == detail.SourceAS


def expression() -> GMDJExpression:
    inner = MDStep(
        "Flow",
        [MDBlock([count_star("cnt"), AggSpec("avg", detail.NumBytes, "m")], KEY)],
    )
    outer = MDStep(
        "Flow", [MDBlock([count_star("big")], KEY & (detail.NumBytes >= base.m))]
    )
    return GMDJExpression(DistinctBase("Flow", ["SourceAS"]), [inner, outer])


def build_cluster(sites: int) -> SimulatedCluster:
    from repro.warehouse.partition import ValueListPartitioner

    cluster = SimulatedCluster.with_sites(sites)
    cluster.load_partitioned(
        "Flow", FLOW, ValueListPartitioner.spread("SourceAS", range(16), sites)
    )
    return cluster


def traced_run(sites: int = 4, options: OptimizationOptions = None):
    cluster = build_cluster(sites)
    tracer = Tracer()
    registry = MetricsRegistry()
    cluster.reset_network(metrics=registry)
    result = execute_query(
        cluster,
        expression(),
        options or OptimizationOptions.none(),
        tracer=tracer,
        metrics=registry,
    )
    return cluster, tracer, registry, result


class TestEvaluatorSpans:
    def test_span_taxonomy(self):
        _cluster, tracer, _registry, result = traced_run()
        queries = tracer.spans_named("query")
        assert len(queries) == 1
        rounds = tracer.spans_named("round")
        # One "round" span per ExecutionStats round (base + MD rounds).
        assert len(rounds) == result.stats.round_count
        assert {span.parent_id for span in rounds} == {queries[0].span_id}
        for name in ("round.encode", "round.evaluate", "round.decode", "round.merge"):
            spans = tracer.spans_named(name)
            assert spans, f"no {name} spans recorded"
            round_ids = {span.span_id for span in rounds}
            assert all(span.parent_id in round_ids for span in spans)
        assert all(span.end_s is not None for span in tracer.spans)

    def test_round_span_attributes_match_stats(self):
        _cluster, tracer, _registry, result = traced_run()
        md_spans = [
            span for span in tracer.spans_named("round")
            if span.attributes.get("round_kind") != "base"
        ]
        md_rounds = [s for s in result.stats.rounds if s.kind != "base"]
        assert len(md_spans) == len(md_rounds)
        for span, round_stats in zip(md_spans, md_rounds):
            assert span.attributes["index"] == round_stats.index
            assert span.attributes["bytes_down"] == round_stats.bytes_down
            assert span.attributes["bytes_up"] == round_stats.bytes_up

    def test_evaluate_spans_carry_site_kind(self):
        _cluster, tracer, _registry, _result = traced_run()
        evaluates = tracer.spans_named("round.evaluate")
        assert all(span.kind == "site" for span in evaluates)
        merges = tracer.spans_named("round.merge")
        assert all(span.kind == "coordinator" for span in merges)

    def test_untraced_run_records_nothing(self):
        cluster = build_cluster(2)
        result = execute_query(cluster, expression(), OptimizationOptions.none())
        assert result.stats.round_count >= 2  # ran fine with NULL_TRACER

    def test_operator_counters_in_run_registry(self):
        _cluster, _tracer, registry, result = traced_run()
        examined = registry.value_of("gmdj.tuples_examined")
        emitted = registry.value_of("gmdj.tuples_emitted")
        assert examined > 0
        assert emitted >= len(result.relation)

    def test_network_counters_match_stats(self):
        _cluster, _tracer, registry, result = traced_run()
        assert registry.sum_matching("net.bytes{direction=down") == (
            result.stats.bytes_down
        )
        assert registry.sum_matching("net.bytes{direction=up") == (
            result.stats.bytes_up
        )


class TestBreakdownAdditivity:
    """Figure-5-style additive breakdown vs the exact round critical path.

    The additive breakdown (site + coordinator + communication) must
    equal the exact response time up to the documented per-round overlap
    tolerance — and never undershoot it.
    """

    @pytest.mark.parametrize("sites", [1, 4, 8])
    @pytest.mark.parametrize("model", [WAN, LAN], ids=["wan", "lan"])
    def test_additive_equals_exact_within_tolerance(self, sites, model):
        cluster = build_cluster(sites)
        result = execute_query(cluster, expression(), OptimizationOptions.none())
        stats = result.stats
        additive = stats.breakdown(model)["total_s"]
        exact = stats.response_time_s(model)
        tolerance = stats.overlap_tolerance_s(model)
        assert additive >= exact - 1e-12
        assert additive - exact <= tolerance + 1e-12

    @pytest.mark.parametrize("sites", [1, 4, 8])
    def test_breakdown_components(self, sites):
        cluster = build_cluster(sites)
        result = execute_query(cluster, expression(), OptimizationOptions.all())
        breakdown = result.stats.breakdown(WAN)
        assert breakdown["total_s"] == pytest.approx(
            breakdown["site_compute_s"]
            + breakdown["coordinator_compute_s"]
            + breakdown["communication_s"]
        )


class TestStatsNetworkCrossCheck:
    def test_agreement_on_real_run(self):
        cluster, _tracer, _registry, result = traced_run()
        assert verify_against_network(result.stats, cluster.network) == []

    def test_detects_divergence(self):
        cluster, _tracer, _registry, result = traced_run()
        result.stats.rounds[-1].site(cluster.site_ids[0]).bytes_up += 1
        problems = verify_against_network(result.stats, cluster.network)
        assert problems
        assert any("bytes_up" in problem for problem in problems)


class TestTraceExport:
    def test_run_trace_round_trips(self, tmp_path):
        _cluster, tracer, registry, result = traced_run()
        log = build_trace(tracer, registry, result.stats, model=WAN)
        log.validate()
        assert len(log.records_of("span")) == len(tracer.spans)
        assert len(log.records_of("stats")) == 1
        stats_record = log.records_of("stats")[0]
        assert stats_record["bytes_total"] == result.stats.bytes_total
        assert stats_record["breakdown"]["total_s"] == pytest.approx(
            result.stats.breakdown(WAN)["total_s"]
        )
        path = tmp_path / "run.jsonl"
        log.dump(path)
        assert EventLog.load(path) == log
