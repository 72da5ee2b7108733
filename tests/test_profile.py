"""EXPLAIN ANALYZE profiles: attribution coverage, impacts, rendering,
and rebuilding a profile from a dumped JSONL trace."""

import pytest

from repro.data.tpcr import (
    TPCRConfig,
    generate_tpcr,
    nation_partitioner,
    register_tpcr_fds,
)
from repro.distributed import (
    OptimizationOptions,
    SimulatedCluster,
    StatisticsStore,
    execute_query,
)
from repro.distributed.costing import estimate_optimization_impacts
from repro.errors import ObservabilityError
from repro.obs import (
    MetricsRegistry,
    Tracer,
    build_profile,
    build_trace,
    profile_from_trace,
    render_profile,
)
from repro.queries.olap import QueryBuilder
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, detail

TPCR = generate_tpcr(TPCRConfig(scale=0.0005, seed=5))
SITES = 3


def build_cluster() -> SimulatedCluster:
    cluster = SimulatedCluster.with_sites(SITES)
    cluster.load_partitioned("TPCR", TPCR, nation_partitioner(SITES))
    register_tpcr_fds(cluster.catalog)
    return cluster


def section5_expression():
    return (
        QueryBuilder("TPCR", keys=["NationKey"])
        .stage([count_star("cnt"), AggSpec("avg", detail.Price, "avg_price")])
        .stage([count_star("above")], extra=detail.Price >= base.avg_price)
        .build()
    )


def traced_profiled_run(query_id=1):
    cluster = build_cluster()
    expression = section5_expression()
    options = OptimizationOptions.all()
    tracer = Tracer()
    registry = MetricsRegistry()
    cluster.reset_network(metrics=registry)
    result = execute_query(
        cluster, expression, options,
        tracer=tracer, metrics=registry, query_id=query_id,
    )
    impacts = estimate_optimization_impacts(
        expression,
        cluster.catalog,
        StatisticsStore.from_cluster(cluster),
        options=options,
        measured_stats=result.stats,
        plan=result.plan,
    )
    profile = build_profile(
        tracer.finished(),
        result.stats,
        impacts=impacts,
        plan_description=result.plan.describe(),
        notes=result.plan.notes,
        query_id=query_id,
    )
    return cluster, tracer, registry, result, profile


class TestCoverage:
    def test_time_coverage_meets_acceptance_bar(self):
        *_rest, profile = traced_profiled_run()
        assert profile["query_wall_s"] > 0
        assert profile["time_coverage"] >= 0.95

    def test_bytes_fully_attributed(self):
        *_rest, result, profile = traced_profiled_run()
        assert profile["bytes_total"] == result.stats.bytes_total
        assert profile["bytes_coverage"] == pytest.approx(1.0)
        assert sum(
            site["bytes_down"] + site["bytes_up"]
            for round_record in profile["rounds"]
            for site in round_record["sites"].values()
        ) == result.stats.bytes_total

    def test_every_applied_optimization_carries_a_measured_saving(self):
        *_rest, result, profile = traced_profiled_run()
        applied = {name for name, _desc in result.plan.applied_optimizations()}
        assert applied, "the Section-5 query should trigger optimizations"
        reported = {impact["name"] for impact in profile["optimizations"]}
        assert reported == applied
        for impact in profile["optimizations"]:
            assert impact["measured_tuples"] == float(result.stats.tuples_total)
            assert impact["measured_saving_tuples"] is not None

    def test_rounds_and_sites_mirror_stats(self):
        *_rest, result, profile = traced_profiled_run()
        assert len(profile["rounds"]) == result.stats.round_count
        stats_dict = result.stats.to_dict()
        for round_profile, round_record in zip(
            profile["rounds"], stats_dict["rounds"]
        ):
            assert round_profile["index"] == round_record["index"]
            assert list(round_profile["sites"]) == list(round_record["sites"])
        # The profile is the snapshot plus its additions: every snapshot
        # key means the same thing in both.
        without_additions = {
            key: value
            for key, value in profile.items()
            if key not in (
                "query_wall_s", "time_coverage", "bytes_coverage",
                "optimizations", "plan_description", "notes",
            )
        }
        for round_record in without_additions["rounds"]:
            del round_record["operators"]
            del round_record["positional"]
            del round_record["sparse"]
            for site in round_record["sites"].values():
                del site["operators"]
        assert without_additions == stats_dict

    def test_operator_spans_enrich_sites(self):
        *_rest, profile = traced_profiled_run()
        names = {
            operator["name"]
            for round_profile in profile["rounds"]
            for site in round_profile["sites"].values()
            for operator in site["operators"]
        }
        assert "round.evaluate" in names
        coordinator_names = {
            operator["name"]
            for round_profile in profile["rounds"]
            for operator in round_profile["operators"]
        }
        assert "round.merge" in coordinator_names

    def test_query_id_taken_from_stats(self):
        *_rest, result, profile = traced_profiled_run(query_id=9)
        assert result.stats.query_id == 9
        assert profile["query_id"] == 9


class TestUntracedAndErrors:
    def test_profile_without_spans_still_exact(self):
        cluster = build_cluster()
        result = execute_query(
            cluster, section5_expression(), OptimizationOptions.all()
        )
        profile = build_profile((), result.stats)
        assert profile["bytes_coverage"] == pytest.approx(1.0)
        # Without a root span, wall falls back to attributed time.
        assert profile["query_wall_s"] == profile["wall_s"]
        assert profile["time_coverage"] == 1.0
        assert not any(
            site["operators"]
            for round_profile in profile["rounds"]
            for site in round_profile["sites"].values()
        )

    def test_rejects_non_stats_input(self):
        with pytest.raises(ObservabilityError, match="ExecutionStats"):
            build_profile((), {"not": "stats"})


class TestRendering:
    def test_render_contains_tree_and_sections(self):
        *_rest, profile = traced_profiled_run()
        text = render_profile(profile)
        assert "EXPLAIN ANALYZE" in text
        assert "attributed to plan nodes" in text
        assert "+- round" in text
        assert "+- site0" in text
        assert "+- merge" in text
        assert "optimizations (measured vs unoptimized estimate)" in text
        assert "optimizer notes:" in text
        assert "plan:" in text
        # Every applied optimization shows both sides of the comparison.
        for impact in profile["optimizations"]:
            assert impact["name"] in text
        assert "measured" in text

    def test_render_without_impacts_or_plan(self):
        cluster = build_cluster()
        result = execute_query(
            cluster, section5_expression(), OptimizationOptions.all()
        )
        text = render_profile(build_profile((), result.stats))
        assert "optimizations" not in text
        assert "plan:" not in text


class TestFromTrace:
    def test_profile_rebuilt_from_dumped_trace(self, tmp_path):
        _cluster, tracer, registry, result, profile = traced_profiled_run()
        log = build_trace(
            tracer, registry, result.stats,
            plan=result.plan, query_id=1,
        )
        path = tmp_path / "trace.jsonl"
        log.dump(path)

        from repro.obs import EventLog

        rebuilt = profile_from_trace(EventLog.load(path), query_id=1)
        assert rebuilt["query_id"] == 1
        assert rebuilt["query_wall_s"] == pytest.approx(profile["query_wall_s"])
        assert rebuilt["bytes_total"] == profile["bytes_total"]
        assert rebuilt["time_coverage"] >= 0.95
        assert rebuilt["plan_description"] == result.plan.describe()
        assert rebuilt["notes"] == list(result.plan.notes)

    def test_from_trace_requires_stats(self):
        from repro.obs import EventLog

        with pytest.raises(ObservabilityError, match="no stats record"):
            profile_from_trace(EventLog())
