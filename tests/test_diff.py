"""Trace-diff regression attribution (`repro diff` / repro.obs.diff).

The two contracts the PR pins: an artifact diffed against itself
reports zero attributed delta and no verdicts, and a genuine slowdown
is attributed to the dimension that caused it — down to an injected
operator slowdown on a live run.
"""

import json
import time

import pytest

from repro.data.flows import FlowConfig, generate_flows, router_partitioner
from repro.distributed import (
    OptimizationOptions,
    SimulatedCluster,
    execute_query,
)
from repro.errors import ObservabilityError
from repro.gmdj.operator import SyncSession
from repro.obs import MetricsRegistry, Tracer, build_profile, build_trace
from repro.obs.diff import (
    IMPROVED,
    REGRESSED,
    UNCHANGED,
    DiffEntry,
    diff_artifacts,
    diff_profiles,
    load_artifact,
    render_diff,
)
from repro.queries.cube import cube_lattice_queries
from repro.queries.multifeature import Feature, multifeature_query
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, detail


def build_cluster(sites: int = 2, flow_count: int = 120) -> SimulatedCluster:
    config = FlowConfig(flow_count=flow_count, router_count=sites)
    cluster = SimulatedCluster.with_sites(sites)
    cluster.load_partitioned(
        "Flow", generate_flows(config), router_partitioner(config)
    )
    return cluster


def cube_query():
    aggs = [count_star("cnt"), AggSpec("sum", detail.NumBytes, "bytes")]
    _subset, expression = cube_lattice_queries(
        "Flow", ["SourceAS", "DestAS"], aggs
    )[0]
    return expression


def traced_run(cluster, expression):
    tracer = Tracer()
    registry = MetricsRegistry()
    cluster.reset_network(metrics=registry)
    result = execute_query(
        cluster,
        expression,
        OptimizationOptions.none(),
        tracer=tracer,
        metrics=registry,
        query_id=1,
    )
    return tracer, registry, result


def profiled_run(cluster, expression):
    tracer, _registry, result = traced_run(cluster, expression)
    return build_profile(tracer.finished(), result.stats, query_id=1)


@pytest.fixture(scope="module")
def profile_dict():
    return profiled_run(build_cluster(), cube_query())


# ---------------------------------------------------------------------------
# Verdict math
# ---------------------------------------------------------------------------


class TestDiffEntry:
    def test_jitter_below_slack_is_unchanged(self):
        entry = DiffEntry("total", "query", "wall_s", 1.0, 1.004)
        assert entry.verdict() == UNCHANGED

    def test_large_relative_move_regresses(self):
        # +100% on 0.1s clears 10% * 0.1 + 5ms slack.
        entry = DiffEntry("total", "query", "wall_s", 0.1, 0.2)
        assert entry.verdict() == REGRESSED
        assert entry.worse_by() == pytest.approx(0.1)

    def test_symmetric_improvement(self):
        entry = DiffEntry("total", "query", "wall_s", 0.2, 0.1)
        assert entry.verdict() == IMPROVED

    def test_small_absolute_move_on_tiny_base_is_noise(self):
        # 4ms of jitter on a 1ms operator is not a 400% regression.
        entry = DiffEntry("operator", "x", "seconds", 0.001, 0.005)
        assert entry.verdict() == UNCHANGED

    def test_higher_is_better_metrics_invert_direction(self):
        dropped = DiffEntry(
            "metric", "profile", "time_coverage", 0.99, 0.8,
            unit="ratio", higher_is_worse=False,
        )
        assert dropped.verdict() == REGRESSED
        # A point of coverage either way stays inside the 0.02 slack.
        jitter = DiffEntry(
            "metric", "profile", "time_coverage", 0.99, 0.98,
            unit="ratio", higher_is_worse=False,
        )
        assert jitter.verdict() == UNCHANGED

    def test_severity_ranks_relative_movement(self):
        small_base = DiffEntry("operator", "merge", "seconds", 0.02, 0.1)
        large_base = DiffEntry("total", "query", "wall_s", 1.0, 1.08)
        assert small_base.severity() > large_base.severity()

    def test_to_dict_carries_verdict(self):
        entry = DiffEntry("total", "query", "wall_s", 0.1, 0.2)
        as_dict = entry.to_dict()
        assert as_dict["verdict"] == REGRESSED
        assert as_dict["delta"] == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# Profile diffs
# ---------------------------------------------------------------------------


class TestProfileDiff:
    def test_self_diff_reports_zero(self, profile_dict):
        diff = diff_profiles(profile_dict, profile_dict)
        assert diff.kind == "profile"
        assert diff.attributed_delta_s == 0.0
        assert diff.regressions() == []
        assert diff.improvements() == []
        assert diff.top_regression() is None
        assert all(
            entry.verdict(diff.threshold) == UNCHANGED
            for entry in diff.entries
        )

    def test_profile_entries_cover_the_attribution_dimensions(
        self, profile_dict
    ):
        diff = diff_profiles(profile_dict, profile_dict)
        dimensions = {entry.dimension for entry in diff.entries}
        assert {"total", "round", "site", "operator"} <= dimensions

    def test_total_slowdown_is_attributed(self, profile_dict):
        slowed = json.loads(json.dumps(profile_dict))
        slowed["wall_s"] = profile_dict["wall_s"] * 3.0 + 1.0
        diff = diff_profiles(profile_dict, slowed)
        top = diff.top_regression()
        assert top is not None
        assert (top.dimension, top.key, top.metric) == (
            "total", "query", "wall_s",
        )
        assert diff.attributed_delta_s > 0.0


    def test_injected_operator_slowdown_is_attributed_to_the_operator(
        self, monkeypatch
    ):
        # Unoptimized so the plan keeps its synchronization round: the
        # coordinator's round.merge operator must be on the hot path.
        cluster = build_cluster()
        expression = multifeature_query(
            "Flow",
            ["SourceAS"],
            [
                Feature(
                    [
                        count_star("cnt"),
                        AggSpec("avg", detail.NumBytes, "avg_bytes"),
                    ]
                ),
                Feature(
                    [count_star("heavy")],
                    when=detail.NumBytes >= base.avg_bytes,
                ),
            ],
        )

        before = profiled_run(cluster, expression)
        original_finish = SyncSession.finish

        def slowed_finish(self, *args, **kwargs):
            # 80 ms against the 5 ms absolute slack: a gate on an injected
            # delay, not on a ratio of two small timings.
            time.sleep(0.08)
            return original_finish(self, *args, **kwargs)

        monkeypatch.setattr(SyncSession, "finish", slowed_finish)
        after = profiled_run(cluster, expression)
        top = diff_profiles(before, after).top_regression()
        assert top is not None
        assert top.dimension == "operator"
        assert "round.merge" in top.key


# ---------------------------------------------------------------------------
# Artifact loading + the file-level entry point
# ---------------------------------------------------------------------------


class TestArtifacts:
    def write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_classification(self, tmp_path):
        profile = self.write(tmp_path, "profile.json", {"rounds": []})
        assert load_artifact(profile)[0] == "profile"

    def test_garbage_is_rejected(self, tmp_path):
        path = tmp_path / "garbage.txt"
        path.write_text("not json at all {", encoding="utf-8")
        with pytest.raises(ObservabilityError, match="neither"):
            load_artifact(str(path))
        unclassifiable = self.write(tmp_path, "what.json", {"foo": 1})
        with pytest.raises(ObservabilityError, match="classify"):
            load_artifact(unclassifiable)
        not_object = self.write(tmp_path, "list.json", [1, 2])
        with pytest.raises(ObservabilityError, match="JSON object"):
            load_artifact(not_object)

    def test_a_profile_with_a_site_list_is_refused(self, tmp_path):
        """Profiles key sites by site id, as the stats snapshot does; the
        older list-of-sites shape is refused with a typed error."""
        old = self.write(
            tmp_path, "old.json",
            {"rounds": [{"index": 0, "kind": "md", "sites": [{"site_id": "s0"}]}]},
        )
        with pytest.raises(ObservabilityError, match="site id"):
            load_artifact(old)

    def test_trace_diffed_against_itself_is_zero(self, tmp_path):
        cluster = build_cluster()
        tracer, registry, result = traced_run(cluster, cube_query())
        log = build_trace(tracer, registry, result.stats, query_id=1)
        before = tmp_path / "before.jsonl"
        after = tmp_path / "after.jsonl"
        log.dump(before)
        log.dump(after)
        diff = diff_artifacts(str(before), str(after), query_id=1)
        assert diff.kind == "profile"
        assert diff.attributed_delta_s == 0.0
        assert diff.regressions() == []
        assert "no attributed regressions" in render_diff(diff)

    def test_a_flight_dump_is_refused_with_a_pointer(self, tmp_path, capsys):
        """A dump loads as a trace but holds no run's stats: ``repro diff``
        exits 2 and says which command renders it."""
        from repro.cli import main
        from repro.obs import FlightRecorder, flight_path

        recorder = FlightRecorder(process="site", site_id="s0")
        recorder.record_event("request", kind="round")
        dump = recorder.dump(flight_path(tmp_path, "site", "s0"))
        assert load_artifact(dump)[0] == "trace"
        profile = self.write(tmp_path, "profile.json", {"rounds": []})
        for pair in ((dump, profile), (profile, dump)):
            assert main(["diff", *pair]) == 2
            assert (
                "a flight dump holds spans and events, not a run's stats — "
                "render it with `repro trace --flight`"
            ) in capsys.readouterr().err


class TestRendering:
    def test_render_names_the_top_regression(self, profile_dict):
        slowed = json.loads(json.dumps(profile_dict))
        slowed["wall_s"] = profile_dict["wall_s"] * 3.0 + 1.0
        rendered = render_diff(diff_profiles(profile_dict, slowed))
        assert "series compared" in rendered
        assert "REGRESSED" in rendered
        assert "top regression: total query wall_s" in rendered
