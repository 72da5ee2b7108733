"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main
from repro.queries.sql import SqlError


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "fig99"])


class TestDemo:
    def test_demo_runs(self):
        code, output = run_cli(["demo", "--sites", "2", "--scale", "0.0002"])
        assert code == 0
        assert "no optimizations" in output
        assert "all optimizations" in output
        assert "NationKey" in output


class TestServe:
    def test_self_test_refuses_sockets_in_one_line(self):
        code, output = run_cli(["serve", "--self-test", "--executor", "sockets"])
        assert code != 0
        assert output.count("\n") == 1
        assert "appends" in output


class TestSql:
    QUERY = (
        "SELECT NationKey, COUNT(*) AS cnt FROM TPCR GROUP BY NationKey "
        "THEN SELECT MAX(Price) AS top WHERE Price > 0"
    )

    def test_star(self):
        code, output = run_cli(
            ["sql", self.QUERY, "--sites", "2", "--scale", "0.0002"]
        )
        assert code == 0
        assert "syncs=" in output
        assert "cnt" in output

    def test_tree(self):
        code, output = run_cli(
            [
                "sql",
                self.QUERY,
                "--sites",
                "4",
                "--scale",
                "0.0002",
                "--topology",
                "tree:2",
            ]
        )
        assert code == 0
        assert "root-link bytes=" in output

    def test_flows_data(self):
        code, output = run_cli(
            [
                "sql",
                "SELECT SourceAS, COUNT(*) AS flows FROM Flow GROUP BY SourceAS",
                "--data",
                "flows",
                "--sites",
                "2",
                "--scale",
                "0.0001",
            ]
        )
        assert code == 0
        assert "flows" in output

    @pytest.mark.parametrize(
        "topology", ["ring", "tree:abc", "tree:0", "hierarchical:99"]
    )
    def test_bad_topology(self, topology, capsys):
        code, _output = run_cli(
            ["sql", self.QUERY, "--topology", topology, "--sites", "4",
             "--scale", "0.0002"]
        )
        assert code == 2
        message = capsys.readouterr().err
        assert message.startswith("repro sql: ") and message.count("\n") == 1

    def test_bad_sql_raises(self):
        with pytest.raises(SqlError):
            run_cli(["sql", "SELECT FROM nowhere"])


class TestTrace:
    QUERY = "SELECT NationKey, COUNT(*) AS cnt FROM TPCR GROUP BY NationKey"

    def test_timeline(self):
        code, output = run_cli(
            ["trace", self.QUERY, "--sites", "2", "--scale", "0.0002"]
        )
        assert code == 0
        assert "per-round timeline" in output
        assert "totals: rounds=" in output
        assert "merge" in output
        assert "trace:" in output and "spans" in output

    def test_sites_are_listed_in_tree_order(self):
        """`repro trace` and `explain --analyze` draw one renderer, which
        lists a round's sites in the stats' order (site0 … site11), not
        sorted as strings (site0, site1, site10, …)."""
        import re

        argv = [self.QUERY, "--sites", "12", "--scale", "0.0002"]
        for command in (["trace"], ["explain", "--analyze"]):
            code, output = run_cli([command[0], *argv, *command[1:]])
            assert code == 0, output
            listed = re.findall(r"(?m)^[|+\- ]*(site\d+) ", output)
            assert listed[:12] == [f"site{index}" for index in range(12)]

    def test_timeline_totals_match_stats(self):
        import re

        from repro.cli import _build_cluster, _options, build_parser
        from repro.distributed import execute_query
        from repro.queries.sql import parse_olap_statement

        argv = ["trace", self.QUERY, "--sites", "2", "--scale", "0.0002"]
        code, output = run_cli(argv)
        assert code == 0
        footer = re.search(
            r"totals: rounds=(\d+) bytes=(\d+) \(down=(\d+) up=(\d+)\) tuples=(\d+)",
            output,
        )
        assert footer is not None
        args = build_parser().parse_args(argv)
        result = execute_query(
            _build_cluster(args),
            parse_olap_statement(args.query).expression,
            _options(args),
        )
        assert [int(group) for group in footer.groups()] == [
            result.stats.round_count,
            result.stats.bytes_total,
            result.stats.bytes_down,
            result.stats.bytes_up,
            result.stats.tuples_total,
        ]

    def test_json_round_trips(self):
        from repro.obs import SCHEMA_VERSION, EventLog

        code, output = run_cli(
            ["trace", self.QUERY, "--sites", "2", "--scale", "0.0002", "--json"]
        )
        assert code == 0
        log = EventLog.loads(output)
        assert log.schema_version == SCHEMA_VERSION
        assert log.records_of("span")
        assert log.records_of("metric")
        assert len(log.records_of("stats")) == 1
        assert EventLog.loads(log.dumps()) == log

    def test_emit_trace_writes_file(self, tmp_path):
        from repro.obs import EventLog

        path = tmp_path / "trace.jsonl"
        code, output = run_cli(
            [
                "trace",
                self.QUERY,
                "--sites",
                "2",
                "--scale",
                "0.0002",
                "--emit-trace",
                str(path),
            ]
        )
        assert code == 0
        assert str(path) in output
        log = EventLog.load(path)
        log.validate()
        assert log.records_of("span")

    def test_tree_topology_rejected(self):
        code, _output = run_cli(
            ["trace", self.QUERY, "--topology", "tree:2", "--scale", "0.0002"]
        )
        assert code == 2


class TestFigures:
    def test_single_figure(self):
        code, output = run_cli(["figures", "fig2", "--scale", "0.0002"])
        assert code == 0
        assert "Figure 2" in output
        assert "predicted=" in output

    def test_aware_extension(self):
        code, output = run_cli(["figures", "fig2x", "--scale", "0.0002"])
        assert code == 0
        assert "aware" in output

    def test_fig3_and_fig4(self):
        code, output = run_cli(["figures", "fig3", "--scale", "0.0002"])
        assert code == 0
        assert "coalescing" in output
        code, output = run_cli(["figures", "fig4", "--scale", "0.0002"])
        assert code == 0
        assert "synchronization" in output

    def test_fig5(self):
        code, output = run_cli(["figures", "fig5", "--scale", "0.0002"])
        assert code == 0
        assert "scale-up" in output


class TestExplain:
    QUERY = (
        "SELECT NationKey, COUNT(*) AS cnt, AVG(Price) AS avg_price "
        "FROM TPCR GROUP BY NationKey "
        "THEN SELECT COUNT(*) AS above WHERE Price >= avg_price"
    )

    def test_estimate_only(self):
        code, output = run_cli(
            ["explain", self.QUERY, "--sites", "2", "--scale", "0.0003"]
        )
        assert code == 0
        assert "round 1" in output
        assert "optimizations (estimated by ablation)" in output
        assert "EXPLAIN ANALYZE" not in output  # estimate-only does not run

    def test_analyze_renders_tree_and_meets_bars(self):
        code, output = run_cli(
            ["explain", self.QUERY, "--sites", "2", "--scale", "0.0003",
             "--analyze"]
        )
        assert code == 0, output
        assert "EXPLAIN ANALYZE" in output
        assert "attributed to plan nodes" in output
        assert "optimizations (measured vs unoptimized estimate)" in output
        assert "+- site0" in output
        assert "+- merge" in output

    def test_analyze_reports_the_chosen_merge_topology(self):
        code, output = run_cli(
            ["explain", self.QUERY, "--sites", "8", "--scale", "0.0003",
             "--analyze"]
        )
        assert code == 0, output
        assert "merge topology [" in output

    def test_analyze_forced_topology_reports_measured_saving(self):
        code, output = run_cli(
            ["explain", self.QUERY, "--sites", "8", "--scale", "0.0003",
             "--analyze", "--topology", "hierarchical:2"]
        )
        assert code == 0, output
        assert "merge topology [hierarchical:2]" in output
        assert "measured" in output
        assert "+- combiner:0" in output

    def test_analyze_json_profile(self):
        import json

        code, output = run_cli(
            ["explain", self.QUERY, "--sites", "2", "--scale", "0.0003",
             "--analyze", "--json"]
        )
        assert code == 0
        profile = json.loads(output)
        assert profile["time_coverage"] >= 0.95
        assert profile["bytes_coverage"] == 1.0
        assert profile["optimizations"], "applied optimizations must be priced"
        for entry in profile["optimizations"]:
            assert entry["measured_tuples"] is not None

    def test_analyze_emit_trace_is_profilable(self, tmp_path):
        from repro.obs import EventLog
        from repro.obs.profile import profile_from_trace

        path = tmp_path / "explain.jsonl"
        code, _output = run_cli(
            ["explain", self.QUERY, "--sites", "2", "--scale", "0.0003",
             "--analyze", "--emit-trace", str(path)]
        )
        assert code == 0
        rebuilt = profile_from_trace(EventLog.load(path), query_id=1)
        assert rebuilt["time_coverage"] >= 0.95

    def test_analyze_emit_trace_carries_what_the_profile_carries(
        self, tmp_path
    ):
        """The trace `--emit-trace` writes rebuilds the very profile
        `--json` prints — impacts and topology choice included — so
        `repro diff` of the two finds nothing to report."""
        import json

        from repro.obs import EventLog, diff_artifacts
        from repro.obs.profile import profile_from_trace

        trace = tmp_path / "run.jsonl"
        profile = tmp_path / "run.json"
        code, output = run_cli(
            ["explain", self.QUERY, "--sites", "4", "--scale", "0.001",
             "--analyze", "--json", "--emit-trace", str(trace)]
        )
        assert code == 0
        profile.write_text(output, encoding="utf-8")
        printed = json.loads(output)
        assert printed["optimizations"]
        rebuilt = profile_from_trace(EventLog.load(trace), query_id=1)
        assert rebuilt == printed
        diff = diff_artifacts(str(trace), str(profile))
        assert diff.regressions() == [] and diff.improvements() == []

    def test_estimate_json(self):
        import json

        code, output = run_cli(
            ["explain", self.QUERY, "--sites", "2", "--scale", "0.0003",
             "--json"]
        )
        assert code == 0
        document = json.loads(output)
        assert "plan" in document
        assert document["optimizations"]


class TestTop:
    def test_one_frame_from_live_endpoint(self):
        from repro.obs import MetricsRegistry, start_metrics_server

        registry = MetricsRegistry()
        registry.counter("service.queries").inc(4)
        with start_metrics_server(registry, port=0) as server:
            code, output = run_cli(
                ["top", "--url", server.url, "--iterations", "1",
                 "--interval", "0"]
            )
        assert code == 0
        assert "repro top" in output
        assert "queries=4" in output

    def test_unreachable_endpoint_exits_nonzero(self):
        code, output = run_cli(
            ["top", "--url", "http://127.0.0.1:1/metrics",
             "--iterations", "1", "--interval", "0"]
        )
        assert code == 1
        assert "unreachable" in output


class TestDiffCommand:
    @pytest.fixture(scope="class")
    def profile(self):
        import json

        code, output = run_cli(
            ["explain", TestExplain.QUERY, "--sites", "2", "--scale", "0.0003",
             "--analyze", "--json"]
        )
        assert code == 0
        return json.loads(output)

    def write(self, path, payload, slowed=False):
        import json

        if slowed:
            payload = dict(payload, wall_s=payload["wall_s"] * 3.0 + 1.0)
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_identical_artifacts_exit_0(self, tmp_path, profile):
        before = self.write(tmp_path / "a.json", profile)
        after = self.write(tmp_path / "b.json", profile)
        code, text = run_cli(["diff", before, after])
        assert code == 0
        assert "no attributed regressions" in text

    def test_regression_exits_1_and_names_the_cause(self, tmp_path, profile):
        before = self.write(tmp_path / "a.json", profile)
        after = self.write(tmp_path / "b.json", profile, slowed=True)
        code, text = run_cli(["diff", before, after])
        assert code == 1
        assert "REGRESSED" in text
        assert "top regression: total query wall_s" in text

    def test_json_output_round_trips(self, tmp_path, profile):
        import json

        before = self.write(tmp_path / "a.json", profile)
        after = self.write(tmp_path / "b.json", profile, slowed=True)
        code, text = run_cli(["diff", before, after, "--json"])
        assert code == 1
        payload = json.loads(text)
        assert payload["kind"] == "profile"
        assert payload["regressions"] >= 1
        assert payload["entries"]

    def test_missing_file_exit_2(self, tmp_path, profile):
        before = self.write(tmp_path / "a.json", profile)
        code, _text = run_cli(["diff", before, str(tmp_path / "nope.json")])
        assert code == 2

    def test_unclassifiable_artifact_exit_2(self, tmp_path, profile):
        before = self.write(tmp_path / "a.json", profile)
        unknown = self.write(tmp_path / "b.json", {"profiler": {}})
        code, _text = run_cli(["diff", before, unknown])
        assert code == 2

    def test_trace_diffed_against_itself_via_cli(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        code, _text = run_cli(
            ["trace",
             "SELECT NationKey, COUNT(*) AS cnt FROM TPCR GROUP BY NationKey",
             "--sites", "2", "--scale", "0.0002",
             "--emit-trace", str(trace)]
        )
        assert code == 0
        code, text = run_cli(["diff", str(trace), str(trace)])
        assert code == 0
        assert "repro diff [profile]" in text
        assert "no attributed regressions" in text
