"""Unit tests for execution statistics and the Theorem 2 bound."""

import pytest

from repro.distributed.stats import (
    ExecutionStats,
    RoundStats,
    check_theorem2,
    theorem2_bound,
)
from repro.net.costmodel import FREE, CostModel

MODEL = CostModel(latency_s=0.01, bandwidth_bytes_per_s=1000)


def populated_stats():
    stats = ExecutionStats()
    base_round = stats.new_round(0, "base", "b")
    site = base_round.site("s0")
    site.bytes_up = 500
    site.tuples_up = 10
    site.compute_s = 0.2
    base_round.coordinator_compute_s = 0.1

    md_round = stats.new_round(1, "md", "m")
    for site_id, (down, up) in {"s0": (1000, 300), "s1": (2000, 100)}.items():
        site = md_round.site(site_id)
        site.bytes_down = down
        site.bytes_up = up
        site.tuples_down = down // 10
        site.tuples_up = up // 10
        site.compute_s = 0.5 if site_id == "s0" else 0.3
    md_round.coordinator_compute_s = 0.05
    return stats


class TestRoundStats:
    def test_site_creates_on_demand(self):
        round_stats = RoundStats(0, "md")
        assert round_stats.site("sX").bytes_down == 0
        assert "sX" in round_stats.sites

    def test_totals(self):
        stats = populated_stats()
        md_round = stats.rounds[1]
        assert md_round.bytes_down == 3000
        assert md_round.bytes_up == 400
        assert md_round.bytes_total == 3400
        assert md_round.tuples_down == 300
        assert md_round.tuples_up == 40

    def test_critical_path_site_compute(self):
        assert populated_stats().rounds[1].site_compute_critical_s() == 0.5

    def test_communication_is_slowest_channel(self):
        md_round = populated_stats().rounds[1]
        # s0: (0.01 + 1.0) + (0.01 + 0.3); s1: (0.01 + 2.0) + (0.01 + 0.1)
        assert md_round.communication_s(MODEL) == pytest.approx(2.12)

    def test_response_time_overlaps_compute_and_transfer(self):
        md_round = populated_stats().rounds[1]
        # s0: 1.01 + 0.5 + 0.31 = 1.82 ; s1: 2.01 + 0.3 + 0.11 = 2.42
        assert md_round.response_time_s(MODEL) == pytest.approx(2.42 + 0.05)

    def test_empty_round_zero_times(self):
        round_stats = RoundStats(0, "md")
        assert round_stats.site_compute_critical_s() == 0.0
        assert round_stats.communication_s(MODEL) == 0.0
        assert round_stats.response_time_s(MODEL) == 0.0


class TestExecutionStats:
    def test_totals_across_rounds(self):
        stats = populated_stats()
        assert stats.round_count == 2
        assert stats.bytes_total == 500 + 3400
        assert stats.bytes_down == 3000
        assert stats.bytes_up == 900
        assert stats.tuples_total == 10 + 340
        assert stats.tuples_up_md() == 40
        assert stats.md_round_count() == 1

    def test_compute_aggregates(self):
        stats = populated_stats()
        assert stats.site_compute_s() == pytest.approx(0.7)
        assert stats.site_compute_total_s() == pytest.approx(1.0)
        assert stats.coordinator_compute_s() == pytest.approx(0.15)

    def test_breakdown_is_additive(self):
        stats = populated_stats()
        breakdown = stats.breakdown(MODEL)
        assert breakdown["total_s"] == pytest.approx(
            breakdown["site_compute_s"]
            + breakdown["coordinator_compute_s"]
            + breakdown["communication_s"]
        )

    def test_free_model_communication_zero_latency(self):
        stats = populated_stats()
        assert stats.communication_s(FREE) == 0.0

    def test_summary_mentions_rounds(self):
        text = populated_stats().summary()
        assert "rounds: 2" in text
        assert "base" in text


class TestSerialization:
    def test_to_dict_is_json_serializable(self):
        import json

        stats = populated_stats()
        snapshot = stats.to_dict(MODEL)
        text = json.dumps(snapshot)
        parsed = json.loads(text)
        assert parsed["bytes_total"] == stats.bytes_total
        assert parsed["rounds"][1]["sites"]["s0"]["bytes_down"] == 1000
        assert "breakdown" in parsed

    def test_to_dict_without_model_omits_breakdown(self):
        snapshot = populated_stats().to_dict()
        assert "breakdown" not in snapshot
        assert snapshot["tuples_total"] == populated_stats().tuples_total


class TestTheorem2:
    def test_bound_formula(self):
        # sum(2 * s_i * |Q|) + s_0 * |Q|
        assert theorem2_bound(100, 4, [4, 4]) == 4 * 100 + 2 * 4 * 100 * 2

    def test_check_accepts_within_bound(self):
        stats = populated_stats()  # 350 tuples total
        assert check_theorem2(stats, 100, 4, [4, 4])

    def test_check_rejects_over_bound(self):
        stats = populated_stats()
        assert not check_theorem2(stats, 1, 1, [1])
