"""GMDJ operator semantics, validated against a brute-force Definition 1."""

import random

import pytest

from conftest import brute_force_gmdj, assert_relations_equal, make_flows
from repro.errors import HolisticAggregateError
from repro.gmdj.blocks import MDBlock
from repro.gmdj.operator import evaluate, evaluate_both, evaluate_sub, super_aggregate
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, detail
from repro.relalg.relation import Relation
from repro.relalg.schema import FLOAT, INT, STR, Schema

FLOW = make_flows(count=120, seed=5)
BASE = FLOW.distinct_project(["SourceAS", "DestAS"])

KEY_CONDITION = (base.SourceAS == detail.SourceAS) & (base.DestAS == detail.DestAS)


class TestAgainstBruteForce:
    def test_simple_grouping(self):
        blocks = [
            MDBlock(
                [count_star("cnt"), AggSpec("sum", detail.NumBytes, "total")],
                KEY_CONDITION,
            )
        ]
        assert_relations_equal(
            evaluate(BASE, FLOW, blocks), brute_force_gmdj(BASE, FLOW, blocks)
        )

    def test_overlapping_groups(self):
        # RNG sets overlap: every base row aggregates all detail rows with
        # NumBytes above its own SourceAS * 100 — not SQL-expressible.
        blocks = [
            MDBlock(
                [count_star("cnt"), AggSpec("max", detail.NumBytes, "biggest")],
                detail.NumBytes > base.SourceAS * 100.0,
            )
        ]
        assert_relations_equal(
            evaluate(BASE, FLOW, blocks), brute_force_gmdj(BASE, FLOW, blocks)
        )

    def test_multiple_blocks(self):
        blocks = [
            MDBlock([count_star("cnt_all")], KEY_CONDITION),
            MDBlock(
                [AggSpec("avg", detail.NumBytes, "avg_small")],
                KEY_CONDITION & (detail.NumBytes < 1000),
            ),
        ]
        assert_relations_equal(
            evaluate(BASE, FLOW, blocks), brute_force_gmdj(BASE, FLOW, blocks)
        )

    def test_residual_condition(self):
        blocks = [
            MDBlock(
                [count_star("cnt")],
                (base.SourceAS == detail.SourceAS)
                & (detail.DestAS > base.DestAS),
            )
        ]
        assert_relations_equal(
            evaluate(BASE, FLOW, blocks), brute_force_gmdj(BASE, FLOW, blocks)
        )

    def test_base_only_conjunct(self):
        blocks = [
            MDBlock(
                [count_star("cnt")],
                KEY_CONDITION & (base.SourceAS < 8),
            )
        ]
        assert_relations_equal(
            evaluate(BASE, FLOW, blocks), brute_force_gmdj(BASE, FLOW, blocks)
        )

    def test_expression_valued_equality_atom(self):
        blocks = [
            MDBlock(
                [count_star("cnt")],
                base.SourceAS + base.DestAS == detail.SourceAS,
            )
        ]
        assert_relations_equal(
            evaluate(BASE, FLOW, blocks), brute_force_gmdj(BASE, FLOW, blocks)
        )

    def test_randomized_conditions(self):
        rng = random.Random(99)
        condition_pool = [
            KEY_CONDITION,
            base.SourceAS == detail.SourceAS,
            (base.SourceAS == detail.SourceAS) & (detail.NumBytes >= 500),
            detail.DestAS == base.DestAS,
            (detail.SourceAS > base.SourceAS) & (detail.DestAS == base.DestAS),
        ]
        for _trial in range(5):
            blocks = [
                MDBlock(
                    [count_star(f"c{i}"), AggSpec("avg", detail.NumBytes, f"a{i}")],
                    rng.choice(condition_pool),
                )
                for i in range(rng.randrange(1, 3))
            ]
            assert_relations_equal(
                evaluate(BASE, FLOW, blocks), brute_force_gmdj(BASE, FLOW, blocks)
            )


class TestEdgeCases:
    def test_empty_detail(self):
        blocks = [
            MDBlock(
                [count_star("cnt"), AggSpec("sum", detail.NumBytes, "s")],
                KEY_CONDITION,
            )
        ]
        result = evaluate(BASE, Relation.empty(FLOW.schema), blocks)
        assert len(result) == len(BASE)
        for row in result.rows:
            assert row[-2] == 0  # COUNT over empty RNG
            assert row[-1] is None  # SUM over empty RNG

    def test_empty_base(self):
        blocks = [MDBlock([count_star("cnt")], KEY_CONDITION)]
        result = evaluate(Relation.empty(BASE.schema), FLOW, blocks)
        assert len(result) == 0

    def test_duplicate_base_rows_each_counted(self):
        doubled = BASE.union_all(BASE)
        blocks = [MDBlock([count_star("cnt")], KEY_CONDITION)]
        result = evaluate(doubled, FLOW, blocks)
        assert_relations_equal(result, brute_force_gmdj(doubled, FLOW, blocks))

    def test_null_join_values(self):
        schema = Schema.of(("k", INT), ("v", FLOAT))
        detail_relation = Relation(schema, [(1, 1.0), (None, 2.0)])
        base_relation = Relation(
            Schema.of(("k", INT),), [(1,), (None,)]
        )
        blocks = [MDBlock([count_star("cnt")], base.k == detail.k)]
        result = evaluate(base_relation, detail_relation, blocks)
        by_key = {row[0]: row[1] for row in result.rows}
        assert by_key[1] == 1
        # NULL == NULL is False under SQL comparison semantics: count 0.
        assert by_key[None] == 0

    def test_holistic_centrally_ok(self):
        blocks = [MDBlock([AggSpec("median", detail.NumBytes, "med")], KEY_CONDITION)]
        result = evaluate(BASE, FLOW, blocks)
        assert_relations_equal(result, brute_force_gmdj(BASE, FLOW, blocks))

    def test_holistic_sub_rejected(self):
        blocks = [MDBlock([AggSpec("median", detail.NumBytes, "med")], KEY_CONDITION)]
        with pytest.raises(HolisticAggregateError):
            evaluate_sub(BASE, FLOW, blocks)
        with pytest.raises(HolisticAggregateError):
            evaluate_both(BASE, FLOW, blocks)


class TestSubAndSuper:
    BLOCKS = [
        MDBlock(
            [count_star("cnt"), AggSpec("avg", detail.NumBytes, "avg_nb")],
            KEY_CONDITION,
        )
    ]

    def test_theorem1_two_way_partition(self):
        half = len(FLOW.rows) // 2
        part_a = Relation(FLOW.schema, FLOW.rows[:half])
        part_b = Relation(FLOW.schema, FLOW.rows[half:])
        h_a, _touched = evaluate_sub(BASE, part_a, self.BLOCKS)
        h_b, _touched = evaluate_sub(BASE, part_b, self.BLOCKS)
        merged = super_aggregate(
            BASE, h_a.union_all(h_b), ["SourceAS", "DestAS"], self.BLOCKS
        )
        assert_relations_equal(merged, evaluate(BASE, FLOW, self.BLOCKS))

    def test_theorem1_many_way_partition(self):
        pieces = [
            Relation(FLOW.schema, FLOW.rows[start::5]) for start in range(5)
        ]
        h = None
        for piece in pieces:
            h_i, _touched = evaluate_sub(BASE, piece, self.BLOCKS)
            h = h_i if h is None else h.union_all(h_i)
        merged = super_aggregate(BASE, h, ["SourceAS", "DestAS"], self.BLOCKS)
        assert_relations_equal(merged, evaluate(BASE, FLOW, self.BLOCKS))

    def test_touch_flags_match_counts(self):
        sub, touched = evaluate_sub(BASE, FLOW, self.BLOCKS)
        count_position = sub.schema.position("cnt")
        for row, touch in zip(sub.rows, touched):
            assert (row[count_position] > 0) == touch

    def test_touch_flags_or_across_blocks(self):
        blocks = [
            MDBlock([count_star("c1")], KEY_CONDITION & (detail.NumBytes < 0)),
            MDBlock([count_star("c2")], KEY_CONDITION),
        ]
        _sub, touched = evaluate_sub(BASE, FLOW, blocks)
        assert all(touched)  # second block touches every group

    def test_evaluate_both_consistent(self):
        full, sub, touched = evaluate_both(BASE, FLOW, self.BLOCKS)
        assert_relations_equal(full, evaluate(BASE, FLOW, self.BLOCKS))
        expected_sub, expected_touched = evaluate_sub(BASE, FLOW, self.BLOCKS)
        assert_relations_equal(sub, expected_sub)
        assert touched.tolist() == expected_touched.tolist()

    def test_super_aggregate_on_empty_h(self):
        h, _touched = evaluate_sub(BASE, Relation.empty(FLOW.schema), self.BLOCKS)
        merged = super_aggregate(BASE, h, ["SourceAS", "DestAS"], self.BLOCKS)
        for row in merged.rows:
            assert row[-2] == 0
            assert row[-1] is None
