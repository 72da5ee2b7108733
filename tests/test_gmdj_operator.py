"""GMDJ operator semantics, validated against a brute-force Definition 1."""

import random
import sys
import threading

import pytest

from conftest import brute_force_gmdj, assert_relations_equal, make_flows, same_rows
from oracle import row_scan
from repro.errors import HolisticAggregateError
from repro.gmdj.blocks import MDBlock
from repro.gmdj.operator import SyncSession, evaluate, evaluate_both, evaluate_sub, super_aggregate
from repro.relalg import columnar, compiler
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


def test_the_scan_builds_no_base_rows():
    """A base-only conjunct and a computed base key run on the base's
    columns: a column-backed base builds no rows."""
    schema = Schema.of(("g", INT), ("h", INT))
    base_relation = Relation.of_columns(schema, [[0, 1, 2], [5, -1, 7]], 3)
    detail_relation = Relation(
        Schema.of(("g", INT), ("h", INT), ("v", FLOAT)),
        [(0, 5, 1.0), (1, -1, 2.0), (2, 7, 4.0), (0, 7, 8.0)],
    )
    blocks = [
        MDBlock([count_star("c1"), AggSpec("sum", detail.v, "s1")],
                (base.h > 0) & (base.h * 1 == detail.h)),
        MDBlock([AggSpec("sum", detail.v, "s2")],
                (base.g == detail.g) & (-(-base.h) == detail.h)),
    ]
    evaluate_sub(base_relation, detail_relation, blocks)
    assert base_relation._rows is None
    result = evaluate(base_relation, detail_relation, blocks)
    assert base_relation._rows is None
    assert result.rows == [(0, 5, 1, 1.0, 1.0), (1, -1, 0, None, 2.0), (2, 7, 2, 12.0, 4.0)]


@pytest.mark.parametrize("width", [1, 2])
def test_a_key_of_one_base_row_folds_by_key_code(monkeypatch, width):
    """When every distinct detail key meets one base row and no base row
    two keys, the fold's groups are the detail's key codes: ten keys over
    10**5 rows fold into 11 groups (the last for the base rows no key
    reaches), not into the 1000 base rows. One attribute takes the hash
    table's probe, two the ``int64`` composite probe."""
    names = ["g", "h"][:width]
    schema = Schema.of(*((name, INT) for name in names), ("v", FLOAT))
    base_relation = Relation(Schema.of(*((name, INT) for name in names)),
                             [(g, g % 7)[:width] for g in range(1000)])
    rng = random.Random(34)
    keys = [(g, g % 7) for g in rng.sample(range(1000), 10)]
    detail_relation = Relation.of_columns(
        schema,
        [*map(list, zip(*(keys[i % 10][:width] for i in range(10**5)))),
         [rng.uniform(-5, 5) for _ in range(10**5)]],
        10**5,
    )
    condition = base.g == detail.g
    if width == 2:
        condition = condition & (base.h == detail.h)
    blocks = [MDBlock([AggSpec("sum", detail.v, "s"), AggSpec("max", detail.v, "m")], condition)]
    sizes = []
    fold = compiler._fold
    monkeypatch.setattr(compiler, "_fold", lambda *args: sizes.append(len(args[3])) or fold(*args))
    result = evaluate(base_relation, detail_relation, blocks)
    assert sizes == [11, 11]
    monkeypatch.undo()
    with row_scan():
        assert repr(result.rows) == repr(evaluate(base_relation, detail_relation, blocks).rows)


def test_a_sync_session_builds_its_lookup_once(monkeypatch):
    """A session absorbs many fragments (one per source, or a source's
    answer in parts): it builds X's ``dict`` once, not once per fragment,
    and answers as one scan does."""
    base_relation = Relation(Schema.of(("g", INT)), [(g,) for g in range(100)])
    detail_relation = Relation(
        Schema.of(("g", INT), ("v", FLOAT)), [(g % 100, float(g)) for g in range(400)]
    )
    blocks = [MDBlock([count_star("c"), AggSpec("sum", detail.v, "s")], base.g == detail.g)]
    h, _touched = evaluate_sub(base_relation, detail_relation, blocks)
    builds = []
    finder = columnar._DictKeys.finder
    monkeypatch.setattr(columnar._DictKeys, "finder", lambda self: builds.append(len(self)) or finder(self))
    session = SyncSession(base_relation, ["g"], blocks)
    for start in range(0, len(h), 10):
        session.absorb(Relation(h.schema, h.rows[start:start + 10]), "site0")
    assert builds == [100]
    with row_scan():
        expected = evaluate(base_relation, detail_relation, blocks)
    assert repr(session.finish().rows) == repr(expected.rows)


SYNC_FLOW = make_flows(count=300, seed=61)
SYNC_KEY = base.SourceAS == detail.SourceAS


class TestSyncSession:
    """A :class:`SyncSession` takes any number of fragments per source, in
    any order, and folds them as one."""

    BLOCKS = [
        MDBlock([count_star("cnt"), AggSpec("avg", detail.NumBytes, "m")], SYNC_KEY)
    ]

    def test_absorb_order_irrelevant(self):
        base_relation = SYNC_FLOW.distinct_project(["SourceAS"])
        pieces = [Relation(SYNC_FLOW.schema, SYNC_FLOW.rows[start::3]) for start in range(3)]
        subs = [
            evaluate_sub(base_relation, piece, self.BLOCKS)[0] for piece in pieces
        ]
        forward = SyncSession(base_relation, ["SourceAS"], self.BLOCKS)
        for sub in subs:
            forward.absorb(sub)
        backward = SyncSession(base_relation, ["SourceAS"], self.BLOCKS)
        for sub in reversed(subs):
            backward.absorb(sub)
        assert same_rows(forward.finish(), backward.finish())

    def test_split_fragments_equal_whole_ones(self):
        base_relation = SYNC_FLOW.distinct_project(["SourceAS"])
        sub, _touched = evaluate_sub(base_relation, SYNC_FLOW, self.BLOCKS)
        whole = SyncSession(base_relation, ["SourceAS"], self.BLOCKS)
        whole.absorb(sub)
        split = SyncSession(base_relation, ["SourceAS"], self.BLOCKS)
        for start in range(0, len(sub.rows), 5):
            split.absorb(Relation(sub.schema, sub.rows[start : start + 5]))
        assert_relations_equal(whole.finish(), split.finish())

    @pytest.mark.parametrize(
        "specs",
        [
            [AggSpec("var", detail.NumBytes, "v"), AggSpec("std", detail.NumBytes, "s")],
            [AggSpec("geomean", detail.NumBytes, "g"), count_star("cnt")],
        ],
        ids=["var_std", "geomean"],
    )
    def test_multi_component_functions(self, specs):
        # Three sources, each split in parts: the three-component VAR/STD
        # and the logsum/poscount pair go through per-source banks and
        # their merge.
        blocks = [MDBlock(specs, SYNC_KEY)]
        base_relation = SYNC_FLOW.distinct_project(["SourceAS"])
        session = SyncSession(base_relation, ["SourceAS"], blocks)
        for site in range(3):
            piece = Relation(SYNC_FLOW.schema, SYNC_FLOW.rows[site::3])
            sub, _touched = evaluate_sub(base_relation, piece, blocks)
            for start in range(0, len(sub.rows), 5):
                session.absorb(
                    Relation(sub.schema, sub.rows[start : start + 5]), f"site{site}"
                )
        assert_relations_equal(
            session.finish(), evaluate(base_relation, SYNC_FLOW, blocks), places=6
        )

    def test_concurrent_absorbs_lose_nothing(self):
        """Sixteen sources absorb at once on more threads than cores: a lost
        bank or touch update would change the relation or the touches."""
        base_relation = SYNC_FLOW.distinct_project(["SourceAS"])
        blocks = [
            MDBlock([count_star("cnt"), AggSpec("sum", detail.NumBytes, "s")], SYNC_KEY)
        ]
        subs = [
            evaluate_sub(
                base_relation, Relation(SYNC_FLOW.schema, SYNC_FLOW.rows[site::16]), blocks
            )[0]
            for site in range(16)
        ]

        def fold(threaded):
            session = SyncSession(base_relation, ["SourceAS"], blocks, observes=True)

            def absorb(site, sub):
                for start in range(0, len(sub), 3):
                    session.absorb(Relation(sub.schema, sub.rows[start : start + 3]), f"s{site}")

            if not threaded:
                for site, sub in enumerate(subs):
                    absorb(site, sub)
                return session
            workers = [
                threading.Thread(target=absorb, args=(site, sub)) for site, sub in enumerate(subs)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
                assert not worker.is_alive()
            return session

        serial = fold(threaded=False)
        expected = serial.finish().rows
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _attempt in range(5):
                session = fold(threaded=True)
                assert repr(session.finish().rows) == repr(expected)
                assert {
                    source: sorted(positions.tolist())
                    for source, positions in session.touched().items()
                } == {
                    source: sorted(positions.tolist())
                    for source, positions in serial.touched().items()
                }
        finally:
            sys.setswitchinterval(interval)

    def test_no_absorb_gives_empty_aggregates(self):
        base_relation = SYNC_FLOW.distinct_project(["SourceAS"])
        session = SyncSession(base_relation, ["SourceAS"], self.BLOCKS)
        result = session.finish()
        for row in result.rows:
            assert row[-2] == 0
            assert row[-1] is None

    def test_matches_direct_evaluation(self):
        base_relation = SYNC_FLOW.distinct_project(["SourceAS"])
        sub, _touched = evaluate_sub(base_relation, SYNC_FLOW, self.BLOCKS)
        session = SyncSession(base_relation, ["SourceAS"], self.BLOCKS)
        session.absorb(sub)
        assert_relations_equal(
            session.finish(), evaluate(base_relation, SYNC_FLOW, self.BLOCKS)
        )
