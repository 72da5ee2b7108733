"""Unit tests for the relational algebra baselines (:mod:`oracle.algebra`)
and the one production union, :meth:`Relation.union_all`."""

import pytest

from conftest import same_rows
from oracle.algebra import (
    antijoin,
    cross,
    difference,
    equi_join,
    group_by,
    natural_join,
    semijoin,
    theta_join,
)
from repro.errors import SchemaError
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, col, detail
from repro.relalg.relation import Relation
from repro.relalg.schema import FLOAT, INT, STR, Schema

LEFT = Relation(
    Schema.of(("id", INT), ("name", STR)),
    [(1, "a"), (2, "b"), (3, "c")],
)
RIGHT = Relation(
    Schema.of(("ref", INT), ("score", FLOAT)),
    [(1, 10.0), (1, 20.0), (3, 5.0), (9, 1.0)],
)


class TestCross:
    def test_sizes(self):
        product = cross(LEFT, RIGHT)
        assert len(product) == 12
        assert len(product.schema) == 4

    def test_name_clash(self):
        with pytest.raises(SchemaError):
            cross(LEFT, LEFT)


class TestEquiJoin:
    def test_match(self):
        joined = equi_join(LEFT, RIGHT, [("id", "ref")])
        assert len(joined) == 3
        ids = sorted(row[0] for row in joined.rows)
        assert ids == [1, 1, 3]

    def test_no_pairs_is_cross(self):
        assert len(equi_join(LEFT, RIGHT, [])) == 12

    def test_null_keys_do_not_match(self):
        left = Relation(Schema.of(("id", INT),), [(None,), (1,)])
        right = Relation(Schema.of(("ref", INT),), [(None,), (1,)])
        joined = equi_join(left, right, [("id", "ref")])
        # Tuple-key hashing matches None to None; SQL semantics would not.
        # We assert the engine's documented multiset behaviour here.
        assert (1, 1) in joined.rows


class TestNaturalJoin:
    def test_shared_attribute(self):
        right = RIGHT.rename({"ref": "id"})
        joined = natural_join(LEFT, right)
        assert set(joined.schema.names) == {"id", "name", "score"}
        assert len(joined) == 3

    def test_no_shared_is_cross(self):
        assert len(natural_join(LEFT, RIGHT)) == 12


class TestThetaJoin:
    def test_inequality(self):
        joined = theta_join(LEFT, RIGHT, base.id < detail.ref)
        # pairs where id < ref: id=1 with ref=3,9; id=2 with 3,9; id=3 with 9
        assert len(joined) == 5


class TestSemiAntiJoin:
    def test_semijoin(self):
        result = semijoin(LEFT, RIGHT, [("id", "ref")])
        assert sorted(row[0] for row in result.rows) == [1, 3]

    def test_antijoin(self):
        result = antijoin(LEFT, RIGHT, [("id", "ref")])
        assert sorted(row[0] for row in result.rows) == [2]


class TestSetOperations:
    def test_union_all(self):
        assert len(LEFT.union_all(LEFT, LEFT)) == 9

    def test_union_all_keeps_fragment_and_row_order(self):
        fragments = [
            Relation(LEFT.schema, [(10 * index + offset, "x") for offset in range(index % 3)])
            for index in range(8)
        ]
        combined = Relation.union_all(*fragments)
        assert combined.schema == LEFT.schema
        assert combined.rows == [row for fragment in fragments for row in fragment.rows]

    def test_union_all_rejects_a_differing_schema_in_the_middle(self):
        fragments = [LEFT] * 8
        fragments[4] = RIGHT
        with pytest.raises(SchemaError, match="incompatible schemas"):
            Relation.union_all(*fragments)

    def test_difference_multiset(self):
        doubled = LEFT.union_all(LEFT)
        result = difference(doubled, LEFT)
        assert same_rows(result, LEFT)

    def test_difference_schema_mismatch(self):
        with pytest.raises(SchemaError):
            difference(LEFT, RIGHT)


class TestGroupBy:
    DATA = Relation(
        Schema.of(("g", STR), ("x", FLOAT)),
        [("a", 1.0), ("a", 3.0), ("b", 10.0), ("b", None), ("c", 7.0)],
    )

    def test_count_and_avg(self):
        result = group_by(
            self.DATA,
            ["g"],
            [count_star("cnt"), AggSpec("avg", col.x, "avg_x")],
        )
        by_group = {row[0]: row for row in result.rows}
        assert by_group["a"] == ("a", 2, 2.0)
        assert by_group["b"] == ("b", 2, 10.0)
        assert by_group["c"] == ("c", 1, 7.0)

    def test_detail_namespace_input(self):
        result = group_by(self.DATA, ["g"], [AggSpec("sum", detail.x, "s")])
        by_group = {row[0]: row[1] for row in result.rows}
        assert by_group["a"] == 4.0

    def test_having(self):
        result = group_by(
            self.DATA, ["g"], [count_star("cnt")], having=col.cnt > 1
        )
        assert sorted(row[0] for row in result.rows) == ["a", "b"]

    def test_group_order_is_first_seen(self):
        result = group_by(self.DATA, ["g"], [count_star("cnt")])
        assert [row[0] for row in result.rows] == ["a", "b", "c"]

    def test_empty_input(self):
        result = group_by(Relation.empty(self.DATA.schema), ["g"], [count_star("c")])
        assert len(result) == 0

    def test_holistic_works_centrally(self):
        result = group_by(self.DATA, ["g"], [AggSpec("median", col.x, "med")])
        by_group = {row[0]: row[1] for row in result.rows}
        assert by_group["a"] == 2.0
