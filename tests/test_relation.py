"""Unit tests for the Relation row store."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SchemaError, TypeMismatchError
from repro.relalg.expressions import col
from repro.relalg.relation import Relation
from repro.relalg.schema import FLOAT, INT, STR, Schema

SCHEMA = Schema.of(("k", INT), ("v", FLOAT), ("name", STR))
ROWS = [
    (1, 10.0, "a"),
    (1, 20.0, "b"),
    (2, 5.0, "a"),
    (2, None, "c"),
]


def make():
    return Relation(SCHEMA, ROWS)


def _typed(rows):
    """Rows with each value's type beside it: ``1``, ``1.0`` and ``True``
    compare equal, so which of them survived deduplication needs this."""
    return [tuple((type(value), value) for value in row) for row in rows]


class TestConstruction:
    def test_basic(self):
        relation = make()
        assert len(relation) == 4
        assert relation.schema is SCHEMA

    def test_validate_catches_bad_rows(self):
        with pytest.raises(TypeMismatchError):
            Relation(SCHEMA, [(1, 2.0, 3)], validate=True)

    def test_rows_are_tuples_even_from_lists(self):
        relation = Relation(SCHEMA, [[1, 2.0, "x"]])
        assert isinstance(relation.rows[0], tuple)

    def test_requires_schema(self):
        with pytest.raises(SchemaError):
            Relation(("k",), [])

    def test_from_dicts_fills_missing_with_none(self):
        relation = Relation.from_dicts(SCHEMA, [{"k": 1}])
        assert relation.rows == [(1, None, None)]

    def test_infer(self):
        relation = Relation.infer([{"a": 1, "b": "x"}, {"a": 2, "b": None}])
        assert relation.schema["a"].type == INT
        assert relation.schema["b"].type == STR

    def test_infer_empty_needs_names(self):
        with pytest.raises(SchemaError):
            Relation.infer([])

    def test_empty(self):
        assert len(Relation.empty(SCHEMA)) == 0

    def test_to_dicts_round_trip(self):
        relation = make()
        assert Relation.from_dicts(SCHEMA, relation.to_dicts()).same_rows(relation)


class TestAccessors:
    def test_column(self):
        assert make().column("k") == [1, 1, 2, 2]

    def test_row_dict(self):
        assert make().row_dict(0) == {"k": 1, "v": 10.0, "name": "a"}

    def test_iteration(self):
        assert list(make())[0] == (1, 10.0, "a")


class TestOperators:
    def test_select(self):
        result = make().select(col.k == 1)
        assert len(result) == 2

    def test_select_null_comparison_excludes(self):
        result = make().select(col.v > 0)
        assert len(result) == 3  # the NULL v row is excluded

    def test_select_fn(self):
        result = make().select_fn(lambda row: row[0] == 2)
        assert len(result) == 2

    def test_project_is_multiset(self):
        result = make().project(["k"])
        assert result.rows == [(1,), (1,), (2,), (2,)]

    def test_project_reorders(self):
        result = make().project(["name", "k"])
        assert result.schema.names == ("name", "k")
        assert result.rows[0] == ("a", 1)

    def test_distinct(self):
        relation = Relation(SCHEMA, ROWS + ROWS)
        assert len(relation.distinct()) == 4

    def test_distinct_project(self):
        result = make().distinct_project(["k"])
        assert result.rows == [(1,), (2,)]

    # The loops ``distinct`` / ``distinct_project`` ran before they became
    # ``dict.fromkeys`` over the rows: the order and key-equality reference.

    @staticmethod
    def reference_distinct(relation):
        seen = set()
        unique = []
        for row in relation.rows:
            if row not in seen:
                seen.add(row)
                unique.append(row)
        return unique

    @staticmethod
    def reference_distinct_project(relation, names):
        positions = relation.schema.positions(names)
        seen = set()
        unique = []
        for row in relation.rows:
            projected = tuple(row[position] for position in positions)
            if projected not in seen:
                seen.add(projected)
                unique.append(projected)
        return unique

    @given(
        rows=st.lists(
            st.tuples(
                # 1, 1.0 and True are one key; NULL is an ordinary one.
                st.sampled_from([None, 0, 1, 1.0, True, False, 2, -0.0, 2.5]),
                st.sampled_from([None, 0.0, 1, 1.0, 3.5]),
                st.sampled_from([None, "a", "b", ""]),
            ),
            max_size=40,
        ),
        names=st.lists(st.sampled_from(["k", "v", "name"]), unique=True, max_size=3),
    )
    def test_distinct_and_distinct_project_match_reference_loops(self, rows, names):
        relation = Relation(SCHEMA, rows)
        distinct = relation.distinct()
        assert distinct.schema == SCHEMA
        assert _typed(distinct.rows) == _typed(self.reference_distinct(relation))
        projected = relation.distinct_project(names)
        assert projected.schema.names == tuple(names)
        assert _typed(projected.rows) == _typed(
            self.reference_distinct_project(relation, names)
        )

    def test_union_all(self):
        combined = make().union_all(make())
        assert len(combined) == 8

    def test_union_all_schema_mismatch(self):
        other = Relation(Schema.of(("k", INT)), [(1,)])
        with pytest.raises(SchemaError):
            make().union_all(other)

    def test_extend(self):
        result = make().extend("double_v", FLOAT, col.v * 2)
        assert result.schema.names[-1] == "double_v"
        assert result.rows[0][-1] == 20.0
        assert result.rows[3][-1] is None

    def test_rename(self):
        renamed = make().rename({"k": "key"})
        assert "key" in renamed.schema
        assert renamed.rows == make().rows

    def test_sorted_by(self):
        result = make().sorted_by(["v"])
        assert result.rows[0][1] is None  # NULLs first
        assert result.rows[-1][1] == 20.0

    def test_sorted_by_descending(self):
        result = make().sorted_by(["v"], descending=True)
        assert result.rows[0][1] == 20.0

    def test_limit(self):
        assert len(make().limit(2)) == 2


class TestComparison:
    def test_same_rows_ignores_order(self):
        shuffled = Relation(SCHEMA, list(reversed(ROWS)))
        assert make().same_rows(shuffled)

    def test_same_rows_respects_multiplicity(self):
        duplicated = Relation(SCHEMA, ROWS + [ROWS[0]])
        assert not make().same_rows(duplicated)

    def test_same_rows_any_order_of_columns(self):
        reordered = make().project(["name", "v", "k"])
        assert make().same_rows_any_order_of_columns(reordered)

    def test_same_rows_any_order_of_columns_different_attrs(self):
        other = make().rename({"k": "key"})
        assert not make().same_rows_any_order_of_columns(other)


class TestPretty:
    def test_pretty_contains_headers_and_null(self):
        text = make().pretty()
        assert "name" in text
        assert "NULL" in text

    def test_pretty_truncates(self):
        text = make().pretty(max_rows=2)
        assert "2 more rows" in text

    def test_repr(self):
        assert "4 rows" in repr(make())
