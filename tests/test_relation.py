"""Unit tests for Relation: a schema and its columns."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import same_rows

from repro.errors import SchemaError, TypeMismatchError
from repro.relalg.columnar import as_list
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

    def test_a_row_of_the_wrong_width_is_refused_at_construction(self):
        # The last case has as many values as two rows of three.
        for rows in ([(1, 2.0)], [(1, 2.0, "x"), (1, 2.0, "x", 4)], [()], [(1,), (1, 2.0, "x", 4, 5)]):
            with pytest.raises(SchemaError):
                Relation(SCHEMA, rows)

    def test_a_relation_holds_its_columns_and_derives_its_rows(self):
        relation = make()
        held = relation.held()
        assert type(held[0]) is np.ndarray and held[0].dtype == np.int64
        assert type(held[1]) is list  # a NULL
        assert type(held[2]) is list
        assert relation._rows is None
        assert relation.rows == ROWS
        assert relation.rows is relation.rows  # kept once derived

    def test_requires_schema(self):
        with pytest.raises(SchemaError):
            Relation(("k",), [])

    def test_empty(self):
        assert len(Relation.empty(SCHEMA)) == 0


class TestAccessors:
    def test_column(self):
        assert make().column("k") == [1, 1, 2, 2]

    def test_iteration(self):
        assert list(make())[0] == (1, 10.0, "a")


class TestOperators:
    def test_select(self):
        result = make().select(col.k == 1)
        assert len(result) == 2

    def test_select_null_comparison_excludes(self):
        result = make().select(col.v > 0)
        assert len(result) == 3  # the NULL v row is excluded

    def test_project_is_multiset(self):
        result = make().project(["k"])
        assert result.rows == [(1,), (1,), (2,), (2,)]

    def test_project_reorders(self):
        result = make().project(["name", "k"])
        assert result.schema.names == ("name", "k")
        assert result.rows[0] == ("a", 1)

    def test_distinct(self):
        relation = Relation(SCHEMA, ROWS + ROWS)
        assert len(relation.distinct_project(relation.schema.names)) == 4

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
        columns = [list(values) for values in zip(*rows)] if rows else [[], [], []]
        for relation in (
            Relation(SCHEMA, rows),
            Relation.of_columns(SCHEMA, columns, len(rows)),
        ):
            distinct = relation.distinct_project(relation.schema.names)
            assert distinct.schema == SCHEMA
            assert _typed(distinct.rows) == _typed(self.reference_distinct(relation))
            projected = relation.distinct_project(names)
            assert projected.schema.names == tuple(names)
            assert _typed(projected.rows) == _typed(
                self.reference_distinct_project(relation, names)
            )

    def test_distinct_of_a_column_backed_relation_builds_no_rows(self):
        nan = math.nan
        schema = Schema.of(("k", FLOAT), ("name", STR))
        mixed = [[1, 1.0, True, 2, nan, nan, float("nan")], ["x", "x", "x", "y", None, None, None]]
        ints = [np.array([3, 1, 3, 2]), np.array([0, 0, 0, -5])]  # the int composite
        for columns in (mixed, ints):
            relation = Relation.of_columns(schema, columns, len(columns[0]))
            distinct = relation.distinct_project(relation.schema.names)
            assert relation._rows is None and distinct._rows is None
            rows = list(zip(*map(as_list, columns)))
            assert _typed(distinct.rows) == _typed(list(dict.fromkeys(rows)))
            assert repr(distinct.rows) == repr(relation.distinct_project(schema.names).rows)

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
        assert same_rows(make(), shuffled)

    def test_same_rows_respects_multiplicity(self):
        duplicated = Relation(SCHEMA, ROWS + [ROWS[0]])
        assert not same_rows(make(), duplicated)

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


class TestPickle:
    def test_a_relation_pickles_as_schema_and_rows_not_its_column_cache(self):
        relation = Relation(Schema.of(("k", INT)), [(index % 7,) for index in range(1000)])
        cold = pickle.dumps(relation)
        relation.select(col.k > 3)  # a typed view
        relation.distinct_project(["k"])  # key codes
        relation.rows  # derived from the columns, and kept
        warm = pickle.dumps(relation)
        assert len(warm) == len(cold)
        back = pickle.loads(warm)
        assert back.schema == relation.schema and back.rows == relation.rows
        assert back.built_views() == ()


class TestNaNKeys:
    """A NaN of a NULL-free FLOAT column is a new object at every read of
    its ``float64`` array, so it equals no key, not even the NaN of another
    row that held the same object: each NaN-keyed row is a group of its own,
    and no detail row matches it, as ``NaN == NaN`` is false. That holds in
    process, over the codec and across sites alike."""

    SCHEMA = Schema.of(("k", FLOAT), ("v", FLOAT))
    ROWS = [(math.nan, 1.0), (1.0, 2.0), (math.nan, 3.0), (float("nan"), 4.0), (1.0, 5.0)]
    QUERY = "SELECT k, COUNT(*) AS c, SUM(v) AS s FROM T GROUP BY k"
    GROUPED = ["(nan, 0, None)", "(1.0, 2, 7.0)", "(nan, 0, None)", "(nan, 0, None)"]

    def test_each_nan_key_is_a_group_of_its_own(self):
        from repro.distributed import SimulatedCluster, execute_query
        from repro.net.serialize import decode_relation, encode_relation
        from repro.queries.sql import parse_olap_statement
        from repro.warehouse.partition import RoundRobinPartitioner

        statement = parse_olap_statement(self.QUERY)
        relation = Relation(self.SCHEMA, self.ROWS)
        decoded = decode_relation(encode_relation(relation))
        for table in (relation, decoded):
            assert type(table.held_at(0)) is np.ndarray
            assert repr(table.distinct_project(["k"]).rows) == "[(nan,), (1.0,), (nan,), (nan,)]"
            grouped = statement.apply_post(statement.expression.evaluate_centralized({"T": table}))
            assert list(map(repr, grouped.rows)) == self.GROUPED
        cluster = SimulatedCluster.with_sites(2)
        cluster.load_partitioned("T", relation, RoundRobinPartitioner(2))
        spread = statement.apply_post(execute_query(cluster, statement.expression).relation)
        assert sorted(map(repr, spread.rows)) == sorted(self.GROUPED)
