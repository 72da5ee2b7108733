"""The service's served order: the column sort equals the per-row oracle.

``canonical_order`` sorts row indices by one key column's ``repr``s at a
time and gathers; ``oracle.canonical_order_reference`` sorts the rows by
their tuple of ``repr``s. Hypothesis draws the values that order by
``repr`` unlike by value — NULLs, ints beside floats, ``-0.0``, NaN,
strings — row- or column-backed relations (typed ``int64``/``float64``
columns), and zero, one or several key attributes; the two must give
the same rows, in the same order, by ``repr``.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from oracle import canonical_order_reference
from repro.relalg.relation import Relation
from repro.relalg.schema import FLOAT, INT, STR, Attribute, Schema
from repro.service import canonical_order

WIDTH = 4
VALUES = {
    INT: st.one_of(st.none(), st.integers(-3, 12), st.floats(-3, 3).map(round)),
    FLOAT: st.one_of(
        st.none(), st.sampled_from([0.0, -0.0, 1.0, 10.0, 2.5, float("nan")]),
        st.integers(-2, 2),
    ),
    STR: st.one_of(st.none(), st.text("ab'\\\"", max_size=3)),
}


@st.composite
def relations(draw):
    types = draw(st.lists(st.sampled_from(sorted(VALUES)), min_size=WIDTH, max_size=WIDTH))
    schema = Schema([Attribute(f"a{index}", type_name) for index, type_name in enumerate(types)])
    rows = draw(st.lists(st.tuples(*(VALUES[type_name] for type_name in types)), max_size=12))
    keys = draw(st.lists(st.sampled_from(schema.names), unique=True, max_size=3))
    relation = Relation(schema, rows)
    if draw(st.booleans()):
        # Column-backed, as a decoded block holds it: NULL-free int and
        # float columns as typed arrays.
        columns = []
        for position in range(WIDTH):
            values = [row[position] for row in rows]
            kinds = {type(value) for value in values}
            columns.append(
                np.array(values, dtype=np.int64) if kinds == {int}
                else np.array(values, dtype=np.float64) if kinds == {float}
                else values
            )
        relation = Relation.of_columns(schema, columns, len(rows))
    return relation, keys


@given(relations())
def test_the_column_sort_is_the_row_sort_by_repr(drawn):
    relation, keys = drawn
    served = canonical_order(relation, keys)
    expected = canonical_order_reference(relation, keys)
    assert served.schema == relation.schema
    assert repr(served.rows) == repr(expected.rows)


def test_ties_keep_their_order_and_no_key_keeps_every_row_in_place():
    schema = Schema.of(("k", INT), ("v", FLOAT))
    relation = Relation(schema, [(2, 0.5), (1, -0.0), (None, 1.0), (1, 0.0), (10, None)])
    assert canonical_order(relation, ["k"]).rows == [
        (1, -0.0), (1, 0.0), (10, None), (2, 0.5), (None, 1.0),
    ]
    assert canonical_order(relation, []).rows == relation.rows
    assert repr(canonical_order(relation, ["v", "k"]).rows) == repr(
        canonical_order_reference(relation, ["v", "k"]).rows
    )
