"""A relation made from rows holds only its columns, and gives the rows back.

``Relation(schema, rows)`` transposes once and holds each column under the
``typed`` rule (:func:`~repro.relalg.columnar.held_column`): an ``int64``
array for a NULL-free INT column of ints within ``±2**53``, a ``float64``
array for a NULL-free FLOAT column of floats, a value list for every other
column. These properties check that no value changes on the way in or out
(by ``repr``, so ``-0.0``, NaN, bools and ints past ``int64`` count), that
a column is an array exactly when the rule says so, and that a column
encodes to the same bytes whether it is held as an array or as a list.
"""

from __future__ import annotations

import datetime
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import adversarial_rows
from repro.net.serialize import encode_relation
from repro.relalg.columnar import EXACT_INT
from repro.relalg.relation import Relation
from repro.relalg.schema import BOOL, DATE, FLOAT, INT, STR, Attribute, Schema

_EDGE_INTS = [
    EXACT_INT, -EXACT_INT, EXACT_INT + 1, -(EXACT_INT + 1),
    2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**70, 0, 255, 256,
]
_EDGE_FLOATS = [math.nan, -0.0, 0.0, math.inf, -math.inf, 5e-324, 2.0**53 + 2]

_VALUES = {
    INT: st.sampled_from(_EDGE_INTS) | st.integers(-(2**40), 2**40) | st.integers(0, 300),
    FLOAT: st.sampled_from(_EDGE_FLOATS) | st.floats(width=64),
    STR: st.text(max_size=8) | st.sampled_from(["", "héllo"]),
    BOOL: st.booleans(),
    DATE: st.dates(min_value=datetime.date(1, 1, 1), max_value=datetime.date(9999, 12, 31)),
}
#: Values of another type that a column of this type may still hold: a
#: relation keeps them as they are, so the column stays a value list.
_STRAYS = {INT: st.booleans() | st.just(1.0), FLOAT: st.integers(-3, 3) | st.just(True)}


@st.composite
def tables(draw):
    """``(schema, rows)``: zero to four attributes, zero to forty rows; a
    column is NULL-free, all NULL or mixed, and may hold a stray value."""
    types = draw(st.lists(st.sampled_from(sorted(_VALUES)), max_size=4))
    schema = Schema(Attribute(f"a{index}", type_name) for index, type_name in enumerate(types))
    cells = []
    for type_name in types:
        values = _VALUES[type_name]
        if draw(st.booleans()) and type_name in _STRAYS:
            values = values | _STRAYS[type_name]
        nulls = draw(st.sampled_from(["none", "all", "some"]))
        cells.append(values if nulls == "none" else st.none() if nulls == "all" else st.none() | values)
    rows = draw(st.lists(st.tuples(*cells), max_size=40))
    return schema, rows


def typed_by_rule(type_name: str, values: list) -> bool:
    """Whether the rule holds a column of ``values`` as an array, said
    value by value."""
    if not values:
        return False
    if type_name == INT:
        return all(type(value) is int and -EXACT_INT <= value <= EXACT_INT for value in values)
    return type_name == FLOAT and all(type(value) is float for value in values)


def check_rows_round_trip(schema: Schema, rows: list) -> None:
    relation = Relation(schema, rows)
    assert relation._rows is None  # no row tuple is kept
    assert len(relation) == len(rows)
    for position, attribute in enumerate(schema.attributes):
        values = [row[position] for row in rows]
        held = relation.held_at(position)
        assert (type(held) is np.ndarray) == typed_by_rule(attribute.type, values)
        assert repr(relation.values(position)) == repr(values)
    assert repr(relation.rows) == repr(rows)


@pytest.mark.parametrize("name", sorted(adversarial_rows()))
def test_adversarial_rows_come_back_by_repr(name):
    schema, rows = adversarial_rows()[name]
    check_rows_round_trip(schema, rows)


@given(tables())
@settings(max_examples=200, deadline=None)
@example((Schema.of(("x", INT), ("y", FLOAT)), [(EXACT_INT + 1, math.nan), (2**64, -0.0)]))
@example((Schema.of(("x", INT), ("y", FLOAT)), [(EXACT_INT, math.nan), (-EXACT_INT, -0.0)]))
@example((Schema.of(("x", INT), ("y", FLOAT)), [(True, 1), (1, 1.0)]))
@example((Schema.of(), [(), ()]))
def test_rows_come_back_by_repr(table):
    check_rows_round_trip(*table)


# ---------------------------------------------------------------------------
# A column's bytes do not depend on how it is held
# ---------------------------------------------------------------------------


def encoded_both_ways(attribute: Attribute, values: list) -> tuple:
    """The bytes of ``values`` as one column held as a value list, and as
    an array of the type's dtype."""
    schema = Schema([attribute])
    dtype = np.int64 if attribute.type == INT else np.float64
    as_list, as_array = (
        Relation.of_columns(schema, [column], len(values))
        for column in (list(values), np.array(values, dtype=dtype))
    )
    return encode_relation(as_list), encode_relation(as_array)


def test_an_array_and_a_list_encode_to_equal_bytes():
    checked = 0
    for schema, rows in adversarial_rows().values():
        for position, attribute in enumerate(schema.attributes):
            values = [row[position] for row in rows]
            if attribute.type not in (INT, FLOAT) or not values or None in values:
                continue
            if attribute.type == INT and not all(-(2**63) <= value < 2**63 for value in values):
                continue  # no int64 array holds them
            by_list, by_array = encoded_both_ways(attribute, values)
            assert by_array == by_list, attribute.name
            checked += 1
    assert checked == 4  # exact, wide and small (INT), real (FLOAT)


_INT64 = (
    st.integers(-(2**63), 2**63 - 1)
    | st.integers(-300, 300)
    | st.sampled_from([value for value in _EDGE_INTS if -(2**63) <= value < 2**63])
)


@given(st.lists(_INT64, min_size=1, max_size=40), st.lists(_VALUES[FLOAT], min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_drawn_arrays_and_lists_encode_to_equal_bytes(ints, floats):
    for attribute, values in ((Attribute("i", INT), ints), (Attribute("f", FLOAT), floats)):
        by_list, by_array = encoded_both_ways(attribute, values)
        assert by_array == by_list
