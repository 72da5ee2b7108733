"""Property-based tests: both wire codecs round-trip arbitrary relations —
format v3 (``column``) is format v1's equal on values and never its inferior
on errors — and no byte string makes a decoder raise anything but
:class:`~repro.errors.SerializationError`."""

import datetime
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.net.serialize import (
    CODECS,
    _decode_relation_reference,
    _encode_relation_reference,
    decode_relation,
    encode_relation,
    wire_size,
)
from repro.relalg.relation import Relation
from repro.relalg.schema import BOOL, DATE, FLOAT, INT, STR, Attribute, Schema

_INT_EDGES = [
    0, 1, -1, 255, 256, 65535, 65536, 2**32 - 1, 2**32,
    2**62, -(2**62), 2**63 - 1, -(2**63 - 1), 2**63, -(2**63),
    2**64, 2**70, -(2**70),  # past 8 bytes: SUMs get there
]
_FLOAT_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,  # denormals, least normal
    float("inf"), float("-inf"), float("nan"),
    struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000123))[0],  # NaN payload
]
_TEXT_EDGES = [
    "", "\x00", "a\x00b", "\U0001F600", "\U00010348\U0001F3F3",  # NUL, astral
    "é", "ạ̈", "‍",  # combining, joiner
]

_VALUE_STRATEGIES = {
    INT: st.sampled_from(_INT_EDGES)
    | st.integers(min_value=-(2**62), max_value=2**62)
    | st.integers(min_value=0, max_value=300),
    FLOAT: st.sampled_from(_FLOAT_EDGES) | st.floats(width=64),
    STR: st.sampled_from(_TEXT_EDGES)
    | st.text(max_size=40)
    | st.sampled_from(["alpha", "beta", "gamma"]),
    BOOL: st.booleans(),
    DATE: st.sampled_from([datetime.date.min, datetime.date.max])
    | st.dates(
        min_value=datetime.date(1, 1, 1), max_value=datetime.date(9999, 12, 31)
    )
    | st.dates(
        min_value=datetime.date(2002, 1, 1), max_value=datetime.date(2002, 12, 31)
    ),
}

_NAME = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="_"),
    min_size=1,
    max_size=12,
)


@st.composite
def relations(draw, max_rows=300):
    """Zero to six attributes and zero to ``max_rows`` rows; a column is
    NULL-free, all-NULL or mixed, so both presence forms and — with the row
    count — every array width (1/2/4/8) and the escape block are drawn."""
    attribute_count = draw(st.integers(min_value=0, max_value=6))
    names = draw(
        st.lists(_NAME, min_size=attribute_count, max_size=attribute_count, unique=True)
    )
    types = draw(
        st.lists(
            st.sampled_from(list(_VALUE_STRATEGIES)),
            min_size=attribute_count,
            max_size=attribute_count,
        )
    )
    schema = Schema(Attribute(name, type_name) for name, type_name in zip(names, types))
    columns = []
    for type_name in types:
        nulls = draw(st.sampled_from(["none", "all", "some"]))
        if nulls == "none":
            columns.append(_VALUE_STRATEGIES[type_name])
        elif nulls == "all":
            columns.append(st.none())
        else:
            columns.append(st.none() | _VALUE_STRATEGIES[type_name])
    rows = draw(
        st.lists(st.tuples(*columns), max_size=max_rows)
        | st.lists(st.tuples(*columns), max_size=3)
    )
    return Relation(schema, rows)


def _identity(rows) -> list:
    """Rows in a form that tells ``-0.0`` from ``0.0`` and NaN payloads apart
    (``==`` does neither; ``repr`` does the first)."""
    return [
        tuple(
            struct.pack("<d", value) if isinstance(value, float) else repr(value)
            for value in row
        )
        for row in rows
    ]


@given(relations())
@settings(max_examples=150, deadline=None)
def test_round_trip_identity(relation):
    reference = _decode_relation_reference(_encode_relation_reference(relation))
    assert reference.schema == relation.schema
    assert _identity(reference.rows) == _identity(relation.rows)
    for codec in CODECS:
        payload = encode_relation(relation, codec)
        decoded = decode_relation(payload)
        assert decoded.schema == relation.schema
        assert _identity(decoded.rows) == _identity(reference.rows)
        assert wire_size(relation, codec) == len(payload)
        # The column decoder hands its lists over as the relation's column
        # cache; the row decoder has none to hand over.
        columnar = decoded.to_columnar()
        assert columnar.built_columns() == (
            relation.schema.names if codec == "column" else ()
        )
        if len(relation.schema):
            assert _identity(columnar.to_rows()) == _identity(reference.rows)


@given(relations(max_rows=40))
@settings(max_examples=50, deadline=None)
def test_row_fast_path_is_the_reference_byte_for_byte(relation):
    assert encode_relation(relation, "row") == _encode_relation_reference(relation)


@given(relations(max_rows=40))
@settings(max_examples=50, deadline=None)
def test_encoding_is_deterministic(relation):
    for codec in CODECS:
        # A second relation: the first encode may have cached column lists.
        again = Relation(relation.schema, relation.rows)
        assert encode_relation(relation, codec) == encode_relation(again, codec)


@given(relations(max_rows=25))
@settings(max_examples=50, deadline=None)
def test_size_grows_with_duplicated_rows(relation):
    doubled = relation.union_all(relation)
    for codec in CODECS:
        single = len(encode_relation(relation, codec))
        double = len(encode_relation(doubled, codec))
        if not relation.rows:
            assert double == single
        elif codec == "row" and len(relation.schema):
            assert double > single
        else:
            # An all-NULL one-row column doubles into the same bitmap byte,
            # and a zero-attribute relation is its row count.
            assert double >= single


@given(st.binary(max_size=200))
@settings(max_examples=300)
def test_arbitrary_bytes_raise_only_serialization_errors(data):
    for decode in (decode_relation, _decode_relation_reference):
        for prefix in (b"", b"SKRL\x01", b"SKRL\x03"):
            try:
                decode(prefix + data)
            except SerializationError:
                pass


@pytest.mark.parametrize("codec", CODECS)
@given(
    relations(max_rows=30),
    st.lists(
        st.tuples(st.integers(min_value=0), st.integers(min_value=1, max_value=255)),
        min_size=1,
        max_size=3,
    ),
    st.integers(min_value=0),
)
@settings(max_examples=200)
def test_mutated_payloads_raise_only_serialization_errors(
    codec, relation, flips, cut
):
    payload = bytearray(encode_relation(relation, codec))
    for position, mask in flips:
        payload[position % len(payload)] ^= mask
    decoders = [decode_relation]
    if codec == "row":
        decoders.append(_decode_relation_reference)
    for data in (bytes(payload), bytes(payload[: cut % (len(payload) + 1)])):
        for decode in decoders:
            try:
                decode(data)
            except SerializationError:
                pass
