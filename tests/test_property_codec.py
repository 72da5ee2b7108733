"""Property-based tests: the wire format v3 round-trips arbitrary relations
— it is the v1 oracle's (``tests/oracle/codec.py``) equal on values and
never its inferior on errors — and no byte string makes a decoder raise
anything but :class:`~repro.errors.SerializationError`."""

import datetime
import math
import struct

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle import FORMATS, decode_relation_reference, encode_relation_reference
from repro.errors import SerializationError
from repro.net.serialize import (
    ADDRESS,
    MAX_SCALE_EXPONENT,
    column_bytes_at_least,
    decode_relation,
    decode_reply,
    encode_relation,
    encode_reply,
)
from repro.relalg.columnar import held_column
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
#: Decimal-shaped doubles, the ones a scaled block holds: ``k / 10**e``
#: (correctly rounded, as a decimal literal parses) and whole numbers at
#: the edge of ``2**53``, past which a double is no exact integer.
_DECIMALS = st.builds(
    lambda whole, exponent: whole / 10**exponent,
    st.integers(min_value=-(10**12), max_value=10**12) | st.integers(-300, 300),
    st.integers(min_value=0, max_value=MAX_SCALE_EXPONENT + 1),
) | st.builds(
    lambda whole, sign: sign * float(whole),
    st.integers(min_value=2**53 - 4, max_value=2**53 + 4),
    st.sampled_from([1, -1]),
)
_TEXT_EDGES = [
    "", "\x00", "a\x00b", "\U0001F600", "\U00010348\U0001F3F3",  # NUL, astral
    "é", "ạ̈", "‍",  # combining, joiner
]

_VALUE_STRATEGIES = {
    INT: st.sampled_from(_INT_EDGES)
    | st.integers(min_value=-(2**62), max_value=2**62)
    | st.integers(min_value=0, max_value=300),
    FLOAT: st.sampled_from(_FLOAT_EDGES) | st.floats(width=64) | _DECIMALS,
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
    reference = decode_relation_reference(encode_relation_reference(relation))
    assert reference.schema == relation.schema
    assert _identity(reference.rows) == _identity(relation.rows)
    decoded = decode_relation(encode_relation(relation))
    assert decoded.schema == relation.schema
    assert _identity(decoded.rows) == _identity(reference.rows)
    # The decoder holds each column as a relation made from its values would.
    for position, attribute in enumerate(relation.schema.attributes):
        rule = held_column(decoded.values(position), attribute.type)
        assert type(decoded.held_at(position)) is type(rule)
    if len(relation.schema):
        assert _identity(decoded._transposed()) == _identity(reference.rows)


@given(relations(max_rows=40))
@settings(max_examples=50, deadline=None)
def test_encoding_is_deterministic(relation):
    # A second relation: the first encode may have cached column lists.
    again = Relation(relation.schema, relation.rows)
    assert encode_relation(relation) == encode_relation(again)


@given(relations(max_rows=25))
@settings(max_examples=50, deadline=None)
def test_size_grows_with_duplicated_rows(relation):
    doubled = relation.union_all(relation)
    single = len(encode_relation(relation))
    double = len(encode_relation(doubled))
    if not relation.rows:
        assert double == single
    else:
        # An all-NULL one-row column doubles into the same bitmap byte,
        # and a zero-attribute relation is its row count.
        assert double >= single


@given(relations(max_rows=40), st.data())
@settings(max_examples=300, deadline=None)
def test_trailing_columns_take_at_least_their_bound(relation, data):
    """What leaving a relation's last columns out saves is never less
    than ``column_bytes_at_least`` says: a sparse positional fragment is
    smaller than the dense one whenever the bound says so."""
    names = relation.schema.names
    assume(names)
    count = data.draw(st.integers(1, len(names)))
    start = data.draw(st.integers(0, len(relation)))
    stop = data.draw(st.integers(start, len(relation)))
    block = relation.gather(range(start, stop))
    saved = len(encode_relation(block)) - len(encode_relation(block.project(names[:-count])))
    assert column_bytes_at_least(block, names[-count:]) <= saved


@st.composite
def decimal_columns(draw):
    """A FLOAT column of decimals at one drawn exponent — ``k / 10**e``,
    or whole numbers near ``±2**53`` — with NULLs or none, and at times one
    value no scaled block holds (``-0.0``, NaN, ``±inf``, a non-decimal
    quotient, a number past ``2**53``) mixed in at a drawn row."""
    exponent = draw(st.integers(min_value=0, max_value=MAX_SCALE_EXPONENT + 1))
    bound = draw(st.sampled_from([9, 300, 10**6, 10**12]))
    decimals = st.integers(-bound, bound).map(lambda whole: whole / 10**exponent)
    values = draw(st.lists(
        decimals | st.integers(2**53 - 4, 2**53 + 8).map(float) | st.just(-(2.0**53)),
        min_size=1, max_size=120,
    ) | st.lists(decimals, min_size=1, max_size=120))
    if draw(st.booleans()):
        intruder = draw(st.sampled_from(
            [-0.0, float("nan"), float("inf"), float("-inf"), 1 / 3, 2.0**53 + 2, 0.1 + 0.2]
        ))
        values.insert(draw(st.integers(0, len(values))), intruder)
    if draw(st.booleans()):
        values = [draw(st.none() | st.just(value)) for value in values]
    return values


def _scaled_bytes(values) -> int:
    """What a scaled block of the present ``values`` takes past its
    presence bytes, by a Python fold of the rule: the smallest exponent at
    which every value is ``round(v * 10**e) / 10**e`` bit for bit, the
    integer within ``±2**53``; then an exponent byte and the INT block of
    those integers. ``None`` when no exponent holds them all."""
    for exponent in range(MAX_SCALE_EXPONENT + 1):
        scale = 10.0**exponent
        integers = []
        for value in values:
            whole = round(value * scale) if math.isfinite(value * scale) else None
            if whole is None or abs(whole) > 2**53:
                break
            if struct.pack("<d", float(whole) / scale) != struct.pack("<d", value):
                break
            integers.append(whole)
        else:
            # The exponent byte, then the INT block past its presence byte.
            ints = Relation(Schema.of(("f", INT)), [(whole,) for whole in integers])
            return len(_sole_block(ints))
    return None


def _sole_block(relation) -> bytes:
    """The column block of a one-attribute relation: past the header and
    the row count (a varint)."""
    header = len(encode_relation(Relation.empty(relation.schema))) - 1
    rows = len(relation)
    return encode_relation(relation)[header + 1 + max(rows.bit_length() - 1, 0) // 7:]


@given(decimal_columns())
@settings(max_examples=300, deadline=None)
def test_a_decimal_column_round_trips_by_repr(values):
    relation = Relation(Schema.of(("f", FLOAT), ("g", FLOAT)), [(value, value) for value in values])
    decoded = decode_relation(encode_relation(relation))
    assert repr(decoded.rows) == repr(relation.rows)
    assert _identity(decoded.rows) == _identity(relation.rows)
    rule = held_column(decoded.values(0), FLOAT)
    assert type(decoded.held_at(0)) is type(rule)


@given(decimal_columns())
@settings(max_examples=300, deadline=None)
def test_the_scaled_form_ships_exactly_where_it_is_shorter(values):
    """A column ships scaled (presence byte 4, or 5 with NULLs) exactly
    when the scaled block the rule gives is shorter than 8 bytes a present
    value, and then at that length; else it ships raw."""
    block = _sole_block(Relation(Schema.of(("f", FLOAT)), [(value,) for value in values]))
    present = [value for value in values if value is not None]
    presence = 1 if len(present) == len(values) else 1 + (len(values) + 7) // 8
    scaled = _scaled_bytes(present)
    if scaled is not None and scaled < 8 * len(present):
        assert block[0] == (4 if len(present) == len(values) else 5)
        assert len(block) == presence + scaled
    else:
        assert block[0] in (0, 1)
        assert len(block) == presence + 8 * len(present)


@given(st.binary(max_size=200))
@settings(max_examples=300)
def test_arbitrary_bytes_raise_only_serialization_errors(data):
    for decode in (decode_relation, decode_relation_reference):
        for prefix in (b"", b"SKRL\x01", b"SKRL\x03"):
            try:
                decode(prefix + data)
            except SerializationError:
                pass


@pytest.mark.parametrize("codec", FORMATS)
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
    encode, decode = FORMATS[codec]
    payload = bytearray(encode(relation))
    for position, mask in flips:
        payload[position % len(payload)] ^= mask
    for data in (bytes(payload), bytes(payload[: cut % (len(payload) + 1)])):
        # Each format's decoder, and the wire's on the oracle's bytes too.
        for decoder in dict.fromkeys((decode, decode_relation)):
            try:
                decoder(data)
            except SerializationError:
                pass


@given(relations(max_rows=60), st.data())
@settings(max_examples=100, deadline=None)
def test_a_repeated_column_ships_as_a_back_reference(relation, data):
    """A copy of a column costs its header and at most a two-byte block,
    and decodes to the same values, bit for bit."""
    assume(len(relation.schema))
    source = data.draw(st.integers(min_value=0, max_value=len(relation.schema) - 1))
    attribute = relation.schema.attributes[source]
    name = "copy of " + attribute.name
    widened = Relation(
        Schema([*relation.schema.attributes, Attribute(name, attribute.type)]),
        [row + (row[source],) for row in relation.rows],
    )
    payload = encode_relation(widened)
    assert _identity(decode_relation(payload).rows) == _identity(widened.rows)
    header = 1 + len(name.encode("utf-8")) + 1
    if relation.rows:
        assert len(payload) <= len(encode_relation(relation)) + header + 2


@st.composite
def keyed_answers(draw):
    """``(fragment, keys, keyed Hᵢ, answered rows)``: a shipped fragment
    whose first attributes are the key, and the keyed answer to the rows
    ``answered`` of it (its sub-aggregate columns drawn freely)."""
    fragment = draw(relations(max_rows=80))
    assume(len(fragment.schema))
    keys = draw(st.integers(min_value=1, max_value=min(2, len(fragment.schema))))
    answered = sorted(
        draw(st.sets(st.integers(min_value=0, max_value=max(len(fragment) - 1, 0))))
        if len(fragment) else set()
    )
    sub_types = draw(st.lists(st.sampled_from(list(_VALUE_STRATEGIES)), min_size=1, max_size=3))
    subs = draw(
        st.lists(
            st.tuples(*(st.none() | _VALUE_STRATEGIES[type_name] for type_name in sub_types)),
            min_size=len(answered),
            max_size=len(answered),
        )
    )
    attributes = [
        *fragment.schema.attributes[:keys],
        *(Attribute(f"{ADDRESS} {index}", type_name) for index, type_name in enumerate(sub_types)),
    ]
    rows = [fragment.rows[row][:keys] + values for row, values in zip(answered, subs)]
    return fragment, keys, Relation(Schema(attributes), rows), answered


@given(keyed_answers())
@settings(max_examples=200, deadline=None)
def test_an_addressed_reply_is_never_larger_than_the_keyed_one(answer):
    """Whatever the key's types and the rows answered, the reply by row
    address is no larger than the keyed Hᵢ, and re-keying it from the
    fragment gives that Hᵢ back exactly."""
    fragment, keys, keyed, answered = answer
    h = Relation(
        Schema([*keyed.schema.attributes, Attribute(ADDRESS, INT)]),
        [row + (address,) for row, address in zip(keyed.rows, answered)],
    )
    payload = encode_reply(h, keys)
    assert len(payload) <= len(encode_relation(keyed))
    names = keyed.schema.names[:keys]
    relation, rows = decode_reply(payload, names, len(fragment))
    if rows is not None:
        assert rows.tolist() == answered
        relation = Relation(
            keyed.schema,
            [fragment.rows[row][:keys] + values for row, values in zip(answered, relation.rows)],
        )
    assert relation.schema == keyed.schema
    assert _identity(relation.rows) == _identity(keyed.rows)
