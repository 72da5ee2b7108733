"""Unit tests for the wire codec."""

import datetime

import pytest

from repro.errors import SerializationError
from repro.net import serialize
from repro.net.serialize import (
    CODECS,
    DEFAULT_CODEC,
    MAX_ZERO_ATTRIBUTE_ROWS,
    decode_relation,
    encode_relation,
    wire_size,
)
from repro.relalg.relation import Relation
from repro.relalg.schema import BOOL, DATE, FLOAT, INT, STR, Schema

FULL_SCHEMA = Schema.of(
    ("i", INT), ("f", FLOAT), ("s", STR), ("b", BOOL), ("d", DATE)
)


def round_trip(relation: Relation) -> Relation:
    return decode_relation(encode_relation(relation))


class TestRoundTrip:
    def test_all_types(self):
        relation = Relation(
            FULL_SCHEMA,
            [
                (1, 2.5, "hello", True, datetime.date(2002, 3, 1)),
                (-42, -0.125, "", False, datetime.date(1970, 1, 1)),
            ],
        )
        decoded = round_trip(relation)
        assert decoded.schema == relation.schema
        assert decoded.rows == relation.rows

    def test_nulls_everywhere(self):
        relation = Relation(FULL_SCHEMA, [(None,) * 5, (1, None, "x", None, None)])
        assert round_trip(relation).rows == relation.rows

    def test_empty_relation(self):
        relation = Relation.empty(FULL_SCHEMA)
        decoded = round_trip(relation)
        assert decoded.schema == relation.schema
        assert decoded.rows == []

    def test_large_ints(self):
        schema = Schema.of(("i", INT),)
        relation = Relation(schema, [(2**62,), (-(2**62),), (0,)])
        assert round_trip(relation).rows == relation.rows

    @pytest.mark.parametrize("codec", CODECS)
    def test_ints_past_eight_bytes(self, codec):
        # SUMs get there. v1 used to write 2**63 with the 64-bit zig-zag
        # idiom and read back -(2**63) - 1.
        schema = Schema.of(("i", INT),)
        for values in (
            [2**63, 2**63 - 1, -(2**63)],
            [2**70, -(2**70), 5],  # spans more than 8 bytes: the escape block
            [2**70 + 1, 2**70 + 200],  # wide values, narrow span
        ):
            relation = Relation(schema, [(value,) for value in values])
            decoded = decode_relation(encode_relation(relation, codec))
            assert decoded.rows == relation.rows

    def test_unicode_strings(self):
        schema = Schema.of(("s", STR),)
        relation = Relation(schema, [("héllo wörld ☃",), ("日本語",)])
        assert round_trip(relation).rows == relation.rows

    def test_float_special_values(self):
        schema = Schema.of(("f", FLOAT),)
        relation = Relation(schema, [(1e300,), (-1e-300,), (0.0,)])
        assert round_trip(relation).rows == relation.rows

    def test_int_value_in_float_column(self):
        # SUM over an int column can ship through a FLOAT sub-column.
        schema = Schema.of(("f", FLOAT),)
        decoded = round_trip(Relation(schema, [(7,)]))
        assert decoded.rows == [(7.0,)]


class TestWireFormat:
    def test_wire_size_matches_encoding(self):
        relation = Relation(FULL_SCHEMA, [(1, 1.0, "a", True, None)])
        assert wire_size(relation) == len(encode_relation(relation))

    def test_size_grows_with_rows(self):
        schema = Schema.of(("i", INT),)
        small = Relation(schema, [(1,)] * 10)
        large = Relation(schema, [(1,)] * 100)
        assert wire_size(large) > wire_size(small)

    def test_varint_efficiency(self):
        schema = Schema.of(("i", INT),)
        small_values = Relation(schema, [(1,)] * 50)
        large_values = Relation(schema, [(2**40,)] * 50)
        assert wire_size(small_values) < wire_size(large_values)


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(SerializationError):
            decode_relation(b"NOPE" + b"\x00" * 10)

    def test_bad_version(self):
        data = bytearray(encode_relation(Relation.empty(FULL_SCHEMA)))
        data[4] = 99
        with pytest.raises(SerializationError):
            decode_relation(bytes(data))

    def test_truncated(self):
        data = encode_relation(
            Relation(Schema.of(("s", STR),), [("hello world",)] * 3)
        )
        with pytest.raises(SerializationError):
            decode_relation(data[:-4])

    def test_trailing_garbage(self):
        data = encode_relation(Relation.empty(FULL_SCHEMA))
        with pytest.raises(SerializationError):
            decode_relation(data + b"\x00")

    def test_unencodable_value(self):
        schema = Schema.of(("s", STR),)
        relation = Relation(schema, [(3.14,)])  # not validated at build
        with pytest.raises(SerializationError):
            encode_relation(relation)


# One relation per shape the decoders branch on: every type with NULLs, a
# NULL-free one with a repeated string (dictionary codes) and multi-byte
# UTF-8, and one whose strings are all distinct next to an all-NULL column.
SAMPLES = [
    Relation(
        FULL_SCHEMA,
        [
            (1, 2.5, "hello", True, datetime.date(2002, 3, 1)),
            (None, None, None, None, None),
            (-42, -0.125, "", False, datetime.date(1970, 1, 1)),
            (70000, 1e300, "hello", None, datetime.date(1999, 12, 31)),
        ],
    ),
    Relation(
        Schema.of(("x", FLOAT), ("s", STR)),
        [(1.5, "héllo"), (2.5, "b"), (3.5, "héllo")],
    ),
    Relation(
        Schema.of(("k", INT), ("s", STR), ("n", BOOL)),
        [(2**40 + index, f"name-{index}", None) for index in range(9)],
    ),
]
DECODERS = [decode_relation, serialize._decode_relation_reference]


class TestUntrustedBytes:
    """Whatever arrives, decoding ends in a relation or a SerializationError:
    a site server turns anything else into the fatal RemoteSiteError."""

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("sample", range(len(SAMPLES)))
    def test_every_strict_prefix_is_rejected(self, sample, codec):
        payload = encode_relation(SAMPLES[sample], codec)
        decoders = DECODERS if codec == "row" else DECODERS[:1]
        for decode in decoders:
            assert decode(payload).rows == SAMPLES[sample].rows
            for cut in range(len(payload)):
                with pytest.raises(SerializationError):
                    decode(payload[:cut])

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("sample", range(len(SAMPLES)))
    def test_every_single_byte_mutation_decodes_or_is_rejected(self, sample, codec):
        payload = encode_relation(SAMPLES[sample], codec)
        decoders = DECODERS if codec == "row" else DECODERS[:1]
        for decode in decoders:
            for position in range(len(payload)):
                for flip in (0x01, 0x80, 0xFF):
                    mutated = bytearray(payload)
                    mutated[position] ^= flip
                    try:
                        decode(bytes(mutated))
                    except SerializationError:
                        pass

    def test_format_v2_is_gone(self):
        # (k INT, s STR) x [(1, "a"), (2, NULL), (3, "a")] as PR 6-19's
        # delta/dictionary codec wrote it. Nothing persisted the format.
        payload = (
            b"SKRL\x02\x02\x01k\x00\x01s\x02\x03"
            b"\x07\x02\x02\x02\x05\x01\x01a\x00\x00"
        )
        with pytest.raises(SerializationError, match="unsupported codec version"):
            decode_relation(payload)

    @pytest.mark.parametrize("version", [1, 3])
    def test_row_count_beyond_the_payload_is_rejected_before_any_row(self, version):
        header = encode_relation(Relation.empty(FULL_SCHEMA), "row")[5:-1]
        rows = bytearray()
        serialize._write_varint(rows, 2**60)
        payload = b"SKRL" + bytes((version,)) + header + bytes(rows) + b"\x00" * 64
        with pytest.raises(SerializationError, match="rows declared"):
            decode_relation(payload)

    @pytest.mark.parametrize("codec", CODECS)
    def test_zero_attribute_relations_ship_a_bounded_row_count(self, codec):
        empty_schema = Schema.of()
        at_cap = Relation(empty_schema, [()] * MAX_ZERO_ATTRIBUTE_ROWS)
        payload = encode_relation(at_cap, codec)
        assert len(payload) == 9  # magic, version, 0 attributes, 3-byte varint
        assert len(decode_relation(payload)) == MAX_ZERO_ATTRIBUTE_ROWS
        with pytest.raises(SerializationError, match="zero-attribute"):
            encode_relation(
                Relation(empty_schema, [()] * (MAX_ZERO_ATTRIBUTE_ROWS + 1)), codec
            )
        over = bytearray(payload[:6])
        serialize._write_varint(over, 2**60)
        for decode in DECODERS if codec == "row" else DECODERS[:1]:
            with pytest.raises(SerializationError, match="zero-attribute"):
                decode(bytes(over))

    def test_dictionary_larger_than_its_column_is_rejected(self):
        relation = Relation(Schema.of(("s", STR),), [("a",), ("a",)])
        payload = bytearray(encode_relation(relation, "column"))
        unique_count = payload.index(b"\x00", 9) + 1  # after the presence flag
        assert payload[unique_count] == 1
        payload[unique_count] = 100
        with pytest.raises(SerializationError, match="dictionary of 100 entries"):
            decode_relation(bytes(payload))

    def test_decode_cache_of_wire_headers_is_bounded(self):
        for index in range(serialize._MAX_DECODE_SCHEMAS + 8):
            relation = Relation.empty(Schema.of((f"attribute_{index}", INT),))
            decode_relation(encode_relation(relation))
        assert len(serialize._DECODE_SCHEMAS) <= serialize._MAX_DECODE_SCHEMAS


class TestColumnFormat:
    """Format v3, byte for byte where the specification says so."""

    def test_column_is_the_default_codec(self):
        relation = SAMPLES[0]
        assert DEFAULT_CODEC == "column"
        assert encode_relation(relation) == encode_relation(relation, "column")
        assert encode_relation(relation)[4] == 3
        assert encode_relation(relation, "row")[4] == 1

    def test_the_bytes_of_a_small_relation(self):
        relation = Relation(
            Schema.of(("k", INT), ("s", STR), ("b", BOOL)),
            [(1000, "ab", True), (1002, None, False), (1001, "ab", True)],
        )
        assert encode_relation(relation, "column") == (
            b"SKRL\x03\x03\x01k\x00\x01s\x02\x01b\x03\x03"
            # k: dense; reference 1000 (zig-zag varint), width 1, offsets
            b"\x00" b"\xd0\x0f" b"\x01" b"\x00\x02\x01"
            # s: bitmap 0b101; 1 unique, 2 blob bytes, lengths, blob, codes
            b"\x01\x05" b"\x01\x02" b"\x01\x02" b"ab" b"\x01\x00\x00"
            # b: dense; bits 0b101
            b"\x00" b"\x05"
        )

    def test_empty_relation_is_header_only(self):
        row = encode_relation(Relation.empty(FULL_SCHEMA), "row")
        column = encode_relation(Relation.empty(FULL_SCHEMA), "column")
        assert column == row[:4] + b"\x03" + row[5:]

    @pytest.mark.parametrize(
        "low, high, width",
        [(0, 255, 1), (0, 256, 2), (7, 7 + 65535, 2), (-5, 2**32 - 6, 4),
         (-(2**63), 2**63 - 1, 8), (2**70, 2**70 + 255, 1)],
    )
    def test_ints_take_the_narrowest_width_their_span_allows(self, low, high, width):
        schema = Schema.of(("i", INT),)
        rows = 64
        values = [low, high] + [low] * (rows - 2)
        relation = Relation(schema, [(value,) for value in values])
        payload = encode_relation(relation, "column")
        assert decode_relation(payload).rows == relation.rows
        empty = len(encode_relation(Relation.empty(schema), "column"))
        reference = bytearray()
        serialize._write_varint(reference, serialize._zigzag(low))
        # row count, presence flag, reference, width byte, the array
        assert len(payload) - empty in (
            1 + len(reference) + 1 + rows * width,
            1 + 1 + 1 + rows * width,  # reference 0 when the minimum buys nothing
        )

    def test_dates_ship_their_span_not_their_ordinals(self):
        schema = Schema.of(("d", DATE),)
        days = [datetime.date(2002, 1, 1) + datetime.timedelta(days=index)
                for index in range(200)]
        relation = Relation(schema, [(day,) for day in days])
        payload = encode_relation(relation, "column")
        assert decode_relation(payload).rows == relation.rows
        assert len(payload) < len(encode_relation(Relation.empty(schema))) + 8 + 200

    def test_distinct_strings_ship_no_codes(self):
        schema = Schema.of(("s", STR),)
        distinct = Relation(schema, [(f"v{index:03d}",) for index in range(100)])
        repeated = Relation(schema, [("v000",)] * 99 + [("v001",)])
        for relation in (distinct, repeated):
            assert decode_relation(encode_relation(relation)).rows == relation.rows
        header = len(encode_relation(Relation.empty(schema)))
        # flag, unique count, blob length (2-byte varint), width + lengths, blob
        assert len(encode_relation(distinct)) == header + 1 + 1 + 2 + 101 + 400

    def test_floats_are_bit_exact(self):
        import struct

        patterns = [
            0x8000000000000000,  # -0.0
            0x0000000000000001,  # smallest denormal
            0x7FF8000000000001,  # quiet NaN with a payload
            0xFFF0000000000000,  # -inf
        ]
        values = [struct.unpack("<d", struct.pack("<Q", bits))[0] for bits in patterns]
        relation = Relation(Schema.of(("f", FLOAT),), [(value,) for value in values])
        for codec in CODECS:
            decoded = decode_relation(encode_relation(relation, codec))
            assert [
                struct.unpack("<Q", struct.pack("<d", row[0]))[0] for row in decoded.rows
            ] == patterns

    def test_decoded_relation_adopts_its_columns(self):
        relation = SAMPLES[0]
        by_column = decode_relation(encode_relation(relation, "column"))
        by_row = decode_relation(encode_relation(relation, "row"))
        assert by_column.rows == by_row.rows == relation.rows
        assert by_column.to_columnar().built_columns() == relation.schema.names
        assert by_row.to_columnar().built_columns() == ()
        lists = by_column.to_columnar().value_lists()
        assert [lists[position] for position in range(5)] == [
            [row[position] for row in relation.rows] for position in range(5)
        ]

    def test_a_float_in_an_int_column_is_coerced_as_v1_does(self):
        relation = Relation(Schema.of(("i", INT),), [(2.75,), (3,), (None,)])
        for codec in CODECS:
            assert decode_relation(encode_relation(relation, codec)).rows == [
                (2,), (3,), (None,)
            ]
