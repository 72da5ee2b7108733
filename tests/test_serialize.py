"""Unit tests for the wire codec."""

import datetime
import struct
import time
import tracemalloc

import numpy as np
import pytest

from oracle import FORMATS, decode_relation_reference, encode_relation_reference
from repro.errors import SerializationError
from repro.net import serialize
from repro.net.serialize import (
    ADDRESS,
    MAX_ZERO_ATTRIBUTE_ROWS,
    decode_relation,
    decode_reply,
    encode_relation,
    encode_reply,
)
from repro.relalg.columnar import as_list
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

    @pytest.mark.parametrize("codec", FORMATS)
    def test_ints_past_eight_bytes(self, codec):
        # SUMs get there. v1 used to write 2**63 with the 64-bit zig-zag
        # idiom and read back -(2**63) - 1.
        encode, decode = FORMATS[codec]
        schema = Schema.of(("i", INT),)
        for values in (
            [2**63, 2**63 - 1, -(2**63)],
            [2**70, -(2**70), 5],  # spans more than 8 bytes: the escape block
            [2**70 + 1, 2**70 + 200],  # wide values, narrow span
        ):
            relation = Relation(schema, [(value,) for value in values])
            assert decode(encode(relation)).rows == relation.rows

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
    def test_size_grows_with_rows(self):
        schema = Schema.of(("i", INT),)
        small = Relation(schema, [(1,)] * 10)
        large = Relation(schema, [(1,)] * 100)
        assert len(encode_relation(large)) > len(encode_relation(small))

    def test_varint_efficiency(self):
        schema = Schema.of(("i", INT),)
        small_values = Relation(schema, [(1,)] * 50)
        large_values = Relation(schema, [(2**40,)] * 50)
        assert len(encode_relation(small_values)) < len(encode_relation(large_values))


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
    # Scaled FLOAT blocks, NULL-free and with the presence bitmap.
    Relation(
        Schema.of(("price", FLOAT), ("discount", FLOAT)),
        [(1999.0, 0.05), (None, 0.1), (-250.0, None), (3.5, 0.07)],
    ),
    # Repeated column blocks (back-references) and row addresses dense
    # enough for a row bitmap.
    Relation(
        Schema.of(("a", INT), ("s", STR), ("b", INT), ("t", STR), (ADDRESS, INT)),
        [
            (index % 4, f"v{index % 3}", index % 4, f"v{index % 3}", row)
            for index, row in enumerate([0, 1, 3, 4, 5, 7, 8, 9, 10])
        ],
    ),
]


class TestUntrustedBytes:
    """Whatever arrives, decoding ends in a relation or a SerializationError:
    a site server turns anything else into the fatal RemoteSiteError. The
    v1 oracle (``row``) is held to the same rule, so a diff against it
    fails on values, never on a stray exception."""

    @pytest.mark.parametrize("codec", FORMATS)
    @pytest.mark.parametrize("sample", range(len(SAMPLES)))
    def test_every_strict_prefix_is_rejected(self, sample, codec):
        encode, decode = FORMATS[codec]
        payload = encode(SAMPLES[sample])
        assert decode(payload).rows == SAMPLES[sample].rows
        for cut in range(len(payload)):
            with pytest.raises(SerializationError):
                decode(payload[:cut])

    @pytest.mark.parametrize("codec", FORMATS)
    @pytest.mark.parametrize("sample", range(len(SAMPLES)))
    def test_every_single_byte_mutation_decodes_or_is_rejected(self, sample, codec):
        encode, decode = FORMATS[codec]
        payload = encode(SAMPLES[sample])
        for position in range(len(payload)):
            for flip in (0x01, 0x80, 0xFF):
                mutated = bytearray(payload)
                mutated[position] ^= flip
                try:
                    decode(bytes(mutated))
                except SerializationError:
                    pass

    @pytest.mark.parametrize("sample", range(len(SAMPLES)))
    def test_a_positional_block_decodes_or_is_rejected(self, sample):
        """A positional fragment's first block (digest prefix, then a v3
        relation): every strict prefix is rejected, every single-byte
        mutation decodes — to a relation and a digest of the right
        length — or is rejected."""
        answer = serialize.answer_digest((), (b"an answer",))
        payload = serialize.encode_positional(SAMPLES[sample], answer)
        relation, digest, shared = serialize.decode_fragment(payload)
        assert relation.rows == SAMPLES[sample].rows and digest == answer and shared is None
        for cut in range(len(payload)):
            with pytest.raises(SerializationError):
                serialize.decode_fragment(payload[:cut])
        for position in range(len(payload)):
            for flip in (0x01, 0x80, 0xFF):
                mutated = bytearray(payload)
                mutated[position] ^= flip
                try:
                    _relation, digest, _shared = serialize.decode_fragment(bytes(mutated))
                except SerializationError:
                    continue
                assert digest is None or len(digest) == serialize.DIGEST_BYTES

    def test_a_leading_decode_reads_no_further_than_its_columns(self):
        payload = encode_relation(SAMPLES[0])
        whole = decode_relation(payload)
        leading, size = serialize.decode_leading(payload + b"unread", 2)
        assert leading.schema.names == whole.schema.names[:2]
        assert leading.rows == [row[:2] for row in whole.rows]
        first, first_size = serialize.decode_leading(payload, 1)
        assert 0 < first_size < size < len(payload)

    @pytest.mark.parametrize("length", [0, 8, 15, 17, 255])
    def test_a_digest_of_another_length_is_rejected(self, length):
        body = encode_relation(SAMPLES[0])
        payload = b"SKRP" + bytes((length,)) + b"\x07" * length + body
        with pytest.raises(SerializationError, match="digest"):
            serialize.decode_fragment(payload)
        for bad in (b"\x07" * length, "0123456789abcdef", 16):
            with pytest.raises(SerializationError, match="digest"):
                serialize.encode_positional(SAMPLES[0], bad)

    def test_format_v2_is_gone(self):
        # (k INT, s STR) x [(1, "a"), (2, NULL), (3, "a")] as PR 6-19's
        # delta/dictionary codec wrote it. Nothing persisted the format.
        payload = (
            b"SKRL\x02\x02\x01k\x00\x01s\x02\x03"
            b"\x07\x02\x02\x02\x05\x01\x01a\x00\x00"
        )
        with pytest.raises(SerializationError, match="unsupported codec version"):
            decode_relation(payload)

    def test_format_v1_is_gone(self):
        # The row codec's bytes, as the oracle writes them: not on the wire.
        for relation in SAMPLES + [Relation.empty(FULL_SCHEMA)]:
            v1 = encode_relation_reference(relation)
            assert v1[4] == 1 and encode_relation(relation)[4] == 3
            assert decode_relation_reference(v1).rows == relation.rows
            with pytest.raises(SerializationError, match="unsupported codec version"):
                decode_relation(v1)

    @pytest.mark.parametrize("version", [1, 3])
    def test_row_count_beyond_the_payload_is_rejected_before_any_row(self, version):
        decode = decode_relation_reference if version == 1 else decode_relation
        header = encode_relation(Relation.empty(FULL_SCHEMA))[5:-1]
        rows = bytearray()
        serialize._write_varint(rows, 2**60)
        payload = b"SKRL" + bytes((version,)) + header + bytes(rows) + b"\x00" * 64
        with pytest.raises(SerializationError, match="rows declared"):
            decode(payload)

    @pytest.mark.parametrize("codec", FORMATS)
    def test_zero_attribute_relations_ship_a_bounded_row_count(self, codec):
        encode, decode = FORMATS[codec]
        empty_schema = Schema.of()
        at_cap = Relation(empty_schema, [()] * MAX_ZERO_ATTRIBUTE_ROWS)
        payload = encode(at_cap)
        assert len(payload) == 9  # magic, version, 0 attributes, 3-byte varint
        assert len(decode(payload)) == MAX_ZERO_ATTRIBUTE_ROWS
        with pytest.raises(SerializationError, match="zero-attribute"):
            encode(Relation(empty_schema, [()] * (MAX_ZERO_ATTRIBUTE_ROWS + 1)))
        over = bytearray(payload[:6])
        serialize._write_varint(over, 2**60)
        with pytest.raises(SerializationError, match="zero-attribute"):
            decode(bytes(over))

    def test_dictionary_larger_than_its_column_is_rejected(self):
        relation = Relation(Schema.of(("s", STR),), [("a",), ("a",)])
        payload = bytearray(encode_relation(relation))
        unique_count = payload.index(b"\x00", 9) + 1  # after the presence flag
        assert payload[unique_count] == 1
        payload[unique_count] = 100
        with pytest.raises(SerializationError, match="dictionary of 100 entries"):
            decode_relation(bytes(payload))

    @staticmethod
    def rejected(block: bytes, match: str, code: int = 1, rows: int = 1) -> None:
        """A one-attribute relation of type ``code`` and ``rows`` rows whose
        column block is ``block`` is rejected, quickly and in little memory."""
        payload = b"SKRL\x03\x01\x01x" + bytes((code, rows)) + block
        tracemalloc.start()
        started = time.perf_counter()
        try:
            with pytest.raises(SerializationError, match=match):
                decode_relation(payload)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - started < 1.0
        assert peak < 1 << 20

    @pytest.mark.parametrize("code", [0, 2, 3, 4])
    @pytest.mark.parametrize("presence", [b"\x04", b"\x05\x01"])
    def test_a_scaled_block_outside_a_float_column_is_rejected(self, code, presence):
        self.rejected(presence + b"\x00\x00\x01\x05", "scaled block in a", code)

    def test_a_scaled_exponent_past_the_constant_is_rejected(self):
        for exponent in (serialize.MAX_SCALE_EXPONENT + 1, 255):
            self.rejected(b"\x04" + bytes((exponent,)) + b"\x00\x01\x05", "exponent")

    def test_a_scaled_block_refuses_the_escape(self):
        # Reference 0, then width 0 and one varint: an INT column's escape.
        self.rejected(b"\x04\x00\x00\x00\x05", "bad width byte 0")

    @pytest.mark.parametrize("reference, width, value", [
        (2**53 + 1, 1, 0),  # the reference itself
        (-(2**53) - 1, 1, 5),
        (0, 8, 2**53 + 1),  # a value past the bound a width 8 header gives
        (2**52, 8, 2**52 + 1),
        (-(2**53), 8, 2**53 + 2),  # the sum within 2**53, the value not
    ])
    def test_a_scaled_block_past_2_to_the_53_is_rejected(self, reference, width, value):
        block = bytearray(b"\x04\x00")
        serialize._write_varint(block, serialize._zigzag(reference))
        block += bytes((width,)) + value.to_bytes(width, "little")
        self.rejected(bytes(block), "2\\*\\*53")

    def test_a_scaled_block_within_2_to_the_53_decodes(self):
        block = bytearray(b"\x04\x00")
        serialize._write_varint(block, serialize._zigzag(-(2**53)))
        block += b"\x08" + (2**53).to_bytes(8, "little")
        decoded = decode_relation(b"SKRL\x03\x01\x01x\x01\x01" + bytes(block))
        assert repr(decoded.rows) == "[(0.0,)]"

    @pytest.mark.parametrize("block", [
        b"\x04", b"\x04\x00", b"\x04\x00\x00", b"\x04\x00\x00\x01",
        b"\x04\x00\x80", b"\x05", b"\x05\x01\x00\x00\x01",
    ])
    def test_a_truncated_scaled_block_is_rejected(self, block):
        self.rejected(block, "truncated")

    def test_a_scaled_block_must_hold_what_its_bitmap_counts(self):
        # Three rows, two present by the bitmap: one value is too few,
        # three too many.
        self.rejected(b"\x05\x05\x00\x00\x01\x07", "truncated", rows=3)
        self.rejected(b"\x05\x05\x00\x00\x01\x07\x08\x09", "trailing bytes", rows=3)

    def test_decode_cache_of_wire_headers_is_bounded(self):
        for index in range(serialize._MAX_DECODE_SCHEMAS + 8):
            relation = Relation.empty(Schema.of((f"attribute_{index}", INT),))
            decode_relation(encode_relation(relation))
        assert len(serialize._DECODE_SCHEMAS) <= serialize._MAX_DECODE_SCHEMAS


class TestColumnFormat:
    """Format v3, byte for byte where the specification says so."""

    def test_column_is_the_default_codec(self):
        # Format v3 is the one format encode_relation writes; v1 is the
        # oracle's.
        relation = SAMPLES[0]
        assert encode_relation(relation)[4] == 3
        assert encode_relation_reference(relation)[4] == 1

    def test_the_bytes_of_a_small_relation(self):
        relation = Relation(
            Schema.of(("k", INT), ("s", STR), ("b", BOOL)),
            [(1000, "ab", True), (1002, None, False), (1001, "ab", True)],
        )
        assert encode_relation(relation) == (
            b"SKRL\x03\x03\x01k\x00\x01s\x02\x01b\x03\x03"
            # k: dense; reference 1000 (zig-zag varint), width 1, offsets
            b"\x00" b"\xd0\x0f" b"\x01" b"\x00\x02\x01"
            # s: bitmap 0b101; 1 unique, 2 blob bytes, lengths, blob, codes
            b"\x01\x05" b"\x01\x02" b"\x01\x02" b"ab" b"\x01\x00\x00"
            # b: dense; bits 0b101
            b"\x00" b"\x05"
        )

    def test_encoding_a_column_backed_relation_builds_no_rows(self):
        relation = Relation(
            Schema.of(("k", INT), ("s", STR), ("b", BOOL)),
            [(1000, "ab", True), (1002, None, False), (1001, "ab", True)],
        )
        payload = encode_relation(relation)
        decoded = decode_relation(payload)
        assert decoded._rows is None
        assert encode_relation(decoded) == payload
        assert decoded._rows is None
        assert decoded.rows == relation.rows

    def test_empty_relation_is_header_only(self):
        row = encode_relation_reference(Relation.empty(FULL_SCHEMA))  # v1
        column = encode_relation(Relation.empty(FULL_SCHEMA))
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
        payload = encode_relation(relation)
        assert decode_relation(payload).rows == relation.rows
        empty = len(encode_relation(Relation.empty(schema)))
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
        payload = encode_relation(relation)
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
        for encode, decode in FORMATS.values():
            decoded = decode(encode(relation))
            assert [
                struct.unpack("<Q", struct.pack("<d", row[0]))[0] for row in decoded.rows
            ] == patterns

    def test_decoded_relation_adopts_its_columns(self):
        relation = SAMPLES[0]
        by_column = decode_relation(encode_relation(relation))
        by_row = decode_relation_reference(encode_relation_reference(relation))
        assert by_column.rows == by_row.rows == relation.rows
        kinds = [type(column) for column in relation.held()]
        assert [type(column) for column in by_column.held()] == kinds
        assert [type(column) for column in by_row.held()] == kinds
        assert [by_column.values(position) for position in range(5)] == [
            [row[position] for row in relation.rows] for position in range(5)
        ]

    def test_a_float_in_an_int_column_is_coerced_as_v1_does(self):
        relation = Relation(Schema.of(("i", INT),), [(2.75,), (3,), (None,)])
        for encode, decode in FORMATS.values():
            assert decode(encode(relation)).rows == [(2,), (3,), (None,)]


class TestTypedColumns:
    """A NULL-free INT block whose values lie within ``±2**53`` and a
    NULL-free FLOAT block decode to ``int64`` and ``float64`` arrays at
    every row count; anything else is a value list."""

    @staticmethod
    def held(relation: Relation) -> list:
        return decode_relation(encode_relation(relation)).held()

    @pytest.mark.parametrize("rows", [1, 12, 5_000])
    def test_int_and_float_columns_decode_to_typed_arrays(self, rows):
        schema = Schema.of(("small", INT), ("wide", INT), ("negative", INT), ("real", FLOAT))
        values = [
            (index % 7, index * 2**40, -3 - index, index / 3 - 0.0) for index in range(rows)
        ]
        relation = Relation(schema, values)
        held = self.held(relation)
        for column, dtype in zip(held, (np.int64, np.int64, np.int64, np.float64)):
            assert type(column) is np.ndarray and column.dtype == dtype
        assert repr(list(zip(*(column.tolist() for column in held)))) == repr(relation.rows)

    @pytest.mark.parametrize("rows", [1, 12, 5_000])
    def test_the_edges_of_2_to_the_53_stay_exact(self, rows):
        for edge in (2**53, -(2**53)):
            for other in (edge, 0, -edge):
                relation = Relation(
                    Schema.of(("x", INT)), [(edge,)] + [(other,)] * (rows - 1)
                )
                [column] = self.held(relation)
                assert type(column) is np.ndarray and column.dtype == np.int64
                assert column.tolist() == [row[0] for row in relation.rows]

    @pytest.mark.parametrize("rows", [1, 12, 5_000])
    def test_a_column_beyond_2_to_the_53_stays_a_list(self, rows):
        for edge in (2**53, -(2**53)):
            for beyond in (edge + (1 if edge > 0 else -1), 2**64, -(2**64)):
                relation = Relation(
                    Schema.of(("x", INT)), [(edge,)] * (rows - 1) + [(beyond,)]
                )
                [column] = self.held(relation)
                assert type(column) is list
                assert repr(column) == repr([row[0] for row in relation.rows])

    def test_the_header_bound_is_exact(self):
        """A width-1 block's values lie in ``[reference, reference + 255]``:
        the whole range within ``±2**53`` is read without a pass over the
        values, one past it is checked value by value."""
        for values, typed in (
            ([2**53 - 255, 2**53], True),
            ([2**53 - 254, 2**53 + 1], False),
            ([2**53 - 254, 2**53], True),
            ([-(2**53), -(2**53) + 255], True),
            ([-(2**53) - 1, -(2**53) + 254], False),
        ):
            [column] = self.held(Relation(Schema.of(("x", INT)), [(value,) for value in values]))
            assert (type(column) is np.ndarray) is typed
            assert list(column) == values and all(type(value) is int for value in as_list(column))

    def test_a_null_keeps_the_column_a_value_list(self):
        relation = Relation(Schema.of(("i", INT), ("f", FLOAT)), [(1, 0.5), (None, None), (3, -0.0)])
        held = self.held(relation)
        assert [type(column) for column in held] == [list, list]
        assert repr(held) == repr([[1, None, 3], [0.5, None, -0.0]])
        assert all(type(value) in (int, float, type(None)) for column in held for value in column)


class TestScaledFloats:
    """A FLOAT column of short decimals ships as integers ``v * 10**e``:
    presence byte 4 (5 with the bitmap), the exponent byte and an INT
    frame-of-reference block — only where that is shorter than the
    doubles, and only where every value comes back bit for bit."""

    def test_the_bytes_of_a_scaled_block(self):
        assert column_block([1.5, None, 2.25], FLOAT) == (
            # bitmap 0b101; exponent 2; reference 0, width 1: 150, 225
            b"\x05\x05" b"\x02" b"\x00\x01" b"\x96\xe1"
        )
        assert column_block([1999.0, -250.0], FLOAT) == (
            # exponent 0; reference -250 (zig-zag 499), width 2: 2249, 0
            b"\x04" b"\x00" b"\xf3\x03\x02" b"\xc9\x08\x00\x00"
        )

    @pytest.mark.parametrize("stray", [
        -0.0, float("nan"), float("inf"), float("-inf"), 1 / 3, 2.0**53 + 2, 1e-16,
    ])
    def test_a_value_that_does_not_scale_keeps_the_column_raw(self, stray):
        values = [1.5, 2.0, stray, 3.25]
        block = column_block(values, FLOAT)
        assert block[0] == 0 and len(block) == 1 + 8 * len(values)
        assert repr(decode_relation(encode_relation(
            Relation(Schema.of(("x", FLOAT)), [(value,) for value in values])
        )).rows) == repr([(value,) for value in values])

    def test_integers_past_2_to_the_53_keep_the_column_raw(self):
        # Three bytes of header and a byte a value would be shorter, but the
        # decoder's float64 arithmetic is exact only within 2**53.
        for values in (
            [2.0**53 + 2, 2.0**53 + 4, 2.0**53 + 6],
            [-(2.0**53) - 2, -(2.0**53)],
            # Round-trips as rint(v * 10**4) / 10**4 only: that is 2.9e16.
            [2901320001864.1904] * 3,
        ):
            assert column_block(values, FLOAT)[0] == 0
        assert column_block([2.0**53 - 2, 2.0**53], FLOAT)[:2] == b"\x04\x00"

    def test_the_smallest_exponent_is_taken_past_the_sample(self):
        # The first 40 values are whole, the last needs three decimals.
        values = [float(index) for index in range(40)] + [0.125]
        block = column_block(values, FLOAT)
        assert block[:2] == b"\x04\x03"
        assert decode_relation(encode_relation(
            Relation(Schema.of(("x", FLOAT)), [(value,) for value in values])
        )).values(0) == values

    def test_a_scaled_block_is_never_longer(self):
        # Integers a width 8 array holds: the doubles are shorter.
        assert column_block([0.0, 2.0**40], FLOAT)[0] == 0
        assert len(column_block([0.0, 2.0**31], FLOAT)) == 1 + 1 + 2 + 4 * 2

    def test_a_raw_block_as_written_before_the_scaled_form_decodes(self):
        header = b"SKRL\x03\x01\x01x\x01"
        no_null = header + b"\x02\x00" + struct.pack("<2d", 1.0, 2.5)
        with_null = header + b"\x03\x01\x05" + struct.pack("<2d", 1.0, -0.0)
        assert repr(decode_relation(no_null).rows) == "[(1.0,), (2.5,)]"
        assert repr(decode_relation(with_null).rows) == "[(1.0,), (None,), (-0.0,)]"

    @pytest.mark.parametrize("rows", [1, 12, 5_000])
    def test_a_null_free_scaled_column_decodes_to_a_float64_array(self, rows):
        schema = Schema.of(("x", FLOAT))
        relation = Relation(schema, [(index / 4,) for index in range(rows)])
        payload = encode_relation(relation)
        [column] = decode_relation(payload).held()
        header = bytearray(encode_relation(Relation.empty(schema))[:-1])
        serialize._write_varint(header, rows)
        assert payload[len(header)] == 4 and len(payload) < len(header) + 1 + 8 * rows
        assert type(column) is np.ndarray and column.dtype == np.float64
        assert repr(column.tolist()) == repr([row[0] for row in relation.rows])


def column_block(values, type_name=INT) -> bytes:
    """The v3 block of one column of ``values`` (fewer than 128)."""
    schema = Schema.of(("x", type_name))
    empty = encode_relation(Relation(schema, []))
    return encode_relation(Relation(schema, [(value,) for value in values]))[len(empty):]


def two_ints(second_block: bytes, second=("b", INT)) -> bytes:
    """Two rows of ``a`` (1, 2) and a second attribute whose block is given."""
    header = encode_relation(Relation(Schema.of(("a", INT), second), []))[:-1]
    return header + b"\x02" + column_block([1, 2]) + second_block


class TestRepeatedBlocks:
    """A column block byte-equal to an earlier block of the same type ships
    as a back-reference to it: presence byte 2, the earlier column's index."""

    def test_a_repeated_block_is_a_back_reference(self):
        relation = Relation(Schema.of(("a", INT), ("b", INT)), [(1, 1), (2, 2)])
        payload = encode_relation(relation)
        assert payload == two_ints(b"\x02\x00")
        decoded = decode_relation(payload)
        assert decoded.rows == relation.rows
        first, second = decoded.held()
        assert first is not second  # a copy: no two columns share a list

    def test_equal_values_of_another_type_are_not_referenced(self):
        relation = Relation(Schema.of(("a", INT), ("d", DATE)), [(1, datetime.date.fromordinal(1))])
        assert b"\x02\x00" not in encode_relation(relation)[-2:]

    @pytest.mark.parametrize(
        "block, match",
        [
            (b"\x02\x01", "not to an earlier one"),  # itself
            (b"\x02\x02", "back-reference to column 2 of 2"),  # out of range
            (b"\x02\x80\x01", "back-reference to column 128 of 2"),
        ],
    )
    def test_a_reference_must_name_an_earlier_column(self, block, match):
        with pytest.raises(SerializationError, match=match):
            decode_relation(two_ints(block))

    def test_a_forward_reference_is_rejected(self):
        header = encode_relation(Relation(Schema.of(("a", INT), ("b", INT)), []))[:-1]
        # Column 0 refers to column 1, which follows it.
        forward = header + b"\x02" + b"\x02\x01" + column_block([1, 2])
        with pytest.raises(SerializationError, match="not to an earlier one"):
            decode_relation(forward)

    def test_a_reference_to_another_type_is_rejected(self):
        with pytest.raises(SerializationError, match="str column 1 refers to int column 0"):
            decode_relation(two_ints(b"\x02\x00", second=("s", STR)))

    def test_a_copied_bit_packed_column_decodes(self):
        # Five bytes of bits and two of reference: fewer than a bit per row
        # for each of the two columns.
        flags = [index % 3 == 0 for index in range(25)]
        relation = Relation(Schema.of(("a", BOOL), ("b", BOOL)), list(zip(flags, flags)))
        payload = encode_relation(relation)
        assert payload.endswith(b"\x02\x00")
        assert decode_relation(payload).rows == relation.rows

    def test_back_references_copy_at_most_eight_rows_a_byte(self):
        flags = [index % 3 == 0 for index in range(120)]
        schema = Schema.of(*((f"c{column}", BOOL) for column in range(10)))
        relation = Relation(schema, [(flag,) * 10 for flag in flags])
        payload = encode_relation(relation)
        # Past the budget a repeated column ships whole, and everything decodes.
        assert payload.count(column_block(flags, BOOL)) > 1
        assert decode_relation(payload).rows == relation.rows
        # 16 bytes of block: a second copy of its 120 rows is past 8 a byte.
        header = encode_relation(Relation(schema, []))[:-1] + bytes([len(flags)])
        copies = header + column_block(flags, BOOL) + b"\x02\x00" * 9
        with pytest.raises(SerializationError, match="copy 240 rows in 20 bytes"):
            decode_relation(copies)


def addressed(rows, values=None) -> Relation:
    """Sub column ``v`` answering the fragment rows ``rows`` (an ADDRESS
    column written as the encoder chooses)."""
    values = values if values is not None else list(range(len(rows)))
    return Relation(Schema.of(("v", INT), (ADDRESS, INT)), list(zip(values, rows)))


class TestRowAddresses:
    """An answer by row address: its ADDRESS column is written as the
    smaller of its numbers and a bitmap over the rows they span, and is
    read back only strictly ascending within the rows shipped."""

    def test_dense_addresses_ship_as_a_bitmap(self):
        rows = [row for row in range(1000) if row % 10]
        payload = encode_relation(addressed(rows))
        listed = encode_relation(
            Relation(Schema.of(("v", INT), ("other", INT)), addressed(rows).rows)
        )
        assert len(payload) < len(listed) - 700  # ~125 bitmap bytes, not ~1800
        relation, decoded = decode_reply(payload, ("k",), 1000)
        assert decoded.tolist() == rows
        assert relation.schema.names == ("v",)

    def test_sparse_addresses_ship_as_numbers(self):
        rows = [5, 900, 70000]
        payload = encode_relation(addressed(rows))
        assert decode_reply(payload, ("k",), 70001)[1].tolist() == rows

    def test_a_bitmap_ships_only_where_its_whole_block_is_smaller(self):
        # As numbers: presence, reference 0, width 1, then 0 and 31 — five
        # bytes; as a bitmap: presence, first, span and four bytes — seven.
        payload = encode_relation(addressed([0, 31]))
        assert payload.endswith(b"\x00\x00\x01\x00\x1f")
        assert decode_reply(payload, ("k",), 32)[1].tolist() == [0, 31]

    def test_a_reply_is_no_larger_than_the_keyed_one_where_bits_alone_are(self):
        # Four bits' bytes undercut the numbers' block, the bitmap's whole
        # block does not: the reply stays within the keyed answer's size.
        h = Relation(Schema.of(("part", INT), ("v", INT), (ADDRESS, INT)), [(7, 1, 0), (9, 2, 31)])
        keyed = encode_relation(h.project(["part", "v"]))
        assert len(encode_reply(h, 1)) <= len(keyed)

    def test_a_bitmap_whose_count_disagrees_is_rejected(self):
        rows = list(range(0, 64, 2))
        payload = bytearray(encode_relation(addressed(rows)))
        assert payload[-11:-8] == b"\x03\x00\x3f"  # presence 3, first 0, span 63
        payload[-8] |= 0x02  # row 1 too
        with pytest.raises(SerializationError, match="row bitmap of 33 rows"):
            decode_relation(bytes(payload))

    def test_a_bitmap_is_for_int_columns(self):
        payload = bytearray(encode_relation(addressed(list(range(0, 64, 2)))))
        header = encode_relation(Relation(Schema.of(("v", INT), (ADDRESS, STR)), []))[:-1]
        body = payload[len(header):]
        with pytest.raises(SerializationError, match="row bitmap in a str column"):
            decode_relation(bytes(header) + bytes(body))

    @pytest.mark.parametrize(
        "rows, shipped, start",
        [
            ([3, 1], 10, 0),  # unsorted
            ([1, 1], 10, 0),  # repeated
            ([2, 10], 10, 0),  # past the rows shipped
            ([2, 4], 10, 3),  # before the block's start
        ],
    )
    def test_addresses_out_of_order_or_range_are_rejected(self, rows, shipped, start):
        payload = encode_relation(addressed(rows))
        with pytest.raises(SerializationError, match="strictly ascending"):
            decode_reply(payload, ("k",), shipped, start)

    def test_unaddressed_rows_must_fit_the_fragment(self):
        payload = encode_relation(Relation(Schema.of(("v", INT)), [(1,), (2,)]))
        assert decode_reply(payload, ("k",), 5, 3)[1].tolist() == [3, 4]
        with pytest.raises(SerializationError, match="answer from row 4 of a fragment of 5"):
            decode_reply(payload, ("k",), 5, 4)

    def test_every_answer_is_the_smallest_of_three(self):
        keys = [(key,) for key in range(100)]
        # All rows from the block's start: no addresses, no keys.
        h = Relation(Schema.of(("k", INT), ("v", INT), (ADDRESS, INT)), [(k, 1, k + 4) for (k,) in keys])
        payload = encode_reply(h, 1, start=4)
        assert decode_relation(payload).schema.names == ("v",)
        # A sparse subset of a large fragment whose keys are dense: keyed.
        rows = list(range(0, 100_000, 5_000))
        h = Relation(
            Schema.of(("k", INT), ("v", INT), (ADDRESS, INT)),
            [(index, 1, row) for index, row in enumerate(rows)],
        )
        payload = encode_reply(h, 1)
        assert decode_relation(payload).schema.names == ("k", "v")
        assert decode_reply(payload, ("k",), 100_000)[1] is None
