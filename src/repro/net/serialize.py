"""Binary codec for relations shipped between sites and the coordinator.

The synchronization-traffic measurements of the paper (Figure 2 right,
Figure 5 breakdown) are byte counts of shipped partial results. To keep
those measurements honest, every shipment in the simulated cluster is
*actually encoded* with this codec and the wire size is the length of the
produced buffer — not an estimate.

**Format v3** is what every shipped block and every partition store file
is encoded with. It is little-endian, and starts with a header:

- magic ``b"SKRL"`` + format version (1 byte, ``3``);
- attribute count (varint), then per attribute: name (varint-length
  UTF-8) and a 1-byte type code (0 INT, 1 FLOAT, 2 STR, 3 BOOL, 4 DATE);
- row count (varint).

A relation of zero rows is header-only. A zero-attribute relation is
that header and nothing else: its rows are empty tuples, so the count is
all there is to ship. Nothing in the payload bounds such a count, hence
:data:`MAX_ZERO_ATTRIBUTE_ROWS`.

Otherwise one block per attribute follows, in schema order, each packed
and unpacked by C loops of the standard library (``array``,
``min``/``max``, ``dict.fromkeys``, ``map`` over C callables,
``itertools``) — Python statements run per column and per dictionary
entry, never per value:

- *presence*: byte ``0`` when the column has no NULL; else byte ``1``
  and a bitmap of ``ceil(rows / 8)`` bytes, bit ``i`` (LSB-first) set
  when row ``i`` is non-NULL. The rest of the block covers the *present*
  values only, and is empty when there are none.
- *unsigned array* (used below): a width byte — 1, 2, 4 or 8 — then the
  values at that fixed width, the narrowest that holds the largest.
- INT, DATE (as proleptic-Gregorian ordinals): frame of reference — the
  reference as a zig-zag varint, then ``value - reference`` as an
  unsigned array. The encoder takes the column minimum as the reference
  when that narrows the array and 0 when it does not. A column whose
  span does not fit 8 bytes is the *escape block*: reference, width byte
  0, then one zig-zag varint per value.
- FLOAT: IEEE doubles, 8 bytes each, bit-exact (``-0.0``, denormals, NaN
  payloads); an int in a FLOAT column is coerced to a float.
- STR: first-appearance dictionary — unique count (varint), the byte
  length of the uniques' concatenated UTF-8 (varint), each unique's
  length *in code points* as an unsigned array, the UTF-8 blob, then one
  dictionary code per value as an unsigned array. When every value is
  distinct the codes would be 0, 1, 2, … and are omitted.
- BOOL: bit-packed like the bitmap, ``ceil(present / 8)`` bytes.

Two more presence bytes stand for a whole block:

- ``2``, a *back-reference*: the index (varint) of an earlier column of
  the same type whose block this one repeats byte for byte; the encoder
  writes one wherever it is shorter than the block and within
  :func:`_copies_fit`. An AVG's count beside a COUNT of the same rows
  ships as two bytes.
- ``3``, a *row bitmap* (INT only, no NULL): the first value (varint),
  the span (varint) and a bitmap of ``ceil(span / 8)`` bytes whose set bit
  ``i`` is the value ``first + i``; as many bits are set as there are rows.
  The encoder writes it only for the :data:`ADDRESS` attribute, and only
  where the whole block is shorter than the frame-of-reference block.

**Answers by row address.** A site answers a shipped fragment
(:func:`encode_reply`) with its sub-aggregate columns and no key: the
fragment's rows it answers are the block's :data:`ADDRESS` column (strictly
ascending row numbers), or, without one, the rows from the one after the
previous block's last, one per row. A block may instead carry the key
attributes when that is smaller. :func:`decode_reply` reads one back.

**Positional fragments.** In a round that ships each site only the groups
it answered with in the round before (observed reduction), the fragment to
a site lists those groups in the site's own answer order, so it need not
carry the key attributes K: the site kept them. Its first block
(:func:`encode_positional`) is the magic ``b"SKRP"``, a length byte
(:data:`DIGEST_BYTES`), the digest of the answer it is positional against,
and then a format v3 relation of the round's other fields; any further
row block is a plain v3 relation. :func:`decode_fragment` reads either
kind of first block. The digest is :func:`answer_digest`: the first
:data:`DIGEST_BYTES` bytes of SHA-256 over the blocks the site was
shipped in that round and the blocks it answered with, each list and
each block preceded by its length as 8 little-endian bytes. Both ends
hold those bytes, and they fix the key list: a keyed answer carries its
keys, an answer by row address names rows of a fragment that carried
them (or was itself positional against an earlier digest). A site keeps
an answer's keys only when every key attribute is there and none is
FLOAT (:func:`positional_keys`): ``-0.0`` equals ``0.0`` as a key, so a
site's own key value could differ in its bits from the coordinator's.

The decoder checks every declared count and length against the bytes
that remain *before* it allocates for them, rejects stray bits past the
end of a bitmap, width bytes other than the four above, dictionary
codes out of range, a back-reference to a column that is not an earlier
one of the same type or past :func:`_copies_fit`, a row bitmap whose
count disagrees, and hands
the columns it built to the decoded relation
(:meth:`Relation.from_columnar`), which builds rows only when asked.
From :data:`TYPED_COLUMN_MIN_ROWS` rows on, a NULL-free FLOAT column is
a ``float64`` array and a NULL-free INT column within
``±2**53`` an ``int64`` one, read off the block with no list between:
what a site holds of its store-loaded partition.

Whatever the bytes, decoding ends in a relation or a
:class:`~repro.errors.SerializationError` — a site server maps anything
else to a fatal error, and a short read must stay retryable. Any other
version byte is rejected: format v2 (delta varints) is gone, and format
v1 (a tag byte per value) exists only as the test oracle in
``tests/oracle/codec.py``.
"""

from __future__ import annotations

import datetime
import hashlib
import sys
import threading
from array import array
from functools import partial
from itertools import accumulate, chain, compress, count, repeat
from operator import add, is_not, sub
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import SchemaError, SerializationError
from repro.relalg.columnar import EXACT_INT, ColumnarRelation
from repro.relalg.relation import Relation
from repro.relalg.schema import BOOL, DATE, FLOAT, INT, STR, Attribute, Schema

_MAGIC = b"SKRL"
_VERSION = 3

#: Most rows a zero-attribute relation may carry on the wire. Every other
#: relation's row count is bounded by its payload (a value is at least a
#: bit); here nine bytes could otherwise ask for 2**60 empty tuples.
MAX_ZERO_ATTRIBUTE_ROWS = 1 << 16

_TYPE_CODES = {INT: 0, FLOAT: 1, STR: 2, BOOL: 3, DATE: 4}
_CODE_TYPES = {code: name for name, code in _TYPE_CODES.items()}
_INT_CODE = _TYPE_CODES[INT]

#: What the decoder can raise on bytes that are not what they claim to be,
#: besides the checks it makes itself: a read past the end, bad UTF-8 or a
#: date ordinal out of range.
_CORRUPTION_ERRORS = (IndexError, ValueError, OverflowError)


def _write_varint(buffer: bytearray, value: int) -> None:
    if value < 0:
        raise SerializationError(f"varint must be non-negative, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buffer.append(byte | 0x80)
        else:
            buffer.append(byte)
            return


def _read_varint(data: bytes, offset: int) -> tuple:
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise SerializationError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 70:
            raise SerializationError("varint too long")


def _zigzag(value: int) -> int:
    # Arbitrary precision: no ``^ (value >> 63)``, which is the 64-bit idiom
    # and garbles a non-negative value of 2**63 or more.
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def _unzigzag(value: int) -> int:
    return value >> 1 if not value & 1 else -((value + 1) >> 1)


def _check_zero_attribute_rows(row_count: int) -> None:
    if row_count > MAX_ZERO_ATTRIBUTE_ROWS:
        raise SerializationError(
            f"a zero-attribute relation ships at most {MAX_ZERO_ATTRIBUTE_ROWS} "
            f"rows, got {row_count}"
        )


def _check_consumed(offset: int, data_length: int) -> None:
    if offset > data_length:
        # A string's declared length ran past the end; slicing forgave it.
        raise SerializationError("truncated row data")
    if offset != data_length:
        raise SerializationError(f"{data_length - offset} trailing bytes after relation")


# ---------------------------------------------------------------------------
# Headers: per-schema encoder plans, interned decode schemas
# ---------------------------------------------------------------------------

#: schema -> (header, type codes); the header ends before the row count
_ENCODE_PLANS: Dict[Schema, Tuple[bytes, tuple]] = {}
#: ((UTF-8 name, type code), ...) as read off the wire -> (Schema, type codes)
_DECODE_SCHEMAS: Dict[tuple, Tuple[Schema, tuple]] = {}
_PLAN_LOCK = threading.Lock()
#: Headers come off the wire, so the cache they key must not grow without
#: bound; a program ships a handful of schemas, and a flushed one is rebuilt.
_MAX_DECODE_SCHEMAS = 512


def _cached(cache: dict, key, build, bound: int = 0):
    """``cache[key]``, built on first use; a ``bound``-ed cache that is full
    starts over (its keys came off the wire)."""
    value = cache.get(key)
    if value is None:
        value = build(key)
        with _PLAN_LOCK:
            if bound and len(cache) >= bound:
                cache.clear()
            cache[key] = value
    return value


def _build_encode_plan(schema: Schema) -> Tuple[bytes, tuple]:
    header = bytearray(_MAGIC)
    header.append(_VERSION)
    _write_varint(header, len(schema))
    type_codes = []
    for attribute in schema:
        name_bytes = attribute.name.encode("utf-8")
        _write_varint(header, len(name_bytes))
        header += name_bytes
        code = _TYPE_CODES[attribute.type]
        header.append(code)
        type_codes.append(code)
    return bytes(header), tuple(type_codes)


def _encode_plan(schema: Schema) -> Tuple[bytes, tuple]:
    return _cached(_ENCODE_PLANS, schema, _build_encode_plan)


def _read_header(data: bytes, offset: int) -> tuple:
    """The shared header from ``offset`` (just past the version byte).

    Returns ``(schema, type codes, row count, offset of the body)``. The
    schema is interned per distinct header, so names are decoded and the
    schema validated once per shape, not once per block.
    """
    data_length = len(data)
    attr_count, offset = _read_varint(data, offset)
    if attr_count * 2 > data_length - offset:  # a length byte and a type code each
        raise SerializationError("truncated schema header")
    pairs = []
    for _index in range(attr_count):
        name_length, offset = _read_varint(data, offset)
        end = offset + name_length
        if end >= data_length:
            raise SerializationError("truncated schema header")
        pairs.append((data[offset:end], data[end]))
        offset = end + 1
    schema, type_codes = _cached(
        _DECODE_SCHEMAS, tuple(pairs), _build_schema, _MAX_DECODE_SCHEMAS
    )
    row_count, offset = _read_varint(data, offset)
    return schema, type_codes, row_count, offset


def _build_schema(pairs: tuple) -> Tuple[Schema, tuple]:
    attributes = []
    for name, code in pairs:
        if code not in _CODE_TYPES:
            raise SerializationError(f"unknown type code {code}")
        try:
            attributes.append(Attribute(name.decode("utf-8"), _CODE_TYPES[code]))
        except (UnicodeDecodeError, SchemaError) as exc:
            raise SerializationError(f"bad attribute name in header: {exc}") from exc
    try:
        schema = Schema(attributes)
    except SchemaError as exc:
        raise SerializationError(f"bad schema header: {exc}") from exc
    return schema, tuple(code for _name, code in pairs)


# ---------------------------------------------------------------------------
# Column-block codec (format v3; the module docstring is the specification)
# ---------------------------------------------------------------------------

_BIG_ENDIAN = sys.byteorder == "big"
#: Byte width -> ``array`` typecode of the unsigned integer that wide.
_UNSIGNED = {array(code).itemsize: code for code in "BHILQ"}
_WIDTH_LIMITS = ((1, 1 << 8), (2, 1 << 16), (4, 1 << 32), (8, 1 << 64))
#: Flag bytes (0 = unset, anything else = set) -> the digits ``int(text, 2)``
#: reads, and the digits ``bin`` writes -> 0/1 bytes.
_FLAGS_TO_DIGITS = b"0" + b"1" * 255
_DIGITS_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _pack_bits(flags: bytes) -> bytes:
    """Flag bytes -> a bitmap, flag ``i`` at bit ``i`` (LSB-first)."""
    # A power-of-two base is linear and exempt from the int/str digit limit.
    value = int(flags.translate(_FLAGS_TO_DIGITS)[::-1], 2)
    return value.to_bytes((len(flags) + 7) >> 3, "little")


def _unpack_bits(data: bytes, offset: int, count: int, what: str) -> tuple:
    """``count`` bits of the bitmap at ``offset`` as 0/1 bytes, and its end."""
    end = offset + ((count + 7) >> 3)
    if end > len(data):
        raise SerializationError(f"truncated {what}")
    value = int.from_bytes(data[offset:end], "little")
    if value >> count:
        raise SerializationError(f"stray bits past the end of a {what}")
    # "0b1" + exactly ``count`` digits, most significant first.
    digits = bin(value | (1 << count))[3:]
    return digits.encode("ascii").translate(_DIGITS_TO_BITS)[::-1], end


def _width_of(largest: int) -> int:
    """Bytes of the narrowest unsigned array that holds ``largest``; 0 if none."""
    for width, limit in _WIDTH_LIMITS:
        if largest < limit:
            return width
    return 0


def _pack_unsigned(values, width: int) -> bytes:
    """An unsigned array: the width byte, then ``values`` that wide."""
    packed = array(_UNSIGNED[width], values)
    if _BIG_ENDIAN:
        packed.byteswap()
    return bytes((width,)) + packed.tobytes()


def _read_unsigned(data: bytes, offset: int, count: int, what: str) -> tuple:
    """``count`` values of the unsigned array at ``offset``, and its end."""
    if offset >= len(data):
        raise SerializationError(f"truncated {what}")
    typecode = _UNSIGNED.get(data[offset])
    if typecode is None:
        raise SerializationError(f"bad width byte {data[offset]} in {what}")
    end = offset + 1 + count * data[offset]
    if end > len(data):
        raise SerializationError(f"truncated {what}")
    values = array(typecode)
    values.frombytes(data[offset + 1 : end])
    if _BIG_ENDIAN:
        values.byteswap()
    return values, end


# The block writers take a column's values and return its block. Handed a
# NULL, every one of them raises TypeError — which is how the encoder learns
# that a column has NULLs without a pass of its own over the ones that don't.


def _int_block(values) -> bytes:
    try:
        # Counts and small keys: one pass, and min/max would not narrow it.
        return b"\x00\x01" + array("B", values).tobytes()
    except OverflowError:
        pass
    reference, largest = min(values), max(values)
    width = _width_of(largest - reference)
    block = bytearray()
    if not width:
        # The escape block: no fixed width holds this column's span.
        _write_varint(block, _zigzag(reference))
        block.append(0)
        for value in values:
            _write_varint(block, _zigzag(value))
        return block
    if reference >= 0 and _width_of(largest) == width:
        # Subtracting the minimum would not narrow the array: skip the pass.
        return b"\x00" + _pack_unsigned(values, width)
    _write_varint(block, _zigzag(reference))
    return block + _pack_unsigned(map(sub, values, repeat(reference)), width)


def _int_column_block(values) -> bytes:
    try:
        return _int_block(values)
    except TypeError:
        if None in values:
            raise
        # Not all ints (a float SUM in an INT column): coerce with int().
        return _int_block(list(map(int, values)))


def _date_column_block(values) -> bytes:
    return _int_block(list(map(datetime.date.toordinal, values)))


def _float_column_block(values) -> bytes:
    packed = array("d", values)
    if _BIG_ENDIAN:
        packed.byteswap()
    return packed.tobytes()


def _str_column_block(values) -> bytes:
    uniques = list(dict.fromkeys(values))
    text = "".join(uniques)
    blob = text.encode("utf-8")
    lengths = list(map(len, uniques))
    block = bytearray()
    _write_varint(block, len(uniques))
    _write_varint(block, len(blob))
    block += _pack_unsigned(lengths, _width_of(max(lengths)))
    block += blob
    if len(uniques) < len(values):
        codes = dict(zip(uniques, count()))
        block += _pack_unsigned(
            map(codes.__getitem__, values), _width_of(len(uniques) - 1)
        )
    return block


def _bool_column_block(values) -> bytes:
    return _pack_bits(bytes(values))  # truthiness: any non-zero byte is True


#: Indexed by type code.
_COLUMN_WRITERS = (
    _int_column_block,
    _float_column_block,
    _str_column_block,
    _bool_column_block,
    _date_column_block,
)


#: Presence bytes past the two of a column block (0: no NULL, 1: bitmap).
_BACK_REFERENCE = 2
_ROW_BITMAP = 3

#: The attribute of an addressed reply (:func:`encode_reply`): per row, the
#: number of the shipped fragment row it answers, strictly ascending.
ADDRESS = "#row"


def _row_bitmap(values, limit: int) -> bytes:
    """The row-bitmap block of strictly ascending non-negative ints (its
    presence byte included) when it is shorter than ``limit``, else ``b""``."""
    try:
        rows = np.asarray(values, dtype=np.int64)
    except (OverflowError, TypeError, ValueError):
        return b""
    first, span = int(rows[0]), int(rows[-1] - rows[0]) + 1
    if first < 0 or (span + 7) >> 3 >= limit or (np.diff(rows) <= 0).any():
        return b""
    flags = np.zeros(span, dtype=np.uint8)
    flags[rows - first] = 1
    block = bytearray((_ROW_BITMAP,))
    _write_varint(block, first)
    _write_varint(block, span)
    block += np.packbits(flags, bitorder="little").tobytes()
    return bytes(block) if len(block) < limit else b""


def _column_block(values, code: int) -> bytes:
    """One column's block, its presence byte included."""
    block_of = _COLUMN_WRITERS[code]
    try:
        return b"\x00" + block_of(values)
    except TypeError:
        if not values.count(None):
            raise
    flags = bytes(map(is_not, values, repeat(None)))
    present = list(compress(values, flags))
    return b"\x01" + _pack_bits(flags) + (block_of(present) if present else b"")


def encode_relation(relation: Relation) -> bytes:
    """Serialize a relation to format v3 bytes."""
    schema = relation.schema
    header, type_codes = _encode_plan(schema)
    row_count = len(relation)
    out = bytearray(header)
    _write_varint(out, row_count)
    if not row_count:
        return bytes(out)
    if not type_codes:
        _check_zero_attribute_rows(row_count)
        return bytes(out)
    # The relation's own column view: what a kernel or an earlier encode of
    # the same relation (X goes to every site) transposed is not transposed
    # again. Not ``zip(*rows)``: its one live iterator per row ages into the
    # oldest GC generation and buys a full collection every few blocks.
    position = 0
    #: (type code, block length) -> [(position, offset in out)] of the blocks
    #: written: a repeat is found in ``out`` itself, so no block is kept twice.
    written: dict = {}
    body, copied = len(out), 0
    try:
        columns = relation.to_columnar().value_lists().all()
        for position, values in enumerate(columns):
            code = type_codes[position]
            block = _column_block(values, code)
            if code == _INT_CODE and schema.attributes[position].name == ADDRESS:
                block = _row_bitmap(values, len(block)) or block
            length = len(block)
            earlier = written.setdefault((code, length), [])
            for source, start in earlier:
                if out.startswith(block, start):
                    reference = bytearray((_BACK_REFERENCE,))
                    _write_varint(reference, source)
                    if len(reference) < length and _copies_fit(
                        copied + row_count, len(out) + len(reference) - body
                    ):
                        block = reference
                        copied += row_count
                    break
            else:
                earlier.append((position, len(out)))
            out += block
    except (AttributeError, IndexError, TypeError, ValueError, OverflowError) as exc:
        attribute = schema.attributes[position]
        raise SerializationError(
            f"cannot encode {attribute.name!r} as a {attribute.type} column block: {exc}"
        ) from exc
    return bytes(out)


def _read_ints(data: bytes, offset: int, count: int, typed: bool = False) -> tuple:
    raw, offset = _read_varint(data, offset)
    reference = _unzigzag(raw)
    if offset < len(data) and not data[offset]:
        # The escape block; a value is at least one byte.
        offset += 1
        if count > len(data) - offset:
            raise SerializationError("truncated int column block")
        values = []
        for _index in range(count):
            raw, offset = _read_varint(data, offset)
            values.append(_unzigzag(raw))
        return values, offset
    values, offset = _read_unsigned(data, offset, count, "int column block")
    if typed:
        unsigned = np.asarray(values).astype(np.uint64)
        low, high = reference + int(unsigned.min()), reference + int(unsigned.max())
        if -EXACT_INT <= low and high <= EXACT_INT:
            # Modulo 2**64, then read as signed: exact, every value fits.
            return (unsigned + np.uint64(reference % 2**64)).view(np.int64), offset
    return (list(map(add, values, repeat(reference))) if reference else values.tolist()), offset


def _read_date_column(data: bytes, offset: int, count: int) -> tuple:
    ordinals, offset = _read_ints(data, offset, count)
    return list(map(datetime.date.fromordinal, ordinals)), offset


def _read_float_column(data: bytes, offset: int, count: int, typed: bool = False) -> tuple:
    end = offset + count * 8
    if end > len(data):
        raise SerializationError("truncated float column block")
    if typed:  # numpy's own copy: large ones get huge pages
        return np.frombuffer(data, "<f8", count, offset).astype(np.float64), end
    values = array("d")
    values.frombytes(data[offset:end])
    if _BIG_ENDIAN:
        values.byteswap()
    return values.tolist(), end


def _read_str_column(data: bytes, offset: int, count: int) -> tuple:
    unique_count, offset = _read_varint(data, offset)
    blob_length, offset = _read_varint(data, offset)
    if not 0 < unique_count <= count:
        raise SerializationError(
            f"dictionary of {unique_count} entries for {count} values"
        )
    lengths, offset = _read_unsigned(data, offset, unique_count, "dictionary lengths")
    end = offset + blob_length
    if end > len(data):
        raise SerializationError("truncated dictionary")
    text = data[offset:end].decode("utf-8")
    ends = list(accumulate(lengths))
    if ends[-1] != len(text):
        raise SerializationError("dictionary lengths do not add up to the dictionary")
    uniques = list(map(text.__getitem__, map(slice, chain((0,), ends), ends)))
    if unique_count == count:
        return uniques, end
    codes, end = _read_unsigned(data, end, count, "dictionary codes")
    if max(codes) >= unique_count:
        raise SerializationError(f"dictionary code {max(codes)} out of range")
    return list(map(uniques.__getitem__, codes)), end


def _read_bool_column(data: bytes, offset: int, count: int) -> tuple:
    bits, end = _unpack_bits(data, offset, count, "bool column block")
    return list(map(bool, bits)), end


#: Indexed by type code; each reads ``count`` present values at ``offset``.
_COLUMN_READERS = (
    _read_ints,
    _read_float_column,
    _read_str_column,
    _read_bool_column,
    _read_date_column,
)

#: Fewest rows whose NULL-free INT and FLOAT columns decode to typed arrays
#: (by these readers): below it a numpy call per column is not worth it.
TYPED_COLUMN_MIN_ROWS = 1 << 16
_TYPED_READERS = {
    _TYPE_CODES[INT]: partial(_read_ints, typed=True),
    _TYPE_CODES[FLOAT]: partial(_read_float_column, typed=True),
}


def _read_row_bitmap(data: bytes, offset: int, code: int, row_count: int) -> tuple:
    """A row-bitmap block past its presence byte: ``row_count`` strictly
    ascending ints, and its end."""
    if code != _INT_CODE:
        raise SerializationError(f"a row bitmap in a {_CODE_TYPES[code]} column")
    first, offset = _read_varint(data, offset)
    span, offset = _read_varint(data, offset)
    bits, end = _unpack_bits(data, offset, span, "row bitmap")
    rows = np.flatnonzero(np.frombuffer(bits, dtype=np.uint8))
    if len(rows) != row_count:
        raise SerializationError(
            f"a row bitmap of {len(rows)} rows in a column of {row_count}"
        )
    if first + span > EXACT_INT:
        raise SerializationError(f"a row bitmap past 2**53, from {first}")
    return (rows + first).tolist(), end


def _read_column(data: bytes, offset: int, code: int, row_count: int) -> tuple:
    """One column block at ``offset``: its ``row_count`` values, and its end."""
    if offset >= len(data):
        raise SerializationError("truncated column block")
    flags = None
    present = row_count
    if data[offset] == 1:
        flags, offset = _unpack_bits(data, offset + 1, row_count, "presence bitmap")
        present = flags.count(1)
    elif data[offset] == 0:
        offset += 1
    elif data[offset] == _ROW_BITMAP:
        return _read_row_bitmap(data, offset + 1, code, row_count)
    else:
        raise SerializationError(f"bad presence flag {data[offset]}")
    values: list = []
    if present:
        read = _COLUMN_READERS[code]
        if flags is None and row_count >= TYPED_COLUMN_MIN_ROWS:
            read = _TYPED_READERS.get(code, read)
        try:
            values, offset = read(data, offset, present)
        except _CORRUPTION_ERRORS as exc:
            raise SerializationError(
                f"corrupt {_CODE_TYPES[code]} column block: {exc}"
            ) from exc
    if flags is not None:
        # Scatter: each flag picks the stream its row's value comes from.
        streams = (repeat(None), iter(values))
        values = list(map(next, map(streams.__getitem__, flags)))
    return values, offset


def _copies_fit(rows: int, body_bytes: int) -> bool:
    """Whether back-references copying ``rows`` rows fit the column blocks'
    first ``body_bytes``: eight rows a byte, as a bit per row bounds a block."""
    return rows <= 8 * body_bytes


def _read_back_reference(
    data: bytes, offset: int, columns: list, type_codes: tuple, position: int,
    copied: int, body: int,
) -> tuple:
    """A back-reference block past its presence byte: a copy of the earlier
    column it names, and its end. ``copied`` rows are copied by it and the
    back-references before it, in column blocks from offset ``body`` on."""
    source, offset = _read_varint(data, offset)
    if not _copies_fit(copied, offset - body):
        raise SerializationError(
            f"back-references copy {copied} rows in {offset - body} bytes"
        )
    if source >= len(type_codes):
        raise SerializationError(f"back-reference to column {source} of {len(type_codes)}")
    if source >= position:
        raise SerializationError(
            f"column {position} refers to column {source}, not to an earlier one"
        )
    if type_codes[source] != type_codes[position]:
        raise SerializationError(
            f"{_CODE_TYPES[type_codes[position]]} column {position} refers to "
            f"{_CODE_TYPES[type_codes[source]]} column {source}"
        )
    values = columns[source]
    return (values.copy() if type(values) is np.ndarray else list(values)), offset


def decode_relation(data: bytes) -> Relation:
    """Deserialize bytes produced by :func:`encode_relation`, or raise
    :class:`~repro.errors.SerializationError`."""
    relation, _body, _end = _decode(data)
    return relation


def decode_leading(data: bytes, count: int) -> tuple:
    """``(relation, bytes)``: the first ``count`` attributes of a relation
    :func:`encode_relation` wrote, and the bytes their column blocks take;
    nothing past those blocks is read. What a site keeps of its own keyed
    answer is its leading key columns
    (:meth:`~repro.distributed.site.SkallaSite.remember_answer`)."""
    relation, body, end = _decode(data, count)
    return relation, end - body


def _decode(data: bytes, columns: Optional[int] = None) -> tuple:
    """``(relation, body offset, end offset)`` of :func:`decode_relation`,
    or of its first ``columns`` attributes, which leave the bytes past
    their blocks unread."""
    if type(data) is not bytes:
        data = bytes(data)  # header slices key the schema cache: hashable
    if data[: len(_MAGIC)] != _MAGIC:
        raise SerializationError("bad magic; not a serialized relation")
    if len(data) <= len(_MAGIC) or data[len(_MAGIC)] != _VERSION:
        raise SerializationError("unsupported codec version")
    schema, type_codes, row_count, offset = _read_header(data, len(_MAGIC) + 1)
    if columns is not None:
        schema, type_codes = schema.project(schema.names[:columns]), type_codes[:columns]
    start, remaining = offset, len(data) - offset
    if not type_codes:
        _check_zero_attribute_rows(row_count)
    elif (row_count + 7) >> 3 > remaining:
        # The first column is a block of its own: at least a bit per row,
        # bitmap or bit-packed.
        raise SerializationError(
            f"{row_count} rows declared but only {remaining} bytes follow"
        )
    held: list = [[] for _code in type_codes]
    if row_count:  # else header-only
        body, copied = offset, 0
        for position, code in enumerate(type_codes):
            if offset < len(data) and data[offset] == _BACK_REFERENCE:
                copied += row_count
                held[position], offset = _read_back_reference(
                    data, offset + 1, held, type_codes, position, copied, body
                )
            else:
                held[position], offset = _read_column(data, offset, code, row_count)
    if columns is None:
        _check_consumed(offset, len(data))
    relation = Relation.from_columnar(
        ColumnarRelation.from_value_lists(schema, held, row_count)
    )
    return relation, start, offset


# ---------------------------------------------------------------------------
# Replies to a shipped fragment: answered by row address
# ---------------------------------------------------------------------------


def encode_reply(h: Relation, keys: int, start: int = 0) -> bytes:
    """One block of the answer to a shipped fragment, as the smallest of
    three relations.

    ``h`` is the answer keyed and addressed: its first ``keys`` attributes
    are the key attributes (``0`` when the fragment did not carry them),
    its last is :data:`ADDRESS` — per row, the fragment row it answers,
    strictly ascending from at least ``start`` (the row after the last one
    an earlier block of the same answer addressed) — and the sub-aggregate
    columns lie between. What ships is

    - the sub-aggregate columns alone when the rows answer the fragment
      rows from ``start`` on, one each: there are no addresses;
    - else the sub-aggregate columns and :data:`ADDRESS`, whose block is
      the smaller of the numbers and a bitmap over the rows they span;
    - or the keyed answer (key attributes and sub-aggregate columns) when
      that is smaller: so a reply is never larger than the keyed one.
    """
    columnar = h.to_columnar()
    width, length = len(h.schema), len(h)
    rows = columnar.value_lists().held()[-1]
    subs = list(range(keys, width - 1))
    if not length or (int(rows[0]) == start and int(rows[-1]) - start == length - 1):
        return encode_relation(Relation.from_columnar(columnar.project(subs)))
    addressed = encode_relation(Relation.from_columnar(columnar.project(subs + [width - 1])))
    if keys:
        keyed = encode_relation(Relation.from_columnar(columnar.project(range(width - 1))))
        if len(keyed) < len(addressed):
            return keyed
    return addressed


def carried_keys(key_attrs, names) -> tuple:
    """The key attributes an answer by row address may ship instead of
    addresses (:func:`encode_reply`): all of ``key_attrs`` when the
    fragment's attribute ``names`` hold them all, else none."""
    return tuple(key_attrs) if set(key_attrs) <= set(names) else ()


def decode_reply(data: bytes, key_attrs, shipped: int, start: int = 0) -> tuple:
    """``(relation, rows)`` of one :func:`encode_reply` block answering a
    fragment of ``shipped`` rows, the block before it having addressed the
    rows below ``start``.

    ``rows`` are the fragment rows the relation's rows answer, one each;
    ``None`` for a keyed block (its ``key_attrs`` say which rows). The
    relation has no :data:`ADDRESS` attribute. Addresses that are not
    strictly ascending, or fall outside ``start`` to ``shipped``, raise
    :class:`~repro.errors.SerializationError`.
    """
    relation = decode_relation(data)
    names = relation.schema.names
    length = len(relation)
    if ADDRESS in names:
        position = names.index(ADDRESS)
        columnar = relation.to_columnar()
        try:
            rows = np.asarray(columnar.value_lists().held_at(position), dtype=np.int64)
        except (OverflowError, TypeError, ValueError) as exc:
            raise SerializationError(f"bad row addresses: {exc}") from exc
        if length and (
            rows[0] < start or rows[-1] >= shipped or (np.diff(rows) <= 0).any()
        ):
            raise SerializationError(
                f"row addresses are not strictly ascending within {start} to {shipped}"
            )
        others = [index for index in range(len(names)) if index != position]
        return Relation.from_columnar(columnar.project(others)), rows
    if key_attrs and all(name in names for name in key_attrs):
        return relation, None
    if start + length > shipped:
        raise SerializationError(
            f"{length} rows answer from row {start} of a fragment of {shipped}"
        )
    return relation, np.arange(start, start + length)


# ---------------------------------------------------------------------------
# Positional fragments: shipped against the site's own previous answer
# ---------------------------------------------------------------------------

_POSITIONAL_MAGIC = b"SKRP"
#: Bytes of a round-state digest (:func:`answer_digest`).
DIGEST_BYTES = 16
#: What a positional first block adds to its relation: magic, length, digest.
POSITIONAL_PREFIX_BYTES = len(_POSITIONAL_MAGIC) + 1 + DIGEST_BYTES


def answer_digest(shipped, answered) -> bytes:
    """The digest naming a site's answer to one round: the blocks it was
    ``shipped`` and the blocks it ``answered`` with, as the module
    docstring specifies. The site and the coordinator both call this."""
    digest = hashlib.sha256()
    for payloads in (shipped, answered):
        digest.update(len(payloads).to_bytes(8, "little"))
        for payload in payloads:
            digest.update(len(payload).to_bytes(8, "little"))
            digest.update(payload)
    return digest.digest()[:DIGEST_BYTES]


def encode_positional(relation: Relation, digest: bytes) -> bytes:
    """The first block of a fragment positional against the answer
    ``digest`` names: the prefix, then ``relation`` in format v3."""
    if type(digest) is not bytes or len(digest) != DIGEST_BYTES:
        raise SerializationError(f"a round-state digest is {DIGEST_BYTES} bytes, got {digest!r}")
    return _POSITIONAL_MAGIC + bytes((DIGEST_BYTES,)) + digest + encode_relation(relation)


def key_bytes_at_least(schema: Schema, key_attrs, rows: int) -> int:
    """A lower bound on what the ``key_attrs`` add to a relation of
    ``schema`` and ``rows`` rows: a header entry each (a length byte, the
    name, a type code) and a column block each — at least a presence byte
    and a bit per row, or two bytes where it could back-reference an
    earlier column of its type."""
    total, earlier = 0, set()
    for attribute in schema:
        if attribute.name in key_attrs:
            total += len(attribute.name.encode("utf-8")) + 2
            if rows:
                total += 2 if attribute.type in earlier else 1 + ((rows + 7) >> 3)
        earlier.add(attribute.type)
    return total


def decode_fragment(data: bytes) -> tuple:
    """``(relation, digest)`` of a fragment's first block: ``digest`` is
    ``None`` for a plain v3 relation, else the answer the block is
    positional against. A digest of any length but :data:`DIGEST_BYTES`
    raises :class:`~repro.errors.SerializationError`."""
    if data[: len(_POSITIONAL_MAGIC)] != _POSITIONAL_MAGIC:
        return decode_relation(data), None
    start = len(_POSITIONAL_MAGIC) + 1
    if len(data) < start or data[start - 1] != DIGEST_BYTES:
        raise SerializationError(
            f"a positional fragment's digest must be {DIGEST_BYTES} bytes"
        )
    end = start + DIGEST_BYTES
    if len(data) < end:
        raise SerializationError("truncated round-state digest")
    return decode_relation(data[end:]), bytes(data[start:end])


def positional_keys(schema: Schema, key_attrs) -> tuple:
    """The key attributes a site remembers an answer by, so that the next
    round can ship it positionally: all of ``key_attrs`` when ``schema``
    holds them all and none is FLOAT, else none."""
    names = schema.names
    if not set(key_attrs) <= set(names):
        return ()
    if any(schema.attributes[names.index(name)].type == FLOAT for name in key_attrs):
        return ()
    return tuple(key_attrs)
