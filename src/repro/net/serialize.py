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
  payloads); an int in a FLOAT column is coerced to a float. Or the
  *scaled block*, below.
- STR: first-appearance dictionary — unique count (varint), the byte
  length of the uniques' concatenated UTF-8 (varint), each unique's
  length *in code points* as an unsigned array, the UTF-8 blob, then one
  dictionary code per value as an unsigned array. When every value is
  distinct the codes would be 0, 1, 2, … and are omitted.
- BOOL: bit-packed like the bitmap, ``ceil(present / 8)`` bytes.

**Scaled FLOAT blocks.** Most stored doubles are short decimals (ALP,
Afroozeh et al., SIGMOD 2023): a sum of whole prices is a whole number. A
FLOAT column whose present values all are ships them as integers
``v * 10**e``. Its presence byte is ``4`` when the column has no NULL and
``5`` for ``1``'s bitmap, which it is followed by; then come the exponent
``e`` (one byte, at most :data:`MAX_SCALE_EXPONENT`) and an INT
frame-of-reference block of the integers, in which the escape (width 0)
is refused and every integer, as well as each unsigned value, lies
within ``±2**53``. The decoder reads the unsigned values into one
``float64`` array, adds the reference and divides by ``10**e`` (a double,
exact) in place. The encoder works on the doubles the raw form would
write, and takes the smallest ``e`` at which *every* present value comes
back bit for bit by that arithmetic — ``rint(v * 10**e)`` as a
``float64``, divided by ``10**e``, the integer 0 reading as ``+0.0``. So
``-0.0``, NaN, ``±inf``, integers past ``2**53`` and any double that is no
short decimal keep the column raw. It writes the scaled block only when
that is strictly shorter than the doubles, so no block grows; the raw
form stays valid, and bytes written before the scaled form still decode.

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
fragment's rows it answers are the reply's :data:`ADDRESS` column (strictly
ascending row numbers), or, without one, every row from the first, one per
row. The reply may instead carry the key attributes when that is smaller.
:func:`decode_reply` reads one back.

**Positional fragments.** In a round that ships each site only the groups
it answered with in the round before (observed reduction), the fragment to
a site lists those groups in the site's own answer order, so it need not
carry the key attributes K: the site kept them. Such a fragment
(:func:`encode_positional`) is the magic ``b"SKRP"``, a length byte
(:data:`DIGEST_BYTES`), the digest of the answer it is positional against,
and then a format v3 relation of the round's other fields.
:func:`decode_fragment` reads any kind of fragment. The digest is
:func:`answer_digest`: the first :data:`DIGEST_BYTES` bytes of SHA-256 over the blocks the site was
shipped in that round and the blocks it answered with, each list and
each block preceded by its length as 8 little-endian bytes. Both ends
hold those bytes, and they fix the key list: a keyed answer carries its
keys, an answer by row address names rows of a fragment that carried
them (or was itself positional against an earlier digest). A site keeps
an answer's keys only when every key attribute is there and none is
FLOAT (:func:`positional_keys`): ``-0.0`` equals ``0.0`` as a key, so a
site's own key value could differ in its bits from the coordinator's.

**Sparse positional fragments.** A group only one site answered in the
round before has that site's own sub-aggregates as its super-aggregate
(Theorem 1), and the site kept them with its keys. So the columns the
round before output (its *derived* columns, the last of the fragment's)
need to ship only at the rows more than one site answered. Such a
fragment is the magic ``b"SKRS"``, the length byte and the digest as above,
then the *shared* rows' block as a varint byte length and that many
bytes: an :func:`encode_reply` block of the derived columns, whose
:data:`ADDRESS` column (or its absence: every row from the first, in
order) names the shared rows by row number in the fragment — the site's
answer order. A format v3 relation of the fragment's other fields ends
it (zero attributes when there are none, its row count the fragment's).
The site reads the shared block with :func:`decode_reply` against the
fragment's row count, so an address out of range, addresses that do not
ascend or more rows than the fragment holds raise
:class:`~repro.errors.SerializationError`.

The decoder checks every declared count and length against the bytes
that remain *before* it allocates for them, rejects stray bits past the
end of a bitmap, width bytes other than the four above, dictionary
codes out of range, a back-reference to a column that is not an earlier
one of the same type or past :func:`_copies_fit`, a row bitmap whose
count disagrees, and hands
the columns it built to the decoded relation
(:meth:`Relation.of_columns`), which builds rows only when asked.
At every row count a NULL-free FLOAT column is a ``float64`` array and a
NULL-free INT column within ``±2**53`` an ``int64`` one, read off the
block with no list between: the rule a relation made from rows holds its
columns by (:func:`~repro.relalg.columnar.held_column`). The encoder
writes such an array by one ``astype``, to the bytes its values would
write. An INT block's header bounds its values
(``reference`` to ``reference + 2**(8 * width) - 1``); only where that
range passes ``±2**53`` are the values themselves checked, and a column
past it, an escape block or a column with a NULL is a value list.

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
from bisect import bisect_left
from itertools import accumulate, chain, compress, count, repeat
from operator import add, is_not, sub
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import SchemaError, SerializationError
from repro.relalg.columnar import EXACT_INT, as_list, typed_view
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
_FLOAT_CODE = _TYPE_CODES[FLOAT]

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
#: Byte width -> the numpy dtype of the little-endian unsigned integer that wide.
_LITTLE_UNSIGNED = {width: np.dtype(f"<u{width}") for width in _UNSIGNED}
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


def _unsigned_end(data: bytes, offset: int, count: int, what: str) -> int:
    """The end of the unsigned array of ``count`` values at ``offset``,
    its width byte checked."""
    if offset >= len(data):
        raise SerializationError(f"truncated {what}")
    if data[offset] not in _UNSIGNED:
        raise SerializationError(f"bad width byte {data[offset]} in {what}")
    end = offset + 1 + count * data[offset]
    if end > len(data):
        raise SerializationError(f"truncated {what}")
    return end


def _read_unsigned(data: bytes, offset: int, count: int, what: str) -> tuple:
    """``count`` values of the unsigned array at ``offset``, and its end."""
    end = _unsigned_end(data, offset, count, what)
    values = array(_UNSIGNED[data[offset]])
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


def _int_array_block(data: np.ndarray) -> bytes:
    """:func:`_int_block` of a NULL-free ``int64`` array, byte for byte: the
    same reference and width, the values written by one ``astype``."""
    reference, largest = int(data.min()), int(data.max())
    if reference >= 0 and largest < 1 << 8:
        return b"\x00\x01" + data.astype(np.uint8).tobytes()
    width = _width_of(largest - reference)
    if reference >= 0 and _width_of(largest) == width:
        return b"\x00" + bytes((width,)) + data.astype(_LITTLE_UNSIGNED[width]).tobytes()
    block = bytearray()
    _write_varint(block, _zigzag(reference))
    block.append(width)
    return block + (data - reference).astype(_LITTLE_UNSIGNED[width]).tobytes()


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
#: A scaled FLOAT block's presence byte is this plus the plain one: 4 with
#: no NULL, 5 with the presence bitmap.
_SCALED = 4

#: Largest exponent ``e`` of a scaled FLOAT block. A double has at most
#: 17 significant digits and a scaled integer at most 16 (``2**53``), so
#: past ``e = 15`` only values below 1 could still scale.
MAX_SCALE_EXPONENT = 15
#: ``10**e`` per exponent as a double (exact: every power of ten to
#: ``10**22`` is one): as floats for a scalar search, as an array, and as a
#: column that broadcasts a row each.
_SCALE_LIST = [float(10**exponent) for exponent in range(MAX_SCALE_EXPONENT + 1)]
_SCALES = np.array(_SCALE_LIST)
_SCALE_COLUMN = _SCALES[:, None]
#: Values an exponent is swept on before a pass over a whole column.
_SCALE_SAMPLE = 32

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


def _exponents_within(doubles: np.ndarray) -> int:
    """How many exponents, from 0 up, scale every double to an integer
    within ``±2**53``: ``rint(v * 10**e)`` grows with ``e`` and is at most
    ``2**53`` exactly when ``|v| * 10**e`` is, so it is the largest
    magnitude's count. 0 for a NaN or an infinity."""
    largest = float(np.abs(doubles).max())
    if not largest <= EXACT_INT:
        return 0
    return bisect_left(_SCALE_LIST, True, key=lambda scale: largest * scale > EXACT_INT)


def _scaled_by(doubles: np.ndarray, scales) -> tuple:
    """``(fits, integers)`` per double and per scale (a column of
    :data:`_SCALES` broadcasts to one row each), where every scaled
    double is within ``±2**53`` (:func:`_exponents_within`):
    ``integers`` is ``rint(v * scale)``, and ``fits`` where the decoder's
    arithmetic — that integer as a ``float64``, divided by the scale —
    gives ``v`` back bit for bit."""
    integers = np.rint(doubles * scales)
    back = (integers + 0.0) / scales  # + 0.0: the integer 0 reads as +0.0
    return back.view(np.uint64) == doubles.view(np.uint64), integers


def _scale_exponent(doubles: np.ndarray) -> tuple:
    """``(e, integers)``: the smallest exponent ``e`` up to
    :data:`MAX_SCALE_EXPONENT` at which every double fits
    (:func:`_scaled_by`), with its integers; ``(None, None)`` when there
    is none, or when the scaled block could not be shorter.

    Exponents are swept on a sample first — the column's first
    :data:`_SCALE_SAMPLE` values, then the first ones a full pass failed —
    so a column of non-decimal doubles costs a sweep of its sample and no
    full pass, and any column at most one full pass an exponent.
    """
    exponent, sample = 0, doubles[:_SCALE_SAMPLE]
    while True:
        top = _exponents_within(sample)
        if exponent >= top:
            return None, None
        fits, integers = _scaled_by(sample, _SCALE_COLUMN[exponent:top])
        swept = fits.all(axis=1)
        first = int(swept.argmax())
        if not swept[first]:
            return None, None
        exponent, integers = exponent + first, integers[first]
        if len(sample) == len(doubles):
            return exponent, integers
        if integers.max() - integers.min() >= 1 << 32:
            return None, None  # 8 bytes a value and a header: longer than the doubles
        if exponent >= _exponents_within(doubles):
            return None, None  # a larger exponent only scales further past 2**53
        fits, integers = _scaled_by(doubles, _SCALES[exponent])
        if fits.all():
            return exponent, integers
        sample, exponent = doubles[~fits][:_SCALE_SAMPLE], exponent + 1


def _float_block(presence: bytes, raw: bytes) -> bytes:
    """A FLOAT column's block from its plain ``presence`` byte (and
    bitmap) and the ``raw`` doubles of its present values: the scaled
    block where that is shorter, else ``presence`` and ``raw``."""
    if raw:
        doubles = np.frombuffer(raw, "<f8").astype(np.float64, copy=False)
        exponent, integers = _scale_exponent(doubles)
        if exponent is not None:
            scaled = bytes((exponent,)) + _int_array_block(integers.astype(np.int64))
            if len(scaled) < len(raw):
                return bytes((presence[0] + _SCALED,)) + presence[1:] + scaled
    return presence + raw


def _column_block(values, code: int) -> bytes:
    """One column's block, its presence byte included; a typed array's
    bytes are its value list's."""
    if type(values) is np.ndarray:
        if code == _INT_CODE and values.dtype == np.int64:
            return b"\x00" + _int_array_block(values)
        if code == _FLOAT_CODE:
            return _float_block(b"\x00", values.astype("<f8").tobytes())
        values = values.tolist()
    block_of = _COLUMN_WRITERS[code]
    try:
        presence, block = b"\x00", block_of(values)
    except TypeError:
        if not values.count(None):
            raise
        flags = bytes(map(is_not, values, repeat(None)))
        present = list(compress(values, flags))
        presence, block = b"\x01" + _pack_bits(flags), block_of(present) if present else b""
    if code == _FLOAT_CODE:
        return _float_block(presence, block)
    return presence + block


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
    # The relation's own columns: a typed array is written as one, a value
    # list value by value.
    position = 0
    #: (type code, block length) -> [(position, offset in out)] of the blocks
    #: written: a repeat is found in ``out`` itself, so no block is kept twice.
    written: dict = {}
    body, copied = len(out), 0
    try:
        for position, values in enumerate(relation.held()):
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


def _read_ints(data: bytes, offset: int, count: int) -> tuple:
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
    end = _unsigned_end(data, offset, count, "int column block")
    width = data[offset]
    unsigned = np.frombuffer(data, _LITTLE_UNSIGNED[width], count, offset + 1)
    if -EXACT_INT <= reference and reference + (1 << 8 * width) <= EXACT_INT + 1:
        # The header bounds every value within 2**53: no pass to find out.
        values = unsigned.astype(np.int64)
        if reference:
            values += reference
        return values, end
    unsigned = unsigned.astype(np.uint64)
    low, high = reference + int(unsigned.min()), reference + int(unsigned.max())
    if -EXACT_INT <= low and high <= EXACT_INT:
        # Modulo 2**64, then read as signed: exact, every value fits.
        return (unsigned + np.uint64(reference % 2**64)).view(np.int64), end
    return list(map(add, unsigned.tolist(), repeat(reference))), end


def _read_date_column(data: bytes, offset: int, count: int) -> tuple:
    ordinals, offset = _read_ints(data, offset, count)
    return list(map(datetime.date.fromordinal, as_list(ordinals))), offset


def _read_float_column(data: bytes, offset: int, count: int) -> tuple:
    end = offset + count * 8
    if end > len(data):
        raise SerializationError("truncated float column block")
    return np.frombuffer(data, "<f8", count, offset).astype(np.float64), end


def _read_scaled_column(data: bytes, offset: int, count: int) -> tuple:
    """A scaled FLOAT block past its presence byte (and bitmap): the
    exponent byte, then an INT frame-of-reference block of no escape whose
    values, the reference added, lie within ``±2**53``; read straight into
    one ``float64`` array, the reference added and the scale divided out
    in place."""
    if offset >= len(data):
        raise SerializationError("truncated scaled float column block")
    exponent = data[offset]
    if exponent > MAX_SCALE_EXPONENT:
        raise SerializationError(
            f"a scaled float block's exponent is at most {MAX_SCALE_EXPONENT}, got {exponent}"
        )
    raw, offset = _read_varint(data, offset + 1)
    reference = _unzigzag(raw)
    end = _unsigned_end(data, offset, count, "scaled float column block")
    width = data[offset]
    unsigned = np.frombuffer(data, _LITTLE_UNSIGNED[width], count, offset + 1)
    if not -EXACT_INT <= reference <= EXACT_INT:
        raise SerializationError(f"a scaled float block's reference {reference} is past 2**53")
    if reference + (1 << 8 * width) - 1 > EXACT_INT:
        # Past what the header bounds, the values themselves are checked.
        largest = int(unsigned.max())
        if largest > EXACT_INT or reference + largest > EXACT_INT:
            raise SerializationError("a scaled float block's integers pass 2**53")
    values = unsigned.astype(np.float64)
    if reference:
        values += reference
    if exponent:
        values /= _SCALES[exponent]
    return values, end


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
    return rows + first, end


def _read_column(data: bytes, offset: int, code: int, row_count: int) -> tuple:
    """One column block at ``offset``: its ``row_count`` values, and its end."""
    if offset >= len(data):
        raise SerializationError("truncated column block")
    presence, read = data[offset], _COLUMN_READERS[code]
    if presence == _ROW_BITMAP:
        return _read_row_bitmap(data, offset + 1, code, row_count)
    if presence == _SCALED or presence == _SCALED + 1:
        if code != _FLOAT_CODE:
            raise SerializationError(f"a scaled block in a {_CODE_TYPES[code]} column")
        presence, read = presence - _SCALED, _read_scaled_column
    flags = None
    present = row_count
    if presence == 1:
        flags, offset = _unpack_bits(data, offset + 1, row_count, "presence bitmap")
        present = flags.count(1)
    elif presence == 0:
        offset += 1
    else:
        raise SerializationError(f"bad presence flag {presence}")
    values: list = []
    if present:
        try:
            values, offset = read(data, offset, present)
        except _CORRUPTION_ERRORS as exc:
            raise SerializationError(
                f"corrupt {_CODE_TYPES[code]} column block: {exc}"
            ) from exc
    if flags is not None:
        # Scatter: each flag picks the stream its row's value comes from.
        streams = (repeat(None), iter(as_list(values)))
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
    relation = Relation.of_columns(schema, held, row_count)
    return relation, start, offset


# ---------------------------------------------------------------------------
# Replies to a shipped fragment: answered by row address
# ---------------------------------------------------------------------------


def encode_reply(h: Relation, keys: int) -> bytes:
    """The answer to a shipped fragment, as the smallest of three
    relations.

    ``h`` is the answer keyed and addressed: its first ``keys`` attributes
    are the key attributes (``0`` when the fragment did not carry them),
    its last is :data:`ADDRESS` — per row, the fragment row it answers,
    strictly ascending — and the sub-aggregate columns lie between. What
    ships is

    - the sub-aggregate columns alone when the rows answer the fragment
      rows from the first on, one each: there are no addresses;
    - else the sub-aggregate columns and :data:`ADDRESS`, whose block is
      the smaller of the numbers and a bitmap over the rows they span;
    - or the keyed answer (key attributes and sub-aggregate columns) when
      that is smaller: so a reply is never larger than the keyed one.
    """
    names, length = h.schema.names, len(h)
    rows = h.held_at(len(names) - 1)
    subs = names[keys:-1]
    if not length or (int(rows[0]) == 0 and int(rows[-1]) == length - 1):
        return encode_relation(h.project(subs))
    addressed = encode_relation(h.project([*subs, ADDRESS]))
    if keys:
        keyed = encode_relation(h.project(names[:-1]))
        if len(keyed) < len(addressed):
            return keyed
    return addressed


def carried_keys(key_attrs, names) -> tuple:
    """The key attributes an answer by row address may ship instead of
    addresses (:func:`encode_reply`): all of ``key_attrs`` when the
    fragment's attribute ``names`` hold them all, else none."""
    return tuple(key_attrs) if set(key_attrs) <= set(names) else ()


def decode_reply(data: bytes, key_attrs, shipped: int) -> tuple:
    """``(relation, rows)`` of an :func:`encode_reply` block answering a
    fragment of ``shipped`` rows.

    ``rows`` are the fragment rows the relation's rows answer, one each;
    ``None`` for a keyed block (its ``key_attrs`` say which rows). The
    relation has no :data:`ADDRESS` attribute. Addresses that are not
    strictly ascending or fall outside ``0`` to ``shipped``, and more rows
    than ``shipped`` without them, raise
    :class:`~repro.errors.SerializationError`.
    """
    relation = decode_relation(data)
    names = relation.schema.names
    length = len(relation)
    if ADDRESS in names:
        position = names.index(ADDRESS)
        try:
            rows = np.asarray(relation.held_at(position), dtype=np.int64)
        except (OverflowError, TypeError, ValueError) as exc:
            raise SerializationError(f"bad row addresses: {exc}") from exc
        if length and (
            rows[0] < 0 or rows[-1] >= shipped or (np.diff(rows) <= 0).any()
        ):
            raise SerializationError(
                f"row addresses are not strictly ascending within 0 to {shipped}"
            )
        return relation.project([name for name in names if name != ADDRESS]), rows
    if key_attrs and all(name in names for name in key_attrs):
        return relation, None
    if length > shipped:
        raise SerializationError(f"{length} rows answer a fragment of {shipped}")
    return relation, np.arange(length)


# ---------------------------------------------------------------------------
# Positional fragments: shipped against the site's own previous answer
# ---------------------------------------------------------------------------

_POSITIONAL_MAGIC = b"SKRP"
_SPARSE_MAGIC = b"SKRS"
#: Bytes of a round-state digest (:func:`answer_digest`).
DIGEST_BYTES = 16
#: What a positional fragment adds to its relation: magic, length, digest.
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


def encode_positional(relation: Relation, digest: bytes, shared: Optional[bytes] = None) -> bytes:
    """A fragment positional against the answer ``digest`` names: the
    prefix, then ``relation`` in format v3 — and, given the ``shared``
    rows' block (:func:`encode_reply`), the sparse form, which carries it
    between the two."""
    if type(digest) is not bytes or len(digest) != DIGEST_BYTES:
        raise SerializationError(f"a round-state digest is {DIGEST_BYTES} bytes, got {digest!r}")
    if shared is None:
        return _POSITIONAL_MAGIC + bytes((DIGEST_BYTES,)) + digest + encode_relation(relation)
    block = bytearray(_SPARSE_MAGIC)
    block.append(DIGEST_BYTES)
    block += digest
    _write_varint(block, len(shared))
    return bytes(block) + shared + encode_relation(relation)


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


def column_bytes_at_least(relation: Relation, names) -> int:
    """A lower bound on what the columns ``names`` add to the format v3
    encoding of ``relation``: a header entry each and a column block each
    (:func:`_block_bytes_at_least`), or two bytes where the block could
    back-reference an earlier column of its type."""
    total, earlier = 0, []
    for attribute, column in zip(relation.schema, relation.held()):
        if attribute.name in names:
            total += len(attribute.name.encode("utf-8")) + 2
            if len(relation):
                repeats = any(
                    _could_repeat(column, other) for kind, other in earlier if kind == attribute.type
                )
                total += 2 if repeats else _block_bytes_at_least(column, attribute.type)
        earlier.append((attribute.type, column))
    return total


def _block_bytes_at_least(column, type_name: str) -> int:
    """A column block's presence byte (and bitmap, with a NULL), then at
    least: for FLOAT, the smaller of 8 bytes a value and a scaled block's
    exponent, reference, width byte and a byte a value; a reference, a
    width byte and a byte a value for INT and DATE; a bit a value for any
    other type."""
    rows = len(column)
    present = rows if type(column) is np.ndarray else rows - column.count(None)
    total = 1 if present == rows else 1 + ((rows + 7) >> 3)
    if type_name == FLOAT:
        return total + min(8 * present, 3 + present)
    if type_name in (INT, DATE) and present:
        return total + 2 + present
    return total + ((present + 7) >> 3)


def _could_repeat(column, other) -> bool:
    """Whether ``column``'s block could repeat ``other``'s, an earlier
    column of its type: not when their typed views tell their values or
    their NULLs apart."""
    (data, valid), (other_data, other_valid) = typed_view([column]), typed_view([other])
    if data.dtype == object or data.dtype != other_data.dtype:
        return True
    if (valid is None) != (other_valid is None):
        return False
    if valid is not None:
        if not np.array_equal(valid, other_valid):
            return False
        data, other_data = data[valid], other_data[valid]
    return data.tobytes() == other_data.tobytes()


def decode_fragment(data: bytes) -> tuple:
    """``(relation, digest, shared)`` of a fragment: ``digest`` is
    ``None`` for a plain v3 relation, else the answer the fragment is
    positional against; ``shared`` is the sparse form's shared
    rows' block, still encoded (:func:`decode_reply` reads it against the
    fragment's row count), else ``None``. A digest of any length but
    :data:`DIGEST_BYTES` raises :class:`~repro.errors.SerializationError`."""
    magic = data[: len(_POSITIONAL_MAGIC)]
    if magic != _POSITIONAL_MAGIC and magic != _SPARSE_MAGIC:
        return decode_relation(data), None, None
    start = len(_POSITIONAL_MAGIC) + 1
    if len(data) < start or data[start - 1] != DIGEST_BYTES:
        raise SerializationError(
            f"a positional fragment's digest must be {DIGEST_BYTES} bytes"
        )
    end = start + DIGEST_BYTES
    if len(data) < end:
        raise SerializationError("truncated round-state digest")
    digest, shared = bytes(data[start:end]), None
    if magic == _SPARSE_MAGIC:
        length, offset = _read_varint(data, end)
        end = offset + length
        if end > len(data):
            raise SerializationError(
                f"the shared rows' block of {length} bytes runs past the fragment's"
            )
        shared = bytes(data[offset:end])
    return decode_relation(data[end:]), digest, shared


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
