"""Format v1, the row codec: the test oracle the wire format v3 is diffed
against.

v1 shares v3's header (magic ``b"SKRL"``, version byte ``1``, attribute
names and type codes, row count). Then, per row and per attribute, one tag
byte (0 = NULL, 1 = value) followed by the value — zig-zag varint for
ints, IEEE double for floats, varint-length UTF-8 for strings, 1 byte for
bools, varint ordinal for dates. :func:`encode_relation_reference` and
:func:`decode_relation_reference` are straight-line transcriptions of
that; ``repro.net.serialize.decode_relation`` rejects v1 bytes.
"""

from __future__ import annotations

import datetime
import struct

from repro.errors import SchemaError, SerializationError
from repro.net.serialize import (
    _CODE_TYPES,
    _CORRUPTION_ERRORS,
    _MAGIC,
    _TYPE_CODES,
    _check_consumed,
    _check_zero_attribute_rows,
    _read_varint,
    _unzigzag,
    _write_varint,
    _zigzag,
    decode_relation,
    encode_relation,
)
from repro.relalg.relation import Relation
from repro.relalg.schema import Attribute, Schema

_VERSION = 1
_DOUBLE = struct.Struct("<d")


def encode_relation_reference(relation: Relation) -> bytes:
    """Encode a relation as format v1 bytes, or raise :class:`SerializationError`."""
    buffer = bytearray()
    buffer += _MAGIC
    buffer.append(_VERSION)
    schema = relation.schema
    _write_varint(buffer, len(schema))
    type_codes = []
    for attribute in schema:
        name_bytes = attribute.name.encode("utf-8")
        _write_varint(buffer, len(name_bytes))
        buffer += name_bytes
        code = _TYPE_CODES[attribute.type]
        buffer.append(code)
        type_codes.append(code)
    _write_varint(buffer, len(relation.rows))
    if not type_codes:
        _check_zero_attribute_rows(len(relation.rows))
    for row in relation.rows:
        for value, code in zip(row, type_codes):
            if value is None:
                buffer.append(0)
                continue
            buffer.append(1)
            try:
                if code == 0:  # int
                    _write_varint(buffer, _zigzag(int(value)))
                elif code == 1:  # float
                    buffer += _DOUBLE.pack(float(value))
                elif code == 2:  # str
                    encoded = value.encode("utf-8")
                    _write_varint(buffer, len(encoded))
                    buffer += encoded
                elif code == 3:  # bool
                    buffer.append(1 if value else 0)
                elif code == 4:  # date
                    _write_varint(buffer, value.toordinal())
            except (AttributeError, TypeError, ValueError) as exc:
                raise SerializationError(
                    f"cannot encode {value!r} as {_CODE_TYPES[code]}: {exc}"
                ) from exc
    return bytes(buffer)


def decode_relation_reference(data: bytes) -> Relation:
    """Decode format v1 bytes, or raise :class:`SerializationError`."""
    try:
        return _decode_rows(data)
    except _CORRUPTION_ERRORS + (struct.error, SchemaError) as exc:
        raise SerializationError(f"truncated or corrupt relation: {exc}") from exc


def _check_row_count(row_count: int, attr_count: int, remaining: int) -> None:
    """Reject a row count its payload cannot hold, before any row is read:
    every value is at least its tag byte."""
    if not attr_count:
        _check_zero_attribute_rows(row_count)
    elif row_count * attr_count > remaining:
        raise SerializationError(
            f"{row_count} rows declared but only {remaining} bytes follow"
        )


def _decode_rows(data: bytes) -> Relation:
    if data[: len(_MAGIC)] != _MAGIC:
        raise SerializationError("bad magic; not a serialized relation")
    offset = len(_MAGIC)
    if offset >= len(data) or data[offset] != _VERSION:
        raise SerializationError("unsupported codec version")
    offset += 1
    attr_count, offset = _read_varint(data, offset)
    attributes = []
    type_codes = []
    for _index in range(attr_count):
        name_length, offset = _read_varint(data, offset)
        name = data[offset : offset + name_length].decode("utf-8")
        offset += name_length
        code = data[offset]
        offset += 1
        if code not in _CODE_TYPES:
            raise SerializationError(f"unknown type code {code}")
        attributes.append(Attribute(name, _CODE_TYPES[code]))
        type_codes.append(code)
    schema = Schema(attributes)
    row_count, offset = _read_varint(data, offset)
    _check_row_count(row_count, len(type_codes), len(data) - offset)
    rows = []
    for _row_index in range(row_count):
        values = []
        for code in type_codes:
            if offset >= len(data):
                raise SerializationError("truncated row data")
            tag = data[offset]
            offset += 1
            if tag == 0:
                values.append(None)
                continue
            if tag != 1:
                raise SerializationError(f"bad value tag {tag}")
            if code == 0:
                raw, offset = _read_varint(data, offset)
                values.append(_unzigzag(raw))
            elif code == 1:
                values.append(_DOUBLE.unpack_from(data, offset)[0])
                offset += _DOUBLE.size
            elif code == 2:
                length, offset = _read_varint(data, offset)
                values.append(data[offset : offset + length].decode("utf-8"))
                offset += length
            elif code == 3:
                values.append(bool(data[offset]))
                offset += 1
            elif code == 4:
                ordinal, offset = _read_varint(data, offset)
                values.append(datetime.date.fromordinal(ordinal))
        rows.append(tuple(values))
    _check_consumed(offset, len(data))
    return Relation(schema, rows)


#: Both formats as (encoder, decoder) pairs: ``column`` is the wire's
#: format v3, ``row`` this module's format v1.
FORMATS = {
    "row": (encode_relation_reference, decode_relation_reference),
    "column": (encode_relation, decode_relation),
}
