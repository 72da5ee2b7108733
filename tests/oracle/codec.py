"""The format v1 reference decoder: the straight-line transcription of the
row codec's specification (``repro.net.serialize``'s module docstring),
which the compiled fast-path decoder must match value for value and error
for error."""

from __future__ import annotations

import datetime

from repro.errors import SchemaError, SerializationError
from repro.net.serialize import (
    _CODE_TYPES,
    _CORRUPTION_ERRORS,
    _DOUBLE,
    _MAGIC,
    _VERSION,
    _check_consumed,
    _check_row_count,
    _read_varint,
    _unzigzag,
)
from repro.relalg.relation import Relation
from repro.relalg.schema import Attribute, Schema


def decode_relation_reference(data: bytes) -> Relation:
    """Decode format v1 bytes, or raise :class:`SerializationError`."""
    try:
        return _decode_rows(data)
    except _CORRUPTION_ERRORS + (SchemaError,) as exc:
        raise SerializationError(f"truncated or corrupt relation: {exc}") from exc


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
