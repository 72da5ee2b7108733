"""Columnar storage for relations: per-column value vectors.

A :class:`ColumnarRelation` holds the same multiset of rows as a row-store
:class:`~repro.relalg.relation.Relation`, as one value vector per attribute.
Batch kernels emitted by :mod:`repro.relalg.compiler` iterate these vectors
with hoisted locals instead of indexing row tuples, and the column-block
wire codec (:mod:`repro.net.serialize`) encodes them per column and hands
the vectors it decodes straight back (:meth:`ColumnarRelation.from_value_lists`).
Over a row store a vector is transposed the first time something indexes
it, so a query that reads two of fourteen attributes builds two.

Columns keep their values as plain Python lists (the universal
representation the kernels consume — preserving ``None`` for NULLs), and
additionally expose two compact views:

* :meth:`Column.as_array` — for INT/FLOAT/DATE/BOOL columns, a typed
  ``array.array`` over the non-NULL values (``memoryview``-friendly; DATEs
  as ordinals, BOOLs as 0/1) plus the NULL presence bitmap.
* :meth:`Column.dictionary` — for STR columns, first-appearance-ordered
  dictionary codes (``uniques``, ``codes``; NULL encoded as code ``-1``).

This module deliberately does not import :mod:`repro.relalg.relation`
(which imports the compiler, which may consume columns) — conversion entry
points live on ``Relation`` itself.
"""

from __future__ import annotations

from array import array
from itertools import chain
from operator import itemgetter
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import SchemaError
from repro.relalg.schema import BOOL, DATE, FLOAT, INT, STR, Schema

#: array.array typecodes for the numeric path, per attribute type.
_ARRAY_TYPECODES = {INT: "q", FLOAT: "d", DATE: "q", BOOL: "b"}


class Column:
    """One attribute's values, in row order, with NULLs kept as ``None``."""

    __slots__ = ("name", "type", "values")

    def __init__(self, name: str, type_name: str, values: Sequence):
        self.name = name
        self.type = type_name
        # A list is adopted, not copied: columns are immutable by convention,
        # and a freshly transposed or decoded vector must not exist twice.
        self.values = values if type(values) is list else list(values)

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"Column({self.name}:{self.type}, {len(self.values)} values)"

    def null_count(self) -> int:
        return sum(1 for value in self.values if value is None)

    def as_array(self) -> Tuple[array, List[bool]]:
        """Typed array over non-NULL values plus a presence list.

        Only valid for INT/FLOAT/DATE/BOOL columns.  DATE values are stored
        as proleptic-Gregorian ordinals and BOOLs as 0/1, as the wire codec
        ships them.  The returned array is ``memoryview``-able.
        """
        typecode = _ARRAY_TYPECODES.get(self.type)
        if typecode is None:
            raise SchemaError(f"column {self.name!r} of type {self.type!r} has no array view")
        present = [value is not None for value in self.values]
        if self.type == DATE:
            packed = array(typecode, (v.toordinal() for v in self.values if v is not None))
        elif self.type == BOOL:
            packed = array(typecode, (1 if v else 0 for v in self.values if v is not None))
        else:
            packed = array(typecode, (v for v in self.values if v is not None))
        return packed, present

    def dictionary(self) -> Tuple[List, array]:
        """First-appearance dictionary encoding: ``(uniques, codes)``.

        NULL values get code ``-1`` and never enter ``uniques``.  Works for
        any column type but is only a win for strings (the column-block wire
        codec ships the same dictionary for STR columns, built by C loops).
        """
        uniques: List = []
        index: dict = {}
        codes = array("q")
        for value in self.values:
            if value is None:
                codes.append(-1)
                continue
            code = index.get(value)
            if code is None:
                code = len(uniques)
                index[value] = code
                uniques.append(value)
            codes.append(code)
        return uniques, codes


class _ValueLists:
    """One value list per attribute of a row store, each built on first use.

    This is what a batch kernel receives as ``_cols`` and indexes by schema
    position.  A list is published only once it is complete, so threads
    racing for the same column each get a whole list (equal ones; the loser's
    is garbage) and never see a partial one.
    """

    __slots__ = ("_rows", "_lists")

    def __init__(self, rows: Sequence[tuple], lists: list):
        self._rows = rows
        self._lists = lists

    def __len__(self) -> int:
        return len(self._lists)

    def __getitem__(self, position: int) -> list:
        values = self._lists[position]
        if values is None:
            values = list(map(itemgetter(position), self._rows))
            self._lists[position] = values
        return values

    def all(self) -> list:
        """Every attribute's list, the missing ones built in one pass.

        For a reader of the whole relation (the column codec): flattening
        the rows once and slicing per attribute is about half the work of
        a ``__getitem__`` per attribute.
        """
        lists = self._lists
        if None in lists:
            width = len(lists)
            flat = list(chain.from_iterable(self._rows))
            if len(flat) != width * len(self._rows):
                # Rows off the schema's width: let each column say so.
                return [self[position] for position in range(width)]
            for position, values in enumerate(lists):
                if values is None:
                    lists[position] = flat[position::width]
        return lists


class ColumnarRelation:
    """A schema plus one value list per attribute, all equal length."""

    __slots__ = ("schema", "_values", "_length")

    def __init__(
        self, schema: Schema, columns: Sequence[Column], length: Optional[int] = None
    ):
        if len(columns) != len(schema):
            raise SchemaError(
                f"schema has {len(schema)} attributes but got {len(columns)} columns"
            )
        for column in columns:
            if length is None:
                length = len(column)
            elif len(column) != length:
                raise SchemaError(
                    f"ragged columns: {column.name!r} has {len(column)} values, "
                    f"expected {length}"
                )
        self.schema = schema
        self._values = _ValueLists((), [column.values for column in columns])
        # ``length`` survives the zero-column case (pure row-count relations).
        self._length = length or 0

    @classmethod
    def from_rows(cls, schema: Schema, rows: Sequence[tuple]) -> "ColumnarRelation":
        """Columnar view of ``rows`` (kept, not copied); no column is built yet.

        Rows are schema-width tuples, so the columns cannot be ragged and
        nothing has to be transposed to know it.
        """
        columnar = cls.__new__(cls)
        columnar.schema = schema
        columnar._values = _ValueLists(rows, [None] * len(schema))
        columnar._length = len(rows)
        return columnar

    @classmethod
    def from_value_lists(
        cls, schema: Schema, lists: List[list], length: int
    ) -> "ColumnarRelation":
        """Adopt one ready value list per attribute, each ``length`` long.

        What a column-block decoder holds when it is done: nothing is
        copied or wrapped, and the caller vouches for the lengths.
        """
        columnar = cls.__new__(cls)
        columnar.schema = schema
        columnar._values = _ValueLists((), lists)
        columnar._length = length
        return columnar

    def __len__(self) -> int:
        return self._length

    def __repr__(self) -> str:
        return f"ColumnarRelation({self.schema!r}, {self._length} rows)"

    @property
    def columns(self) -> Tuple[Column, ...]:
        """Every attribute as a :class:`Column` (builds the ones not yet built)."""
        return tuple(
            Column(attribute.name, attribute.type, values)
            for attribute, values in zip(self.schema.attributes, self._values.all())
        )

    def column(self, name: str) -> Column:
        position = self.schema.position(name)
        return Column(name, self.schema.attributes[position].type, self._values[position])

    def value_lists(self) -> _ValueLists:
        """The per-column value lists, indexable by schema position (kernel input)."""
        return self._values

    def built_columns(self) -> Tuple[str, ...]:
        """Names of the attributes whose value list exists, in schema order."""
        return tuple(
            attribute.name
            for attribute, values in zip(self.schema.attributes, self._values._lists)
            if values is not None
        )

    def to_rows(self) -> List[tuple]:
        """Transpose back to row tuples, preserving row order."""
        if not len(self.schema):
            return [()] * self._length
        return list(zip(*self._values.all()))

    def gather(self, indices: Iterable[int]) -> "ColumnarRelation":
        """Rows at ``indices`` (ascending order preserves row order)."""
        index_list = list(indices)
        columns = [
            Column(column.name, column.type, [column.values[i] for i in index_list])
            for column in self.columns
        ]
        return ColumnarRelation(self.schema, columns)
