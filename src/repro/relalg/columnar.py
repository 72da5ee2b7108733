"""Columnar storage for relations: per-column value vectors and their views.

A :class:`ColumnarRelation` holds the same multiset of rows as a row-store
:class:`~repro.relalg.relation.Relation`, one column per attribute. A
column is a value list (``None`` for NULL) or, when a column-block decoder
(:mod:`repro.net.serialize`) adopted it, a *typed array*: ``int64`` or
``float64``, NULL-free, under the ``typed`` rule below. A typed array is
what the relation holds for that attribute: its value list is derived
(``tolist``) for each caller that asks, and never kept. Over a row store a
list is transposed the first time something indexes it.

What the vector kernels of :mod:`repro.relalg.compiler` consume are two
cached *views*, built on first use (from the rows or a derived list,
keeping no list) and published only when complete:

* :meth:`ColumnarRelation.typed` — a numpy array per attribute plus a
  validity mask (``None`` when nothing is NULL): ``int64`` only if every
  value is an ``int`` (not a ``bool``) with ``|v| <= 2**53``, so int/float
  mixing stays exact; ``float64`` only if every value is a ``float``; else
  an ``object`` array of the values themselves (``None`` at NULLs). An
  adopted typed array is its own view.
* :meth:`ColumnarRelation.codes` — the first-seen factorization
  ``(uniques, codes)`` of a tuple of attributes, one ``dict`` pass: keys
  collapse exactly as a probe ``dict`` collapses them (``1``, ``1.0`` and
  ``True`` are one key, a NaN object is only itself), a NULL-containing
  key gets a code of its own, codes take the narrowest integer dtype.

This module deliberately does not import :mod:`repro.relalg.relation`
(which imports the compiler, which consumes columns) — conversion entry
points live on ``Relation`` itself.
"""

from __future__ import annotations

from itertools import chain, count
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SchemaError
from repro.relalg.schema import Schema

#: Integers beyond this magnitude stay Python objects: every int64 value
#: then converts to float64 exactly, as Python's mixed arithmetic does.
EXACT_INT = 2**53


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


def _typed_view(values: list) -> tuple:
    """``(data, valid)`` of a value list: see the module docstring."""
    kinds = set(map(type, values))
    objects = valid = None
    if type(None) in kinds:
        kinds.discard(type(None))
        objects = _object_array(values)
        valid = objects != None  # noqa: E711 - elementwise NULL test
    if kinds == {float} or kinds == {int}:
        source = values if valid is None else np.where(valid, objects, 0)
        try:
            data = np.array(source, dtype=np.float64 if float in kinds else np.int64)
        except OverflowError:  # an int beyond int64
            data = None
        if data is not None and (
            float in kinds
            or -EXACT_INT <= data.min(initial=0) and data.max(initial=0) <= EXACT_INT
        ):
            return data, valid
    return (_object_array(values) if objects is None else objects), valid


def _object_array(values: list) -> np.ndarray:
    """The values themselves in a 1-D ``object`` array (``np.array`` would
    make equal-length sequences a second axis)."""
    return np.fromiter(values, dtype=object, count=len(values))


def typed_view(columns: Sequence) -> tuple:
    """The typed view ``(data, valid)`` of held columns (value lists or
    typed arrays) concatenated in order."""
    if len(columns) == 1:
        return (columns[0], None) if type(columns[0]) is np.ndarray else _typed_view(columns[0])
    return _typed_view(list(chain.from_iterable(map(_as_list, columns))))


def factorize(keys: list) -> tuple:
    """First-seen ``(uniques, codes)`` of ``keys``, one ``dict`` pass."""
    index: dict = {}
    # Each row's key's first row, then its rank among those first rows.
    firsts = np.fromiter(map(index.setdefault, keys, count()), dtype=np.int64, count=len(keys))
    starts = np.fromiter(index.values(), dtype=np.int64, count=len(index))
    width = len(index)
    dtype = np.int8 if width < 2**7 else np.int16 if width < 2**15 else np.int32
    return list(index), np.searchsorted(starts, firsts).astype(dtype)


class _ValueLists:
    """One value list per attribute, each built on first use.

    This is what a batch kernel receives as ``_cols`` and indexes by schema
    position. Over a row store a list is published only once it is
    complete, so threads racing for the same column each get a whole list
    (equal ones; the loser's is garbage) and never see a partial one. A
    held typed array answers with a fresh list per request.
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
        return _as_list(values)

    def keys(self, positions: Sequence[int]) -> list:
        """Each row's values at ``positions`` (scalars for one position,
        tuples else), keeping no list nothing has built: a view built from
        them is what a kernel keeps instead."""
        lists = [self._lists[position] for position in positions]
        if any(values is None for values in lists):
            return list(map(itemgetter(*positions), self._rows))
        lists = list(map(_as_list, lists))
        return lists[0] if len(lists) == 1 else list(zip(*lists))

    def held(self) -> list:
        """Every attribute's column as held (typed arrays stay arrays), the
        missing lists built in one pass.

        For a reader of the whole relation: flattening the rows once and
        slicing per attribute is about half the work of a ``__getitem__``
        per attribute.
        """
        lists = self._lists
        if any(values is None for values in lists):
            width = len(lists)
            flat = list(chain.from_iterable(self._rows))
            if len(flat) != width * len(self._rows):
                # Rows off the schema's width: let each column say so.
                return [self[position] for position in range(width)]
            for position, values in enumerate(lists):
                if values is None:
                    lists[position] = flat[position::width]
        return lists

    def all(self) -> list:
        """Every attribute's value list (see :meth:`held`)."""
        return list(map(_as_list, self.held()))


def _as_list(values) -> list:
    """A column's value list: a typed array's is derived, never kept."""
    return values.tolist() if type(values) is np.ndarray else values


class ColumnarRelation:
    """A schema plus one column per attribute, all equal length."""

    __slots__ = ("schema", "_values", "_length", "_typed", "_codes")

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
        # ``length`` survives the zero-column case (pure row-count relations).
        self._adopt(schema, _ValueLists((), [column.values for column in columns]), length or 0)

    def _adopt(self, schema: Schema, values: _ValueLists, length: int) -> "ColumnarRelation":
        self.schema = schema
        self._values = values
        self._length = length
        self._typed: dict = {}  # position -> (data, valid)
        self._codes: dict = {}  # positions -> (uniques, codes)
        return self

    @classmethod
    def from_rows(cls, schema: Schema, rows: Sequence[tuple]) -> "ColumnarRelation":
        """Columnar view of ``rows`` (kept, not copied); no column is built yet.

        Rows are schema-width tuples, so the columns cannot be ragged and
        nothing has to be transposed to know it.
        """
        return cls.__new__(cls)._adopt(
            schema, _ValueLists(rows, [None] * len(schema)), len(rows)
        )

    @classmethod
    def from_value_lists(
        cls, schema: Schema, lists: List, length: int
    ) -> "ColumnarRelation":
        """Adopt one ready column per attribute, each ``length`` long: a
        value list, or a NULL-free typed array under the ``typed`` rule.

        What a column-block decoder holds when it is done: nothing is
        copied or wrapped, and the caller vouches for the lengths and the
        rule.
        """
        return cls.__new__(cls)._adopt(schema, _ValueLists((), lists), length)

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
        """The per-column value lists, indexable by schema position."""
        return self._values

    def typed(self, position: int) -> tuple:
        """The cached typed view ``(data, valid)`` of one attribute."""
        view = self._typed.get(position)
        if view is None:
            held = self._values._lists[position]
            view = typed_view([self._values.keys((position,)) if held is None else held])
            self._typed[position] = view  # published complete
        return view

    def keys(self, positions: Sequence[int]) -> list:
        """Each row's values at ``positions``: scalars for one position,
        tuples for several, ``()`` for none."""
        return self._values.keys(positions) if positions else [()] * self._length

    def codes(self, positions: Sequence[int]) -> tuple:
        """The cached first-seen factorization ``(uniques, codes)`` of
        :meth:`keys` at ``positions``."""
        positions = tuple(positions)
        factorized = self._codes.get(positions)
        if factorized is None:
            factorized = factorize(self.keys(positions))
            self._codes[positions] = factorized  # published complete
        return factorized

    def built_columns(self) -> Tuple[str, ...]:
        """Names of the attributes whose column is held (a value list or a
        typed array), in schema order."""
        return tuple(
            attribute.name
            for attribute, values in zip(self.schema.attributes, self._values._lists)
            if values is not None
        )

    def built_views(self) -> Tuple[str, ...]:
        """Names of the attributes with a typed view or in a factorized key."""
        positions = set(self._typed).union(*self._codes)
        return tuple(name for position, name in enumerate(self.schema.names) if position in positions)

    def to_rows(self) -> List[tuple]:
        """Transpose back to row tuples, preserving row order."""
        if not len(self.schema):
            return [()] * self._length
        return list(zip(*self._values.all()))

    def gather(self, indices) -> "ColumnarRelation":
        """Rows at ``indices`` (ascending order preserves row order); a
        typed array gathers into a typed array."""
        positions = np.asarray(indices, dtype=np.int64)
        index_list = positions.tolist()
        lists = [
            held[positions] if type(held) is np.ndarray else list(map(held.__getitem__, index_list))
            for held in self._values.held()
        ]
        return ColumnarRelation.from_value_lists(self.schema, lists, len(index_list))

    @classmethod
    def concat(cls, schema: Schema, parts: Sequence["ColumnarRelation"]) -> "ColumnarRelation":
        """The rows of ``parts``, in order (their schemas are ``schema``).

        A column the first part holds as a typed array stays one when every
        part's typed view of it is NULL-free and of that dtype; any other
        column is a value list.
        """
        columns = []
        for position in range(len(schema)):
            held = parts[0]._values._lists[position]
            views = [part.typed(position) for part in parts] if type(held) is np.ndarray else ()
            if views and all(
                valid is None and data.dtype == held.dtype for data, valid in views
            ):
                columns.append(np.concatenate([data for data, _valid in views]))
            else:
                columns.append(list(chain.from_iterable(part._values[position] for part in parts)))
        return cls.from_value_lists(schema, columns, sum(map(len, parts)))
