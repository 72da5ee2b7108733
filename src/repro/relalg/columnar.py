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
  ``(firsts, codes)`` of a tuple of attributes: ``firsts[c]`` is the first
  row whose key has code ``c`` (so the distinct keys are a gather of the
  key columns), codes take the narrowest integer dtype. Keys collapse
  exactly as a probe ``dict`` collapses them (``1``, ``1.0`` and ``True``
  are one key, a NaN object is only itself), a NULL-containing key gets a
  code of its own.

A key of two or more attributes whose typed views are all NULL-free
``int64`` is one ``int64`` per row: a mixed radix over each attribute's
``value - min`` (when the radix product stays within ``2**62``). Under the
``typed`` rule those are ints within ``2**53``, never bools or floats, so
``dict`` equality is integer equality there, and the factorization of a
relation of ``COMPOSITE_MIN_ROWS`` rows or more is a stable sort of the
composite. Its sorted distinct composites are a :class:`KeyMatcher`
(:meth:`ColumnarRelation.matcher`), which finds other rows' ``int64`` keys
by one ``searchsorted``. Every other key — one attribute (already a ``dict``
of scalars), a NULL, a float, bool or object view, a wider radix, a
shorter relation — is factorized by one ``dict`` pass. Both give the same
codes.

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
    return _typed_view(list(chain.from_iterable(map(as_list, columns))))


#: A composite key whose radix product passes this is factorized by ``dict``.
COMPOSITE_LIMIT = 2**62

#: A relation shorter than this factorizes every key by ``dict``: over a
#: few hundred rows the numpy calls of the composite path cost more than
#: the ``dict`` pass they replace.
COMPOSITE_MIN_ROWS = 1024


def _code_dtype(width: int):
    return np.int8 if width < 2**7 else np.int16 if width < 2**15 else np.int32


def factorize(keys: list) -> tuple:
    """First-seen ``(firsts, codes)`` of ``keys``, one ``dict`` pass."""
    index: dict = {}
    # Each row's key's first row, then its rank among those first rows.
    firsts = np.fromiter(map(index.setdefault, keys, count()), dtype=np.int64, count=len(keys))
    starts = np.fromiter(index.values(), dtype=np.int64, count=len(index))
    return starts, np.searchsorted(starts, firsts).astype(_code_dtype(len(starts)))


def _radix(columns: Sequence) -> Optional[tuple]:
    """``(lows, highs)`` of NULL-free ``int64`` key columns, or ``None`` when
    the product of their ranges passes ``COMPOSITE_LIMIT``."""
    lows = [int(data.min()) for data in columns]
    highs = [int(data.max()) for data in columns]
    product = 1
    for low, high in zip(lows, highs):
        product *= high - low + 1
    return None if product > COMPOSITE_LIMIT else (lows, highs)


def _composite(columns: Sequence, radix: tuple) -> np.ndarray:
    """Each row's mixed-radix key over key columns within ``radix``'s
    ranges, by Horner's rule in place: one new array, no temporaries."""
    lows, highs = radix
    composite = columns[0] - lows[0]
    for data, low, high in zip(columns[1:], lows[1:], highs[1:]):
        composite *= high - low + 1
        composite += data  # below 2**62 + 2**53 before the subtraction
        composite -= low
    return composite


class KeyMatcher:
    """A relation's distinct keys over NULL-free ``int64`` key columns, as
    their sorted composites (see the module docstring) and each one's code."""

    __slots__ = ("_radix", "_sorted", "_codes")

    def __init__(self, radix: tuple, ordered: np.ndarray, codes: np.ndarray):
        self._radix = radix
        self._sorted = ordered
        self._codes = codes

    def __len__(self) -> int:
        return len(self._sorted)

    def find(self, columns: Sequence) -> np.ndarray:
        """Per row of ``columns`` (one ``int64`` array per key attribute),
        the code of the equal key, or -1; a value outside the range misses."""
        lows, highs = self._radix
        inside = np.ones(len(columns[0]), dtype=bool)
        for data, low, high in zip(columns, lows, highs):
            inside &= (data >= low) & (data <= high)
        composite = _composite(list(map(np.clip, columns, lows, highs)), self._radix)
        at = np.searchsorted(self._sorted, composite)
        at[at == len(self._sorted)] = 0
        return np.where(inside & (self._sorted[at] == composite), self._codes[at], -1)


def _sort_factorize(radix: tuple, composite: np.ndarray) -> tuple:
    """``((firsts, codes), matcher)`` of a key by a stable sort of its
    composite (non-empty, under ``radix``)."""
    order = np.argsort(composite, kind="stable")
    ordered = composite[order]
    new = np.empty(len(ordered), dtype=bool)
    new[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    distinct = ordered[new]
    del ordered
    starts = order[new]  # each distinct key's first row (the sort is stable), in key order
    first = np.zeros(len(order), dtype=bool)
    first[starts] = True
    rank = np.cumsum(first)
    rank -= 1
    codes = rank[starts]  # each distinct key's first-seen rank
    np.cumsum(new, out=rank)
    rank -= 1
    by_row = np.empty(len(order), dtype=_code_dtype(len(starts)))
    by_row[order] = codes[rank]
    return (np.flatnonzero(first), by_row), KeyMatcher(radix, distinct, codes)


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
        return as_list(self.held_at(position))

    def held_at(self, position: int):
        """One attribute's column as held (a typed array stays an array)."""
        values = self._lists[position]
        if values is None:
            values = list(map(itemgetter(position), self._rows))
            self._lists[position] = values
        return values

    def keys(self, positions: Sequence[int]) -> list:
        """Each row's values at ``positions`` (scalars for one position,
        tuples else), keeping no list nothing has built: a view built from
        them is what a kernel keeps instead."""
        lists = [self._lists[position] for position in positions]
        if any(values is None for values in lists):
            return list(map(itemgetter(*positions), self._rows))
        lists = list(map(as_list, lists))
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
        return list(map(as_list, self.held()))


def as_list(values) -> list:
    """A column's value list: a typed array's is derived, never kept."""
    return values.tolist() if type(values) is np.ndarray else values


def _take(columns: list, indices) -> list:
    """Each held column at ``indices``, a typed array as a typed array."""
    positions = np.asarray(indices, dtype=np.int64)
    index_list = positions.tolist()
    return [
        held[positions] if type(held) is np.ndarray else list(map(held.__getitem__, index_list))
        for held in columns
    ]


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
            view = self._typed[position] = self._view(position)  # published complete
        return view

    def _view(self, position: int) -> tuple:
        """The typed view of one attribute: the cached one, else made anew."""
        view = self._typed.get(position)
        if view is None:
            held = self._values._lists[position]
            view = typed_view([self._values.keys((position,)) if held is None else held])
        return view

    def keys(self, positions: Sequence[int]) -> list:
        """Each row's values at ``positions``: scalars for one position,
        tuples for several, ``()`` for none."""
        return self._values.keys(positions) if positions else [()] * self._length

    def int_keys(self, positions: Sequence[int]) -> Optional[list]:
        """The typed views' data at ``positions`` when there are two or more
        and each is NULL-free ``int64`` (or the relation has no rows), else
        ``None``: a key the composite of the module docstring can hold.

        A view not cached yet is made for the call and not kept: the
        factorization the key serves is what is cached, and a kept view
        would outlive it in the relation's heap for no later reader.
        """
        if len(positions) < 2:
            return None
        views = [self._view(position) for position in positions]
        if self._length and not all(
            valid is None and data.dtype == np.int64 for data, valid in views
        ):
            return None
        return [data.astype(np.int64, copy=False) for data, _valid in views]

    def _factorized(self, positions: tuple, composite_only: bool = False) -> Optional[tuple]:
        """``((firsts, codes), matcher)`` of the key at ``positions``, cached;
        ``composite_only``: ``None`` instead of a ``dict`` factorization."""
        factorized = self._codes.get(positions)
        if factorized is None:
            factorized = self._sort_factorized(positions) if self._composite_sized() else None
            if factorized is None:
                if composite_only:
                    return None
                factorized = (factorize(self.keys(positions)), None)
            self._codes[positions] = factorized  # published complete
        return factorized

    def _sort_factorized(self, positions: tuple) -> Optional[tuple]:
        """The composite path's ``((firsts, codes), matcher)``, or ``None``
        when it does not take the key. The key columns go before the sort."""
        columns = self.int_keys(positions)
        radix = None if columns is None else _radix(columns)
        if radix is None:
            return None
        composite = _composite(columns, radix)
        del columns
        return _sort_factorize(radix, composite)

    def codes(self, positions: Sequence[int]) -> tuple:
        """The cached first-seen factorization ``(firsts, codes)`` of
        :meth:`keys` at ``positions`` (see the module docstring)."""
        return self._factorized(tuple(positions))[0]

    def matcher(self, positions: Sequence[int]) -> Optional[KeyMatcher]:
        """The cached :class:`KeyMatcher` of the distinct keys at
        ``positions`` (codes as in :meth:`codes`), or ``None`` when the key
        is not an ``int64`` composite."""
        factorized = self._factorized(tuple(positions), composite_only=True)
        return None if factorized is None else factorized[1]

    def _composite_sized(self) -> bool:
        return self._length > 0 and self._length >= COMPOSITE_MIN_ROWS

    def take(self, positions: Sequence[int], indices) -> list:
        """The columns at ``positions``, each at ``indices`` (a typed array
        gathers into a typed array); a column not built is read from the
        rows at ``indices`` and stays unbuilt."""
        values = self._values
        held = [values._lists[position] for position in positions]
        gathered = _take([column for column in held if column is not None], indices)
        if len(gathered) == len(held):
            return gathered
        rows, built = _take([values._rows], indices)[0], iter(gathered)
        return [
            list(map(itemgetter(position), rows)) if column is None else next(built)
            for position, column in zip(positions, held)
        ]

    def distinct(self, schema: Schema, positions: Sequence[int]) -> "ColumnarRelation":
        """Each distinct key's first row at ``positions`` (one or more), in
        first-seen order, under ``schema``.

        A key with a :class:`KeyMatcher` hands it over: every row of the
        result is distinct, so a key's code is its position.
        """
        (firsts, _codes), matcher = self._factorized(tuple(positions))
        columns = self.take(positions, firsts)
        result = ColumnarRelation.from_value_lists(schema, columns, len(firsts))
        if matcher is not None:
            identity = np.arange(len(firsts))
            result._codes[tuple(range(len(positions)))] = (
                (identity, identity.astype(_code_dtype(len(firsts)))), matcher
            )
        return result

    def extended(self, schema: Schema, columns: list) -> "ColumnarRelation":
        """This relation's held columns plus row-aligned ``columns``, under
        ``schema``; the views and factorizations of this relation's columns
        carry over."""
        result = ColumnarRelation.from_value_lists(
            schema, [*self._values.held(), *columns], self._length
        )
        result._typed.update(self._typed)
        result._codes.update(self._codes)
        return result

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
        lists = _take(self._values.held(), indices)
        return ColumnarRelation.from_value_lists(self.schema, lists, len(indices))

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
