"""Columnar storage for relations: per-column value vectors and their views.

A :class:`ColumnarRelation` holds the same multiset of rows as a row-store
:class:`~repro.relalg.relation.Relation`, one column per attribute. A
column is a value list (``None`` for NULL) or, when a column-block decoder
(:mod:`repro.net.serialize`) adopted it, a *typed array*: ``int64`` or
``float64``, NULL-free, under the ``typed`` rule below. A typed array is
what the relation holds for that attribute: its value list is derived
(``tolist``) for each caller that asks, and never kept. Over a row store a
list is transposed the first time something indexes it.

What the vector kernels of :mod:`repro.relalg.compiler` consume, and
what matches keys, are two cached *views*, built on first use (from the
rows or a derived list, keeping no list) and published only when
complete:

* :meth:`ColumnarRelation.typed` — a numpy array per attribute plus a
  validity mask (``None`` when nothing is NULL): ``int64`` only if every
  value is an ``int`` (not a ``bool``) with ``|v| <= 2**53``, so int/float
  mixing stays exact; ``float64`` only if every value is a ``float``; else
  an ``object`` array of the values themselves (``None`` at NULLs). An
  adopted typed array is its own view.
* :meth:`ColumnarRelation.matcher` — the :class:`KeyMatcher` of a tuple
  of attributes, the one interface to a key. It holds the key's
  first-seen factorization: ``firsts[c]`` is the first row whose key has
  code ``c`` (so the distinct keys are a gather of the key columns), and
  ``codes`` each row's code in the narrowest integer dtype
  (:meth:`ColumnarRelation.codes`). ``find(columns, length)`` gives, per
  row of other key columns (typed arrays or value lists), the code of the
  equal key or -1, and ``finder()`` is a ``find`` that keeps the lookup
  it builds for as long as a caller probing many times holds it;
  ``pairs(found)`` expands the keys several rows share into (probing
  row, matched row) pairs, row-major, through CSR arrays (:func:`group`,
  :func:`expand`). The MD-join scan and the coordinator's sync both match
  keys through it; :func:`key_matcher` serves a computed key that no
  relation holds.

Keys are equal as ``dict`` keys are: ``1``, ``1.0`` and ``True`` are one
key, a NaN object is only itself, and NULL is a key like any other (the
scan drops NULL-keyed probes itself, as SQL equality requires). Two
implementations give the same codes and the same matches, and one
function, ``_matcher``, chooses between them. A key of two or more
attributes whose typed views are NULL-free ``int64``, with a radix
product within ``COMPOSITE_LIMIT`` and ``COMPOSITE_MIN_ROWS`` rows or
more, is one ``int64`` per row — a mixed radix over each attribute's
``value - min`` — factorized by a stable sort and found by one
``searchsorted``; a probing value equal to no int in range misses. Every
other key is a ``dict`` over key values (tuples for several attributes).
Both stay because each side of the size choice carries work: on 12–42
rows a ``dict`` build or probe takes 1–10 µs where the composite's numpy
calls take 25–40 µs, while on about 2 000 rows the composite is about
twice as fast.

This module deliberately does not import :mod:`repro.relalg.relation`
(which imports the compiler, which consumes columns) — conversion entry
points live on ``Relation`` itself.
"""

from __future__ import annotations

from itertools import chain, count, repeat
from operator import is_not, itemgetter
from typing import Callable, List, Optional, Sequence, Tuple

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


#: A key whose radix product passes this keeps the ``dict``.
COMPOSITE_LIMIT = 2**62

#: A relation shorter than this keeps the ``dict``: on 12–42 rows a ``dict``
#: pass takes 1–10 µs where the composite's numpy calls take 25–40 µs; from
#: about 2 000 rows the composite is twice as fast.
COMPOSITE_MIN_ROWS = 1024


def _code_dtype(width: int):
    return np.int8 if width < 2**7 else np.int16 if width < 2**15 else np.int32


def group(codes: np.ndarray, size: int) -> tuple:
    """``(offsets, order)``: the positions of ``codes`` (each in
    ``range(size)``) grouped by code, ascending within a code, as CSR —
    code ``c``'s positions are ``order[offsets[c]:offsets[c + 1]]``."""
    offsets = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(codes, minlength=size), out=offsets[1:])
    # The narrowest dtype: numpy's stable sort of 8- and 16-bit ints is a radix sort.
    return offsets, np.argsort(codes.astype(_code_dtype(size), copy=False), kind="stable")


def expand(found: np.ndarray, offsets: np.ndarray, flat: np.ndarray) -> tuple:
    """``(counts, matched)``: per probing row, how many entries its code
    (``found``; -1: none) holds in the CSR ``(offsets, flat)``, and those
    entries, row-major."""
    hit = found >= 0
    codes = found[hit].astype(np.intp, copy=False)
    counts = np.zeros(len(found), dtype=np.int64)
    counts[hit] = offsets[codes + 1] - offsets[codes]
    starts = np.zeros(len(found), dtype=np.int64)
    starts[hit] = offsets[codes]
    at = np.repeat(starts - np.cumsum(counts) + counts, counts)
    at += np.arange(len(at))
    return counts, flat[at]


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


def _int_key(value) -> Optional[int]:
    """The int within ``EXACT_INT`` equal to ``value`` as a ``dict`` key, if
    one is: an int, a bool, an integral float."""
    if isinstance(value, int) or isinstance(value, float) and value.is_integer():
        if -EXACT_INT <= value <= EXACT_INT:
            return int(value)
    return None


def _int_view(column) -> tuple:
    """``(data, equal)`` of a probing key column: ``int64`` data, and where
    a value equals that int as a ``dict`` key does (``None``: everywhere).
    NULL, NaN, strings, dates and ints past ``EXACT_INT`` equal none of a
    composite's keys."""
    data, valid = (column, None) if type(column) is np.ndarray else _typed_view(column)
    if data.dtype == np.int64:
        return data, valid
    if data.dtype == np.float64:
        with np.errstate(invalid="ignore"):
            equal = (np.abs(data) <= EXACT_INT) & (data == np.floor(data))
        if valid is not None:
            equal &= valid
        return np.where(equal, data, 0).astype(np.int64), equal
    ints = list(map(_int_key, data.tolist()))
    equal = np.fromiter(map(is_not, ints, repeat(None)), dtype=bool, count=len(ints))
    return np.array([value or 0 for value in ints], dtype=np.int64), equal


class KeyMatcher:
    """A relation's key at some attributes: its first-seen factorization,
    and the lookup of other rows' keys among its distinct ones (see the
    module docstring).

    ``firsts[c]`` is the first row whose key has code ``c``; ``codes[r]`` is
    row ``r``'s code, in the narrowest integer dtype.
    """

    __slots__ = ("firsts", "codes", "_groups")

    def __init__(self, firsts: np.ndarray, codes: np.ndarray):
        self.firsts = firsts
        self.codes = codes
        self._groups: Optional[tuple] = None  # (offsets, rows) per code, on first use

    def __len__(self) -> int:
        return len(self.firsts)

    def find(self, columns: Sequence, length: int) -> np.ndarray:
        """Per probing row (``length`` rows of ``columns``, one per key
        attribute: a typed array or a value list), the code of the equal
        key, or -1."""
        return self.finder()(columns, length)

    def finder(self) -> Callable:
        """:meth:`find` for a caller that probes many times: what the
        lookup builds (the ``dict``'s hash table) lives as long as the
        returned function does, not as long as the cached matcher."""
        raise NotImplementedError

    def pairs(self, found: np.ndarray) -> tuple:
        """``(rows, matched)``: per (probing row, row of this relation)
        pair whose key is the probing row's ``found`` code, row-major, the
        probing row (``rows`` ``None``: every probing row, once) and the
        matched row."""
        if len(self.firsts) == len(self.codes):  # distinct keys: row ``c`` has code ``c``
            rows = np.flatnonzero(found >= 0)
            return (None, found) if len(rows) == len(found) else (rows, found[rows])
        if self._groups is None:
            self._groups = group(self.codes, len(self.firsts))  # published complete
        counts, matched = expand(found, *self._groups)
        return np.repeat(np.arange(len(found)), counts), matched


class _DictKeys(KeyMatcher):
    """The distinct keys — a value for one attribute, a tuple for several —
    looked up through a ``dict``.

    The ``dict`` lives as long as a :meth:`finder`: what the matcher keeps
    is one list per attribute of the distinct keys' values, references to
    values the relation holds, so a cached matcher costs no key tuple and
    no hash table.
    """

    __slots__ = ("_distinct",)

    def __init__(self, keys: list, width: int):
        index: dict = {}
        # Each row's key's first row, then its rank among those first rows.
        firsts = np.fromiter(map(index.setdefault, keys, count()), dtype=np.int64, count=len(keys))
        starts = np.fromiter(index.values(), dtype=np.int64, count=len(index))
        super().__init__(starts, np.searchsorted(starts, firsts).astype(_code_dtype(len(starts))))
        self._distinct = [list(index)] if width == 1 else list(map(list, zip(*index)))

    def finder(self) -> Callable:
        index = dict(zip(_keys(self._distinct, len(self.firsts)), count()))

        def find(columns: Sequence, length: int) -> np.ndarray:
            keys = _keys(list(map(as_list, columns)), length)
            return np.fromiter(map(index.get, keys, repeat(-1)), dtype=np.int64, count=length)

        return find


class _SortedKeys(KeyMatcher):
    """The distinct keys' sorted ``int64`` composites and each one's code."""

    __slots__ = ("_radix", "_sorted", "_sorted_codes")

    def __init__(self, firsts, codes, radix: tuple, ordered: np.ndarray, ordered_codes: np.ndarray):
        super().__init__(firsts, codes)
        self._radix = radix
        self._sorted = ordered
        self._sorted_codes = ordered_codes

    @classmethod
    def build(cls, radix: tuple, composite: np.ndarray) -> "_SortedKeys":
        """The matcher of a key by a stable sort of its composite
        (non-empty, under ``radix``)."""
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
        return cls(np.flatnonzero(first), by_row, radix, distinct, codes)

    def renumbered(self) -> "_SortedKeys":
        """This lookup over one row per distinct key, in code order."""
        identity = np.arange(len(self.firsts))
        return _SortedKeys(
            identity, identity.astype(_code_dtype(len(identity))),
            self._radix, self._sorted, self._sorted_codes,
        )

    def finder(self) -> Callable:
        return self.find

    def find(self, columns: Sequence, length: int) -> np.ndarray:
        lows, highs = self._radix
        inside = np.ones(length, dtype=bool)
        clipped = []
        for column, low, high in zip(columns, lows, highs):
            data, equal = _int_view(column)
            if equal is not None:
                inside &= equal
            inside &= (data >= low) & (data <= high)
            clipped.append(np.clip(data, low, high))
        composite = _composite(clipped, self._radix)
        at = np.searchsorted(self._sorted, composite)
        at[at == len(self._sorted)] = 0
        return np.where(inside & (self._sorted[at] == composite), self._sorted_codes[at], -1)


def _matcher(length: int, positions: tuple, view, keys) -> KeyMatcher:
    """The one choice of implementation for the key at ``positions`` of
    ``length`` rows (``view(position)``: an attribute's typed view;
    ``keys(positions)``: each row's key for the ``dict``)."""
    if len(positions) >= 2 and length >= max(COMPOSITE_MIN_ROWS, 1):
        views = [view(position) for position in positions]
        if all(valid is None and data.dtype == np.int64 for data, valid in views):
            columns = [data for data, _valid in views]
            radix = _radix(columns)
            if radix is not None:
                composite = _composite(columns, radix)
                del views, columns  # the key columns go before the sort
                return _SortedKeys.build(radix, composite)
    return _DictKeys(keys(positions), len(positions))


def key_matcher(columns: Sequence, length: int) -> KeyMatcher:
    """The :class:`KeyMatcher` of row-aligned key columns no relation holds
    (value lists or typed arrays, ``length`` rows): a computed key's."""
    return _matcher(
        length, tuple(range(len(columns))), lambda position: typed_view([columns[position]]),
        lambda positions: _keys([as_list(columns[position]) for position in positions], length),
    )


def _keys(lists: list, length: int) -> list:
    """Each row's key over row-aligned value lists: the value for one list,
    a tuple for several, ``()`` for none."""
    if not lists:
        return [()] * length
    return lists[0] if len(lists) == 1 else list(zip(*lists))


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

    __slots__ = ("schema", "_values", "_length", "_typed", "_matchers")

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
        self._matchers: dict = {}  # positions -> KeyMatcher
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

    def _keys(self, positions: Sequence[int]) -> list:
        """Each row's key at ``positions``, for the ``dict``."""
        return self._values.keys(positions) if positions else [()] * self._length

    def matcher(self, positions: Sequence[int]) -> KeyMatcher:
        """The cached :class:`KeyMatcher` of the key at ``positions``."""
        positions = tuple(positions)
        matcher = self._matchers.get(positions)
        if matcher is None:
            matcher = _matcher(self._length, positions, self._view, self._keys)
            self._matchers[positions] = matcher  # published complete
        return matcher

    def codes(self, positions: Sequence[int]) -> tuple:
        """The cached first-seen factorization ``(firsts, codes)`` of the
        key at ``positions`` (see :class:`KeyMatcher`)."""
        matcher = self.matcher(positions)
        return matcher.firsts, matcher.codes

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

        A sorted composite key is handed over as it is: every row of the
        result is distinct, so a key's code is its position.
        """
        matcher = self.matcher(positions)
        columns = self.take(positions, matcher.firsts)
        result = ColumnarRelation.from_value_lists(schema, columns, len(matcher))
        if isinstance(matcher, _SortedKeys):
            result._matchers[tuple(range(len(positions)))] = matcher.renumbered()
        return result

    def extended(self, schema: Schema, columns: list) -> "ColumnarRelation":
        """This relation's held columns plus row-aligned ``columns``, under
        ``schema``; the views and matchers of this relation's columns
        carry over."""
        result = ColumnarRelation.from_value_lists(
            schema, [*self._values.held(), *columns], self._length
        )
        result._typed.update(self._typed)
        result._matchers.update(self._matchers)
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
        positions = set(self._typed).union(*self._matchers)
        return tuple(name for position, name in enumerate(self.schema.names) if position in positions)

    def to_rows(self) -> List[tuple]:
        """Transpose back to row tuples, preserving row order."""
        if not len(self.schema):
            return [()] * self._length
        return list(zip(*self._values.all()))

    def project(self, positions: Sequence[int]) -> "ColumnarRelation":
        """The attributes at ``positions``, in that order, their held
        columns shared."""
        positions = list(positions)
        held = self._values.held()
        schema = Schema([self.schema.attributes[position] for position in positions])
        return ColumnarRelation.from_value_lists(
            schema, [held[position] for position in positions], self._length
        )

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
