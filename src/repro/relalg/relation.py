"""In-memory relations: a schema plus its columns.

:class:`Relation` is the unit of data everywhere in the library — local
warehouse tables, GMDJ base-values relations, shipped sub-results and
final query answers are all relations.

Relations are *multisets* of rows (duplicates allowed) unless explicitly
deduplicated with :meth:`Relation.distinct_project`. A relation holds one
column per attribute, all equal length, fixed when it is made: a value
list (``None`` for NULL) or a NULL-free ``int64``/``float64`` array, as
:func:`~repro.relalg.columnar.held_column` rules. It is made one of two
ways. :meth:`Relation.of_columns` adopts ready columns: what the data
generators, the column-block decoder and every operator hand over, with
nothing copied. ``Relation(schema, rows)`` transposes row tuples once and
applies the rule: for literals, tests, CSV and unpickling.
:attr:`Relation.rows` — tuples in schema order — is for output: derived
from the columns on first read and kept.

Beside its columns a relation caches the two views of
:mod:`repro.relalg.columnar`, each built on first use and published only
when complete: an attribute's typed view (:meth:`Relation.typed`), which
the vector kernels of :mod:`repro.relalg.compiler` read, and a key's
:class:`~repro.relalg.columnar.KeyMatcher` (:meth:`Relation.matcher`).
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Iterator, Iterable, Sequence

import numpy as np

from repro.errors import SchemaError
from repro.relalg import compiler
from repro.relalg.columnar import (
    KeyMatcher,
    _SortedKeys,
    _keys,
    _matcher,
    _take,
    as_list,
    held_column,
    held_columns,
    typed_view,
)
from repro.relalg.expressions import Expr
from repro.relalg.schema import Attribute, Schema


class Relation:
    """An immutable-by-convention multiset of rows with a fixed schema,
    held as one column per attribute."""

    __slots__ = ("schema", "_columns", "_length", "_typed", "_matchers", "_rows")

    def __init__(self, schema: Schema, rows: Iterable[tuple] = (), validate: bool = False):
        if not isinstance(schema, Schema):
            raise SchemaError(f"expected Schema, got {schema!r}")
        rows = rows if type(rows) is list else list(rows)
        if validate:
            for row in rows:
                schema.check_row(row)
        self._adopt(schema, held_columns(schema, rows), len(rows))

    def _adopt(self, schema: Schema, columns: list, length: int) -> "Relation":
        self.schema = schema
        self._columns = columns
        # ``length`` survives the zero-column case (pure row-count relations).
        self._length = length
        self._typed: dict = {}  # position -> (data, valid)
        self._matchers: dict = {}  # positions -> KeyMatcher
        self._rows = None  # derived on first read
        return self

    # -- constructors --------------------------------------------------------

    @classmethod
    def of_columns(cls, schema: Schema, columns: list, length: int) -> "Relation":
        """Adopt one ready column per attribute, each ``length`` long: a
        value list, or a NULL-free typed array under
        :func:`~repro.relalg.columnar.held_column`'s rule.

        Nothing is copied or wrapped, and the caller vouches for the rule.
        """
        if len(columns) != len(schema):
            raise SchemaError(
                f"schema has {len(schema)} attributes but got {len(columns)} columns"
            )
        for attribute, column in zip(schema.attributes, columns):
            if len(column) != length:
                raise SchemaError(
                    f"ragged columns: {attribute.name!r} has {len(column)} values, "
                    f"expected {length}"
                )
        return cls.__new__(cls)._adopt(schema, columns, length)

    @classmethod
    def empty(cls, schema: Schema) -> "Relation":
        return cls(schema, ())

    @property
    def rows(self) -> list:
        """The row tuples, in order (built from the columns on first access
        and published complete)."""
        rows = self._rows
        if rows is None:
            rows = self._rows = self._transposed()
        return rows

    def _transposed(self) -> list:
        if not self._columns:
            return [()] * self._length
        return list(zip(*map(as_list, self._columns)))

    # -- basics ----------------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"Relation({self.schema!r}, {len(self)} rows)"

    def __reduce__(self):
        # A relation pickles as its schema and rows; rows built here are not kept.
        rows = self._rows
        return Relation, (self.schema, self._transposed() if rows is None else rows)

    def column(self, name: str) -> list:
        """All values of one attribute, in row order."""
        return list(self.values(self.schema.position(name)))

    # -- columns and their views ---------------------------------------------

    def held(self) -> list:
        """Every attribute's column as held (a typed array stays an array),
        in schema order."""
        return self._columns

    def held_at(self, position: int):
        """One attribute's column as held."""
        return self._columns[position]

    def values(self, position: int) -> list:
        """One attribute's value list: a held list itself, or a typed
        array's, derived for this caller."""
        return as_list(self._columns[position])

    def typed(self, position: int) -> tuple:
        """The cached typed view ``(data, valid)`` of one attribute."""
        view = self._typed.get(position)
        if view is None:
            view = self._typed[position] = self._view(position)  # published complete
        return view

    def _view(self, position: int) -> tuple:
        """The typed view of one attribute: the cached one, else made anew."""
        view = self._typed.get(position)
        return typed_view([self._columns[position]]) if view is None else view

    def _keys(self, positions: Sequence[int]) -> list:
        """Each row's key at ``positions``, for the ``dict``."""
        return _keys(list(map(self.values, positions)), self._length)

    def matcher(self, positions: Sequence[int]) -> KeyMatcher:
        """The cached :class:`~repro.relalg.columnar.KeyMatcher` of the key
        at ``positions``."""
        positions = tuple(positions)
        matcher = self._matchers.get(positions)
        if matcher is None:
            matcher = _matcher(self._length, positions, self._view, self._keys)
            self._matchers[positions] = matcher  # published complete
        return matcher

    def codes(self, positions: Sequence[int]) -> tuple:
        """The cached first-seen factorization ``(firsts, codes)`` of the
        key at ``positions`` (see :class:`~repro.relalg.columnar.KeyMatcher`)."""
        matcher = self.matcher(positions)
        return matcher.firsts, matcher.codes

    def take(self, positions: Sequence[int], indices) -> list:
        """The columns at ``positions``, each at ``indices`` (a typed array
        gathers into a typed array)."""
        return _take([self._columns[position] for position in positions], indices)

    def gather(self, indices) -> "Relation":
        """Rows at ``indices`` (ascending order preserves row order); a
        typed array gathers into a typed array."""
        return Relation.of_columns(self.schema, _take(self._columns, indices), len(indices))

    def extended(self, schema: Schema, columns: list) -> "Relation":
        """This relation's held columns plus row-aligned ``columns``, under
        ``schema``; the views and matchers of this relation's columns
        carry over."""
        result = Relation.of_columns(schema, [*self._columns, *columns], self._length)
        result._typed.update(self._typed)
        result._matchers.update(self._matchers)
        return result

    def built_views(self) -> tuple:
        """Names of the attributes with a typed view or in a factorized key."""
        positions = set(self._typed).union(*self._matchers)
        return tuple(name for position, name in enumerate(self.schema.names) if position in positions)

    # -- relational operators -----------------------------------------------------

    def select(self, condition: Expr) -> "Relation":
        """Rows satisfying ``condition`` (fields unqualified)."""
        mask = compiler.compile_mask(condition, {None: self.schema})
        return self.gather(mask(len(self), {None: (self, None)}))

    def project(self, names: Sequence[str]) -> "Relation":
        """Projection (multiset — does not deduplicate, per SQL); the
        columns are shared."""
        columns = [self._columns[position] for position in self.schema.positions(names)]
        return Relation.of_columns(self.schema.project(names), columns, self._length)

    def distinct_project(self, names: Sequence[str]) -> "Relation":
        """``project(names)`` without duplicates, in first-seen order.

        Rows are equal as ``dict`` keys are (``1 == 1.0 == True``, a NaN
        object only itself). The answer is each distinct key's first row,
        gathered from the key columns at the cached factorization of the
        key, which a scan grouping on the same attributes probes with. A
        sorted composite key is handed over as it is: every row of the
        result is distinct, so a key's code is its position.
        """
        schema, positions = self.schema.project(names), self.schema.positions(names)
        if not positions:
            return Relation(schema, [()] if len(self) else [])
        matcher = self.matcher(positions)
        result = Relation.of_columns(schema, self.take(positions, matcher.firsts), len(matcher))
        if isinstance(matcher, _SortedKeys):
            result._matchers[tuple(range(len(positions)))] = matcher.renumbered()
        return result

    def tail(self, start: int) -> "Relation":
        """The rows from position ``start`` on, in order."""
        return self.gather(range(start, len(self)))

    def union_all(self, *others: "Relation") -> "Relation":
        """Multiset union, rows in order; schemas must be identical.

        One schema check per relation and one concatenation per column:
        k fragments copy each value once, not once per later fragment. A
        column the first non-empty part holds as a typed array stays one
        when every non-empty part's typed view of it is NULL-free and of
        that dtype; any other column is a value list.
        """
        for relation in others:
            if relation.schema != self.schema:
                raise SchemaError(
                    f"union over incompatible schemas: {self.schema!r} vs {relation.schema!r}"
                )
        if not others:
            return self
        parts = [part for part in (self, *others) if len(part)] or [self]
        columns = []
        for position in range(len(self.schema)):
            held = parts[0]._columns[position]
            views = [part.typed(position) for part in parts] if type(held) is np.ndarray else ()
            if views and all(
                valid is None and data.dtype == held.dtype for data, valid in views
            ):
                columns.append(np.concatenate([data for data, _valid in views]))
            else:
                columns.append(list(chain.from_iterable(part.values(position) for part in parts)))
        return Relation.of_columns(self.schema, columns, sum(map(len, parts)))

    def extend(self, name: str, type_name: str, expression: Expr) -> "Relation":
        """Append a computed column (fields of ``expression`` unqualified)."""
        schema = self.schema.concat(Schema([Attribute(name, type_name)]))
        batch = compiler.compile_batch_scalar(expression, {None: self.schema})
        values = batch(len(self), {None: (self, None)})
        return self.extended(schema, [held_column(values, type_name)])

    def rename(self, mapping: dict) -> "Relation":
        return Relation.of_columns(self.schema.rename(mapping), self._columns, self._length)

    def sorted_by(self, names: Sequence[str], descending: bool = False) -> "Relation":
        """Rows ordered by the given attributes (``None`` sorts first)."""
        columns = [self.values(position) for position in self.schema.positions(names)]

        def sort_key(row):
            return tuple((column[row] is not None, column[row]) for column in columns)

        return self.gather(sorted(range(len(self)), key=sort_key, reverse=descending))

    def limit(self, count: int) -> "Relation":
        return self.gather(range(len(self))[:count])

    # -- comparison helpers (tests, synchronization checks) ----------------------

    def row_multiset(self) -> Counter:
        return Counter(self.rows)

    def same_rows_any_order_of_columns(self, other: "Relation") -> bool:
        """Multiset equality after aligning ``other``'s columns to ours."""
        if set(self.schema.names) != set(other.schema.names):
            return False
        aligned = other.project(self.schema.names)
        return self.row_multiset() == aligned.row_multiset()

    # -- display -----------------------------------------------------------------

    def pretty(self, max_rows: int = 20) -> str:
        """Fixed-width textual table for logs and examples."""
        names = [str(name) for name in self.schema.names]
        shown = self.rows[:max_rows]
        cells = [[_format_cell(value) for value in row] for row in shown]
        widths = [len(name) for name in names]
        for row in cells:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        header = " | ".join(name.ljust(width) for name, width in zip(names, widths))
        rule = "-+-".join("-" * width for width in widths)
        lines = [header, rule]
        for row in cells:
            lines.append(" | ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        if len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)


def _format_cell(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
