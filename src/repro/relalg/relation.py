"""In-memory relations: a schema plus its rows, or its columns.

:class:`Relation` is the unit of data everywhere in the library — local
warehouse tables, GMDJ base-values relations, shipped sub-results and
final query answers are all relations.

Relations are *multisets* of rows (duplicates allowed) unless explicitly
deduplicated with :meth:`Relation.distinct`. Rows are plain tuples in
schema order. A relation is backed by one of two stores. One is its row
tuples, with a columnar view (:meth:`Relation.to_columnar`) that transposes
an attribute the first time a kernel reads it. The other is a
:class:`~repro.relalg.columnar.ColumnarRelation` a column-block decoder
handed over (:meth:`Relation.from_columnar`): a site's partition loaded
from the store is one. Its ``rows`` are built on first access. Its length,
:meth:`Relation.column`, :meth:`Relation.select`, :meth:`Relation.distinct`,
:meth:`Relation.distinct_project` and :meth:`Relation.union_all` read the
columns, and so does the site scan.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import SchemaError
from repro.relalg import compiler
from repro.relalg.columnar import ColumnarRelation
from repro.relalg.expressions import Expr
from repro.relalg.schema import Attribute, Schema


def tuple_getter(positions: Sequence[int]) -> Callable:
    """``row -> tuple(row[p] for p in positions)`` without a Python frame per row."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return lambda row: ()


class Relation:
    """An immutable-by-convention multiset of rows with a fixed schema."""

    __slots__ = ("schema", "_rows", "_columnar")

    def __init__(self, schema: Schema, rows: Iterable[tuple] = (), validate: bool = False):
        if not isinstance(schema, Schema):
            raise SchemaError(f"expected Schema, got {schema!r}")
        self.schema = schema
        self._rows = list(map(tuple, rows))
        self._columnar = None
        if validate:
            for row in self._rows:
                schema.check_row(row)

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls, schema: Schema) -> "Relation":
        return cls(schema, ())

    @classmethod
    def from_columnar(cls, columnar: ColumnarRelation) -> "Relation":
        """A relation backed by ``columnar``, which it adopts as its column
        cache: a kernel that hoists a column transposes nothing, and the
        rows are built only when something reads :attr:`rows`."""
        relation = cls.__new__(cls)
        relation.schema = columnar.schema
        relation._rows = None
        relation._columnar = columnar
        return relation

    @property
    def rows(self) -> list:
        """The row tuples, in order (built from the columns on first access
        and published complete)."""
        rows = self._rows
        if rows is None:
            rows = self._columnar.to_rows()  # tuples already: no per-row pass
            self._rows = rows
        return rows

    def to_columnar(self) -> ColumnarRelation:
        """Columnar view of this relation (cached; relations are immutable).

        The view shares ``rows`` and transposes an attribute the first time
        it is indexed, so asking for it costs nothing until a column is read.
        """
        columnar = self._columnar
        if columnar is None:
            columnar = ColumnarRelation.from_rows(self.schema, self.rows)
            self._columnar = columnar
        return columnar

    # -- basics ----------------------------------------------------------------

    def __len__(self) -> int:
        rows = self._rows
        return len(self._columnar) if rows is None else len(rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"Relation({self.schema!r}, {len(self)} rows)"

    def __reduce__(self):
        # The column cache is derived state: a relation pickles as what it is.
        return Relation, (self.schema, self.rows)

    def column(self, name: str) -> list:
        """All values of one attribute, in row order."""
        position = self.schema.position(name)
        if self._rows is None:
            return list(self._columnar.value_lists()[position])
        return [row[position] for row in self._rows]

    # -- relational operators -----------------------------------------------------

    def select(self, condition: Expr) -> "Relation":
        """Rows satisfying ``condition`` (fields unqualified)."""
        mask = compiler.compile_mask(condition, {None: self.schema})
        indices = mask(len(self), {None: (self.to_columnar(), None)})
        if self._rows is None:
            return Relation.from_columnar(self._columnar.gather(indices))
        return Relation(self.schema, map(self._rows.__getitem__, indices.tolist()))

    def project(self, names: Sequence[str]) -> "Relation":
        """Projection (multiset — does not deduplicate, per SQL); a
        column-backed relation projects its columns and builds no rows."""
        positions = self.schema.positions(names)
        if self._rows is None:
            return Relation.from_columnar(self._columnar.project(positions))
        return Relation(
            self.schema.project(names),
            map(tuple_getter(positions), self.rows),
        )

    def distinct(self) -> "Relation":
        """Duplicate elimination, preserving first-seen row order, rows equal
        as in :meth:`distinct_project`. A column-backed relation answers
        from its columns, a row store from its rows: neither builds the
        other."""
        if self._rows is None:
            return self._distinct(self.schema, range(len(self.schema)))
        return Relation(self.schema, dict.fromkeys(self._rows))

    def distinct_project(self, names: Sequence[str]) -> "Relation":
        """``distinct(project(names))`` in one pass, first-seen order.

        Rows are equal as ``dict`` keys are (``1 == 1.0 == True``, a NaN
        object only itself). The answer is column-backed: each distinct
        key's first row, gathered from the key columns at the cached
        factorization of the key, which a scan grouping on the same
        attributes probes with.
        """
        return self._distinct(self.schema.project(names), self.schema.positions(names))

    def _distinct(self, schema: Schema, positions: Sequence[int]) -> "Relation":
        if not positions:
            return Relation(schema, [()] if len(self) else [])
        return Relation.from_columnar(self.to_columnar().distinct(schema, positions))

    def tail(self, start: int) -> "Relation":
        """The rows from position ``start`` on, in order: a slice of the
        rows when they are built, else a gather of the columns."""
        if self._rows is not None:
            return Relation(self.schema, self._rows[start:])
        return Relation.from_columnar(self._columnar.gather(range(start, len(self))))

    def union_all(self, *others: "Relation") -> "Relation":
        """Multiset union, rows in order; schemas must be identical.

        One schema check per relation and one concatenation: k fragments
        copy each row once, not once per later fragment. If any of them is
        column-backed with its rows unbuilt, the union is column-backed too
        (:meth:`ColumnarRelation.concat`) and builds no rows.
        """
        relations = (self, *others)
        for relation in others:
            if relation.schema != self.schema:
                raise SchemaError(
                    f"union over incompatible schemas: {self.schema!r} vs {relation.schema!r}"
                )
        if not others:
            return self
        if any(relation._rows is None for relation in relations):
            return Relation.from_columnar(
                ColumnarRelation.concat(
                    self.schema, [relation.to_columnar() for relation in relations]
                )
            )
        return Relation(self.schema, chain.from_iterable(relation._rows for relation in relations))

    def extend(self, name: str, type_name: str, expression: Expr) -> "Relation":
        """Append a computed column (fields of ``expression`` unqualified)."""
        schema = self.schema.concat(Schema([Attribute(name, type_name)]))
        batch = compiler.compile_batch_scalar(expression, {None: self.schema})
        values = batch(len(self.rows), {None: (self.to_columnar(), None)})
        return Relation(schema, (row + (value,) for row, value in zip(self.rows, values)))

    def rename(self, mapping: dict) -> "Relation":
        return Relation(self.schema.rename(mapping), self.rows)

    def sorted_by(self, names: Sequence[str], descending: bool = False) -> "Relation":
        """Rows ordered by the given attributes (``None`` sorts first)."""
        positions = self.schema.positions(names)

        def sort_key(row):
            return tuple(
                (row[position] is not None, row[position]) for position in positions
            )

        return Relation(self.schema, sorted(self.rows, key=sort_key, reverse=descending))

    def limit(self, count: int) -> "Relation":
        return Relation(self.schema, self.rows[:count])

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
