"""In-memory relations: a schema plus its columns.

:class:`Relation` is the unit of data everywhere in the library — local
warehouse tables, GMDJ base-values relations, shipped sub-results and
final query answers are all relations.

Relations are *multisets* of rows (duplicates allowed) unless explicitly
deduplicated with :meth:`Relation.distinct`. A relation holds one store,
its :class:`~repro.relalg.columnar.ColumnarRelation`
(:meth:`Relation.to_columnar`): made from rows, it transposes them once
and holds each column as the column-block decoder would
(:func:`~repro.relalg.columnar.held_column`); handed columns
(:meth:`Relation.from_columnar`), it adopts them. Every operator reads and
makes columns. :attr:`Relation.rows` — tuples in schema order — is for
output: derived from the columns on first read and kept.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Sequence

from repro.errors import SchemaError
from repro.relalg import compiler
from repro.relalg.columnar import ColumnarRelation, held_column, held_columns
from repro.relalg.expressions import Expr
from repro.relalg.schema import Attribute, Schema


class Relation:
    """An immutable-by-convention multiset of rows with a fixed schema."""

    __slots__ = ("schema", "_columnar", "_rows")

    def __init__(self, schema: Schema, rows: Iterable[tuple] = (), validate: bool = False):
        if not isinstance(schema, Schema):
            raise SchemaError(f"expected Schema, got {schema!r}")
        rows = rows if type(rows) is list else list(rows)
        if validate:
            for row in rows:
                schema.check_row(row)
        self.schema = schema
        self._columnar = ColumnarRelation.from_value_lists(
            schema, held_columns(schema, rows), len(rows)
        )
        self._rows = None  # derived on first read

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls, schema: Schema) -> "Relation":
        return cls(schema, ())

    @classmethod
    def from_columnar(cls, columnar: ColumnarRelation) -> "Relation":
        """A relation holding ``columnar``: nothing is copied, and the rows
        are built only when something reads :attr:`rows`."""
        relation = cls.__new__(cls)
        relation.schema = columnar.schema
        relation._columnar = columnar
        relation._rows = None
        return relation

    @property
    def rows(self) -> list:
        """The row tuples, in order (built from the columns on first access
        and published complete)."""
        rows = self._rows
        if rows is None:
            rows = self._rows = self._columnar.to_rows()
        return rows

    def to_columnar(self) -> ColumnarRelation:
        """The columns this relation holds."""
        return self._columnar

    # -- basics ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._columnar)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"Relation({self.schema!r}, {len(self)} rows)"

    def __reduce__(self):
        # A relation pickles as its schema and rows; rows built here are not kept.
        rows = self._rows
        return Relation, (self.schema, self._columnar.to_rows() if rows is None else rows)

    def column(self, name: str) -> list:
        """All values of one attribute, in row order."""
        return list(self._columnar.values(self.schema.position(name)))

    # -- relational operators -----------------------------------------------------

    def select(self, condition: Expr) -> "Relation":
        """Rows satisfying ``condition`` (fields unqualified)."""
        mask = compiler.compile_mask(condition, {None: self.schema})
        indices = mask(len(self), {None: (self._columnar, None)})
        return Relation.from_columnar(self._columnar.gather(indices))

    def project(self, names: Sequence[str]) -> "Relation":
        """Projection (multiset — does not deduplicate, per SQL); the
        columns are shared."""
        return Relation.from_columnar(self._columnar.project(self.schema.positions(names)))

    def distinct(self) -> "Relation":
        """Duplicate elimination, preserving first-seen row order, rows equal
        as in :meth:`distinct_project`."""
        return self._distinct(self.schema, range(len(self.schema)))

    def distinct_project(self, names: Sequence[str]) -> "Relation":
        """``distinct(project(names))`` in one pass, first-seen order.

        Rows are equal as ``dict`` keys are (``1 == 1.0 == True``, a NaN
        object only itself). The answer is each distinct key's first row,
        gathered from the key columns at the cached factorization of the
        key, which a scan grouping on the same attributes probes with.
        """
        return self._distinct(self.schema.project(names), self.schema.positions(names))

    def _distinct(self, schema: Schema, positions: Sequence[int]) -> "Relation":
        if not positions:
            return Relation(schema, [()] if len(self) else [])
        return Relation.from_columnar(self._columnar.distinct(schema, positions))

    def tail(self, start: int) -> "Relation":
        """The rows from position ``start`` on, in order."""
        return Relation.from_columnar(self._columnar.gather(range(start, len(self))))

    def union_all(self, *others: "Relation") -> "Relation":
        """Multiset union, rows in order; schemas must be identical.

        One schema check per relation and one concatenation per column
        (:meth:`ColumnarRelation.concat`): k fragments copy each value once,
        not once per later fragment.
        """
        for relation in others:
            if relation.schema != self.schema:
                raise SchemaError(
                    f"union over incompatible schemas: {self.schema!r} vs {relation.schema!r}"
                )
        if not others:
            return self
        parts = [relation._columnar for relation in (self, *others)]
        return Relation.from_columnar(ColumnarRelation.concat(self.schema, parts))

    def extend(self, name: str, type_name: str, expression: Expr) -> "Relation":
        """Append a computed column (fields of ``expression`` unqualified)."""
        schema = self.schema.concat(Schema([Attribute(name, type_name)]))
        batch = compiler.compile_batch_scalar(expression, {None: self.schema})
        values = batch(len(self), {None: (self._columnar, None)})
        return Relation.from_columnar(
            self._columnar.extended(schema, [held_column(values, type_name)])
        )

    def rename(self, mapping: dict) -> "Relation":
        columnar = self._columnar
        return Relation.from_columnar(
            ColumnarRelation.from_value_lists(
                self.schema.rename(mapping), columnar.held(), len(columnar)
            )
        )

    def sorted_by(self, names: Sequence[str], descending: bool = False) -> "Relation":
        """Rows ordered by the given attributes (``None`` sorts first)."""
        columns = [self._columnar.values(position) for position in self.schema.positions(names)]

        def sort_key(row):
            return tuple((column[row] is not None, column[row]) for column in columns)

        order = sorted(range(len(self)), key=sort_key, reverse=descending)
        return Relation.from_columnar(self._columnar.gather(order))

    def limit(self, count: int) -> "Relation":
        return Relation.from_columnar(self._columnar.gather(range(len(self))[:count]))

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
