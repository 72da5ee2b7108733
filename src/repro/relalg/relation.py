"""In-memory relations: a schema plus a list of row tuples.

:class:`Relation` is the unit of data everywhere in the library — local
warehouse tables, GMDJ base-values relations, shipped sub-results and
final query answers are all relations.

Relations are *multisets* of rows (duplicates allowed) unless explicitly
deduplicated with :meth:`Relation.distinct`. Rows are plain tuples in
schema order. The class is deliberately a simple row store: the engine's
performance story lives in hash-based GMDJ evaluation, not storage.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.errors import SchemaError
from repro.relalg import compiler, engine
from repro.relalg.columnar import ColumnarRelation
from repro.relalg.expressions import Expr
from repro.relalg.schema import Attribute, Schema, infer_type


def tuple_getter(positions: Sequence[int]) -> Callable:
    """``row -> tuple(row[p] for p in positions)`` without a Python frame per row."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return lambda row: ()


class Relation:
    """An immutable-by-convention multiset of rows with a fixed schema."""

    __slots__ = ("schema", "rows", "_columnar")

    def __init__(self, schema: Schema, rows: Iterable[tuple] = (), validate: bool = False):
        if not isinstance(schema, Schema):
            raise SchemaError(f"expected Schema, got {schema!r}")
        self.schema = schema
        self.rows = list(map(tuple, rows))
        self._columnar = None
        if validate:
            for row in self.rows:
                schema.check_row(row)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_dicts(cls, schema: Schema, records: Iterable[dict]) -> "Relation":
        """Build a relation from dict records; missing keys become ``None``."""
        names = schema.names
        return cls(schema, (tuple(record.get(name) for name in names) for record in records))

    @classmethod
    def infer(cls, records: Sequence[dict], names: Optional[Sequence[str]] = None) -> "Relation":
        """Build a relation from dict records, inferring the schema.

        Types are inferred from the first non-``None`` value of each
        attribute; attributes that are ``None`` everywhere default to FLOAT.
        """
        if names is None:
            if not records:
                raise SchemaError("cannot infer schema from zero records without names")
            names = list(records[0].keys())
        attributes = []
        for name in names:
            type_name = "float"
            for record in records:
                value = record.get(name)
                if value is not None:
                    type_name = infer_type(value)
                    break
            attributes.append(Attribute(name, type_name))
        return cls.from_dicts(Schema(attributes), records)

    @classmethod
    def empty(cls, schema: Schema) -> "Relation":
        return cls(schema, ())

    @classmethod
    def from_columnar(cls, columnar: ColumnarRelation) -> "Relation":
        """Rehydrate a row relation from columns, which it adopts as its
        column cache: a kernel that hoists one of them transposes nothing."""
        relation = cls.__new__(cls)
        relation.schema = columnar.schema
        relation.rows = columnar.to_rows()  # tuples already: no per-row pass
        relation._columnar = columnar
        return relation

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
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"Relation({self.schema!r}, {len(self.rows)} rows)"

    def to_dicts(self) -> list:
        names = self.schema.names
        return [dict(zip(names, row)) for row in self.rows]

    def column(self, name: str) -> list:
        """All values of one attribute, in row order."""
        position = self.schema.position(name)
        return [row[position] for row in self.rows]

    def row_dict(self, index: int) -> dict:
        return dict(zip(self.schema.names, self.rows[index]))

    # -- core relational operators ----------------------------------------------
    #
    # Join/rename/etc. live in repro.relalg.operators; the operators used in
    # inner loops of GMDJ evaluation are defined here as methods for
    # convenience and speed.

    def select(self, condition: Expr) -> "Relation":
        """Rows satisfying ``condition`` (fields unqualified)."""
        if engine.active_engine() == "columnar":
            mask = compiler.compile_mask(condition, {None: self.schema}, (None,), None)
            indices = mask(len(self.rows), self.to_columnar().value_lists())
            rows = self.rows
            return Relation(self.schema, (rows[index] for index in indices))
        predicate = compiler.compile_predicate(condition, {None: self.schema}, (None,))
        return Relation(self.schema, (row for row in self.rows if predicate(row)))

    def select_fn(self, predicate: Callable) -> "Relation":
        """Rows for which ``predicate(row_tuple)`` is truthy."""
        return Relation(self.schema, (row for row in self.rows if predicate(row)))

    def project(self, names: Sequence[str]) -> "Relation":
        """Projection (multiset — does not deduplicate, per SQL)."""
        positions = self.schema.positions(names)
        return Relation(
            self.schema.project(names),
            map(tuple_getter(positions), self.rows),
        )

    def distinct(self) -> "Relation":
        """Duplicate elimination, preserving first-seen row order."""
        return Relation(self.schema, dict.fromkeys(self.rows))

    def distinct_project(self, names: Sequence[str]) -> "Relation":
        """``distinct(project(names))`` in one pass, first-seen order."""
        positions = self.schema.positions(names)
        if len(positions) > 1:
            unique = dict.fromkeys(map(itemgetter(*positions), self.rows))
        elif positions:
            # itemgetter of one position yields scalars: dedupe those, then
            # wrap the survivors (``(1,) == (1.0,)`` exactly when ``1 == 1.0``).
            scalars = dict.fromkeys(map(itemgetter(positions[0]), self.rows))
            unique = [(value,) for value in scalars]
        else:
            unique = [()] if self.rows else []
        return Relation(self.schema.project(names), unique)

    def union_all(self, other: "Relation") -> "Relation":
        """Multiset union; schemas must be identical."""
        if self.schema != other.schema:
            raise SchemaError(
                f"union over incompatible schemas: {self.schema!r} vs {other.schema!r}"
            )
        return Relation(self.schema, self.rows + other.rows)

    def extend(self, name: str, type_name: str, expression: Expr) -> "Relation":
        """Append a computed column (fields of ``expression`` unqualified)."""
        schema = self.schema.concat(Schema([Attribute(name, type_name)]))
        if engine.active_engine() == "columnar":
            batch = compiler.compile_batch_scalar(
                expression, {None: self.schema}, (None,), None
            )
            values = batch(len(self.rows), self.to_columnar().value_lists())
            return Relation(
                schema, (row + (value,) for row, value in zip(self.rows, values))
            )
        func = compiler.compile_scalar(expression, {None: self.schema}, (None,))
        return Relation(schema, (row + (func(row),) for row in self.rows))

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

    def same_rows(self, other: "Relation") -> bool:
        """Multiset equality of rows, requiring identical schemas."""
        return self.schema == other.schema and self.row_multiset() == other.row_multiset()

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
