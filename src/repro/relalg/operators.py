"""Relational algebra operators over :class:`Relation`.

These complement the cheap per-relation methods on :class:`Relation`
(select/project/distinct/...) with the binary operators — joins, set
operations — and conventional SQL ``GROUP BY`` aggregation.

``group_by`` exists for two reasons: it is the natural baseline to
compare GMDJ evaluation against in tests, and the OLAP front-end uses it
for purely-local pre-aggregation steps.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import SchemaError
from repro.relalg import compiler
from repro.relalg.aggregates import AggSpec
from repro.relalg.expressions import BASE_VAR, DETAIL_VAR, Expr
from repro.relalg.relation import Relation
from repro.relalg.schema import Schema


def cross(left: Relation, right: Relation) -> Relation:
    """Cartesian product; attribute names must not clash."""
    schema = left.schema.concat(right.schema)
    rows = [l_row + r_row for l_row in left.rows for r_row in right.rows]
    return Relation(schema, rows)


def equi_join(left: Relation, right: Relation, pairs: Sequence[tuple]) -> Relation:
    """Hash equi-join on ``[(left_attr, right_attr), ...]`` pairs."""
    if not pairs:
        return cross(left, right)
    left_positions = left.schema.positions([pair[0] for pair in pairs])
    right_positions = right.schema.positions([pair[1] for pair in pairs])
    table: dict = {}
    for row in right.rows:
        key = tuple(row[position] for position in right_positions)
        table.setdefault(key, []).append(row)
    schema = left.schema.concat(right.schema)
    rows = []
    for l_row in left.rows:
        key = tuple(l_row[position] for position in left_positions)
        for r_row in table.get(key, ()):
            rows.append(l_row + r_row)
    return Relation(schema, rows)


def natural_join(left: Relation, right: Relation) -> Relation:
    """Join on all shared attribute names; right copies are dropped."""
    shared = [name for name in left.schema.names if name in right.schema]
    if not shared:
        return cross(left, right)
    right_rest = [name for name in right.schema.names if name not in shared]
    joined = equi_join(left, right.project(shared + right_rest).rename(
        {name: f"__rhs_{name}" for name in shared}
    ), [(name, f"__rhs_{name}") for name in shared])
    keep = list(left.schema.names) + right_rest
    return joined.project(keep)


def theta_join(left: Relation, right: Relation, condition: Expr) -> Relation:
    """Nested-loop join; condition fields use ``base`` (left) / ``detail`` (right)."""
    schema = left.schema.concat(right.schema)
    schemas = {BASE_VAR: left.schema, DETAIL_VAR: right.schema}
    # One selection vector over the right relation's columns per left row.
    mask = compiler.compile_mask(condition, schemas)
    left_columns, right_columns = left.to_columnar(), right.to_columnar()
    right_count = len(right.rows)
    right_rows = right.rows
    rows = []
    for index, l_row in enumerate(left.rows):
        sources = {
            BASE_VAR: (left_columns, np.full(right_count, index)),
            DETAIL_VAR: (right_columns, None),
        }
        for r_index in mask(right_count, sources).tolist():
            rows.append(l_row + right_rows[r_index])
    return Relation(schema, rows)


def semijoin(left: Relation, right: Relation, pairs: Sequence[tuple]) -> Relation:
    """Left rows with at least one equi-match in ``right``."""
    left_positions = left.schema.positions([pair[0] for pair in pairs])
    right_positions = right.schema.positions([pair[1] for pair in pairs])
    keys = {tuple(row[position] for position in right_positions) for row in right.rows}
    return Relation(
        left.schema,
        (
            row
            for row in left.rows
            if tuple(row[position] for position in left_positions) in keys
        ),
    )


def antijoin(left: Relation, right: Relation, pairs: Sequence[tuple]) -> Relation:
    """Left rows with no equi-match in ``right``."""
    left_positions = left.schema.positions([pair[0] for pair in pairs])
    right_positions = right.schema.positions([pair[1] for pair in pairs])
    keys = {tuple(row[position] for position in right_positions) for row in right.rows}
    return Relation(
        left.schema,
        (
            row
            for row in left.rows
            if tuple(row[position] for position in left_positions) not in keys
        ),
    )


def union_all(relations: Sequence[Relation]) -> Relation:
    """Multiset union of one or more same-schema relations, rows in order
    (:meth:`Relation.union_all`)."""
    if not relations:
        raise SchemaError("union_all of zero relations")
    return relations[0].union_all(*relations[1:])


def difference(left: Relation, right: Relation) -> Relation:
    """Multiset difference (each right row cancels one left occurrence)."""
    if left.schema != right.schema:
        raise SchemaError("difference over incompatible schemas")
    remaining = right.row_multiset()
    rows = []
    for row in left.rows:
        if remaining.get(row, 0) > 0:
            remaining[row] -= 1
        else:
            rows.append(row)
    return Relation(left.schema, rows)


def group_by(
    relation: Relation,
    keys: Sequence[str],
    aggs: Sequence[AggSpec],
    having: Optional[Expr] = None,
) -> Relation:
    """Conventional SQL GROUP BY aggregation (disjoint groups).

    This is *not* how GMDJs are evaluated (their groups may overlap, see
    Section 2.2 of the paper) — it is the baseline / local-utility
    operator. Aggregate input expressions see the relation unqualified or
    via the ``detail`` namespace.
    """
    key_positions = relation.schema.positions(keys)
    input_funcs = [spec.compile_input(relation.schema) for spec in aggs]
    groups: dict = {}
    order: list = []
    for row in relation.rows:
        key = tuple(row[position] for position in key_positions)
        accumulators = groups.get(key)
        if accumulators is None:
            accumulators = [spec.accumulator() for spec in aggs]
            groups[key] = accumulators
            order.append(key)
        bound = {None: row, DETAIL_VAR: row}
        for accumulator, input_func in zip(accumulators, input_funcs):
            accumulator.update(None if input_func is None else input_func(bound))
    schema = relation.schema.project(keys).concat(
        Schema([spec.result_attribute() for spec in aggs])
    )
    rows = []
    for key in order:
        rows.append(key + tuple(accumulator.result() for accumulator in groups[key]))
    result = Relation(schema, rows)
    if having is not None:
        result = result.select(having)
    return result
