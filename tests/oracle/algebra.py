"""Relational algebra over :class:`~repro.relalg.relation.Relation`: the
baselines the tests compare GMDJ evaluation against.

The pipeline evaluates a query as GMDJ rounds, whose groups may overlap
(Section 2.2 of the paper); it runs no join and no SQL ``GROUP BY``.
These operators are kept beside the suite as the conventional answers:
joins, multiset difference and :func:`group_by`, which folds one
:mod:`oracle.accumulate` object per (group, aggregate) row by row.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from oracle.accumulate import accumulator
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
    right_count = len(right.rows)
    right_rows = right.rows
    rows = []
    for index, l_row in enumerate(left.rows):
        sources = {
            BASE_VAR: (left, np.full(right_count, index)),
            DETAIL_VAR: (right, None),
        }
        for r_index in mask(right_count, sources).tolist():
            rows.append(l_row + right_rows[r_index])
    return Relation(schema, rows)


def _keys(relation: Relation, names: Sequence[str]) -> set:
    positions = relation.schema.positions(names)
    return {tuple(row[position] for position in positions) for row in relation.rows}


def semijoin(left: Relation, right: Relation, pairs: Sequence[tuple]) -> Relation:
    """Left rows with at least one equi-match in ``right``."""
    keys = _keys(right, [pair[1] for pair in pairs])
    positions = left.schema.positions([pair[0] for pair in pairs])
    return Relation(
        left.schema,
        (row for row in left.rows if tuple(row[position] for position in positions) in keys),
    )


def antijoin(left: Relation, right: Relation, pairs: Sequence[tuple]) -> Relation:
    """Left rows with no equi-match in ``right``."""
    keys = _keys(right, [pair[1] for pair in pairs])
    positions = left.schema.positions([pair[0] for pair in pairs])
    return Relation(
        left.schema,
        (row for row in left.rows if tuple(row[position] for position in positions) not in keys),
    )


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
    """Conventional SQL GROUP BY aggregation (disjoint groups), groups in
    first-seen order.

    Aggregate input expressions see the relation unqualified or via the
    ``detail`` namespace.
    """
    key_positions = relation.schema.positions(keys)
    schemas = {DETAIL_VAR: relation.schema, None: relation.schema}
    input_funcs = [
        None
        if spec.input_expr is None
        else compiler.compile_scalar(spec.input_expr, schemas, (DETAIL_VAR,), {None: DETAIL_VAR})
        for spec in aggs
    ]
    groups: dict = {}
    for row in relation.rows:
        key = tuple(row[position] for position in key_positions)
        accumulators = groups.get(key)
        if accumulators is None:
            accumulators = groups[key] = [accumulator(spec) for spec in aggs]
        for state, input_func in zip(accumulators, input_funcs):
            state.update(None if input_func is None else input_func(row))
    schema = relation.schema.project(keys).concat(
        Schema([spec.result_attribute() for spec in aggs])
    )
    result = Relation(
        schema,
        [key + tuple(state.result() for state in states) for key, states in groups.items()],
    )
    if having is not None:
        result = result.select(having)
    return result
