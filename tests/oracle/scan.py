"""The row GMDJ scan: one accumulator per (group, aggregate), row by row.

This is the scan the production operator ran before its vector kernels,
kept unchanged as their reference: per block, the base-only conjuncts
filter the base rows, the equality atoms build a hash table over them,
and each detail row that passes the detail-only conjuncts probes it,
checks the residual per candidate pair and feeds every aggregate's
:class:`oracle.accumulate.Accumulator` of the groups it reaches
— predicates, keys and inputs through the row kernels of
:mod:`repro.relalg.compiler`. It hands its state over as the same
columns :func:`repro.gmdj.operator._accumulate` returns, so
:func:`row_scan` can swap it in for that function and the rest of the
system (finalize, H_i, the coordinator's fold) runs unchanged on top.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from oracle.accumulate import accumulator
from repro.gmdj import operator
from repro.relalg import compiler
from repro.relalg.expressions import BASE_VAR, DETAIL_VAR
from repro.relalg.predicates import split_condition


def accumulate(base, detail, blocks, track_touch):
    """:func:`repro.gmdj.operator._accumulate`, one row at a time."""
    base_schemas = {BASE_VAR: base.schema}
    detail_schemas = {DETAIL_VAR: detail.schema, None: detail.schema}
    both_schemas = {BASE_VAR: base.schema, **detail_schemas}
    detail_aliases = {None: DETAIL_VAR}
    touched = np.zeros(len(base.rows), dtype=bool) if track_touch else None
    accumulators = []
    tuples_examined = 0

    for block in blocks:
        block_accumulators = [
            [accumulator(spec) for spec in block.aggregates] for _row in base.rows
        ]
        accumulators.append(block_accumulators)
        input_kernels = [
            None
            if spec.input_expr is None
            else compiler.compile_scalar(
                spec.input_expr, detail_schemas, (DETAIL_VAR,), aliases=detail_aliases
            )
            for spec in block.aggregates
        ]
        split = split_condition(block.condition, BASE_VAR, DETAIL_VAR)

        # Base rows that can possibly match (base-only conjuncts).
        if split.base_only:
            base_admits = compiler.compile_predicate(
                split.base_only, base_schemas, (BASE_VAR,)
            )
            candidate_base = [
                index for index, row in enumerate(base.rows) if base_admits(row)
            ]
        else:
            candidate_base = range(len(base.rows))

        # Detail rows that can possibly match (detail-only conjuncts).
        if split.detail_only:
            detail_admits = compiler.compile_predicate(
                split.detail_only, detail_schemas, (DETAIL_VAR,), aliases=detail_aliases
            )
            detail_rows = [row for row in detail.rows if detail_admits(row)]
        else:
            detail_rows = detail.rows

        residual = (
            compiler.compile_predicate(
                split.residual,
                both_schemas,
                (BASE_VAR, DETAIL_VAR),
                aliases=detail_aliases,
            )
            if split.residual
            else None
        )
        tuples_examined += len(detail_rows)
        base_rows = base.rows

        if split.hashable:
            base_key = compiler.compile_values(
                [atom.base_expr for atom in split.atoms], base_schemas, (BASE_VAR,)
            )
            detail_key = compiler.compile_values(
                [atom.detail_expr for atom in split.atoms],
                detail_schemas,
                (DETAIL_VAR,),
                aliases=detail_aliases,
            )
            # NULL keys never match under SQL equality semantics, so rows
            # with a NULL key component are excluded from build and probe.
            table: dict = {}
            for base_index in candidate_base:
                key = base_key(base_rows[base_index])
                if None in key:
                    continue
                table.setdefault(key, []).append(base_index)

            table_get = table.get
            for detail_row in detail_rows:
                key = detail_key(detail_row)
                if None in key:
                    continue
                matches = table_get(key)
                if not matches:
                    continue
                input_values = [
                    None if kernel is None else kernel(detail_row)
                    for kernel in input_kernels
                ]
                for base_index in matches:
                    if residual is not None and not residual(
                        base_rows[base_index], detail_row
                    ):
                        continue
                    if track_touch:
                        touched[base_index] = True
                    for state, value in zip(
                        block_accumulators[base_index], input_values
                    ):
                        state.update(value)
        else:
            # No equality atoms: nested-loop evaluation, O(|B| * |R|).
            for detail_row in detail_rows:
                input_values = [
                    None if kernel is None else kernel(detail_row)
                    for kernel in input_kernels
                ]
                for base_index in candidate_base:
                    if residual is not None and not residual(
                        base_rows[base_index], detail_row
                    ):
                        continue
                    if track_touch:
                        touched[base_index] = True
                    for state, value in zip(
                        block_accumulators[base_index], input_values
                    ):
                        state.update(value)

    operator._hot_counters()[0].inc(tuples_examined)
    slots: list = []
    columns: list = []
    for block, block_accumulators in zip(blocks, accumulators):
        for agg_index, spec in enumerate(block.aggregates):
            per_row = [row[agg_index] for row in block_accumulators]
            if spec.is_holistic:
                # The one state column: each group's input values.
                own = [[state._values for state in per_row]]
            else:
                values = [state.sub_values() for state in per_row]
                own = [
                    [row_values[position] for row_values in values]
                    for position in range(len(spec.function.components()))
                ]
            slots.append((spec.function, len(columns), len(own)))
            columns.extend(own)
    return slots, columns, touched


@contextlib.contextmanager
def row_scan():
    """Every GMDJ scan started inside runs on :func:`accumulate`.

    That covers the site scans of the in-process executors (``serial``,
    ``threads``); a site-server process does not inherit it.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operator, "_accumulate", accumulate)
        yield
