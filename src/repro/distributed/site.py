"""Skalla sites: the local-warehouse side of Alg. GMDJDistribEval.

A site owns its partition of every fact relation and performs all
detail-data processing — detail tuples never leave the site (Section 3).
Per round, a site:

1. receives its (possibly group-reduced) fragment of the base-result
   structure X — or derives the base locally under Proposition 2;
2. evaluates the round's GMDJ step(s) against its local detail partition,
   producing the sub-aggregate relation Hᵢ; multi-step rounds chain
   locally without synchronization (Theorem 5 / Corollary 1);
3. optionally applies distribution-independent group reduction
   (Proposition 1): rows with |RNG| = 0 across all of the round's
   conditions are dropped from Hᵢ;
4. ships Hᵢ — projected to the key attributes plus sub-aggregate columns
   — back to the coordinator.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import WarehouseError
from repro.gmdj import operator
from repro.gmdj.expression import BaseSource, DistinctBase, MDStep
from repro.relalg.columnar import ColumnarRelation
from repro.relalg.relation import Relation
from repro.relalg.schema import Schema
from repro.warehouse.storage import LocalWarehouse


class SkallaSite:
    """One local data warehouse plus its query-evaluation logic."""

    def __init__(self, site_id: str, warehouse: LocalWarehouse):
        self.site_id = site_id
        self.warehouse = warehouse

    # -- round handlers ----------------------------------------------------------

    def compute_base(self, source: BaseSource) -> Relation:
        """Evaluate the base-values query over the local partition.

        Only the table the source reads is read: a full read concatenates
        that table's append log, and no other table's."""
        name = source.table_name
        return source.evaluate({} if name is None else {name: self.warehouse.table(name)})

    def evaluate_round(
        self,
        base_fragment: Relation,
        steps: Sequence[MDStep],
        key_attrs: Sequence[str],
        independent_reduction: bool,
        since: int = 0,
        grows: Optional[DistinctBase] = None,
    ) -> Relation:
        """Evaluate one round's steps locally; return the shipped Hᵢ.

        ``base_fragment`` is this site's fragment of X (already decoded
        from the wire). For multi-step rounds the steps chain locally:
        each step's *finalized* output becomes the next step's base —
        correct precisely under the optimizer-verified Corollary 1
        precondition that every group's detail data is site-local.

        ``since`` (a table version; 0 is the whole partition) evaluates
        over the rows appended after it: an incremental refresh's round.
        ``grows`` is the distinct base those rows extend: their keys the
        fragment lacks join it as groups and are answered even untouched,
        so the coordinator learns every new group.
        """
        detail = self._detail(steps[0].detail, since)
        fresh_from = len(base_fragment)
        if grows is not None:
            base_fragment = _grown(base_fragment, detail.distinct_project(list(grows.attrs)))
        current_base = base_fragment
        # H_i's columns, column group by column group: the key attributes,
        # then each step's sub columns (its sub-result minus its base's).
        held = base_fragment.to_columnar().value_lists().held()
        columns = [held[position] for position in base_fragment.schema.positions(key_attrs)]
        touched_any = None

        for index, step in enumerate(steps):
            if step.detail != steps[0].detail:
                raise WarehouseError(
                    "chained steps must share one detail table"
                )
            is_last = index == len(steps) - 1
            if is_last:
                sub, touched = operator.evaluate_sub(current_base, detail, step.blocks)
            else:
                full, sub, touched = operator.evaluate_both(
                    current_base, detail, step.blocks
                )
            columns += sub.to_columnar().value_lists().held()[len(current_base.schema):]
            touched_any = touched if touched_any is None else touched_any | touched
            if not is_last:
                current_base = full

        attributes = list(base_fragment.schema.project(key_attrs).attributes)
        for step in steps:
            for block in step.blocks:
                attributes.extend(block.sub_attributes())
        h_i = ColumnarRelation.from_value_lists(Schema(attributes), columns, len(base_fragment))
        if independent_reduction:
            touched_any[fresh_from:] = True
            h_i = h_i.gather(np.flatnonzero(touched_any))
        return Relation.from_columnar(h_i)

    def _detail(self, table_name: str, since: int) -> Relation:
        if not since:
            return self.warehouse.table(table_name)
        rows = self.warehouse.appended_since(table_name, since)
        if rows is None:
            raise WarehouseError(
                f"{self.site_id}: {table_name!r} was replaced after version "
                f"{since}, so the rows appended since are unknown"
            )
        return rows

    def evaluate_merged_round(
        self,
        source: BaseSource,
        steps: Sequence[MDStep],
        key_attrs: Sequence[str],
    ) -> Relation:
        """Proposition 2 round: derive Bᵢ locally, then evaluate the steps.

        Every row of the local base is a locally generated group, so
        independent group reduction has nothing to drop here.
        """
        local_base = self.compute_base(source)
        return self.evaluate_round(
            local_base, steps, key_attrs, independent_reduction=False
        )


def _grown(fragment: Relation, keys: Relation) -> Relation:
    """``fragment`` (distinct keys) followed by the ``keys`` it lacks: the
    first-seen rows of their concatenation's key codes."""
    both = fragment.union_all(keys).to_columnar()
    firsts, _codes = both.codes(range(len(fragment.schema)))
    return Relation.from_columnar(both.gather(firsts))
