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

from itertools import compress
from operator import add, itemgetter, or_
from typing import Sequence

from repro.errors import WarehouseError
from repro.gmdj import operator
from repro.gmdj.expression import BaseSource, MDStep
from repro.relalg.relation import Relation, tuple_getter
from repro.relalg.schema import Schema
from repro.warehouse.storage import LocalWarehouse


class SkallaSite:
    """One local data warehouse plus its query-evaluation logic."""

    def __init__(self, site_id: str, warehouse: LocalWarehouse):
        self.site_id = site_id
        self.warehouse = warehouse

    # -- round handlers ----------------------------------------------------------

    def compute_base(self, source: BaseSource) -> Relation:
        """Evaluate the base-values query over the local partition."""
        return source.evaluate(self.warehouse.tables())

    def evaluate_round(
        self,
        base_fragment: Relation,
        steps: Sequence[MDStep],
        key_attrs: Sequence[str],
        independent_reduction: bool,
    ) -> Relation:
        """Evaluate one round's steps locally; return the shipped Hᵢ.

        ``base_fragment`` is this site's fragment of X (already decoded
        from the wire). For multi-step rounds the steps chain locally:
        each step's *finalized* output becomes the next step's base —
        correct precisely under the optimizer-verified Corollary 1
        precondition that every group's detail data is site-local.
        """
        detail = self.warehouse.table(steps[0].detail)
        current_base = base_fragment
        key_of = tuple_getter(base_fragment.schema.positions(key_attrs))
        # H_i's rows, column group by column group: the key attributes, then
        # each step's sub columns (its sub-result minus its base's columns).
        rows = map(key_of, base_fragment.rows)
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
            sub_columns = itemgetter(slice(len(current_base.schema), None))
            rows = map(add, rows, map(sub_columns, sub.rows))
            touched_any = (
                touched if touched_any is None else list(map(or_, touched_any, touched))
            )
            if not is_last:
                current_base = full

        if independent_reduction:
            rows = compress(rows, touched_any)

        attributes = list(base_fragment.schema.project(key_attrs).attributes)
        for step in steps:
            for block in step.blocks:
                attributes.extend(block.sub_attributes())
        return Relation(Schema(attributes), rows)

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
