"""High-level OLAP query builders that compile to GMDJ expressions.

Section 2.2 argues the GMDJ operator uniformly expresses the OLAP
queries of the literature; this module provides the translations for the
two workhorses:

- plain grouping/aggregation (:func:`group_by_query`);
- *correlated aggregate* queries (:class:`QueryBuilder`), where later
  aggregates are computed relative to earlier ones — the paper's
  Example 1 is ``QueryBuilder`` with two stages.

Each builder produces a :class:`~repro.gmdj.expression.GMDJExpression`
that can be evaluated centrally (``evaluate_centralized``) or shipped to
``repro.distributed.execute_query``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import PlanError
from repro.gmdj.expression import DistinctBase, GMDJExpression, LiteralBase, MDStep
from repro.gmdj.blocks import MDBlock
from repro.relalg.aggregates import AggSpec
from repro.relalg.expressions import BASE_VAR, DETAIL_VAR, Expr, Field
from repro.relalg.predicates import key_equality_condition
from repro.relalg.relation import Relation


def key_condition(keys: Sequence[str]) -> Expr:
    """θ_K: ``b.k == r.k`` for every grouping key."""
    return key_equality_condition(keys, BASE_VAR, DETAIL_VAR)


def group_by_query(
    table: str,
    keys: Sequence[str],
    aggs: Sequence[AggSpec],
    where: Optional[Expr] = None,
) -> GMDJExpression:
    """``SELECT keys, aggs FROM table [WHERE ...] GROUP BY keys`` as a GMDJ.

    ``where`` is an optional detail-side filter folded into the condition
    (it restricts which detail tuples feed the aggregates; the group list
    still comes from the full table, matching the GMDJ formulation).
    """
    condition = key_condition(keys)
    if where is not None:
        condition = condition & where
    step = MDStep(table, [MDBlock(list(aggs), condition)])
    return GMDJExpression(DistinctBase(table, keys), [step])


class QueryBuilder:
    """Fluent builder for correlated-aggregate GMDJ chains.

    Example 1 of the paper::

        expr = (
            QueryBuilder("Flow", keys=["SourceAS", "DestAS"])
            .stage([count_star("cnt1"), AggSpec("sum", detail.NumBytes, "sum1")])
            .stage(
                [count_star("cnt2")],
                extra=detail.NumBytes >= base.sum1 / base.cnt1,
            )
            .build()
        )

    Every stage's condition is the key-equality θ_K conjoined with the
    optional ``extra`` condition (which may reference aggregates computed
    by earlier stages through the ``base`` namespace).
    """

    def __init__(
        self,
        table: str,
        keys: Sequence[str],
        base_relation: Optional[Relation] = None,
    ):
        self._table = table
        self._keys = tuple(keys)
        self._base_relation = base_relation
        self._steps: list = []

    def stage(
        self,
        aggs: Sequence[AggSpec],
        extra: Optional[Expr] = None,
        detail_table: Optional[str] = None,
        blocks: Optional[Sequence[MDBlock]] = None,
    ) -> "QueryBuilder":
        """Append one GMDJ step.

        Either give ``aggs`` (+ optional ``extra`` condition conjoined
        with θ_K), or pass fully custom ``blocks``.
        """
        table = detail_table or self._table
        if blocks is not None:
            self._steps.append(MDStep(table, list(blocks)))
            return self
        condition = key_condition(self._keys)
        if extra is not None:
            condition = condition & extra
        self._steps.append(MDStep(table, [MDBlock(list(aggs), condition)]))
        return self

    def build(self) -> GMDJExpression:
        if not self._steps:
            raise PlanError("QueryBuilder needs at least one stage")
        if self._base_relation is not None:
            source = LiteralBase(self._base_relation, self._keys)
        else:
            source = DistinctBase(self._table, self._keys)
        return GMDJExpression(source, self._steps)


def windowed_comparison_query(
    table: str,
    keys: Sequence[str],
    measure: Expr,
    fraction: float,
    output_prefix: str = "m",
) -> GMDJExpression:
    """"Within x% of the maximum" queries (the paper's second intro query).

    Stage 1 computes ``max(measure)`` per group; stage 2 counts and sums
    the tuples whose measure is within ``fraction`` of that maximum —
    e.g. "traffic from subnets whose hourly total is within 10% of the
    maximum" compiles to ``fraction = 0.10``.
    """
    if not 0 <= fraction <= 1:
        raise PlanError(f"fraction must be in [0, 1], got {fraction}")
    max_name = f"{output_prefix}_max"
    builder = QueryBuilder(table, keys)
    builder.stage([AggSpec("max", measure, max_name)])
    threshold = Field(max_name, BASE_VAR) * (1.0 - fraction)
    builder.stage(
        [
            AggSpec("count", measure, f"{output_prefix}_near_count"),
            AggSpec("sum", measure, f"{output_prefix}_near_sum"),
        ],
        extra=measure >= threshold,
    )
    return builder.build()
