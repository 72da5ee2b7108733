"""Property-based tests for GMDJ evaluation and distributed correctness.

Three levels of the paper's correctness story, each under randomized
data, partitionings and optimization toggles:

1. hash-based GMDJ == brute-force Definition 1;
2. Theorem 1: sub/super synchronization == direct evaluation under any
   partition of the detail relation;
3. Theorem 3: the full distributed pipeline == centralized evaluation,
   with Theorem 2's traffic bound respected.

The engine under test is one more drawn input; the reference side is
brute force or the row engine, whatever the ambient default is.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_relations_equal, brute_force_gmdj
from repro.distributed import (
    ExecutionConfig,
    OptimizationOptions,
    SimulatedCluster,
    execute_query,
)
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import DistinctBase, GMDJExpression, MDStep
from repro.gmdj.operator import evaluate, evaluate_sub, super_aggregate
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.engine import ENGINES, use_engine
from repro.relalg.expressions import base, detail
from repro.relalg.relation import Relation
from repro.relalg.schema import FLOAT, INT, Schema
from repro.warehouse.partition import ValueListPartitioner

DETAIL_SCHEMA = Schema.of(("g", INT), ("h", INT), ("v", FLOAT))

engines = st.sampled_from(ENGINES)

detail_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=3),
        st.none() | st.floats(min_value=-100, max_value=100, allow_nan=False),
    ),
    min_size=0,
    max_size=60,
)

CONDITIONS = [
    base.g == detail.g,
    (base.g == detail.g) & (base.h == detail.h),
    (base.g == detail.g) & (detail.v > 0),
    detail.v >= base.g * 10,
    (base.h == detail.h) & (detail.g >= base.g),
]

AGG_CHOICES = [
    lambda i: count_star(f"c{i}"),
    lambda i: AggSpec("sum", detail.v, f"s{i}"),
    lambda i: AggSpec("avg", detail.v, f"a{i}"),
    lambda i: AggSpec("min", detail.v, f"lo{i}"),
    lambda i: AggSpec("max", detail.v, f"hi{i}"),
]

blocks_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(CONDITIONS) - 1),
        st.lists(
            st.integers(min_value=0, max_value=len(AGG_CHOICES) - 1),
            min_size=1,
            max_size=3,
        ),
    ),
    min_size=1,
    max_size=2,
)


def build_blocks(raw):
    blocks = []
    counter = 0
    for condition_index, agg_indices in raw:
        aggs = []
        for agg_index in agg_indices:
            aggs.append(AGG_CHOICES[agg_index](counter))
            counter += 1
        blocks.append(MDBlock(aggs, CONDITIONS[condition_index]))
    return blocks


@given(rows=detail_rows, raw_blocks=blocks_strategy, engine=engines)
@settings(max_examples=50, deadline=None)
def test_hash_evaluation_matches_brute_force(rows, raw_blocks, engine):
    detail_relation = Relation(DETAIL_SCHEMA, rows)
    base_relation = detail_relation.distinct_project(["g", "h"])
    blocks = build_blocks(raw_blocks)
    with use_engine(engine):
        evaluated = evaluate(base_relation, detail_relation, blocks)
    assert_relations_equal(
        evaluated, brute_force_gmdj(base_relation, detail_relation, blocks)
    )


@given(
    rows=detail_rows,
    raw_blocks=blocks_strategy,
    assignment=st.lists(st.integers(min_value=0, max_value=3), min_size=60, max_size=60),
    engine=engines,
)
@settings(max_examples=50, deadline=None)
def test_theorem1_random_partitions(rows, raw_blocks, assignment, engine):
    detail_relation = Relation(DETAIL_SCHEMA, rows)
    base_relation = detail_relation.distinct_project(["g", "h"])
    blocks = build_blocks(raw_blocks)
    pieces = [[] for _index in range(4)]
    for row, site in zip(rows, assignment):
        pieces[site].append(row)
    h = None
    with use_engine(engine):
        for piece in pieces:
            h_i, _touched = evaluate_sub(
                base_relation, Relation(DETAIL_SCHEMA, piece), blocks
            )
            h = h_i if h is None else h.union_all(h_i)
        merged = super_aggregate(base_relation, h, ["g", "h"], blocks)
    with use_engine("row"):
        reference = evaluate(base_relation, detail_relation, blocks)
    assert_relations_equal(merged, reference)


@given(
    rows=detail_rows,
    toggles=st.tuples(
        st.booleans(), st.booleans(), st.booleans(), st.booleans(), st.booleans()
    ),
    correlated=st.booleans(),
    engine=engines,
)
@settings(max_examples=40, deadline=None)
def test_distributed_matches_centralized_random_options(
    rows, toggles, correlated, engine
):
    detail_relation = Relation(DETAIL_SCHEMA, rows)
    cluster = SimulatedCluster.with_sites(3)
    cluster.load_partitioned(
        "T", detail_relation, ValueListPartitioner.spread("g", range(6), 3)
    )
    key = base.g == detail.g
    steps = [
        MDStep("T", [MDBlock([count_star("c1"), AggSpec("avg", detail.v, "m")], key)])
    ]
    if correlated:
        steps.append(
            MDStep("T", [MDBlock([count_star("c2")], key & (detail.v >= base.m))])
        )
    else:
        steps.append(
            MDStep("T", [MDBlock([count_star("c2")], key & (detail.v < 0))])
        )
    expression = GMDJExpression(DistinctBase("T", ["g"]), steps)
    options = OptimizationOptions(*toggles)
    with use_engine("row"):
        reference = expression.evaluate_centralized(cluster.conceptual_tables())
    result = execute_query(
        cluster, expression, options, config=ExecutionConfig(engine=engine)
    )
    assert_relations_equal(reference, result.relation)
    assert result.respects_theorem2()
