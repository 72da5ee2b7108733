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


# -- observed-distribution group reduction is invisible in the answer ---------

NESTED_SCHEMA = Schema.of(("g", INT), ("h", INT), ("w", INT), ("v", FLOAT))
NESTED_KEY = (base.g == detail.g) & (base.h == detail.h)

nested_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.none() | st.floats(min_value=-100, max_value=100, allow_nan=False),
    ),
    max_size=60,
)


def nested_residual(kind, step):
    """One more conjunct for step ``step`` (>= 1), over the step before's outputs."""
    return [
        detail.v >= getattr(base, f"m{step - 1}"),
        getattr(base, f"c{step - 1}") > 1,
        detail.v < 50,
        detail.w >= base.h,
    ][kind]


def nested_expression(stages):
    """``stages``: per step after the first, ``(residual kind, keeps)`` —
    a step that ``keeps`` conjoins its residual to the step before's whole
    condition (so it entails it); one that does not starts again from K."""
    steps = [
        MDStep(
            "T",
            [MDBlock([count_star("c0"), AggSpec("avg", detail.v, "m0")], NESTED_KEY)],
        )
    ]
    condition = NESTED_KEY
    for step, (kind, keeps) in enumerate(stages, start=1):
        residual = nested_residual(kind, step)
        condition = (condition if keeps else NESTED_KEY) & residual
        steps.append(
            MDStep(
                "T",
                [
                    MDBlock(
                        [count_star(f"c{step}"), AggSpec("avg", detail.v, f"m{step}")],
                        condition,
                    )
                ],
            )
        )
    return GMDJExpression(DistinctBase("T", ["g", "h"]), steps)


@given(
    rows=nested_rows,
    stages=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), st.booleans()),
        min_size=1,
        max_size=3,
    ),
    site_count=st.sampled_from([1, 2, 3, 4, 8]),
    partition_attr=st.sampled_from(["g", "w"]),  # a key / not a key
    toggles=st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()),
    engine=engines,
    executor=st.sampled_from(["serial", "threads"]),
    row_block_size=st.sampled_from([0, 2]),
)
@settings(max_examples=60, deadline=None)
def test_observed_reduction_changes_traffic_never_the_answer(
    rows, stages, site_count, partition_attr, toggles, engine, executor,
    row_block_size,
):
    cluster = SimulatedCluster.with_sites(site_count)
    cluster.load_partitioned(
        "T",
        Relation(NESTED_SCHEMA, rows),
        ValueListPartitioner.spread(partition_attr, range(6), site_count),
    )
    expression = nested_expression(stages)
    coalescing, sync_reduction, independent, pruning = toggles
    config = ExecutionConfig(
        engine=engine, executor=executor, row_block_size=row_block_size
    )

    def run(aware):
        options = OptimizationOptions(
            coalescing, sync_reduction, aware, independent, pruning
        )
        return execute_query(cluster, expression, options, config=config)

    narrowed, plain = run(True), run(False)
    with use_engine("row"):
        reference = expression.evaluate_centralized(cluster.conceptual_tables())
    assert_relations_equal(reference, narrowed.relation)
    # Bit for bit, row order included: the fold saw the same rows.
    assert narrowed.relation.rows == plain.relation.rows
    assert narrowed.respects_theorem2()

    marked = [md_round.observed_reduction for md_round in narrowed.plan.rounds]
    assert not any(md_round.observed_reduction for md_round in plain.plan.rounds)
    # Proved or not applied: a round is marked exactly when its step holds
    # every residual of the step before (a plan of one step a round here).
    if len(narrowed.plan.rounds) == len(stages) + 1:
        expected, held = [False], set()
        for step, (kind, keeps) in enumerate(stages, start=1):
            residual = nested_residual(kind, step).key()
            expected.append(keeps or held <= {residual})
            held = (held if keeps else set()) | {residual}
        assert marked == expected
    for index, (with_stats, without_stats) in enumerate(
        zip(narrowed.stats.rounds[-len(marked):], plain.stats.rounds[-len(marked):])
    ):
        # Proposition 1 already answers with the touched groups only;
        # without it a site answers with all it was shipped.
        if independent:
            assert with_stats.tuples_up == without_stats.tuples_up
        else:
            assert with_stats.tuples_up <= without_stats.tuples_up
        if marked[index]:
            assert with_stats.tuples_down <= without_stats.tuples_down
    if not any(marked) and not any(
        md_round.ship_filters for md_round in narrowed.plan.rounds
    ):
        assert narrowed.stats.bytes_total == plain.stats.bytes_total
