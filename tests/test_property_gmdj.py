"""Property-based tests for GMDJ evaluation and distributed correctness.

Three levels of the paper's correctness story, each under randomized
data, partitionings and optimization toggles:

1. hash-based GMDJ == brute-force Definition 1;
2. Theorem 1: sub/super synchronization == direct evaluation under any
   partition of the detail relation;
3. Theorem 3: the full distributed pipeline == centralized evaluation,
   with Theorem 2's traffic bound respected.

The reference side is brute force or the row oracle scan
(``tests/oracle/``).
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_relations_equal, brute_force_gmdj
from oracle import row_scan
from oracle.accumulate import ComponentAccumulator, HolisticAccumulator
from repro.distributed import (
    ExecutionConfig,
    OptimizationOptions,
    SimulatedCluster,
    execute_query,
)
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import DistinctBase, GMDJExpression, MDStep
from repro.gmdj.operator import evaluate, evaluate_sub, super_aggregate
from repro.relalg import columnar
from repro.relalg.aggregates import (
    ALGEBRAIC,
    AggregateFunction,
    AggSpec,
    Component,
    count_star,
    register_aggregate,
)
from repro.relalg.expressions import BASE_VAR, DETAIL_VAR, Field, base, detail
from repro.relalg.predicates import split_condition
from repro.relalg.relation import Relation
from repro.relalg.schema import FLOAT, INT, Schema
from repro.warehouse.partition import ValueListPartitioner

DETAIL_SCHEMA = Schema.of(("g", INT), ("h", INT), ("v", FLOAT))

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


@given(rows=detail_rows, raw_blocks=blocks_strategy)
@settings(max_examples=50, deadline=None)
def test_hash_evaluation_matches_brute_force(rows, raw_blocks):
    detail_relation = Relation(DETAIL_SCHEMA, rows)
    base_relation = detail_relation.distinct_project(["g", "h"])
    blocks = build_blocks(raw_blocks)
    evaluated = evaluate(base_relation, detail_relation, blocks)
    assert_relations_equal(
        evaluated, brute_force_gmdj(base_relation, detail_relation, blocks)
    )


@given(
    rows=detail_rows,
    raw_blocks=blocks_strategy,
    assignment=st.lists(st.integers(min_value=0, max_value=3), min_size=60, max_size=60),
)
@settings(max_examples=50, deadline=None)
def test_theorem1_random_partitions(rows, raw_blocks, assignment):
    detail_relation = Relation(DETAIL_SCHEMA, rows)
    base_relation = detail_relation.distinct_project(["g", "h"])
    blocks = build_blocks(raw_blocks)
    pieces = [[] for _index in range(4)]
    for row, site in zip(rows, assignment):
        pieces[site].append(row)
    h = None
    for piece in pieces:
        h_i, _touched = evaluate_sub(
            base_relation, Relation(DETAIL_SCHEMA, piece), blocks
        )
        h = h_i if h is None else h.union_all(h_i)
    merged = super_aggregate(base_relation, h, ["g", "h"], blocks)
    with row_scan():
        reference = evaluate(base_relation, detail_relation, blocks)
    assert_relations_equal(merged, reference)


@given(
    rows=detail_rows,
    toggles=st.tuples(
        st.booleans(), st.booleans(), st.booleans(), st.booleans(), st.booleans()
    ),
    correlated=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_distributed_matches_centralized_random_options(rows, toggles, correlated):
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
    with row_scan():
        reference = expression.evaluate_centralized(cluster.conceptual_tables())
    result = execute_query(cluster, expression, options)
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
    row_block_size=st.sampled_from([0, 2]),
)
@settings(max_examples=60, deadline=None)
def test_observed_reduction_changes_traffic_never_the_answer(
    rows, stages, site_count, partition_attr, toggles, row_block_size,
):
    cluster = SimulatedCluster.with_sites(site_count)
    cluster.load_partitioned(
        "T",
        Relation(NESTED_SCHEMA, rows),
        ValueListPartitioner.spread(partition_attr, range(6), site_count),
    )
    expression = nested_expression(stages)
    coalescing, sync_reduction, independent, pruning = toggles
    config = ExecutionConfig(row_block_size=row_block_size)

    def run(aware):
        options = OptimizationOptions(
            coalescing, sync_reduction, aware, independent, pruning
        )
        return execute_query(cluster, expression, options, config=config)

    narrowed, plain = run(True), run(False)
    with row_scan():
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
        # Without Proposition 1 a site answers with all it was shipped. With
        # it, a site answers with the groups it touched, which both runs
        # ship it — unless addressing them costs more bytes than the
        # untouched rows do, and it answers with every row it was shipped.
        if independent:
            for site, with_site in with_stats.sites.items():
                without_site = without_stats.sites[site]
                assert (
                    with_site.tuples_up == without_site.tuples_up
                    or with_site.tuples_up == with_site.tuples_down
                    or without_site.tuples_up == without_site.tuples_down
                )
        else:
            assert with_stats.tuples_up <= without_stats.tuples_up
        if marked[index]:
            assert with_stats.tuples_down <= without_stats.tuples_down
    if not any(marked) and not any(
        md_round.ship_filters for md_round in narrowed.plan.rounds
    ):
        assert narrowed.stats.bytes_total == plain.stats.bytes_total


# -- the scan is the row oracle, by repr, on adversarial data -----------------

ADVERSARIAL_SCHEMA = Schema.of(("g", INT), ("h", INT), ("i", INT), ("f", FLOAT))

# Keys collide across types (1, 1.0, True) and are NULL; ints sit at the
# int64 view's edges; floats carry NaN, both zeros, both infinities and
# denormals. Half the examples also hide bools among the ints, ints among
# the floats and ints past 2**53, which turns a column's view to objects.
_INT_EDGES = [None, 0, 2, -3, 2**53, -(2**53), 2**53 - 1]
_FLOAT_EDGES = [
    None, 0.0, -0.0, 1.5, -2.5, math.inf, -math.inf, math.nan, math.nan,
    5e-324, -5e-324, 1e308, 2.0**53 + 4,
]


@st.composite
def adversarial_rows(draw):
    """Rows over a small per-example palette of values per column, so the
    edge values meet: a NaN first in a group, a group of ``-0.0`` only."""
    mixed = draw(st.booleans())
    ints = _INT_EDGES + ([2**53 + 1, 2**62, 2**63 - 1, -(2**63), True, False] if mixed else [])
    floats = _FLOAT_EDGES + ([3, True] if mixed else [])
    keys = [None, 0, 1, 2, 3] + ([1.0, True, 2.0] if mixed else [])

    def palette(values, ordinary):
        return st.sampled_from(
            draw(st.lists(st.sampled_from(values) | ordinary, min_size=1, max_size=4))
        )

    row = st.tuples(
        palette(keys, st.nothing()),
        palette(keys, st.nothing()),
        palette(ints, st.integers(-5, 5)),
        palette(floats, st.floats(-100, 100)),
    )
    return draw(st.lists(row, min_size=4, max_size=40))


# theta: equality atoms (fields and computed), then one more conjunct over
# the detail only or over both sides; every node of the closed set occurs.
ADVERSARIAL_KEYS = [
    base.g == detail.g,
    (base.g == detail.g) & (base.h == detail.h),
    base.h == detail.h * 1,
    (base.g == detail.g) & (base.h == -(-detail.h)),
    None,  # no equality atom: the nested loop
    base.h * 1 == detail.h,  # a computed base side: the base key's batch kernel
    (base.g == detail.g) & (-(-base.h) == detail.h),
]
ADVERSARIAL_CONJUNCTS = [
    None,
    detail.f > 0,
    ~detail.f.is_null(),
    detail.i.is_in([0, 1, 2**53, True]),
    (detail.i + detail.f).is_in([0.0, 2.0]),
    detail.f.between(-1, base.h),
    (detail.i % 3 == 1) | (detail.f != detail.f),
    ~(detail.i < base.g),
    -detail.f < 5,
    detail.f / detail.i >= base.g,
    detail.i + 3 >= detail.f,  # 2**53 + 3 against 2.0**53 + 4: exact, not rounded
    (detail.i * detail.i > 2**60) & (detail.f <= 1e300),
    base.h.is_null() | (detail.i - base.g == 0),
    base.h > 0,  # base-only: the base rows' selection vector
    base.h.is_null() | (base.g % 2 == 0),
]
ADVERSARIAL_INPUTS = [
    detail.f,
    detail.f,
    detail.i,
    detail.i,
    (detail.f > 0) + (detail.i < 0),  # True + True is 2
    detail.f * detail.i,
    detail.i + detail.i,
    detail.f / detail.i,
    detail.i % 7,
    -detail.f,
    detail.f > 0,
    detail.g,
    detail.i.between(-1, 1),
]


def test_the_adversarial_conditions_reach_the_base_side_paths():
    """The oracle property diffs the base rows' selection vector and the
    computed base key only if some drawn θ has a base-only conjunct and
    an equality atom whose base side is not a field."""
    for conjunct in ADVERSARIAL_CONJUNCTS[-2:]:
        split = split_condition(conjunct, BASE_VAR, DETAIL_VAR)
        assert [c.key() for c in split.base_only] == [conjunct.key()]
        assert not (split.atoms or split.detail_only or split.residual)
    for key, base_side in zip(ADVERSARIAL_KEYS[-2:], (base.h * 1, -(-base.h))):
        split = split_condition(key, BASE_VAR, DETAIL_VAR)
        assert not (split.base_only or split.detail_only or split.residual)
        computed = [atom for atom in split.atoms if not isinstance(atom.base_expr, Field)]
        assert [atom.base_expr.key() for atom in computed] == [base_side.key()]


class _NullCount(Component):
    """Counts the NULLs it is fed into a one-element list, in place: a
    kind the kernels do not know, so the scan folds it through ``update``
    — every value, NULL included, each group from its own list."""

    kind = "nullcount"

    def initial(self):
        return [0]

    def update(self, accumulator, value):
        if value is None:
            accumulator[0] += 1
        return accumulator

    def combine(self, left, right):
        return [left[0] + right[0]]


class _NullCountFunction(AggregateFunction):
    name = "nullcount"
    classification = ALGEBRAIC
    result_type = INT

    def components(self):
        return (("", _NullCount()),)

    def finalize(self, component_values):
        return component_values[0][0]


register_aggregate("nullcount", lambda star: _NullCountFunction(), replace=True)

ADVERSARIAL_FUNCTIONS = [
    "count", "sum", "min", "max", "avg", "var", "std", "geomean",
    "median", "count_distinct", "nullcount",
]

adversarial_blocks = st.lists(
    st.tuples(
        st.integers(0, len(ADVERSARIAL_KEYS) - 1),
        st.integers(0, len(ADVERSARIAL_CONJUNCTS) - 1),
        st.lists(
            st.tuples(
                st.sampled_from(ADVERSARIAL_FUNCTIONS + ["count_star"]),
                st.integers(0, len(ADVERSARIAL_INPUTS) - 1),
            ),
            min_size=1,
            max_size=4,
        ),
    ),
    min_size=1,
    max_size=2,
)


def adversarial_gmdj(raw_blocks):
    blocks = []
    for block_index, (key, conjunct, aggs) in enumerate(raw_blocks):
        parts = [
            part
            for part in (ADVERSARIAL_KEYS[key], ADVERSARIAL_CONJUNCTS[conjunct])
            if part is not None
        ]
        if not parts:
            parts = [detail.i >= base.g]
        condition = parts[0] if len(parts) == 1 else parts[0] & parts[1]
        specs = [
            count_star(f"c{block_index}_{index}")
            if name == "count_star"
            else AggSpec(name, ADVERSARIAL_INPUTS[input_index], f"a{block_index}_{index}")
            for index, (name, input_index) in enumerate(aggs)
        ]
        blocks.append(MDBlock(specs, condition))
    return blocks


def outcome(function, *args):
    try:
        result = function(*args)
    except Exception as error:  # noqa: BLE001 - both scans must fail alike
        return ("raised", type(error).__name__)
    relations = result if isinstance(result, tuple) else (result,)
    return [
        [repr(value) for value in row] if isinstance(relation, Relation) else relation.tolist()
        for relation in relations
        for row in (relation.rows if isinstance(relation, Relation) else [relation])
    ]


_NAN = math.nan


@given(
    rows=adversarial_rows(),
    raw_blocks=adversarial_blocks,
    duplicates=st.integers(0, 3),
    width=st.integers(1, 2),
    dropped=st.frozensets(st.integers(0, 5), max_size=3),
)
@settings(deadline=None)  # max_examples: the hypothesis profile (CI runs more)
# One pinned example per rule the lowering keeps; the draws explore the rest.
# A NaN wins MIN/MAX only as a group's first value; -0.0 + -0.0 stays -0.0.
@example([(0, 0, 1, _NAN), (0, 0, 2, 2.0), (1, 0, 3, -0.0), (1, 0, 4, 0.0), (2, 0, 5, -0.0)],
         [(0, 0, [("min", 0), ("max", 0), ("sum", 0)])], 0, 2, frozenset())
# NaN passes GEOMEAN's ``value <= 0`` test; 2**53 + 3 is not 2.0**53 + 4.
@example([(0, 0, 2**53, _NAN), (0, 0, 2**53, 2.0**53 + 4), (1, 0, 1, 2.0)],
         [(0, 10, [("count_star", 0)]), (0, 0, [("geomean", 0)])], 1, 2, frozenset())
# Bools: True + True is 2 in arithmetic and in SUM, a lone True stays True.
@example([(0, 0, True, 1.5), (0, 0, -2, 2.5), (1, 1, True, 0.5)],
         [(1, 0, [("sum", 4), ("sum", 2), ("max", 2)])], 0, 2, frozenset())
# A custom kind sees every NULL, each group counting into its own list.
@example([(0, 0, None, 1.0), (0, 0, 1, 2.0), (1, 0, 2, 3.0)],
         [(0, 0, [("nullcount", 2)])], 0, 2, frozenset())
# Holistic: each group's values in order, NULL included; a field's NaN is
# one object, so COUNT_DISTINCT counts it once, a computed NaN each time.
@example([(0, 0, 1, _NAN), (0, 0, 2, _NAN), (0, 0, None, None), (1, 0, 1, -0.0), (1, 0, 2, 0.0)],
         [(0, 0, [("count_distinct", 0), ("median", 0), ("count_distinct", 9)])], 1, 2, frozenset())
# Two NULL-free int key attributes: the composite probe, a residual, AVG.
@example([(0, 1, 1, 1.0), (0, 2, 2, 2.0), (3, 1, 3, -0.0), (0, 1, 4, 0.5), (3, 2, 5, _NAN)],
         [(1, 1, [("sum", 0), ("avg", 0), ("count_star", 0)])], 0, 2, frozenset())
# Base-only conjuncts prefilter the base; computed base sides key the table.
@example([(0, 1, 1, 1.0), (1, None, 2, 2.0), (2, -1, 3, 3.0), (0, 2, 4, 4.0), (2, True, 5, 5.0)],
         [(5, 13, [("sum", 0), ("count_star", 0)]), (6, 14, [("count", 2)])], 2, 2, frozenset())
# S1's stage 2: one base row per one-field key, a residual reading the base.
@example([(0, 1, 1, 1.0), (1, 2, 2, 2.5), (0, 2, 0, -1.0), (2, 1, 3, 0.5), (1, 1, 1, _NAN)],
         [(0, 5, [("count_star", 0), ("sum", 0)]), (0, 7, [("avg", 1)])], 0, 1, frozenset())
# A non-NULL key with no base row: the input never sees its rows (2.0 * "x").
@example([(0, 0, 1, 1.0), (1, 0, "x", 2.0), (0, 1, 2, 3.0)],
         [(0, 0, [("sum", 5), ("count_star", 0)])], 0, 1, frozenset({1}))
# Base rows no key reaches (NULL keys), each with its own ``initial()``.
@example([(0, None, None, 1.0), (None, 0, 1, 2.0), (0, 0, None, 3.0), (1, 0, 2, 4.0)],
         [(1, 0, [("nullcount", 2)])], 0, 2, frozenset())
# A computed detail key: a NULL in its field part is no 0 (its int64 view's fill).
@example([(None, 0, 1, 1.0), (0, 0, 2, 2.0)], [(3, 0, [("count_star", 0)])], 0, 2, frozenset())
def test_the_scan_is_the_oracle_by_repr(rows, raw_blocks, duplicates, width, dropped):
    with pytest.MonkeyPatch.context() as patch:
        # Int keys of two attributes take the composite path at any size.
        patch.setattr(columnar, "COMPOSITE_MIN_ROWS", 0)
        check_the_scan_against_the_oracle(rows, raw_blocks, duplicates, width, dropped)


def adversarial_base(detail_relation, duplicates, width, dropped):
    """The base: one row per distinct key of the first ``width`` of
    ``g, h`` (its first ``(g, h)`` row), less the keys at the indices in
    ``dropped``, then ``duplicates`` rows repeated. A key of one base row
    each folds by key code; a dropped key's rows meet no base row."""
    distinct = detail_relation.distinct_project(["g", "h"])
    firsts: dict = {}
    for row in distinct.rows:
        firsts.setdefault(row[:width], row)
    kept = [row for index, row in enumerate(firsts.values()) if index not in dropped]
    # Duplicate base keys: one detail row folds into several groups.
    return Relation(distinct.schema, kept + kept[:duplicates])


def check_the_scan_against_the_oracle(rows, raw_blocks, duplicates, width, dropped):
    detail_relation = Relation(ADVERSARIAL_SCHEMA, rows)
    base_relation = adversarial_base(detail_relation, duplicates, width, dropped)
    blocks = adversarial_gmdj(raw_blocks)

    def no_accumulators(self, function):
        raise AssertionError(f"the scan built an accumulator for {function.name}")

    for run in (evaluate, evaluate_sub):
        with row_scan():
            expected = outcome(run, base_relation, detail_relation, blocks)
        with pytest.MonkeyPatch.context() as patch:
            for accumulator in (ComponentAccumulator, HolisticAccumulator):
                patch.setattr(accumulator, "__init__", no_accumulators)
            assert outcome(run, base_relation, detail_relation, blocks) == expected


def test_base_rows_no_key_reaches_hold_their_own_state():
    """A scan folding by key code keeps one slot for the base rows no key
    reaches; each such row still gets its own ``initial()``, so a mutable
    state is never shared between groups."""
    detail_relation = Relation(
        ADVERSARIAL_SCHEMA, [(0, None, None, 1.0), (None, 0, 1, 2.0), (0, 0, None, 3.0), (1, 0, 2, 4.0)]
    )
    base_relation = adversarial_base(detail_relation, 0, 2, frozenset())
    sub, touched = evaluate_sub(base_relation, detail_relation, adversarial_gmdj([(1, 0, [("nullcount", 2)])]))
    states = [row[-1] for row in sub.rows]
    assert states == [[0], [0], [1], [0]] and touched.tolist() == [False, False, True, True]
    assert len({id(state) for state in states}) == len(states)
