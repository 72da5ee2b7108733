"""Property test: the column fold equals the object fold, bit for bit.

``SyncSession`` and ``merge_sub_results`` used to keep one accumulator
object per (group, aggregate) and fold shipped sub-values through
``load_sub_values`` / ``merge`` / ``result``. They now fold whole columns
with grouped scatters (``compiler.fold_combine``). The bodies they
replaced are kept *here* as the reference; Hypothesis draws the aggregate
functions (every built-in distributive/algebraic one plus a registered
custom component kind with list-valued state), the sub-values (NaN, ±inf,
ints at and past 2**53 and int64, bools among ints, ints among floats),
the base, the sources, their arrival order, each source's answer split
into fragments, ``observes``
and ``in_order`` — and the two sides must agree by ``repr``, so ``0.0``
vs ``-0.0`` and ``1`` vs ``1.0`` differ, and on what each source was
observed to touch.

A row guard rides along: an S5 round trip builds no row tuple between the
site's ``evaluate_round`` and the coordinator's ``commit_sync``.
"""

import math
from collections import Counter

from bench_e2e.workloads import S5_FINE_GROUPS
from conftest import assert_relations_equal
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle.accumulate import accumulator

from repro.data.tpcr import TPCRConfig, generate_tpcr, nation_partitioner, register_tpcr_fds
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.coordinator import Coordinator
from repro.distributed.evaluator import execute_query
from repro.distributed.site import SkallaSite
from repro.gmdj.blocks import MDBlock, result_schema
from repro.gmdj.operator import SyncSession, merge_sub_results
from repro.queries.sql import parse_olap_statement
from repro.relalg import columnar
from repro.relalg.aggregates import (
    ALGEBRAIC,
    AggregateFunction,
    AggSpec,
    Component,
    count_star,
    register_aggregate,
)
from repro.relalg.expressions import base, detail
from repro.relalg.relation import Relation
from repro.relalg.schema import INT, STR, Attribute, Schema


# ---------------------------------------------------------------------------
# A custom component kind: not inlined, and its state is mutable
# ---------------------------------------------------------------------------


class _TopTwoComponent(Component):
    """The two largest values seen, in a list that is mutated in place.

    Its kind is unknown to the kernels (the ``Component.combine`` loop
    runs), and a column built as ``[initial()] * n`` would share one list
    between all groups.
    """

    kind = "top2"

    def initial(self):
        return []

    def update(self, accumulator, value):
        return accumulator if value is None else self.combine(accumulator, [value])

    def combine(self, left, right):
        left.extend(right)
        left.sort()
        del left[:-2]
        return left


class _TopTwoFunction(AggregateFunction):
    name = "top2"
    classification = ALGEBRAIC

    def components(self):
        return (("", _TopTwoComponent()),)  # built per call: still valid

    def finalize(self, component_values):
        return tuple(component_values[0])


register_aggregate("top2", lambda star: _TopTwoFunction(), replace=True)


# ---------------------------------------------------------------------------
# The reference: the object-bank fold this PR replaced
# ---------------------------------------------------------------------------


def sub_names(spec) -> list:
    """The names of ``spec``'s shipped sub-aggregate columns."""
    return [attribute.name for attribute in spec.sub_attributes()]


class ObjectSyncSession:
    """``SyncSession`` as it was: one accumulator object per (source, group, aggregate)."""

    def __init__(self, base_relation, key_attrs, blocks, observes=False, in_order=False):
        self._base = base_relation
        self._key_attrs = tuple(key_attrs)
        self._blocks = tuple(blocks)
        key_positions = base_relation.schema.positions(self._key_attrs)
        self._lookup = {}
        for base_index, base_row in enumerate(base_relation.rows):
            key = tuple(base_row[position] for position in key_positions)
            self._lookup.setdefault(key, []).append(base_index)
        self._banks = {}
        self._observes = observes
        self._in_order = in_order
        self._touched = {}  # source -> base indices each absorbed row folded into

    def _fresh_bank(self):
        return [
            [[accumulator(spec) for spec in block.aggregates] for _row in self._base.rows]
            for block in self._blocks
        ]

    def absorb(self, h, source=""):
        key_positions = h.schema.positions(self._key_attrs)
        sub_positions = [
            [h.schema.positions(sub_names(spec)) for spec in block.aggregates]
            for block in self._blocks
        ]
        bank = "" if self._in_order else source
        if bank not in self._banks:
            self._banks[bank] = self._fresh_bank()
        accumulators = self._banks[bank]
        touched = self._touched.setdefault(source, [])
        for h_row in h.rows:
            key = tuple(h_row[position] for position in key_positions)
            for base_index in self._lookup.get(key, ()):
                touched.append(base_index)
                for block_index in range(len(self._blocks)):
                    block_accumulators = accumulators[block_index][base_index]
                    for agg_index, positions in enumerate(sub_positions[block_index]):
                        block_accumulators[agg_index].load_sub_values(
                            tuple(h_row[position] for position in positions)
                        )

    def reset_source(self, source):
        self._banks.pop(source, None)
        self._touched.pop(source, None)

    def touched(self):
        return self._touched if self._observes else None

    def _merged_bank(self):
        if len(self._banks) == 1:
            return next(iter(self._banks.values()))
        merged = self._fresh_bank()
        for source in sorted(self._banks):
            bank = self._banks[source]
            for block_index in range(len(self._blocks)):
                for base_index in range(len(self._base.rows)):
                    for target, partial in zip(
                        merged[block_index][base_index], bank[block_index][base_index]
                    ):
                        target.merge(partial)
        return merged

    def finish(self):
        accumulators = self._merged_bank()
        rows = []
        for base_index, base_row in enumerate(self._base.rows):
            extra = []
            for block_index in range(len(self._blocks)):
                for state in accumulators[block_index][base_index]:
                    extra.append(state.result())
            rows.append(base_row + tuple(extra))
        return Relation(result_schema(self._base.schema, self._blocks), rows)


def object_merge_sub_results(h, key_attrs, blocks):
    """``merge_sub_results`` as it was: key -> accumulators -> ``load_sub_values``."""
    key_positions = h.schema.positions(key_attrs)
    sub_positions = [
        [h.schema.positions(sub_names(spec)) for spec in block.aggregates]
        for block in blocks
    ]
    order = []
    first_row = {}
    accumulators = {}
    for row in h.rows:
        key = tuple(row[position] for position in key_positions)
        if key not in accumulators:
            order.append(key)
            first_row[key] = row
            accumulators[key] = [
                [accumulator(spec) for spec in block.aggregates] for block in blocks
            ]
        for block_index, block in enumerate(blocks):
            for agg_index, _spec in enumerate(block.aggregates):
                positions = sub_positions[block_index][agg_index]
                accumulators[key][block_index][agg_index].load_sub_values(
                    tuple(row[position] for position in positions)
                )
    all_sub_positions = [
        position for per_agg in sub_positions for positions in per_agg for position in positions
    ]
    rows = []
    for key in order:
        template = list(first_row[key])
        flat_values = []
        for per_agg in accumulators[key]:
            for state in per_agg:
                flat_values.extend(state.sub_values())
        for position, value in zip(all_sub_positions, flat_values):
            template[position] = value
        rows.append(tuple(template))
    return Relation(h.schema, rows)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

KEY_ATTRS = ("g", "h")
#: ``pad`` is neither key nor aggregate; keys straddle it, so key positions
#: are not a prefix of the base.
BASE_SCHEMA = Schema.of(("g", INT), ("pad", STR), ("h", INT))

SPEC_MAKERS = {
    "count_star": lambda name: count_star(name),
    "count": lambda name: AggSpec("count", detail.v, name),
    "sum": lambda name: AggSpec("sum", detail.v, name),
    "min": lambda name: AggSpec("min", detail.v, name),
    "max": lambda name: AggSpec("max", detail.v, name),
    "avg": lambda name: AggSpec("avg", detail.v, name),
    "var": lambda name: AggSpec("var", detail.v, name),
    "std": lambda name: AggSpec("std", detail.v, name),
    "geomean": lambda name: AggSpec("geomean", detail.v, name),
    "top2": lambda name: AggSpec("top2", detail.v, name),
}

numbers = (
    st.none()
    | st.integers(min_value=-(10**6), max_value=10**6)
    | st.floats(allow_nan=False, allow_infinity=False, width=64)
    | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310])
    | st.sampled_from([math.nan, math.inf, -math.inf, True, False])
    # Ints at the edge of exact float conversion, and past int64.
    | st.sampled_from([2**53, -(2**53), 2**53 + 1, -(2**53) - 1, 2**63, -(2**63) - 1, 2**70])
)
#: Sums of logarithms stay where ``exp`` of their mean cannot overflow.
logs = st.none() | st.floats(min_value=-10, max_value=10) | st.sampled_from([-0.0, 5e-324])
counts = st.integers(min_value=0, max_value=10**6)
top_two = st.lists(st.integers(min_value=-5, max_value=5), max_size=2).map(sorted)

VALUE_OF_KIND = {
    "count_star": counts,
    "count": counts,
    "poscount": counts,
    "sum": numbers,
    "sumsq": numbers,
    "logsum": logs,
    "min": numbers,
    "max": numbers,
    "top2": top_two,
}

key_values = st.tuples(
    st.integers(min_value=0, max_value=3), st.none() | st.integers(min_value=0, max_value=1)
)


@st.composite
def blocks_strategy(draw):
    names = draw(st.lists(st.sampled_from(sorted(SPEC_MAKERS)), min_size=1, max_size=5))
    specs = [SPEC_MAKERS[name](f"a{index}") for index, name in enumerate(names)]
    cut = draw(st.integers(min_value=1, max_value=len(specs)))
    condition = base.g == detail.g
    blocks = [MDBlock(specs[:cut], condition)]
    if specs[cut:]:
        blocks.append(MDBlock(specs[cut:], condition))
    return blocks


def sub_attributes(blocks) -> list:
    return [attribute for block in blocks for attribute in block.sub_attributes()]


def sub_value_strategies(blocks) -> list:
    return [
        VALUE_OF_KIND[component.kind]
        for block in blocks
        for spec in block.aggregates
        for _suffix, component in spec.function.components()
    ]


@st.composite
def h_rows(draw, blocks, key_attrs, max_size=12):
    """Sub-result rows in canonical layout: the key attributes, then the sub columns."""
    key_positions = [KEY_ATTRS.index(name) for name in key_attrs]
    values = st.tuples(*sub_value_strategies(blocks))
    rows = draw(st.lists(st.tuples(key_values, values), max_size=max_size))
    return [
        tuple(key[position] for position in key_positions) + subs for key, subs in rows
    ]


def h_relation(blocks, key_attrs, rows, reverse_columns=False) -> Relation:
    attributes = [Attribute(name, INT) for name in key_attrs] + sub_attributes(blocks)
    if reverse_columns:  # a second schema for the session's per-schema kernels
        attributes = attributes[::-1]
        rows = [row[::-1] for row in rows]
    return Relation(Schema(attributes), rows)


def split(relation: Relation, size: int) -> list:
    return [
        Relation(relation.schema, relation.rows[start : start + size])
        for start in range(0, len(relation.rows), size)
    ] or [relation]


def assert_same_bits(actual: Relation, expected: Relation) -> None:
    assert actual.schema == expected.schema
    assert repr(actual.rows) == repr(expected.rows)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


#: 150 examples, or what ``--hypothesis-profile=equivalence`` asks if more.
EXAMPLES = settings(deadline=None, max_examples=max(150, settings.default.max_examples))


def assert_same_touches(actual, expected) -> None:
    """Equal per-source multisets of touched base positions."""
    if expected is None:
        assert actual is None
        return
    assert sorted(actual) == sorted(expected)
    for source, positions in expected.items():
        assert Counter(actual[source].tolist()) == Counter(positions)


@given(data=st.data())
@EXAMPLES
def test_sync_session_equals_object_fold(data):
    blocks = data.draw(blocks_strategy())
    key_attrs = data.draw(st.sampled_from([("g", "h"), ("h",), ("g",), ()]))
    # Duplicate keys and keys no fragment mentions both occur; fragments
    # draw from the same small domain, so some of their keys the base lacks.
    base_keys = data.draw(st.lists(key_values, max_size=8))
    base_relation = Relation(
        BASE_SCHEMA, [(g, f"p{index}", h) for index, (g, h) in enumerate(base_keys)]
    )
    sources = data.draw(
        st.lists(st.sampled_from(["", "s0", "s1", "s2"]), min_size=1, max_size=4, unique=True)
    )
    fragments = {}
    for source in sources:
        relation = h_relation(
            blocks,
            key_attrs,
            data.draw(h_rows(blocks, key_attrs)),
            reverse_columns=data.draw(st.booleans()),
        )
        size = data.draw(st.integers(min_value=1, max_value=13))
        fragments[source] = split(relation, size)
    arrivals = data.draw(
        st.permutations(
            [(source, block) for source in sources for block in fragments[source]]
        )
    )
    victim = data.draw(st.sampled_from(sources))
    reset_after = data.draw(st.integers(min_value=0, max_value=len(arrivals)))
    modes = {"observes": data.draw(st.booleans()), "in_order": data.draw(st.booleans())}

    flat = SyncSession(base_relation, key_attrs, blocks, **modes)
    reference = ObjectSyncSession(base_relation, key_attrs, blocks, **modes)
    for session in (flat, reference):
        for source, block in arrivals[:reset_after]:
            session.absorb(block, source)
        # The retry layer's undo: drop the victim's bank, absorb it again.
        session.reset_source(victim)
        for block in fragments[victim]:
            session.absorb(block, victim)
        for source, block in arrivals[reset_after:]:
            if source != victim:
                session.absorb(block, source)
    assert_same_bits(flat.finish(), reference.finish())
    assert_same_touches(flat.touched(), reference.touched())


@given(data=st.data())
@EXAMPLES
def test_merge_sub_results_equals_object_fold(data):
    blocks = data.draw(blocks_strategy())
    key_attrs = data.draw(st.sampled_from([("g", "h"), ("h",), ("g",), ()]))
    rows = data.draw(h_rows(blocks, key_attrs, max_size=20))
    # A non-key, non-aggregate attribute rides along: first row of a key wins.
    canonical = h_relation(blocks, key_attrs, rows)
    h = Relation(
        Schema(list(canonical.schema.attributes) + [Attribute("pad", STR)]),
        [row + (f"p{index}",) for index, row in enumerate(rows)],
    )
    assert_same_bits(
        merge_sub_results(h, key_attrs, blocks),
        object_merge_sub_results(h, key_attrs, blocks),
    )


# ---------------------------------------------------------------------------
# The row guard
# ---------------------------------------------------------------------------

def test_a_round_trip_builds_no_rows(monkeypatch):
    """From the site's ``evaluate_round`` to the coordinator's
    ``commit_sync`` an S5 round trip stays columns: Hᵢ, its v3 blocks,
    the fold and X. Only the caller reading the answer builds its rows.
    Its two-attribute int key is one composite there too: no key tuple is
    built (``Relation._keys`` over several positions)."""
    cluster = SimulatedCluster.with_sites(2)
    cluster.load_partitioned(
        "TPCR", generate_tpcr(TPCRConfig(scale=0.0002, seed=101)), nation_partitioner(2)
    )
    register_tpcr_fds(cluster.catalog)
    window = {"open": False, "rows": 0, "key_tuples": 0, "commits": 0}

    def wrap(method, before=None, after=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            result = method(*args, **kwargs)
            if after is not None:
                after()
            return result

        return wrapper

    def opened():
        window["open"] = True

    def closed():
        window["open"] = False
        window["commits"] += 1

    def counted():
        window["rows"] += window["open"]

    value_keys = Relation._keys

    def keys(self, positions):
        window["key_tuples"] += window["open"] and len(positions) > 1
        return value_keys(self, positions)

    monkeypatch.setattr(SkallaSite, "evaluate_round", wrap(SkallaSite.evaluate_round, opened))
    monkeypatch.setattr(Coordinator, "commit_sync", wrap(Coordinator.commit_sync, after=closed))
    monkeypatch.setattr(Relation, "_transposed", wrap(Relation._transposed, counted))
    monkeypatch.setattr(Relation, "_keys", keys)
    monkeypatch.setattr(columnar, "COMPOSITE_MIN_ROWS", 0)  # a small cluster's relations

    statement = parse_olap_statement(S5_FINE_GROUPS)
    result = execute_query(cluster, statement.expression)
    assert window["commits"] == 1 and not window["open"]
    assert window["rows"] == 0
    assert window["key_tuples"] == 0
    expected = statement.expression.evaluate_centralized(cluster.conceptual_tables())
    assert_relations_equal(result.relation, expected)


def test_an_s5_op_rebuilds_few_typed_views_from_lists(monkeypatch):
    """No array of a warm S5 op is built from a list, in process at
    ``sync_heavy``'s shape (10 000 rows, 2 sites, seed 101). The v3 decoder
    hands over NULL-free INT and FLOAT blocks as typed arrays, and a view
    over several sites' arrays concatenates them, so the replies, the bank
    fold and the positional fragments build none. An in-memory partition
    holds its key columns as the same arrays, so the key views of the base
    each site derives in round 1 build none (they built 4 while a
    partition held row tuples). The folded bank stays typed, so the AVG's
    finalization builds none (it built 2 while the bank was lists). With
    the blocks decoded to lists, one op made 22."""
    cluster = SimulatedCluster.with_sites(2)
    cluster.load_partitioned(
        "TPCR", generate_tpcr(TPCRConfig(scale=10_000 / 6_000_000, seed=101)),
        nation_partitioner(2),
    )
    register_tpcr_fds(cluster.catalog)
    expression = parse_olap_statement(S5_FINE_GROUPS).expression
    execute_query(cluster, expression)  # the partitions' own views, cached from here on
    calls = []
    typed_view = columnar._typed_view

    def spy(values):
        calls.append(len(values))
        return typed_view(values)

    monkeypatch.setattr(columnar, "_typed_view", spy)
    execute_query(cluster, expression)
    assert len(calls) == 0, calls
