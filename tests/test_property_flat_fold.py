"""Property test: the flat component-column fold equals the object fold, bit for bit.

``SyncSession`` and ``merge_sub_results`` used to keep one accumulator
object per (group, aggregate) and fold shipped sub-values through
``load_sub_values`` / ``merge`` / ``result``. They now fold into flat
component columns with a generated kernel. The bodies they replaced are
kept *here* as the reference; Hypothesis draws the aggregate functions
(every built-in distributive/algebraic one plus a registered custom
component kind the kernels do not inline), the sub-values, the base, the
sources, their arrival order and row blocking — and the two sides must
agree by ``repr``, so ``0.0`` vs ``-0.0`` and ``1`` vs ``1.0`` differ.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gmdj.blocks import MDBlock, result_schema
from repro.gmdj.operator import SyncSession, merge_sub_results
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


class ObjectSyncSession:
    """``SyncSession`` as it was: one accumulator object per (source, group, aggregate)."""

    def __init__(self, base_relation, key_attrs, blocks):
        self._base = base_relation
        self._key_attrs = tuple(key_attrs)
        self._blocks = tuple(blocks)
        key_positions = base_relation.schema.positions(self._key_attrs)
        self._lookup = {}
        for base_index, base_row in enumerate(base_relation.rows):
            key = tuple(base_row[position] for position in key_positions)
            self._lookup.setdefault(key, []).append(base_index)
        self._banks = {}

    def _fresh_bank(self):
        return [
            [[spec.accumulator() for spec in block.aggregates] for _row in self._base.rows]
            for block in self._blocks
        ]

    def absorb(self, h, source=""):
        key_positions = h.schema.positions(self._key_attrs)
        sub_positions = [
            [h.schema.positions(spec.sub_names()) for spec in block.aggregates]
            for block in self._blocks
        ]
        if source not in self._banks:
            self._banks[source] = self._fresh_bank()
        accumulators = self._banks[source]
        for h_row in h.rows:
            key = tuple(h_row[position] for position in key_positions)
            for base_index in self._lookup.get(key, ()):
                for block_index in range(len(self._blocks)):
                    block_accumulators = accumulators[block_index][base_index]
                    for agg_index, positions in enumerate(sub_positions[block_index]):
                        block_accumulators[agg_index].load_sub_values(
                            tuple(h_row[position] for position in positions)
                        )

    def reset_source(self, source):
        self._banks.pop(source, None)

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
                for accumulator in accumulators[block_index][base_index]:
                    extra.append(accumulator.result())
            rows.append(base_row + tuple(extra))
        return Relation(result_schema(self._base.schema, self._blocks), rows)


def object_merge_sub_results(h, key_attrs, blocks):
    """``merge_sub_results`` as it was: key -> accumulators -> ``load_sub_values``."""
    key_positions = h.schema.positions(key_attrs)
    sub_positions = [
        [h.schema.positions(spec.sub_names()) for spec in block.aggregates]
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
                [spec.accumulator() for spec in block.aggregates] for block in blocks
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
            for accumulator in per_agg:
                flat_values.extend(accumulator.sub_values())
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


def row_blocks(relation: Relation, size: int) -> list:
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


@given(data=st.data())
@settings(max_examples=150, deadline=None)
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
        fragments[source] = row_blocks(relation, size)
    arrivals = data.draw(
        st.permutations(
            [(source, block) for source in sources for block in fragments[source]]
        )
    )
    victim = data.draw(st.sampled_from(sources))
    reset_after = data.draw(st.integers(min_value=0, max_value=len(arrivals)))

    flat = SyncSession(base_relation, key_attrs, blocks)
    reference = ObjectSyncSession(base_relation, key_attrs, blocks)
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


@given(data=st.data())
@settings(max_examples=150, deadline=None)
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
