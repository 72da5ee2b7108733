"""The one key interface against the ``dict`` oracle, on both implementations.

Every key match goes through :meth:`ColumnarRelation.matcher`'s
:class:`~repro.relalg.columnar.KeyMatcher`: the factorization, ``find``,
the coordinator's sync probe and the MD-join's per-key candidate base rows.
One selector picks the sorted ``int64`` composite or the ``dict`` by the
key's types and the relation's size; each check runs with the composite
taken wherever it may be (``COMPOSITE_MIN_ROWS`` at 0) and with the
``dict`` forced (``oracle.keys.dict_keys()``). The drawn key columns mix
values the composite must see as the ``dict`` does — bools among ints,
``1`` beside ``1.0``, fractional floats, ints at ``±2**53`` and past
``int64``, NULL, NaN — with int ranges whose radix product passes
``2**62``, repeated left keys, empty sides, zero or one key attribute and
a computed base or detail key. Each must answer as the ``dict`` oracle
(:mod:`oracle.keys`) does: the same codes in the same first-seen order,
the same matches.
"""

from __future__ import annotations

import math

import pytest
from bench_e2e.workloads import S5_FINE_GROUPS
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import keys as oracle
from repro.data.tpcr import TPCRConfig, generate_tpcr, nation_partitioner, register_tpcr_fds
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.evaluator import execute_query
from repro.gmdj import operator
from repro.queries.sql import parse_olap_statement
from repro.relalg import columnar, compiler
from repro.relalg.columnar import COMPOSITE_LIMIT, EXACT_INT
from repro.relalg.expressions import BASE_VAR, DETAIL_VAR, Const, Field
from repro.relalg.predicates import EqualityAtom
from repro.relalg.relation import Relation
from repro.relalg.schema import INT, Attribute, Schema

#: 150 examples, or what ``--hypothesis-profile=equivalence`` asks if more.
EXAMPLES = settings(deadline=None, max_examples=max(150, settings.default.max_examples))

ADVERSARIAL = (
    True, False, 1.0, -0.0, 0.5, None, math.nan,
    EXACT_INT, -EXACT_INT, EXACT_INT + 1, 2**63, -(2**63) - 1,
)

POOLS = (
    st.integers(-3, 3),  # dense ints: the composite
    st.integers(-EXACT_INT, EXACT_INT),  # wide ints: radix products past 2**62
    st.integers(-3, 3) | st.none(),  # NULLs among ints
    st.one_of(st.integers(-3, 3), st.sampled_from(ADVERSARIAL)),
)


@st.composite
def key_sides(draw):
    """``(width, left rows, right rows, candidates, computed)`` over
    ``width`` key attributes; right rows repeat left ones, candidates are a
    subset of the left rows (``range``: all of them), ``computed``: the
    scan's first base key (1) or first detail key (2) is ``k0 + 0``."""
    width = draw(st.integers(0, 3))
    row = st.tuples(*[draw(st.sampled_from(POOLS)) for _ in range(width)])
    left = draw(st.lists(row, max_size=12))
    if draw(st.booleans()):
        left = list(dict.fromkeys(left))  # distinct left keys
    elif left and draw(st.booleans()):
        left = left + draw(st.lists(st.sampled_from(left), max_size=6))  # repeated left keys
    right = draw(st.lists(st.sampled_from(left) | row if left else row, max_size=12))
    candidates = range(len(left))
    if left and draw(st.booleans()):
        candidates = sorted(draw(st.sets(st.integers(0, len(left) - 1))))
    return width, left, right, candidates, draw(st.integers(0, 2)) if width else 0


def ints(rows, width) -> bool:
    """Whether every key of ``rows`` is two or more ints within ``2**53``."""
    values = [row[position] for row in rows for position in range(width)]
    return width >= 2 and all(type(value) is int and abs(value) <= EXACT_INT for value in values)


def composite(rows, width) -> bool:
    """Whether the keys of ``rows`` may be one ``int64`` composite."""
    if not rows or not ints(rows, width):
        return False
    return math.prod(
        max(row[position] for row in rows) - min(row[position] for row in rows) + 1
        for position in range(width)
    ) <= COMPOSITE_LIMIT


def relation(rows, width) -> Relation:
    return Relation(Schema([Attribute(f"k{position}", INT) for position in range(width)]), rows)


@EXAMPLES
@given(key_sides())
@example((2, [(1, 2), (1, 3), (1, 2), (0, 2)], [(1, 2), (0, 9), (1, 3)], range(4), False))
@example((2, [(1, 2), (True, 2.0)], [(1.0, 2), (1, 2)], range(2), False))
@example((2, [(0, 0), (EXACT_INT, EXACT_INT)], [(EXACT_INT, EXACT_INT), (1, 1)], [1], False))
@example((0, [(), ()], [()], range(2), False))
@example((2, [(0, 1), (None, 1)], [(0, 1), (None, 1)], range(2), False))
# One attribute: a key is a value, not a tuple; a NULL key matches in sync only.
@example((1, [(1,), (None,), (2,), (1,)], [(1.0,), (None,), (True,), (3,)], range(4), False))
# A computed base key: ``k0 + 0`` keeps ints and floats, turns True into 1.
@example((2, [(True, 1), (2, 0), (None, 1)], [(1, 1), (2, 0), (None, 1)], range(3), True))
# Repeated candidate keys against a composite right side: one key, two base rows.
@example((2, [(0, 1), (2, 3), (0, 1), (2, 3)], [(0, 1), (0, 1), (2, 3), (1, 1)], [0, 2, 3], False))
# Bools, floats and NULL probing a composite: True is 1, False and 0.0 are 0.
@example((2, [(1, 0), (0, 0), (1, 1)], [(True, False), (1.0, 0), (False, None)], range(3), False))
# An int64 base against a float64 detail: 1 and 1.0 are one key.
@example((2, [(1, 2), (3, 4), (5, 6)], [(1.0, 2.0), (3.0, 4.5), (5.0, 6.0)], range(3), False))
# A computed detail key: a NULL in its field part is no 0 (its int64 view's fill).
@example((2, [(0, 0), (1, 1)], [(0, None), (0, 0), (1, None)], range(2), 2))
def test_the_composite_key_path_is_the_dict_path(sides):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(columnar, "COMPOSITE_MIN_ROWS", 0)  # the drawn relations are short
        check_the_key_interface(*sides, composite_allowed=True)
    with oracle.dict_keys():
        check_the_key_interface(*sides, composite_allowed=False)


def check_the_key_interface(width, left, right, candidates, computed, composite_allowed):
    positions = list(range(width))
    left_keys, right_keys = oracle.keys(left, positions), oracle.keys(right, positions)
    base, detail = relation(left, width).to_columnar(), relation(right, width).to_columnar()

    # Codes: the same first rows and codes, in first-seen order.
    for side, rows, keys in ((base, left, left_keys), (detail, right, right_keys)):
        firsts, codes = side.codes(positions)
        assert (firsts.tolist(), codes.tolist()) == oracle.factorize(keys)
        sorted_keys = isinstance(side.matcher(positions), columnar._SortedKeys)
        assert sorted_keys == (composite_allowed and composite(rows, width))

    # find: each right row's left code, from the right side's columns as held.
    firsts, codes = oracle.factorize(left_keys)
    code_of = dict(zip(map(left_keys.__getitem__, firsts), range(len(firsts))))
    held = [detail.value_lists().held_at(position) for position in positions]
    found = base.matcher(positions).find(held, len(right))
    assert found.tolist() == [code_of.get(key, -1) for key in right_keys]

    # The coordinator's sync: each right row's pairs with the left rows.
    session = operator.SyncSession(relation(left, width), [f"k{p}" for p in positions], ())
    rows, bases = session._probe(detail, positions)
    pairs = list(zip(range(len(bases)) if rows is None else rows.tolist(), bases.tolist()))
    assert pairs == oracle.probe(oracle.key_index(left_keys, range(len(left))), right_keys)

    # The MD-join: per distinct right key, its candidate left rows; no NULL matches.
    if not width:
        return
    base_exprs = [Field(f"k{p}", BASE_VAR) for p in positions]
    detail_exprs = [Field(f"k{p}", DETAIL_VAR) for p in positions]
    if computed == 1:
        base_exprs[0] = base_exprs[0] + Const(0)
    elif computed == 2:
        detail_exprs[0] = detail_exprs[0] + Const(0)
    atoms = list(map(EqualityAtom, base_exprs, detail_exprs))
    schemas = {BASE_VAR: base.schema, DETAIL_VAR: detail.schema, None: detail.schema}
    codes, offsets, matched = operator._key_probe(detail, None, base, candidates, atoms, schemas)
    row_key = compiler.compile_values(base_exprs, {BASE_VAR: base.schema}, (BASE_VAR,))
    kept = [index for index in candidates if None not in row_key(left[index])]
    table = oracle.key_index([row_key(left[index]) for index in kept], kept)
    detail_key = compiler.compile_values(detail_exprs, {DETAIL_VAR: detail.schema}, (DETAIL_VAR,))
    right_keys = list(map(detail_key, right))
    right_firsts, right_codes = oracle.factorize(right_keys)
    assert codes.tolist() == right_codes
    assert [matched[start:end].tolist() for start, end in zip(offsets[:-1], offsets[1:])] == [
        table.get(right_keys[first], []) for first in right_firsts
    ]


def test_s5_is_one_answer_on_both_key_paths(monkeypatch):
    """S5 (two int key attributes, AVG) through ``execute_query``: the
    composite and the ``dict`` answer equal by ``repr``."""
    monkeypatch.setattr(columnar, "COMPOSITE_MIN_ROWS", 0)
    statement = parse_olap_statement(S5_FINE_GROUPS)

    def s5():  # on a fresh cluster: no factorization is cached from the other path
        cluster = SimulatedCluster.with_sites(2)
        cluster.load_partitioned(
            "TPCR", generate_tpcr(TPCRConfig(scale=0.0005, seed=101)), nation_partitioner(2)
        )
        register_tpcr_fds(cluster.catalog)
        return execute_query(cluster, statement.expression).relation

    answer = s5()
    with oracle.dict_keys():
        expected = s5()
    assert len(answer) > 100
    assert list(map(repr, answer.rows)) == list(map(repr, expected.rows))
