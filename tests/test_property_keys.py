"""The sorted composite key path against the ``dict`` path it stands beside.

A key of two or more attributes whose typed views are NULL-free ``int64``
is one ``int64`` composite per row: the factorization is a stable sort of
it, the coordinator's sync index and the MD-join's probe a
``searchsorted`` (:mod:`repro.relalg.columnar`). Every other key stays a
``dict`` key. The drawn key columns mix values that must stay on the
``dict`` path — bools among ints, ``1`` beside ``1.0``, ints at ``±2**53``
and past ``int64``, NULL, NaN — with int ranges whose radix product passes
``2**62``, repeated left keys, empty sides and zero key attributes. Each
mechanism must answer as the ``dict`` oracle (:mod:`oracle.keys`) does:
the same match positions, the same codes, the same first-seen order.
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
from repro.relalg import columnar
from repro.relalg.columnar import COMPOSITE_LIMIT, EXACT_INT
from repro.relalg.expressions import BASE_VAR, DETAIL_VAR, Field
from repro.relalg.predicates import EqualityAtom
from repro.relalg.relation import Relation
from repro.relalg.schema import INT, Attribute, Schema

#: 150 examples, or what ``--hypothesis-profile=equivalence`` asks if more.
EXAMPLES = settings(deadline=None, max_examples=max(150, settings.default.max_examples))

ADVERSARIAL = (
    True, False, 1.0, -0.0, None, math.nan,
    EXACT_INT, -EXACT_INT, EXACT_INT + 1, 2**63, -(2**63) - 1,
)

POOLS = (
    st.integers(-3, 3),  # dense ints: the composite path
    st.integers(-EXACT_INT, EXACT_INT),  # wide ints: radix products past 2**62
    st.integers(-3, 3) | st.none(),  # NULLs among ints
    st.one_of(st.integers(-3, 3), st.sampled_from(ADVERSARIAL)),
)


@st.composite
def key_sides(draw):
    """``(width, left rows, right rows, candidates)`` over ``width`` key
    attributes; right rows repeat left ones, candidates are a subset of the
    left rows (``range``: all of them)."""
    width = draw(st.integers(0, 3))
    row = st.tuples(*[draw(st.sampled_from(POOLS)) for _ in range(width)])
    left = draw(st.lists(row, max_size=12))
    if draw(st.booleans()):
        left = list(dict.fromkeys(left))  # distinct left keys
    right = draw(st.lists(st.sampled_from(left) | row if left else row, max_size=12))
    candidates = range(len(left))
    if left and draw(st.booleans()):
        candidates = sorted(draw(st.sets(st.integers(0, len(left) - 1))))
    return width, left, right, candidates


def ints(rows, width) -> bool:
    """Whether every key of ``rows`` is two or more ints within ``2**53``."""
    values = [row[position] for row in rows for position in range(width)]
    return width >= 2 and all(type(value) is int and abs(value) <= EXACT_INT for value in values)


def composite(rows, width) -> bool:
    """Whether the keys of ``rows`` are one ``int64`` composite."""
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
@example((2, [(1, 2), (1, 3), (1, 2), (0, 2)], [(1, 2), (0, 9), (1, 3)], range(4)))
@example((2, [(1, 2), (True, 2.0)], [(1.0, 2), (1, 2)], range(2)))
@example((2, [(0, 0), (EXACT_INT, EXACT_INT)], [(EXACT_INT, EXACT_INT), (1, 1)], [1]))
@example((0, [(), ()], [()], range(2)))
@example((2, [(0, 1), (None, 1)], [(0, 1), (None, 1)], range(2)))
def test_the_composite_key_path_is_the_dict_path(sides):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(columnar, "COMPOSITE_MIN_ROWS", 0)  # the drawn relations are short
        check_both_key_paths(*sides)


def check_both_key_paths(width, left, right, candidates):
    positions = list(range(width))
    left_keys, right_keys = oracle.keys(left, positions), oracle.keys(right, positions)
    base, detail = relation(left, width).to_columnar(), relation(right, width).to_columnar()

    # Codes: the same first rows and codes, in first-seen order.
    for side, rows, keys in ((base, left, left_keys), (detail, right, right_keys)):
        firsts, codes = side.codes(positions)
        assert (firsts.tolist(), codes.tolist()) == oracle.factorize(keys)
        assert (side.matcher(positions) is not None) == composite(rows, width)

    # The coordinator's sync index: each right row's pairs with the left rows.
    session = operator.SyncSession(relation(left, width), [f"k{p}" for p in positions], ())
    rows, bases = session._probe(detail, positions)
    pairs = list(zip(range(len(bases)) if rows is None else rows.tolist(), bases.tolist()))
    assert pairs == oracle.probe(oracle.key_index(left_keys, range(len(left))), right_keys)
    distinct = len(set(left_keys)) == len(left_keys)
    assert (session._matcher is not None) == (composite(left, width) and distinct)

    # The MD-join probe: per distinct right key, its one candidate left row.
    atoms = [EqualityAtom(Field(f"k{p}", BASE_VAR), Field(f"k{p}", DETAIL_VAR)) for p in positions]
    found = operator._matched(base, detail, atoms, candidates)
    table = oracle.key_index(list(map(left_keys.__getitem__, candidates)), candidates)
    firsts, _codes = detail.codes(positions)
    expected = [
        [] if None in right_keys[first] else table.get(right_keys[first], [])
        for first in firsts.tolist()
    ]
    overlapping = any(len(matches) > 1 for matches in expected)
    if found is None:
        assert overlapping or not (composite(right, width) and ints(left, width))
    else:
        assert not overlapping
        assert found.tolist() == [matches[0] if matches else -1 for matches in expected]


def test_s5_is_one_answer_on_both_key_paths(monkeypatch):
    """S5 (two int key attributes, AVG) through ``execute_query``: the
    composite path and the ``dict`` path answer equal by ``repr``."""
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
