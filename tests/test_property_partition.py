"""Every partitioner's column-wise split is its per-row oracle's, by ``repr``.

``Partitioner.assign`` gives every row's site from the relation's columns
(a lookup per distinct key, a binary search, a hash per distinct key
text, a stride). :mod:`oracle.partition` places one row at a time by the
rule each partitioner had when it assigned rows. Over the adversarial
tables of ``conftest`` and drawn ones — among them a column mixing ``1``,
``1.0``, ``True``, NaN, NULL and strings — the four partitioners over one
to five sites put the same rows at the same sites in the same order,
compared by ``repr`` (so ``-0.0``, NaN, bools and ints past ``int64``
count), or both refuse the relation with a ``WarehouseError``.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import adversarial_tables
from oracle import partition as oracle
from repro.errors import WarehouseError
from repro.relalg.relation import Relation
from repro.relalg.schema import FLOAT, INT, STR, Schema
from repro.warehouse.partition import (
    HashPartitioner,
    RangePartitioner,
    RoundRobinPartitioner,
    ValueListPartitioner,
)

NAN = math.nan

#: One value-list column of values equal as ``dict`` keys but not by
#: ``repr``, NaN, NULL and strings.
_MIXED = [1, 1.0, True, 0, 0.0, False, NAN, None, "1", "", "x", 2, -0.0]

_NUMBERS = {
    INT: st.integers(-5, 5) | st.sampled_from([2**53 + 1, -(2**63), 2**70]),
    FLOAT: st.sampled_from([NAN, -0.0, 0.0, math.inf, -math.inf, 0.5]) | st.floats(-5, 5),
}

ADVERSARIAL = adversarial_tables()


@st.composite
def drawn_tables(draw):
    """The mixed column beside an INT and a FLOAT column, each NULL-free
    or not, zero to thirty rows."""
    schema = Schema.of(("m", STR), ("i", INT), ("f", FLOAT))
    cells = [st.sampled_from(_MIXED)]
    for type_name in (INT, FLOAT):
        values = _NUMBERS[type_name]
        cells.append(values if draw(st.booleans()) else st.none() | values)
    return Relation(schema, draw(st.lists(st.tuples(*cells), max_size=30)))


tables = st.sampled_from(sorted(ADVERSARIAL)).map(ADVERSARIAL.get) | drawn_tables()


@st.composite
def partitioners(draw, relation):
    """One of the four partitioners over 1–5 sites, on attributes of
    ``relation`` (round-robin when it has none)."""
    sites = draw(st.integers(1, 5))
    names = list(relation.schema.names)
    numeric = [a.name for a in relation.schema.attributes if a.type in (INT, FLOAT)]
    kinds = ["round_robin"] + (["value_list", "hash"] if names else []) + (["range"] if numeric else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "round_robin":
        return RoundRobinPartitioner(sites)
    if kind == "hash":
        return HashPartitioner(draw(st.lists(st.sampled_from(names), min_size=1, max_size=2)), sites)
    if kind == "range":
        bounds = st.integers(-6, 6) | st.sampled_from([0.0, -0.5, 2**53 + 2, 2**64])
        boundaries = sorted(draw(st.lists(bounds, min_size=sites - 1, max_size=sites - 1)))
        return RangePartitioner(draw(st.sampled_from(numeric)), boundaries, sites)
    attribute = draw(st.sampled_from(names))
    values = relation.column(attribute)
    # Every value the relation holds gets a site, unless some are left out.
    kept = values if draw(st.booleans()) else values[: len(values) // 2]
    assignment = {}
    for value in kept:
        assignment.setdefault(value, draw(st.integers(0, sites - 1)))
    return ValueListPartitioner(attribute, assignment, sites)


def check_split_is_the_oracle(relation, partitioner):
    try:
        expected = oracle.split(partitioner, relation)
    except WarehouseError:
        expected = WarehouseError
    try:
        parts = partitioner.split(relation)
    except WarehouseError:
        parts = WarehouseError
    if expected is WarehouseError or parts is WarehouseError:
        assert parts is expected
        return
    assert len(parts) == partitioner.site_count
    for part, rows in zip(parts, expected):
        assert part.schema == relation.schema
        assert repr(part.rows) == repr(rows)


@st.composite
def cases(draw):
    relation = draw(tables)
    return relation, draw(partitioners(relation))


@given(cases())
@settings(deadline=None)
@example((
    Relation(Schema.of(("m", STR)), [(value,) for value in _MIXED]),
    HashPartitioner(["m"], 5),
))
@example((
    Relation(Schema.of(("m", STR)), [(value,) for value in _MIXED]),
    ValueListPartitioner("m", {1: 0, 0: 1, None: 2, "1": 0, "": 1, "x": 2, 2: 0}, 3),
))
@example((Relation(Schema.of(("v", FLOAT)), [(1.0,), (NAN,), (9.0,)]), RangePartitioner("v", [5.0], 2)))
@example((ADVERSARIAL["NoAttributes"], RoundRobinPartitioner(2)))
def test_every_split_is_the_row_oracle_by_repr(case):
    check_split_is_the_oracle(*case)


def test_equal_keys_of_other_reprs_hash_apart():
    """``1``, ``1.0`` and ``True`` are one ``dict`` key but three texts:
    the hash partitioner places each by its own ``repr``."""
    relation = Relation(Schema.of(("m", STR)), [(1,), (1.0,), (True,)])
    partitioner = HashPartitioner(["m"], 64)
    sites = partitioner.assign(relation).tolist()
    assert sites == [oracle.stable_hash((value,)) % 64 for value in (1, 1.0, True)]
    assert len(set(sites)) == 3
