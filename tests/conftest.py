"""Shared fixtures and reference implementations for the test suite.

The key piece is :func:`brute_force_gmdj`: a direct, slow transcription
of Definition 1 (per base tuple, filter the detail relation with the
condition, aggregate). It shares no code with the hash-based production
evaluator, so agreement between the two is meaningful evidence of
correctness.
"""

from __future__ import annotations

import contextlib
import datetime
import random
import threading

import pytest
from hypothesis import settings

from oracle import scan
from oracle.accumulate import accumulator
from oracle.interp import evaluate
from repro.gmdj import operator as gmdj_operator
from repro.gmdj.blocks import MDBlock, result_schema
from repro.relalg.aggregates import AggSpec
from repro.relalg.expressions import BASE_VAR, DETAIL_VAR
from repro.relalg.relation import Relation
from repro.relalg.schema import BOOL, DATE, FLOAT, INT, STR, Schema


#: ``--hypothesis-profile=equivalence``: the engine-equivalence CI job runs
#: the properties that leave ``max_examples`` to the profile ten times longer.
settings.register_profile("equivalence", max_examples=1000)


# ---------------------------------------------------------------------------
# Reference implementations
# ---------------------------------------------------------------------------


def brute_force_gmdj(base: Relation, detail: Relation, blocks) -> Relation:
    """Definition 1, evaluated the naive way (no hashing, no compiling)."""
    rows = []
    base_names = base.schema.names
    detail_names = detail.schema.names
    for base_row in base.rows:
        base_dict = dict(zip(base_names, base_row))
        out = list(base_row)
        for block in blocks:
            matching = []
            for detail_row in detail.rows:
                detail_dict = dict(zip(detail_names, detail_row))
                bindings = {BASE_VAR: base_dict, DETAIL_VAR: detail_dict, None: detail_dict}
                if evaluate(block.condition, bindings):
                    matching.append(detail_dict)
            for spec in block.aggregates:
                state = accumulator(spec)
                for detail_dict in matching:
                    if spec.input_expr is None:
                        state.update(None)
                    else:
                        bindings = {DETAIL_VAR: detail_dict, None: detail_dict}
                        state.update(evaluate(spec.input_expr, bindings))
                out.append(state.result())
        rows.append(tuple(out))
    return Relation(result_schema(base.schema, blocks), rows)


def same_rows(left: Relation, right: Relation) -> bool:
    """Multiset equality of rows, requiring identical schemas."""
    return left.schema == right.schema and left.row_multiset() == right.row_multiset()


def assert_relations_equal(left: Relation, right: Relation, places: int = 9):
    """Multiset row equality with float tolerance, aligned by column name."""
    assert set(left.schema.names) == set(right.schema.names), (
        f"schemas differ: {left.schema!r} vs {right.schema!r}"
    )
    aligned = right.project(left.schema.names)
    left_rows = sorted(left.rows, key=_sort_key)
    right_rows = sorted(aligned.rows, key=_sort_key)
    assert len(left_rows) == len(right_rows), (
        f"row counts differ: {len(left_rows)} vs {len(right_rows)}"
    )
    for l_row, r_row in zip(left_rows, right_rows):
        for l_value, r_value in zip(l_row, r_row):
            if isinstance(l_value, float) and isinstance(r_value, float):
                assert l_value == pytest.approx(r_value, abs=10 ** -places), (
                    f"{l_row} vs {r_row}"
                )
            else:
                assert l_value == r_value, f"{l_row} vs {r_row}"


def _sort_key(row):
    return tuple((value is not None, str(type(value)), value) for value in row)


@pytest.fixture
def row_oracle(monkeypatch):
    """The whole test scans with the row oracle (:mod:`oracle.scan`) in
    place of the vector scan, on every in-process executor. A site-server
    process does not inherit it."""
    monkeypatch.setattr(gmdj_operator, "_accumulate", scan.accumulate)
    return scan.accumulate


# ---------------------------------------------------------------------------
# Data fixtures
# ---------------------------------------------------------------------------

FLOW_TEST_SCHEMA = Schema.of(
    ("RouterId", INT), ("SourceAS", INT), ("DestAS", INT), ("NumBytes", FLOAT)
)


def make_flows(count: int = 200, seed: int = 3, routers: int = 4) -> Relation:
    """Small deterministic flow-like relation; SourceAS pinned to router."""
    rng = random.Random(seed)
    rows = []
    for _index in range(count):
        source_as = rng.randrange(0, 16)
        rows.append(
            (
                source_as % routers,
                source_as,
                rng.randrange(0, 8),
                float(rng.randrange(40, 4000)),
            )
        )
    return Relation(FLOW_TEST_SCHEMA, rows)


def adversarial_rows() -> dict:
    """Tables that hold every value a codec or a typed column could get
    wrong, as ``(schema, rows)``: NULL in every type; NaN, ±0.0 and ±inf;
    ints at ±2**53, at ±(2**53 + 1) and beyond int64; bools and dates;
    empty and non-ASCII strings. Beside them, the same schema with zero
    rows, and a table of zero attributes. One NULL-free column per type is
    here too: those are the columns held as typed arrays."""
    exact, wide, huge = 2**53, 2**53 + 1, 2**70
    nan, inf = float("nan"), float("inf")
    day = datetime.date(1999, 12, 31)
    schema = Schema.of(
        ("i", INT), ("f", FLOAT), ("s", STR), ("b", BOOL), ("d", DATE),
        ("exact", INT), ("wide", INT), ("huge", INT), ("small", INT),
        ("real", FLOAT), ("text", STR), ("flag", BOOL), ("when", DATE),
    )
    rows = [
        (None, nan, None, None, None, exact, wide, huge, 0, nan, "", True, day),
        (-exact, None, "", True, day, -exact, -wide, -huge, 1, -0.0, "héllo", False, day),
        (wide, -0.0, "日本語", False, None, 0, 0, 2**63, -1, 0.0, "日本語", True, datetime.date(1, 1, 1)),
        (-huge, inf, "héllo", None, datetime.date(1, 1, 1), 1, 1, -(2**63) - 1, 7, inf, "", False, day),
        (None, -inf, None, True, None, 2**31, 3, 0, 2, -inf, "héllo", True, datetime.date(9999, 12, 31)),
    ]
    return {
        "Palette": (schema, rows),
        "EmptyPalette": (schema, []),
        "NoAttributes": (Schema.of(), [(), (), ()]),
    }


def adversarial_tables() -> dict:
    """:func:`adversarial_rows` as relations."""
    return {name: Relation(schema, rows) for name, (schema, rows) in adversarial_rows().items()}


@pytest.fixture
def flows() -> Relation:
    return make_flows()


@pytest.fixture
def tiny_relation() -> Relation:
    schema = Schema.of(("k", INT), ("v", FLOAT), ("name", STR))
    return Relation(
        schema,
        [
            (1, 10.0, "a"),
            (1, 20.0, "b"),
            (2, 5.0, "a"),
            (2, None, "c"),
            (3, 7.5, None),
        ],
    )


def count_and_sum_blocks(key: str = "SourceAS", measure: str = "NumBytes"):
    """A standard single block: COUNT(*) and SUM(measure) grouped on key."""
    from repro.relalg.expressions import Field

    condition = Field(key, BASE_VAR) == Field(key, DETAIL_VAR)
    return [
        MDBlock(
            [
                AggSpec("count", None, "cnt"),
                AggSpec("sum", Field(measure, DETAIL_VAR), "total"),
            ],
            condition,
        )
    ]


# ---------------------------------------------------------------------------
# A site server without a process
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def serving(tables: dict, site_id: str = "s0"):
    """A live ``SiteServer`` for ``tables``, on a thread of this process."""
    from repro.distributed.site import SkallaSite
    from repro.distributed.siteserver import SiteServer
    from repro.warehouse.storage import LocalWarehouse

    server = SiteServer(SkallaSite(site_id, LocalWarehouse(site_id, tables)))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=5)
        assert not thread.is_alive()
