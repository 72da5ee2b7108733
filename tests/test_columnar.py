"""Columnar storage, batch kernels and the column-block wire codec.

Unit-level coverage for the vector scan: the per-column relation
representation and its cached typed views and key codes
(:mod:`repro.relalg.columnar`), the vector kernels
(:func:`repro.relalg.compiler.compile_mask` and friends), and the
fixed-width + dictionary column codec in :mod:`repro.net.serialize` — including
seeded property-style round trips over random relations.
"""

import datetime
import os
import random
import sys
import threading

import numpy as np
import pytest

from conftest import brute_force_gmdj, make_flows
from oracle import FORMATS, encode_relation_reference, row_scan
from repro.errors import SchemaError, SerializationError
from repro.gmdj import operator
from repro.gmdj.blocks import MDBlock
from repro.net import serialize
from repro.relalg import compiler
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.columnar import Column, ColumnarRelation, as_list
from repro.relalg.expressions import BASE_VAR, DETAIL_VAR, Const, base, col, detail
from repro.relalg.relation import Relation
from repro.relalg.schema import BOOL, DATE, FLOAT, INT, STR, Schema

MIXED_SCHEMA = Schema.of(
    ("i", INT), ("f", FLOAT), ("s", STR), ("b", BOOL), ("d", DATE)
)


def random_mixed_relation(count, seed, null_rate=0.2):
    rng = random.Random(seed)

    def maybe(value):
        return None if rng.random() < null_rate else value

    rows = [
        (
            maybe(rng.randrange(-(2**40), 2**40)),
            maybe(rng.choice([rng.uniform(-1e6, 1e6), 0.0, -0.0, 1e308])),
            maybe(rng.choice(["alpha", "beta", "gamma", "", "naïve—☃"])),
            maybe(rng.random() < 0.5),
            maybe(datetime.date(2000 + rng.randrange(30), 1 + rng.randrange(12), 1 + rng.randrange(28))),
        )
        for _ in range(count)
    ]
    return Relation(MIXED_SCHEMA, rows)


def distinct_keys(columnar, positions, firsts):
    """The distinct keys a factorization names: its first rows' key tuples."""
    return list(zip(*map(as_list, columnar.take(positions, firsts))))


# ---------------------------------------------------------------------------
# Columnar storage
# ---------------------------------------------------------------------------


class TestColumnarRelation:
    def test_round_trip_preserves_rows_and_order(self):
        relation = random_mixed_relation(100, seed=1)
        columnar = ColumnarRelation.from_rows(relation.schema, relation.rows)
        assert columnar.to_rows() == list(relation.rows)
        assert len(columnar) == 100

    def test_relation_to_columnar_is_cached(self):
        relation = random_mixed_relation(10, seed=2)
        assert relation.to_columnar() is relation.to_columnar()

    def test_from_columnar_seeds_the_cache(self):
        relation = random_mixed_relation(10, seed=3)
        columnar = relation.to_columnar()
        rebuilt = Relation.from_columnar(columnar)
        assert rebuilt.rows == relation.rows
        assert rebuilt.to_columnar() is columnar

    def test_gather_selects_rows_by_index(self):
        relation = random_mixed_relation(20, seed=4)
        columnar = relation.to_columnar()
        gathered = columnar.gather([3, 0, 17])
        assert gathered.to_rows() == [
            relation.rows[3], relation.rows[0], relation.rows[17]
        ]

    def test_ragged_columns_rejected(self):
        with pytest.raises(SchemaError):
            ColumnarRelation(
                Schema.of(("a", INT), ("b", INT)),
                [Column("a", INT, [1, 2]), Column("b", INT, [1])],
            )

    def test_column_count_must_match_schema(self):
        with pytest.raises(SchemaError):
            ColumnarRelation(Schema.of(("a", INT)), [])

    def test_zero_column_relation_keeps_length(self):
        columnar = ColumnarRelation.from_rows(Schema.of(), [(), (), ()])
        assert len(columnar) == 3
        assert columnar.to_rows() == [(), (), ()]

    def test_from_rows_builds_a_column_only_when_it_is_read(self):
        relation = random_mixed_relation(30, seed=40)
        columnar = relation.to_columnar()
        assert columnar.built_columns() == ()
        assert columnar.value_lists()[2] == [row[2] for row in relation.rows]
        assert columnar.built_columns() == ("s",)
        assert columnar.column("f").values == [row[1] for row in relation.rows]
        assert columnar.built_columns() == ("f", "s")
        assert [column.name for column in columnar.columns] == ["i", "f", "s", "b", "d"]
        assert columnar.built_columns() == ("i", "f", "s", "b", "d")

    def test_a_built_column_is_wrapped_not_copied(self):
        columnar = random_mixed_relation(10, seed=41).to_columnar()
        values = columnar.value_lists()[0]
        assert columnar.column("i").values is values
        assert columnar.columns[0].values is values
        assert columnar.value_lists()[0] is values

    def test_racing_threads_get_equal_complete_columns(self):
        relation = random_mixed_relation(4000, seed=42)
        expected = [row[1] for row in relation.rows]
        columnar = relation.to_columnar()
        start = threading.Barrier(8)
        seen = []

        def read():
            start.wait(timeout=10)
            seen.append(list(columnar.value_lists()[1]))

        threads = [threading.Thread(target=read) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [expected] * 8
        assert columnar.value_lists()[1] == expected

    def test_typed_views_pick_an_exact_dtype(self):
        relation = Relation(
            Schema.of(("i", INT), ("f", FLOAT), ("b", INT), ("h", INT), ("s", STR)),
            [
                (5, 1.5, True, 2**53 + 1, "x"),
                (None, None, 2, 1, None),
                (-7, -0.0, 3, 2, "y"),
            ],
        )
        columnar = relation.to_columnar()
        data, valid = columnar.typed(0)
        assert data.dtype == np.int64 and data.tolist() == [5, 0, -7]
        assert valid.tolist() == [True, False, True]
        data, valid = columnar.typed(1)
        assert data.dtype == np.float64 and [repr(v) for v in data[[0, 2]].tolist()] == ["1.5", "-0.0"]
        # A bool among ints, an int past 2**53, a string: the values themselves.
        for position in (2, 3, 4):
            data, valid = columnar.typed(position)
            assert data.dtype == object
            assert data.tolist() == [row[position] for row in relation.rows]
        assert type(columnar.typed(2)[0][0]) is bool
        assert columnar.typed(0) is columnar.typed(0)  # cached
        assert Column("i", INT, [5, None, -7]).null_count() == 1

    def test_sequence_values_are_one_element_each(self):
        """Equal-length tuples or lists are values, not a second axis: the
        object view is one-dimensional, NULLs or not."""
        for values in ([(1, 2), (3, 4)], [[1, 2], [3, 4]], [(1, 2), None]):
            relation = Relation(Schema.of(("t", STR),), [(value,) for value in values])
            data, _valid = relation.to_columnar().typed(0)
            assert data.shape == (len(values),)
            assert data.tolist() == values
            # A selection over the column sees each whole value.
            assert relation.select(col.t == Const(values[0])).rows == [(values[0],)]

    def test_codes_first_appearance_order(self):
        relation = Relation(
            Schema.of(("s", STR), ("k", FLOAT)),
            [("b", 1.0), ("a", 1), (None, True), ("b", 2.0), ("c", None), ("a", 1.0)],
        )
        columnar = relation.to_columnar()
        firsts, codes = columnar.codes([0])
        assert distinct_keys(columnar, [0], firsts) == [("b",), ("a",), (None,), ("c",)]
        assert codes.tolist() == [0, 1, 2, 0, 3, 1]
        assert codes.dtype == np.int8
        # 1, 1.0 and True are one key, as a dict probe sees them.
        firsts, codes = columnar.codes([1])
        assert distinct_keys(columnar, [1], firsts) == [(1.0,), (2.0,), (None,)]
        assert codes.tolist() == [0, 0, 0, 1, 2, 0]
        firsts, codes = columnar.codes([0, 1])
        assert firsts.tolist() == [0, 1, 2, 3, 4]
        assert distinct_keys(columnar, [0, 1], firsts) == [
            ("b", 1.0), ("a", 1), (None, True), ("b", 2.0), ("c", None)
        ]
        assert codes.tolist() == [0, 1, 2, 3, 4, 1]
        assert columnar.matcher((0,)) is columnar.matcher([0])
        assert columnar.built_views() == ("s", "k")

    def test_racing_threads_get_equal_complete_views(self):
        relation = random_mixed_relation(20000, seed=43)
        expected_floats = [row[1] for row in relation.rows]
        expected_keys = list(dict.fromkeys((row[2], row[3]) for row in relation.rows))
        columnar = relation.to_columnar()
        threads_count = 4 * (os.cpu_count() or 1) + 4
        start = threading.Barrier(threads_count)
        seen = []

        def read():
            start.wait(timeout=10)
            data, valid = columnar.typed(1)
            firsts, codes = columnar.codes((2, 3))
            uniques = distinct_keys(columnar, (2, 3), firsts)
            seen.append((
                [None if not ok else value for value, ok in zip(data.tolist(), valid)],
                uniques,
                [uniques[code] for code in codes.tolist()],
            ))

        threads = [threading.Thread(target=read) for _ in range(threads_count)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        expected = (expected_floats, expected_keys, [(row[2], row[3]) for row in relation.rows])
        assert len(seen) == threads_count
        assert all(view == expected for view in seen)


# ---------------------------------------------------------------------------
# Batch kernels
# ---------------------------------------------------------------------------


class TestBatchKernels:
    def test_mask_matches_row_predicate(self):
        relation = random_mixed_relation(200, seed=5)
        condition = (col.i > Const(0)) & (col.f < Const(1e7))
        mask = compiler.compile_mask(condition, {None: relation.schema})
        predicate = compiler.compile_predicate(
            condition, {None: relation.schema}, (None,)
        )
        indices = mask(len(relation), {None: (relation.to_columnar(), None)})
        expected = [
            index for index, row in enumerate(relation.rows) if predicate(row)
        ]
        assert indices.tolist() == expected

    def test_mask_null_comparisons_are_false(self):
        relation = Relation(Schema.of(("i", INT)), [(None,), (1,), (-1,)])
        mask = compiler.compile_mask(col.i > Const(0), {None: relation.schema})
        assert mask(3, {None: (relation.to_columnar(), None)}).tolist() == [1]

    def test_batch_scalar_matches_row_scalar(self):
        relation = random_mixed_relation(150, seed=6)
        expression = col.i * Const(2) + col.f
        batch = compiler.compile_batch_scalar(expression, {None: relation.schema})
        scalar = compiler.compile_scalar(
            expression, {None: relation.schema}, (None,)
        )
        values = batch(len(relation), {None: (relation.to_columnar(), None)})
        assert values == [scalar(row) for row in relation.rows]

    def test_select_and_extend_identical_across_engines(self):
        """The vector ``select`` / ``extend`` against the row kernels."""
        relation = random_mixed_relation(120, seed=7)
        condition = col.f > Const(0.0)
        expression = col.f * Const(0.5)
        schemas = {None: relation.schema}
        predicate = compiler.compile_predicate(condition, schemas, (None,))
        scalar = compiler.compile_scalar(expression, schemas, (None,))
        assert relation.select(condition).rows == [
            row for row in relation.rows if predicate(row)
        ]
        assert relation.extend("half", FLOAT, expression).rows == [
            row + (scalar(row),) for row in relation.rows
        ]

    def test_theta_join_identical_across_engines(self):
        """The vector ``theta_join`` against the row kernels' nested loop."""
        from repro.relalg.operators import theta_join

        left = Relation(Schema.of(("k", INT)), [(1,), (2,), (None,)])
        right = Relation(
            Schema.of(("k2", INT), ("v", FLOAT)),
            [(1, 10.0), (2, 20.0), (1, 30.0), (None, 40.0)],
        )
        condition = base.k == detail.k2
        predicate = compiler.compile_predicate(
            condition,
            {BASE_VAR: left.schema, DETAIL_VAR: right.schema},
            (BASE_VAR, DETAIL_VAR),
        )
        assert theta_join(left, right, condition).rows == [
            l_row + r_row
            for l_row in left.rows
            for r_row in right.rows
            if predicate(l_row, r_row)
        ]


# ---------------------------------------------------------------------------
# GMDJ differential: columnar vs row vs brute force
# ---------------------------------------------------------------------------


class TestGMDJColumnar:
    def blocks(self):
        return [
            MDBlock(
                [
                    count_star("cnt"),
                    AggSpec("sum", detail.NumBytes, "total"),
                    AggSpec("avg", detail.NumBytes, "mean"),
                    AggSpec("var", detail.NumBytes, "spread"),
                ],
                base.SourceAS == detail.SourceAS,
            ),
            MDBlock(
                [AggSpec("count", detail.NumBytes, "big")],
                (base.SourceAS == detail.SourceAS)
                & (detail.NumBytes > Const(2000.0)),
            ),
        ]

    def test_bit_identical_to_row_engine_and_close_to_brute_force(self):
        flows = make_flows(count=300, seed=31)
        base_relation = flows.distinct_project(["SourceAS"])
        blocks = self.blocks()
        with row_scan():
            row_result = operator.evaluate(base_relation, flows, blocks)
        columnar_result = operator.evaluate(base_relation, flows, blocks)
        assert columnar_result.rows == row_result.rows  # bit-identical
        brute = brute_force_gmdj(base_relation, flows, blocks)
        assert columnar_result.schema == brute.schema

    def test_s1_query_builds_exactly_the_columns_it_reads(self):
        from repro.data.tpcr import TPCRConfig, generate_tpcr
        from repro.queries.olap import QueryBuilder

        tpcr = generate_tpcr(TPCRConfig(scale=0.0005, seed=7))
        expression = (
            QueryBuilder("TPCR", keys=["NationKey"])
            .stage([AggSpec("avg", detail.Price, "m")])
            .stage([count_star("above")], extra=detail.Price >= base.m)
            .build()
        )
        tpcr.distinct()
        assert tpcr.to_columnar().built_columns() == ()
        columnar_result = expression.evaluate_centralized({"TPCR": tpcr})
        # The base-values query and both scans read NationKey's codes and
        # Price's typed view; no value list is kept, none is transposed.
        assert tpcr.to_columnar().built_views() == ("NationKey", "Price")
        assert tpcr.to_columnar().built_columns() == ()
        with row_scan():
            row_result = expression.evaluate_centralized({"TPCR": tpcr})
        assert columnar_result.rows == row_result.rows

    def test_holistic_aggregates_fold_on_the_vector_scan(self):
        flows = make_flows(count=100, seed=32)
        base_relation = flows.distinct_project(["SourceAS"])
        blocks = [
            MDBlock(
                [
                    AggSpec("median", detail.NumBytes, "mid"),
                    AggSpec("count_distinct", detail.DestAS, "dests"),
                    count_star("cnt"),
                ],
                base.SourceAS == detail.SourceAS,
            )
        ]
        with row_scan():
            row_result = operator.evaluate(base_relation, flows, blocks)
        columnar_result = operator.evaluate(base_relation, flows, blocks)
        assert columnar_result.rows == row_result.rows
        assert columnar_result.rows == brute_force_gmdj(base_relation, flows, blocks).rows

    def test_evaluate_sub_touched_flags_identical(self):
        flows = make_flows(count=200, seed=33)
        base_relation = flows.distinct_project(["SourceAS"])
        blocks = self.blocks()
        with row_scan():
            row_sub, row_touched = operator.evaluate_sub(base_relation, flows, blocks)
        columnar_sub, columnar_touched = operator.evaluate_sub(
            base_relation, flows, blocks
        )
        assert columnar_sub.rows == row_sub.rows
        assert columnar_touched.tolist() == row_touched.tolist()


# ---------------------------------------------------------------------------
# Column-block wire codec
# ---------------------------------------------------------------------------


class TestColumnCodec:
    @pytest.mark.parametrize("seed", range(5))
    def test_property_round_trip_random_relations(self, seed):
        rng = random.Random(seed * 101 + 7)
        relation = random_mixed_relation(
            rng.randrange(0, 200), seed=seed, null_rate=rng.uniform(0, 0.9)
        )
        payload = serialize.encode_relation(relation)
        decoded = serialize.decode_relation(payload)
        assert decoded.schema == relation.schema
        assert decoded.rows == relation.rows

    def test_saves_bytes_on_typical_olap_rows(self):
        flows = make_flows(count=500, seed=9)
        row_bytes = len(encode_relation_reference(flows))  # format v1
        column_bytes = len(serialize.encode_relation(flows))
        assert column_bytes < row_bytes

    def test_empty_relation_round_trips(self):
        empty = Relation.empty(MIXED_SCHEMA)
        decoded = serialize.decode_relation(serialize.encode_relation(empty))
        assert decoded.schema == MIXED_SCHEMA
        assert decoded.rows == []

    def test_all_null_column_round_trips(self):
        relation = Relation(Schema.of(("s", STR)), [(None,)] * 7)
        decoded = serialize.decode_relation(serialize.encode_relation(relation))
        assert decoded.rows == relation.rows

    def test_version_byte_dispatches_both_codecs(self):
        # The wire's decoder reads format v3 only; the v1 oracle's decoder
        # reads v1 only. Each rejects the other's bytes by the version byte.
        relation = random_mixed_relation(20, seed=10)
        for name, (encode, decode) in FORMATS.items():
            payload = encode(relation)
            assert payload[4] == (3 if name == "column" else 1)
            assert decode(payload).rows == relation.rows
            (_, other) = FORMATS["row" if name == "column" else "column"]
            with pytest.raises(SerializationError):
                other(payload)

    def test_truncated_payload_rejected(self):
        payload = serialize.encode_relation(random_mixed_relation(20, seed=11))
        with pytest.raises(SerializationError):
            serialize.decode_relation(payload[:-3])
        with pytest.raises(SerializationError):
            serialize.decode_relation(payload + b"\x00")


# ---------------------------------------------------------------------------
# Codec edge cases: zero rows and all-null columns, under the wire's format
# v3 and the v1 oracle it is diffed against
# ---------------------------------------------------------------------------


class TestCodecEdgeCases:
    """Regression net for the degenerate relations the wire must carry.

    Zero-row shipments happen whenever a site holds no qualifying
    fragment for a round, and all-null columns whenever an outer feature
    never fires — both must survive the wire's format and its oracle
    (``oracle.FORMATS``) byte-exactly.
    """

    def test_zero_row_relation_round_trips_under_both_codecs(self):
        empty = Relation.empty(MIXED_SCHEMA)
        for encode, decode in FORMATS.values():
            decoded = decode(encode(empty))
            assert decoded.schema == MIXED_SCHEMA
            assert decoded.rows == []

    @pytest.mark.parametrize(
        "col_type", [INT, FLOAT, STR, BOOL, DATE],
        ids=["int", "float", "str", "bool", "date"],
    )
    def test_all_null_column_round_trips_under_both_codecs(self, col_type):
        relation = Relation(Schema.of(("v", col_type)), [(None,)] * 9)
        for encode, decode in FORMATS.values():
            decoded = decode(encode(relation))
            assert decoded.schema == relation.schema
            assert decoded.rows == relation.rows

    def test_all_null_alongside_populated_columns(self):
        rows = [(index, None, None) for index in range(17)]
        relation = Relation(
            Schema.of(("k", INT), ("s", STR), ("b", BOOL)), rows
        )
        for encode, decode in FORMATS.values():
            assert decode(encode(relation)).rows == relation.rows

    def test_empty_string_stays_distinct_from_null(self):
        relation = Relation(
            Schema.of(("s", STR)), [("",), (None,), ("x",), ("",), (None,)]
        )
        for encode, decode in FORMATS.values():
            assert decode(encode(relation)).rows == relation.rows

    def test_zero_row_message_round_trips(self):
        from repro.net.message import SHIP_BASE, Message

        empty = Relation.empty(MIXED_SCHEMA)
        message = Message.with_relation(SHIP_BASE, "coordinator", "site0", 1, empty)
        decoded = message.relation()
        assert decoded.schema == MIXED_SCHEMA
        assert decoded.rows == []
