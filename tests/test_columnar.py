"""Columnar storage, batch kernels and the column-block wire codec.

Unit-level coverage for the columnar execution tentpole: the per-column
relation representation (:mod:`repro.relalg.columnar`), the generated
batch kernels (:func:`repro.relalg.compiler.compile_mask` and friends),
the column-array :class:`~repro.relalg.index.HashIndex` build, and the
fixed-width + dictionary column codec in :mod:`repro.net.serialize` — including
seeded property-style round trips over random relations.
"""

import datetime
import random
import sys
import threading

import pytest

from conftest import brute_force_gmdj, make_flows
from repro.errors import SchemaError, SerializationError
from repro.gmdj import operator
from repro.gmdj.blocks import MDBlock
from repro.net import serialize
from repro.relalg import compiler
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.columnar import Column, ColumnarRelation
from repro.relalg.engine import use_engine
from repro.relalg.expressions import BASE_VAR, DETAIL_VAR, Const, base, col, detail
from repro.relalg.index import HashIndex
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

    def test_as_array_packs_non_nulls(self):
        column = Column("i", INT, [5, None, -7])
        values, present = column.as_array()
        assert values.typecode == "q"
        assert list(values) == [5, -7]
        assert present == [True, False, True]
        assert column.null_count() == 1

    def test_dictionary_first_appearance_order(self):
        column = Column("s", STR, ["b", "a", None, "b", "c", "a"])
        uniques, codes = column.dictionary()
        assert uniques == ["b", "a", "c"]
        assert list(codes) == [0, 1, -1, 0, 2, 1]


# ---------------------------------------------------------------------------
# Batch kernels
# ---------------------------------------------------------------------------


class TestBatchKernels:
    def test_mask_matches_row_predicate(self):
        relation = random_mixed_relation(200, seed=5)
        condition = (col.i > Const(0)) & (col.f < Const(1e7))
        mask = compiler.compile_mask(
            condition, {None: relation.schema}, (None,), None
        )
        predicate = compiler.compile_predicate(
            condition, {None: relation.schema}, (None,)
        )
        indices = mask(len(relation), relation.to_columnar().value_lists())
        expected = [
            index for index, row in enumerate(relation.rows) if predicate(row)
        ]
        assert indices == expected

    def test_mask_null_comparisons_are_false(self):
        relation = Relation(Schema.of(("i", INT)), [(None,), (1,), (-1,)])
        mask = compiler.compile_mask(
            col.i > Const(0), {None: relation.schema}, (None,), None
        )
        assert mask(3, relation.to_columnar().value_lists()) == [1]

    def test_batch_scalar_matches_row_scalar(self):
        relation = random_mixed_relation(150, seed=6)
        expression = col.i * Const(2) + col.f
        batch = compiler.compile_batch_scalar(
            expression, {None: relation.schema}, (None,), None
        )
        scalar = compiler.compile_scalar(
            expression, {None: relation.schema}, (None,)
        )
        values = batch(len(relation), relation.to_columnar().value_lists())
        assert values == [scalar(row) for row in relation.rows]

    def test_select_and_extend_identical_across_engines(self):
        relation = random_mixed_relation(120, seed=7)
        condition = col.f > Const(0.0)
        expression = col.f * Const(0.5)
        with use_engine("row"):
            row_selected = relation.select(condition)
            row_extended = relation.extend("half", FLOAT, expression)
        with use_engine("columnar"):
            col_selected = relation.select(condition)
            col_extended = relation.extend("half", FLOAT, expression)
        assert col_selected.rows == row_selected.rows
        assert col_extended.rows == row_extended.rows

    def test_theta_join_identical_across_engines(self):
        from repro.relalg.operators import theta_join

        left = Relation(Schema.of(("k", INT)), [(1,), (2,), (None,)])
        right = Relation(
            Schema.of(("k2", INT), ("v", FLOAT)),
            [(1, 10.0), (2, 20.0), (1, 30.0), (None, 40.0)],
        )
        condition = base.k == detail.k2
        with use_engine("row"):
            row_joined = theta_join(left, right, condition)
        with use_engine("columnar"):
            col_joined = theta_join(left, right, condition)
        assert col_joined.rows == row_joined.rows


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
        with use_engine("row"):
            row_result = operator.evaluate(base_relation, flows, blocks)
        with use_engine("columnar"):
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
        with use_engine("columnar"):
            tpcr.distinct_project(["NationKey"])
            tpcr.distinct()
            assert tpcr.to_columnar().built_columns() == ()
            columnar_result = expression.evaluate_centralized({"TPCR": tpcr})
        assert set(tpcr.to_columnar().built_columns()) == {"NationKey", "Price"}
        with use_engine("row"):
            row_result = expression.evaluate_centralized({"TPCR": tpcr})
        assert columnar_result.rows == row_result.rows

    def test_holistic_aggregates_fall_back_to_row_path(self):
        flows = make_flows(count=100, seed=32)
        base_relation = flows.distinct_project(["SourceAS"])
        blocks = [
            MDBlock(
                [AggSpec("median", detail.NumBytes, "mid"), count_star("cnt")],
                base.SourceAS == detail.SourceAS,
            )
        ]
        with use_engine("row"):
            row_result = operator.evaluate(base_relation, flows, blocks)
        with use_engine("columnar"):
            columnar_result = operator.evaluate(base_relation, flows, blocks)
        assert columnar_result.rows == row_result.rows

    def test_evaluate_sub_touched_flags_identical(self):
        flows = make_flows(count=200, seed=33)
        base_relation = flows.distinct_project(["SourceAS"])
        blocks = self.blocks()
        with use_engine("row"):
            row_sub, row_touched = operator.evaluate_sub(base_relation, flows, blocks)
        with use_engine("columnar"):
            columnar_sub, columnar_touched = operator.evaluate_sub(
                base_relation, flows, blocks
            )
        assert columnar_sub.rows == row_sub.rows
        assert columnar_touched == row_touched


# ---------------------------------------------------------------------------
# HashIndex builds from columns
# ---------------------------------------------------------------------------


class TestColumnarIndex:
    def test_lookup_matches_row_scan(self):
        relation = random_mixed_relation(80, seed=8, null_rate=0.3)
        index = HashIndex(relation, ["i", "s"])
        for probe_row in relation.rows[:10]:
            key = (probe_row[0], probe_row[2])
            expected = [
                row_index
                for row_index, row in enumerate(relation.rows)
                if (row[0], row[2]) == key
            ]
            assert list(index.lookup(key)) == expected

    def test_build_transposes_only_the_key_columns(self):
        relation = random_mixed_relation(80, seed=8, null_rate=0.3)
        HashIndex(relation, ["s", "i"])
        assert relation.to_columnar().built_columns() == ("i", "s")


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
        payload = serialize.encode_relation(relation, "column")
        decoded = serialize.decode_relation(payload)
        assert decoded.schema == relation.schema
        assert decoded.rows == relation.rows

    def test_saves_bytes_on_typical_olap_rows(self):
        flows = make_flows(count=500, seed=9)
        row_bytes = len(serialize.encode_relation(flows, "row"))
        column_bytes = len(serialize.encode_relation(flows, "column"))
        assert column_bytes < row_bytes

    def test_empty_relation_round_trips(self):
        empty = Relation.empty(MIXED_SCHEMA)
        decoded = serialize.decode_relation(
            serialize.encode_relation(empty, "column")
        )
        assert decoded.schema == MIXED_SCHEMA
        assert decoded.rows == []

    def test_all_null_column_round_trips(self):
        relation = Relation(Schema.of(("s", STR)), [(None,)] * 7)
        decoded = serialize.decode_relation(
            serialize.encode_relation(relation, "column")
        )
        assert decoded.rows == relation.rows

    def test_version_byte_dispatches_both_codecs(self):
        relation = random_mixed_relation(20, seed=10)
        for codec in serialize.CODECS:
            payload = serialize.encode_relation(relation, codec)
            assert serialize.decode_relation(payload).rows == relation.rows

    def test_truncated_payload_rejected(self):
        payload = serialize.encode_relation(
            random_mixed_relation(20, seed=11), "column"
        )
        with pytest.raises(SerializationError):
            serialize.decode_relation(payload[:-3])
        with pytest.raises(SerializationError):
            serialize.decode_relation(payload + b"\x00")

    def test_unknown_codec_rejected(self):
        with pytest.raises(SerializationError):
            serialize.encode_relation(random_mixed_relation(1, seed=12), "zstd")
        with pytest.raises(SerializationError):
            serialize.validate_codec("parquet")

    def test_wire_size_matches_encoded_length(self):
        relation = random_mixed_relation(30, seed=13)
        for codec in serialize.CODECS:
            assert serialize.wire_size(relation, codec) == len(
                serialize.encode_relation(relation, codec)
            )


# ---------------------------------------------------------------------------
# Codec edge cases: zero rows and all-null columns, under BOTH codecs
# ---------------------------------------------------------------------------


class TestCodecEdgeCases:
    """Regression net for the degenerate relations the wire must carry.

    Zero-row shipments happen whenever a site holds no qualifying
    fragment for a round, and all-null columns whenever an outer feature
    never fires — both must survive either codec byte-exactly.
    """

    def test_zero_row_relation_round_trips_under_both_codecs(self):
        empty = Relation.empty(MIXED_SCHEMA)
        for codec in serialize.CODECS:
            decoded = serialize.decode_relation(
                serialize.encode_relation(empty, codec)
            )
            assert decoded.schema == MIXED_SCHEMA
            assert decoded.rows == []

    @pytest.mark.parametrize(
        "col_type", [INT, FLOAT, STR, BOOL, DATE],
        ids=["int", "float", "str", "bool", "date"],
    )
    def test_all_null_column_round_trips_under_both_codecs(self, col_type):
        relation = Relation(Schema.of(("v", col_type)), [(None,)] * 9)
        for codec in serialize.CODECS:
            decoded = serialize.decode_relation(
                serialize.encode_relation(relation, codec)
            )
            assert decoded.schema == relation.schema
            assert decoded.rows == relation.rows

    def test_all_null_alongside_populated_columns(self):
        rows = [(index, None, None) for index in range(17)]
        relation = Relation(
            Schema.of(("k", INT), ("s", STR), ("b", BOOL)), rows
        )
        for codec in serialize.CODECS:
            decoded = serialize.decode_relation(
                serialize.encode_relation(relation, codec)
            )
            assert decoded.rows == relation.rows

    def test_empty_string_stays_distinct_from_null(self):
        relation = Relation(
            Schema.of(("s", STR)), [("",), (None,), ("x",), ("",), (None,)]
        )
        for codec in serialize.CODECS:
            decoded = serialize.decode_relation(
                serialize.encode_relation(relation, codec)
            )
            assert decoded.rows == relation.rows

    def test_zero_row_message_round_trips_under_both_codecs(self):
        from repro.net.message import SHIP_BASE, Message

        empty = Relation.empty(MIXED_SCHEMA)
        for codec in serialize.CODECS:
            message = Message.with_relation(
                SHIP_BASE, "coordinator", "site0", 1, empty, codec=codec
            )
            decoded = message.relation()
            assert decoded.schema == MIXED_SCHEMA
            assert decoded.rows == []
