"""Unit tests for the local warehouse store."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.errors import SchemaError, WarehouseError
from repro.relalg.relation import Relation
from repro.relalg.schema import INT, Schema
from repro.warehouse.storage import LocalWarehouse

SCHEMA = Schema.of(("k", INT),)
RELATION = Relation(SCHEMA, [(1,), (2,)])


class TestLocalWarehouse:
    def test_register_and_lookup(self):
        warehouse = LocalWarehouse("w")
        warehouse.register("T", RELATION)
        assert warehouse.table("T") is RELATION
        assert warehouse.schema("T") is SCHEMA
        assert warehouse.has_table("T")
        assert warehouse.row_count("T") == 2

    def test_constructor_tables(self):
        warehouse = LocalWarehouse("w", {"T": RELATION})
        assert warehouse.table_names() == ("T",)

    def test_register_replaces(self):
        warehouse = LocalWarehouse("w", {"T": RELATION})
        other = Relation(SCHEMA, [(9,)])
        warehouse.register("T", other)
        assert warehouse.table("T") is other

    def test_register_requires_relation(self):
        with pytest.raises(WarehouseError):
            LocalWarehouse("w").register("T", [(1,)])

    def test_append(self):
        warehouse = LocalWarehouse("w", {"T": RELATION})
        warehouse.append("T", Relation(SCHEMA, [(3,)]))
        assert warehouse.row_count("T") == 3

    def test_drop(self):
        warehouse = LocalWarehouse("w", {"T": RELATION})
        warehouse.drop("T")
        assert not warehouse.has_table("T")
        with pytest.raises(WarehouseError):
            warehouse.drop("T")

    def test_unknown_table_error_lists_tables(self):
        warehouse = LocalWarehouse("w", {"T": RELATION})
        with pytest.raises(WarehouseError) as info:
            warehouse.table("missing")
        assert "T" in str(info.value)

    def test_tables_view_is_copy(self):
        warehouse = LocalWarehouse("w", {"T": RELATION})
        view = warehouse.tables()
        view["X"] = RELATION
        assert not warehouse.has_table("X")

    def test_iteration_sorted(self):
        warehouse = LocalWarehouse("w", {"B": RELATION, "A": RELATION})
        assert list(warehouse) == ["A", "B"]

    def test_repr(self):
        warehouse = LocalWarehouse("w", {"T": RELATION})
        assert "T(2)" in repr(warehouse)


class TestAppendLog:
    """An append is a part of the table's log, folded in on a full read."""

    def test_append_leaves_the_held_partition_in_place_until_a_full_read(self):
        held = Relation(SCHEMA, [(value,) for value in range(1000)])
        warehouse = LocalWarehouse("w", {"T": held})
        warehouse.append("T", Relation(SCHEMA, [(1000,)]))
        warehouse.append("T", Relation(SCHEMA, [(1001,)]))
        assert warehouse._tables["T"] is held
        assert warehouse.row_count("T") == 1002
        assert warehouse.appended_since("T", 1).rows == [(1000,), (1001,)]
        assert warehouse._tables["T"] is held
        grown = warehouse.table("T")
        assert grown is not held
        assert grown.rows == held.rows + [(1000,), (1001,)]
        assert warehouse.table("T") is grown

    def test_appended_since_reads_across_a_full_read(self):
        warehouse = LocalWarehouse("w", {"T": RELATION})
        for value in (3, 4, 5):
            warehouse.append("T", Relation(SCHEMA, [(value,)]))
        warehouse.table("T")
        warehouse.append("T", Relation(SCHEMA, []))
        warehouse.append("T", Relation(SCHEMA, [(6,)]))
        version = warehouse.version("T")
        assert version == 6
        assert warehouse.appended_since("T", 1).rows == [(3,), (4,), (5,), (6,)]
        assert warehouse.appended_since("T", 3).rows == [(5,), (6,)]
        assert warehouse.appended_since("T", 4).rows == [(6,)]
        assert warehouse.appended_since("T", 5).rows == [(6,)]
        assert warehouse.appended_since("T", 6).rows == []

    def test_appended_since_is_none_after_a_register_or_drop(self):
        warehouse = LocalWarehouse("w", {"T": RELATION})
        warehouse.append("T", Relation(SCHEMA, [(3,)]))
        warehouse.register("T", Relation(SCHEMA, [(9,)]))
        assert warehouse.appended_since("T", 1) is None
        assert warehouse.appended_since("T", 2) is None
        assert warehouse.appended_since("T", 3).rows == []
        warehouse.drop("T")
        assert warehouse.appended_since("T", 3) is None
        assert warehouse.appended_since("missing", 0) is None

    def test_append_rejects_another_schema(self):
        warehouse = LocalWarehouse("w", {"T": RELATION})
        with pytest.raises(SchemaError):
            warehouse.append("T", Relation(Schema.of(("x", INT)), [(1,)]))
        assert warehouse.version("T") == 1

    def test_concurrent_full_reads_each_see_every_row(self):
        held = Relation(SCHEMA, [(value,) for value in range(5000)])
        expected = held.rows + [(value,) for value in range(5000, 5064)]
        threads = 8
        for _attempt in range(20):
            warehouse = LocalWarehouse("w", {"T": held})
            for value in range(5000, 5064):
                warehouse.append("T", Relation(SCHEMA, [(value,)]))
            barrier = threading.Barrier(threads)

            def read():
                barrier.wait()
                return warehouse.table("T")

            with ThreadPoolExecutor(max_workers=threads) as pool:
                seen = list(pool.map(lambda _index: read(), range(threads)))
            assert all(table.rows == expected for table in seen)
            assert len({id(table) for table in seen}) == 1

    def test_appended_since_slices_a_column_backed_table(self):
        held = Relation.of_columns(SCHEMA, [np.arange(4, dtype=np.int64)], 4)
        warehouse = LocalWarehouse("w", {"T": held})
        warehouse.append("T", Relation(SCHEMA, [(4,)]))
        warehouse.append("T", Relation(SCHEMA, [(5,)]))
        assert warehouse.table("T")._rows is None  # concatenated as columns
        assert warehouse.appended_since("T", 1).rows == [(4,), (5,)]
        assert warehouse.appended_since("T", 2).rows == [(5,)]
