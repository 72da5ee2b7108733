"""A site's partition as the store holds it and as the site holds it.

The partition store is format v3, one relation per file. A site server
loads it with :func:`~repro.distributed.siteserver.load_site`, which adopts
the decoded columns: at every row count a NULL-free INT column within
``±2**53`` is an ``int64`` array and a NULL-free FLOAT column a ``float64``
one. Rows are built only for a caller that reads them.
These tests pin what the store's bytes may do to a loader, which readers
keep the rows unbuilt, and how much a loaded site holds while it answers
the benchmark's scan statements.
"""

from __future__ import annotations

import gc
import os
import tracemalloc

import numpy as np
import pytest

from bench_e2e.workloads import (
    S1_CORRELATED,
    S2_CUBE_CELL,
    S3_REGION_ROLLUP,
    S4_MONTH_MARGINAL,
)
from conftest import adversarial_tables
from repro.data.tpcr import TPCRConfig, generate_tpcr, nation_partitioner, register_tpcr_fds
from repro.distributed import SimulatedCluster, execute_query
from repro.distributed.costing import StatisticsStore
from repro.distributed.siteserver import (
    load_catalog,
    load_site,
    load_site_relation,
    read_manifest,
    write_partition_store,
)
from repro.errors import DeploymentError, SerializationError
from repro.net import serialize
from repro.queries import sql
from repro.relalg.expressions import col
from repro.relalg.relation import Relation
from repro.warehouse.partition import RoundRobinPartitioner
from repro.warehouse.storage import LocalWarehouse

PALETTE = adversarial_tables()["Palette"]
TYPED = {"exact": np.int64, "small": np.int64, "real": np.float64}


def store_of(root, tables: dict) -> str:
    cluster = SimulatedCluster.with_sites(1)
    for name, relation in tables.items():
        cluster.sites["site0"].warehouse.register(name, relation)
    write_partition_store(cluster, str(root))
    return str(root)


def loaded(root, name: str = "Palette") -> Relation:
    return load_site_relation(root, "site0", read_manifest(root, "site0")["tables"][name])


def partition_file(root, name: str = "Palette") -> str:
    entry = read_manifest(root, "site0")["tables"][name]
    return os.path.join(root, "sites", "site0", entry["file"])


# ---------------------------------------------------------------------------
# What the store holds, and what a loaded site holds
# ---------------------------------------------------------------------------


def test_every_partition_file_is_format_v3(tmp_path):
    root = store_of(tmp_path, adversarial_tables())
    for entry in read_manifest(root, "site0")["tables"].values():
        with open(os.path.join(root, "sites", "site0", entry["file"]), "rb") as handle:
            assert handle.read(5) == b"SKRL\x03"


def test_a_large_decode_holds_typed_arrays_and_derives_the_lists(tmp_path):
    root = store_of(tmp_path, {"Palette": PALETTE})
    as_arrays = loaded(root)
    held = as_arrays.held()
    for position, name in enumerate(PALETTE.schema.names):
        derived = as_arrays.values(position)
        assert repr(derived) == repr([row[position] for row in PALETTE.rows])
        if name in TYPED:
            assert type(held[position]) is np.ndarray
            assert held[position].dtype == TYPED[name]
            data, valid = as_arrays.typed(position)
            assert data is held[position] and valid is None
            # Derived per request, never kept.
            assert derived is not as_arrays.values(position)
        else:  # NULLs, beyond ±2**53, or not a number: a value list
            assert type(held[position]) is list
    assert as_arrays._rows is None
    assert len(as_arrays) == len(PALETTE)
    assert repr(as_arrays.rows) == repr(PALETTE.rows)


def kinds(relation: Relation) -> list:
    """Each attribute's column kind: an array's dtype, or ``list``."""
    return [
        column.dtype if type(column) is np.ndarray else type(column)
        for column in relation.held()
    ]


def test_a_site_in_process_and_a_loaded_site_hold_the_same_column_kinds(tmp_path):
    """One representation: a partition the cluster split in process and
    the same partition a site server loads from the store hold each
    attribute as the same kind of column, typed arrays of one dtype or
    value lists."""
    tpcr = generate_tpcr(TPCRConfig(scale=0.0005, seed=101))
    for name, relation, partitioner in (
        ("TPCR", tpcr, nation_partitioner(2)),
        ("Palette", PALETTE, RoundRobinPartitioner(2)),
    ):
        built = SimulatedCluster.with_sites(2)
        built.load_partitioned(name, relation, partitioner)
        root = str(tmp_path / name)
        write_partition_store(built, root)
        for site_id in built.site_ids:
            in_process = built.site(site_id).warehouse.table(name)
            served = load_site(root, site_id).warehouse.table(name)
            assert kinds(in_process) == kinds(served), (name, site_id)
            assert in_process._rows is None and served._rows is None
            assert repr(in_process.rows) == repr(served.rows)
        if name == "TPCR":
            assert kinds(in_process).count(list) == 2  # CustName (STR), Returned (BOOL)


def test_a_column_beyond_2_to_the_53_stays_a_list(tmp_path):
    for edge in (2**53, -(2**53)):
        for beyond in (edge + (1 if edge > 0 else -1), 2**64, -(2**64)):
            relation = Relation(PALETTE.schema.project(["small"]), [(edge,), (beyond,)])
            root = store_of(tmp_path / str(beyond), {"Palette": relation})
            held = loaded(root).held()[0]
            assert type(held) is list and repr(held) == repr([edge, beyond])
        relation = Relation(PALETTE.schema.project(["small"]), [(edge,), (0,)])
        held = loaded(store_of(tmp_path / str(edge), {"Palette": relation}))
        assert held.typed(0)[0].tolist() == [edge, 0]


# ---------------------------------------------------------------------------
# Untrusted partition files (``TestUntrustedBytes``' idiom, through the loader)
# ---------------------------------------------------------------------------


def palette_with_tail(tail) -> Relation:
    """PALETTE and one more row whose ``TYPED`` columns hold ``tail``.

    With ``tail`` 0 those columns decode as typed arrays; with ``None``
    they hold a NULL and decode as value lists. The corruption tests run
    over both, so each decode path meets every damaged byte."""
    row = list(PALETTE.rows[-1])
    for position, name in enumerate(PALETTE.schema.names):
        if name in TYPED:
            row[position] = None if tail is None else TYPED[name](tail).item()
    return Relation(PALETTE.schema, PALETTE.rows + [tuple(row)])


def store_with_tail(root, tail) -> str:
    root = store_of(root, {"Palette": palette_with_tail(tail)})
    held = loaded(root).held()
    for position, name in enumerate(PALETTE.schema.names):
        if name in TYPED:
            assert type(held[position]) is (list if tail is None else np.ndarray)
    return root


@pytest.mark.parametrize("tail", [0, None])
def test_every_strict_prefix_of_a_partition_file_is_rejected(tmp_path, tail):
    root = store_with_tail(tmp_path, tail)
    path = partition_file(root)
    with open(path, "rb") as handle:
        payload = handle.read()
    for cut in range(len(payload)):
        with open(path, "wb") as handle:
            handle.write(payload[:cut])
        with pytest.raises((SerializationError, DeploymentError)):
            load_site(root, "site0")


@pytest.mark.parametrize("tail", [0, None])
def test_every_byte_flip_of_a_partition_file_loads_or_is_rejected(tmp_path, tail):
    root = store_with_tail(tmp_path, tail)
    path = partition_file(root)
    with open(path, "rb") as handle:
        payload = handle.read()
    for position in range(len(payload)):
        for flip in (0x01, 0x80, 0xFF):
            mutated = bytearray(payload)
            mutated[position] ^= flip
            with open(path, "wb") as handle:
                handle.write(mutated)
            try:
                site = load_site(root, "site0")
            except (SerializationError, DeploymentError):
                continue
            table = site.warehouse.table("Palette")
            assert len(table.rows) == len(table)


def test_a_row_count_beyond_the_payload_is_rejected_before_any_allocation(tmp_path):
    root = store_of(tmp_path, {"Palette": PALETTE})
    path = partition_file(root)
    header = serialize.encode_relation(Relation.empty(PALETTE.schema))[:-1]
    count = bytearray()
    serialize._write_varint(count, 2**60)
    with open(path, "wb") as handle:
        handle.write(header + bytes(count) + b"\x00" * 64)
    tracemalloc.start()
    try:
        with pytest.raises(SerializationError, match="rows declared"):
            loaded(root)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


# ---------------------------------------------------------------------------
# Readers of a store-loaded table read its columns
# ---------------------------------------------------------------------------


def test_column_reads_the_columns(tmp_path):
    table = loaded(store_of(tmp_path, {"Palette": PALETTE}))
    for position, name in enumerate(PALETTE.schema.names):
        assert repr(table.column(name)) == repr([row[position] for row in PALETTE.rows])
    StatisticsStore().register_from_relation("Palette", table)
    assert table._rows is None


def test_union_all_reads_the_columns(tmp_path):
    root = store_of(tmp_path, {"Palette": PALETTE})
    first, second = loaded(root), loaded(root)
    expected = repr(PALETTE.rows + PALETTE.rows + PALETTE.rows)
    for union in (
        first.union_all(second, PALETTE),
        PALETTE.union_all(first, second),
        Relation.empty(PALETTE.schema).union_all(first, second, PALETTE),
    ):
        assert union._rows is None
        assert len(union) == 3 * len(PALETTE)
        for name, dtype in TYPED.items():
            data, valid = union.typed(PALETTE.schema.position(name))
            assert data.dtype == dtype and valid is None
            assert data is union.held_at(PALETTE.schema.position(name))
        assert repr(union.rows) == expected
    assert first._rows is None and second._rows is None


def test_appending_to_a_store_loaded_table_builds_no_rows(tmp_path):
    warehouse = LocalWarehouse("site0")
    warehouse.register("Palette", loaded(store_of(tmp_path, {"Palette": PALETTE})))
    warehouse.append("Palette", Relation(PALETTE.schema, PALETTE.rows[:2]))
    table = warehouse.table("Palette")
    assert table._rows is None
    assert repr(table.rows) == repr(PALETTE.rows + PALETTE.rows[:2])


def test_select_and_distinct_project_read_the_columns(tmp_path):
    table = loaded(store_of(tmp_path, {"Palette": PALETTE}))
    selected = table.select(col.small >= 1)
    distinct = table.distinct_project(["text", "flag"])
    assert table._rows is None and selected._rows is None
    assert repr(selected.rows) == repr(PALETTE.select(col.small >= 1).rows)
    assert repr(distinct.rows) == repr(PALETTE.distinct_project(["text", "flag"]).rows)


# ---------------------------------------------------------------------------
# The residency guard
# ---------------------------------------------------------------------------

STATEMENTS = (S1_CORRELATED, S2_CUBE_CELL, S3_REGION_ROLLUP, S4_MONTH_MARGINAL)
#: tracemalloc peak, MiB, of loading a 10^5-row TPCR partition and answering
#: S1-S4 on it: about 22 from typed columns; 52 when the site held row
#: tuples, and any design that builds them lands there again.
PEAK_BOUND_MIB = 32


def answers(cluster) -> list:
    results = []
    for text in STATEMENTS:
        statement = sql.parse_olap_statement(text)
        results.append(statement.apply_post(execute_query(cluster, statement.expression).relation))
    return results


def test_a_loaded_site_answers_the_scan_statements_from_its_columns(tmp_path):
    tpcr = generate_tpcr(TPCRConfig(scale=100_000 / 6_000_000, seed=101))
    built = SimulatedCluster.with_sites(1)
    built.load_partitioned("TPCR", tpcr, nation_partitioner(1))
    register_tpcr_fds(built.catalog)
    root = str(tmp_path)
    write_partition_store(built, root)
    gc.collect()

    tracemalloc.start()
    try:
        site = load_site(root, "site0")
        served = SimulatedCluster(["site0"])
        served.sites["site0"], served.catalog = site, load_catalog(root)
        got = answers(served)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert peak < PEAK_BOUND_MIB * 2**20, f"peak {peak / 2**20:.1f} MiB"
    table = site.warehouse.table("TPCR")
    assert table._rows is None
    for position, attribute in enumerate(table.schema):
        if attribute.type in ("int", "float"):  # TPCR has no NULL, no int past 2**53
            assert type(table.held_at(position)) is np.ndarray
    assert [repr(answer.rows) for answer in got] == [
        repr(answer.rows) for answer in answers(built)
    ]
