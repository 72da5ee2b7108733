"""Unit tests for partitioners, including the φᵢ truthfulness contract."""

import pytest

from repro.errors import WarehouseError
from repro.relalg.compiler import compile_predicate
from repro.relalg.expressions import DETAIL_VAR
from repro.relalg.relation import Relation
from repro.relalg.schema import FLOAT, INT, Schema
from repro.warehouse.partition import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    RoundRobinPartitioner,
    ValueListPartitioner,
)

SCHEMA = Schema.of(("a", INT), ("v", FLOAT))
RELATION = Relation(SCHEMA, [(value, float(value)) for value in range(40)])


def assert_phi_truthful(partitioner: Partitioner, relation: Relation):
    """Every row at site i must satisfy φᵢ (Theorem 4's hypothesis)."""
    partitions = partitioner.split(relation)
    for index, partition in enumerate(partitions):
        phi = partitioner.site_predicate(index, relation.schema)
        if phi is None:
            continue
        predicate = compile_predicate(phi, {DETAIL_VAR: relation.schema}, (DETAIL_VAR,))
        for row in partition.rows:
            assert predicate(row), (
                f"row {row} at site {index} violates its phi"
            )


def assert_partition_attr_disjoint(partitioner: Partitioner, relation: Relation):
    """Definition 2: partition attribute value sets are pairwise disjoint."""
    partitions = partitioner.split(relation)
    for attribute in partitioner.partition_attributes():
        position = relation.schema.position(attribute)
        value_sets = [
            {row[position] for row in partition.rows} for partition in partitions
        ]
        for i in range(len(value_sets)):
            for j in range(i + 1, len(value_sets)):
                assert not (value_sets[i] & value_sets[j])


class TestValueListPartitioner:
    def test_split_respects_assignment(self):
        partitioner = ValueListPartitioner("a", {value: value % 3 for value in range(40)}, 3)
        partitions = partitioner.split(RELATION)
        assert sum(len(partition) for partition in partitions) == len(RELATION)
        assert all(row[0] % 3 == 0 for row in partitions[0].rows)

    def test_spread_deals_sorted_values(self):
        partitioner = ValueListPartitioner.spread("a", range(40), 4)
        assert partitioner.assignment[0] == 0
        assert partitioner.assignment[1] == 1
        assert partitioner.assignment[4] == 0

    def test_phi_truthful_and_disjoint(self):
        partitioner = ValueListPartitioner.spread("a", range(40), 4)
        assert_phi_truthful(partitioner, RELATION)
        assert_partition_attr_disjoint(partitioner, RELATION)

    def test_values_at_site(self):
        partitioner = ValueListPartitioner.spread("a", range(8), 4)
        assert partitioner.values_at_site(0) == frozenset([0, 4])

    def test_unassigned_value_raises(self):
        partitioner = ValueListPartitioner("a", {0: 0}, 1)
        with pytest.raises(WarehouseError):
            partitioner.split(RELATION)

    def test_invalid_site_in_assignment(self):
        with pytest.raises(WarehouseError):
            ValueListPartitioner("a", {0: 5}, 2)


class TestRangePartitioner:
    def test_boundaries(self):
        partitioner = RangePartitioner("a", [9, 19, 29], 4)
        partitions = partitioner.split(RELATION)
        assert [len(partition) for partition in partitions] == [10, 10, 10, 10]

    def test_phi_truthful_and_disjoint(self):
        partitioner = RangePartitioner("a", [9, 19, 29], 4)
        assert_phi_truthful(partitioner, RELATION)
        assert_partition_attr_disjoint(partitioner, RELATION)

    def test_boundary_count_validated(self):
        with pytest.raises(WarehouseError):
            RangePartitioner("a", [1, 2], 4)

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(WarehouseError):
            RangePartitioner("a", [5, 1], 3)

    def test_null_value_rejected(self):
        partitioner = RangePartitioner("a", [5], 2)
        relation = Relation(SCHEMA, [(None, 0.0)])
        with pytest.raises(WarehouseError):
            partitioner.split(relation)


class TestHashPartitioner:
    def test_deterministic_and_complete(self):
        partitioner = HashPartitioner(["a"], 4)
        first = partitioner.split(RELATION)
        second = partitioner.split(RELATION)
        for left, right in zip(first, second):
            assert left.same_rows(right)
        assert sum(len(partition) for partition in first) == len(RELATION)

    def test_single_attribute_is_partition_attribute(self):
        partitioner = HashPartitioner(["a"], 4)
        assert partitioner.partition_attributes() == ("a",)
        assert_partition_attr_disjoint(partitioner, RELATION)

    def test_multi_attribute_has_no_partition_attribute(self):
        assert HashPartitioner(["a", "v"], 4).partition_attributes() == ()

    def test_no_phi(self):
        assert HashPartitioner(["a"], 4).site_predicate(0, SCHEMA) is None

    def test_needs_attributes(self):
        with pytest.raises(WarehouseError):
            HashPartitioner([], 2)


class TestRoundRobinPartitioner:
    def test_even_split(self):
        partitioner = RoundRobinPartitioner(4)
        partitions = partitioner.split(RELATION)
        assert [len(partition) for partition in partitions] == [10, 10, 10, 10]

    def test_no_knowledge(self):
        partitioner = RoundRobinPartitioner(4)
        assert partitioner.site_predicate(0, SCHEMA) is None
        assert partitioner.partition_attributes() == ()

    def test_split_resets_counter(self):
        partitioner = RoundRobinPartitioner(2)
        first = partitioner.split(RELATION)
        second = partitioner.split(RELATION)
        assert first[0].same_rows(second[0])


class TestPartitionerBase:
    def test_needs_at_least_one_site(self):
        with pytest.raises(WarehouseError):
            RoundRobinPartitioner(0)

    def test_bad_assignment_detected(self):
        class Broken(Partitioner):
            def assign(self, row, schema):
                return 99

        with pytest.raises(WarehouseError):
            Broken(2).split(RELATION)
