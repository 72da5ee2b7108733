"""Unit tests for data cube construction via GMDJs."""

import itertools

import pytest

from conftest import assert_relations_equal
from oracle.algebra import group_by
from repro.errors import PlanError
from repro.queries.cube import (
    combine_lattice_results,
    cube_base_relation,
    cube_lattice_queries,
    cube_single_expression,
    dimension_subsets,
)
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import col, detail
from repro.relalg.relation import Relation
from repro.relalg.schema import FLOAT, INT, STR, Schema

SALES = Relation(
    Schema.of(("region", STR), ("product", STR), ("amount", FLOAT)),
    [
        ("n", "a", 10.0),
        ("n", "a", 20.0),
        ("n", "b", 5.0),
        ("s", "a", 7.0),
        ("s", "b", 3.0),
        ("s", "b", 1.0),
    ],
)
DIMS = ["region", "product"]
AGGS = [count_star("cnt"), AggSpec("sum", detail.amount, "total")]
TABLES = {"Sales": SALES}


def brute_force_cube():
    """Reference cube: per-subset SQL group-bys, None for rolled-up dims."""
    rows = []
    for subset in dimension_subsets(DIMS):
        if subset:
            grouped = group_by(SALES, list(subset), AGGS)
            for row in grouped.rows:
                values = dict(zip(subset, row))
                agg_values = row[len(subset):]
                rows.append(
                    tuple(values.get(dim) for dim in DIMS) + tuple(agg_values)
                )
        else:
            grouped = group_by(
                SALES.extend("one", INT, col.amount * 0), ["one"], AGGS
            )
            rows.append((None, None) + tuple(grouped.rows[0][1:]))
    schema = Schema.of(("region", STR), ("product", STR), ("cnt", INT), ("total", FLOAT))
    return Relation(schema, rows)


class TestDimensionSubsets:
    def test_order_and_count(self):
        subsets = dimension_subsets(["a", "b"])
        assert subsets == [("a", "b"), ("a",), ("b",), ()]

    def test_three_dims(self):
        assert len(dimension_subsets(["a", "b", "c"])) == 8


class TestCubeBaseRelation:
    def test_lattice_contents(self):
        lattice = cube_base_relation(SALES, DIMS)
        rows = set(lattice.rows)
        assert ("n", "a") in rows
        assert ("n", None) in rows
        assert (None, "b") in rows
        assert (None, None) in rows
        # 4 full groups + 2 region rollups + 2 product rollups + 1 total
        assert len(lattice) == 9

    def test_needs_dimensions(self):
        with pytest.raises(PlanError):
            cube_base_relation(SALES, [])


class TestSingleExpressionCube:
    def test_matches_brute_force(self):
        expression = cube_single_expression(SALES, "Sales", DIMS, AGGS)
        result = expression.evaluate_centralized(TABLES)
        assert_relations_equal(result, brute_force_cube())

    def test_all_row_aggregates_everything(self):
        expression = cube_single_expression(SALES, "Sales", DIMS, AGGS)
        result = expression.evaluate_centralized(TABLES)
        total_row = next(
            row for row in result.rows if row[0] is None and row[1] is None
        )
        assert total_row[2] == len(SALES)
        assert total_row[3] == pytest.approx(46.0)


class TestLatticeQueries:
    def test_queries_cover_non_empty_subsets(self):
        queries = cube_lattice_queries("Sales", DIMS, AGGS)
        subsets = [subset for subset, _query in queries]
        assert subsets == [("region", "product"), ("region",), ("product",)]

    def test_combined_matches_single_expression(self):
        queries = cube_lattice_queries("Sales", DIMS, AGGS)
        results = {
            subset: query.evaluate_centralized(TABLES) for subset, query in queries
        }
        grand_total = group_by(
            SALES.extend("one", INT, col.amount * 0), ["one"], AGGS
        ).project(["cnt", "total"])
        combined = combine_lattice_results(DIMS, AGGS, results, grand_total)
        single = cube_single_expression(SALES, "Sales", DIMS, AGGS).evaluate_centralized(
            TABLES
        )
        assert_relations_equal(combined, single)

    def test_missing_dimension_rejected(self):
        queries = cube_lattice_queries("Sales", ["region"], AGGS)
        results = {
            subset: query.evaluate_centralized(TABLES) for subset, query in queries
        }
        with pytest.raises(PlanError):
            combine_lattice_results(["region", "ghost"], AGGS, results)
