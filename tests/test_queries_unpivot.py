"""Unit tests for unpivot / marginal distribution queries."""

import pytest

from oracle.algebra import group_by
from repro.errors import PlanError
from repro.queries.unpivot import combine_marginals, marginal_queries
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import detail
from repro.relalg.relation import Relation
from repro.relalg.schema import FLOAT, INT, STR, Schema

DATA = Relation(
    Schema.of(("proto", STR), ("port", INT), ("bytes", FLOAT)),
    [
        ("tcp", 80, 100.0),
        ("tcp", 443, 50.0),
        ("udp", 53, 10.0),
        ("tcp", 80, 25.0),
        ("udp", None, 5.0),
    ],
)
AGGS = [count_star("cnt"), AggSpec("sum", detail.bytes, "total")]
TABLES = {"T": DATA}


class TestMarginalQueries:
    def test_one_query_per_attribute(self):
        queries = marginal_queries("T", ["proto", "port"], AGGS)
        assert [attribute for attribute, _query in queries] == ["proto", "port"]

    def test_needs_attributes(self):
        with pytest.raises(PlanError):
            marginal_queries("T", [], AGGS)

    def test_each_marginal_is_a_group_by(self):
        queries = dict(marginal_queries("T", ["proto"], AGGS))
        result = queries["proto"].evaluate_centralized(TABLES)
        reference = group_by(DATA, ["proto"], AGGS)
        assert result.same_rows_any_order_of_columns(reference)


class TestCombineMarginals:
    def make_combined(self):
        attributes = ["proto", "port"]
        queries = dict(marginal_queries("T", attributes, AGGS))
        results = {
            attribute: query.evaluate_centralized(TABLES)
            for attribute, query in queries.items()
        }
        return combine_marginals(attributes, AGGS, results)

    def test_schema(self):
        combined = self.make_combined()
        assert combined.schema.names == ("attribute", "value", "cnt", "total")
        assert combined.schema["value"].type == STR

    def test_stacked_rows(self):
        combined = self.make_combined()
        lookup = {
            (row[0], row[1]): (row[2], row[3]) for row in combined.rows
        }
        assert lookup[("proto", "tcp")] == (3, 175.0)
        assert lookup[("proto", "udp")] == (2, 15.0)
        assert lookup[("port", "80")] == (2, 125.0)
        # GMDJ conditions use SQL *comparison* semantics: NULL == NULL is
        # false, so the NULL group exists (distinct keeps it) but matches
        # no detail rows — unlike SQL GROUP BY, which pools NULLs.
        assert lookup[("port", "NULL")] == (0, None)

    def test_row_count(self):
        combined = self.make_combined()
        # 2 protos + 4 distinct ports (incl. NULL)
        assert len(combined) == 6

    def test_missing_result_raises(self):
        with pytest.raises(PlanError):
            combine_marginals(["proto"], AGGS, {})
