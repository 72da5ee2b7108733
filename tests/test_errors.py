"""Tests for the exception hierarchy and error messages."""

import pytest

from repro import errors


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in dir(errors):
            klass = getattr(errors, name)
            if isinstance(klass, type) and issubclass(klass, Exception):
                assert issubclass(klass, errors.ReproError) or klass is errors.ReproError

    def test_specific_parents(self):
        assert issubclass(errors.UnknownAttributeError, errors.SchemaError)
        assert issubclass(errors.TypeMismatchError, errors.SchemaError)
        assert issubclass(errors.HolisticAggregateError, errors.AggregateError)
        assert issubclass(errors.OptimizationError, errors.PlanError)

    def test_catching_the_family(self):
        with pytest.raises(errors.ReproError):
            raise errors.NetworkError("down")

    def test_unknown_attribute_message_lists_available(self):
        error = errors.UnknownAttributeError("ghost", ["a", "b"])
        assert "ghost" in str(error)
        assert "a" in str(error)
        assert error.attribute == "ghost"
        assert error.available == ("a", "b")

    def test_unknown_attribute_without_candidates(self):
        error = errors.UnknownAttributeError("ghost")
        assert "available" not in str(error)


class TestErrorsSurfaceAtBoundaries:
    """Spot checks that library boundaries raise the documented types."""

    def test_schema_boundary(self):
        from repro.relalg.schema import Schema

        with pytest.raises(errors.UnknownAttributeError):
            Schema.of("a").position("z")

    def test_expression_boundary(self):
        from repro.relalg.compiler import compile_scalar
        from repro.relalg.expressions import col

        with pytest.raises(errors.ExpressionError):
            compile_scalar(col.a, {}, (None,))  # no schema for the relvar

    def test_aggregate_boundary(self):
        from repro.relalg.aggregates import AggSpec

        with pytest.raises(errors.AggregateError):
            AggSpec("mode", None, "m")

    def test_serialization_boundary(self):
        from repro.net.serialize import decode_relation

        with pytest.raises(errors.SerializationError):
            decode_relation(b"garbage")

    def test_plan_boundary(self):
        from repro.distributed.coordinator import Coordinator

        with pytest.raises(errors.PlanError):
            Coordinator(["k"]).x

    def test_warehouse_boundary(self):
        from repro.warehouse.storage import LocalWarehouse

        with pytest.raises(errors.WarehouseError):
            LocalWarehouse("w").table("missing")

    def test_catalog_boundary(self):
        from repro.warehouse.catalog import DistributionCatalog

        with pytest.raises(errors.CatalogError):
            DistributionCatalog().phi("missing", "s0")

    def test_network_boundary(self):
        from repro.net.channel import Network

        with pytest.raises(errors.NetworkError):
            Network(["s0"]).channel("s9")

    def test_sql_boundary(self):
        from repro.queries.sql import SqlError, parse_olap_query

        with pytest.raises(SqlError):
            parse_olap_query("SELEKT")
        assert issubclass(SqlError, errors.ReproError)
