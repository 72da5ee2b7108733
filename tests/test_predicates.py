"""Unit tests for predicate analysis (conjuncts, atoms, intervals, domains)."""

import math

import pytest

from repro.relalg.expressions import (
    BASE_VAR,
    DETAIL_VAR,
    Const,
    base,
    detail,
    expr_equals,
)
from repro.relalg.predicates import (
    Domain,
    Interval,
    conjuncts,
    domains_from_predicate,
    entails_key_equality,
    interval_of,
    is_trivially_false,
    is_trivially_true,
    key_equality_condition,
    references_only,
    split_condition,
)

INF = math.inf


class TestBooleanStructure:
    def test_conjuncts_flatten(self):
        theta = (base.a == detail.a) & (detail.v > 1) & (base.b == detail.b)
        parts = conjuncts(theta)
        assert len(parts) == 3

    def test_conjuncts_single(self):
        assert len(conjuncts(base.a == detail.a)) == 1

    def test_trivial_constants(self):
        assert is_trivially_true(Const(True))
        assert not is_trivially_true(Const(False))
        assert is_trivially_false(Const(False))

    def test_references_only(self):
        assert references_only(detail.v + 1, DETAIL_VAR)
        assert not references_only(base.a + detail.v, DETAIL_VAR)
        assert references_only(Const(3), DETAIL_VAR)


class TestSplitCondition:
    def test_simple_equality_atom(self):
        split = split_condition(base.k == detail.k, BASE_VAR, DETAIL_VAR)
        assert split.hashable
        assert len(split.atoms) == 1
        assert expr_equals(split.atoms[0].base_expr, base.k)
        assert expr_equals(split.atoms[0].detail_expr, detail.k)

    def test_reversed_equality_is_oriented(self):
        split = split_condition(detail.k == base.k, BASE_VAR, DETAIL_VAR)
        assert len(split.atoms) == 1
        assert expr_equals(split.atoms[0].base_expr, base.k)

    def test_expression_sided_atom(self):
        split = split_condition(
            base.a + base.b == detail.x * 2, BASE_VAR, DETAIL_VAR
        )
        assert len(split.atoms) == 1

    def test_classification(self):
        theta = (
            (base.k == detail.k)
            & (base.flag > 0)
            & (detail.v < 100)
            & (detail.v >= base.threshold)
        )
        split = split_condition(theta, BASE_VAR, DETAIL_VAR)
        assert len(split.atoms) == 1
        assert len(split.base_only) == 1
        assert len(split.detail_only) == 1
        assert len(split.residual) == 1

    def test_constant_conjunct_goes_base_only(self):
        split = split_condition(
            (base.k == detail.k) & Const(True), BASE_VAR, DETAIL_VAR
        )
        assert len(split.base_only) == 1

    def test_non_equality_mixed_is_residual(self):
        split = split_condition(base.a < detail.b, BASE_VAR, DETAIL_VAR)
        assert not split.hashable
        assert len(split.residual) == 1

    def test_equality_between_base_exprs_is_base_only(self):
        split = split_condition(base.a == base.b, BASE_VAR, DETAIL_VAR)
        assert not split.atoms
        assert len(split.base_only) == 1


class TestKeyEquality:
    def test_build_condition(self):
        theta = key_equality_condition(["a", "b"], BASE_VAR, DETAIL_VAR)
        split = split_condition(theta, BASE_VAR, DETAIL_VAR)
        assert len(split.atoms) == 2

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            key_equality_condition([], BASE_VAR, DETAIL_VAR)

    def test_entails_key_equality_positive(self):
        theta = (base.a == detail.a) & (base.b == detail.b) & (detail.v > 0)
        assert entails_key_equality(theta, ["a", "b"], BASE_VAR, DETAIL_VAR)

    def test_entails_key_equality_missing_attr(self):
        theta = base.a == detail.a
        assert not entails_key_equality(theta, ["a", "b"], BASE_VAR, DETAIL_VAR)

    def test_cross_attr_equality_does_not_count(self):
        # b.a == r.b is not equality ON attribute a.
        theta = base.a == detail.b
        assert not entails_key_equality(theta, ["a"], BASE_VAR, DETAIL_VAR)


class TestInterval:
    def test_point_and_unbounded(self):
        assert Interval.point(3) == Interval(3, 3)
        assert Interval.unbounded().low == -INF

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            Interval(2, 1)

    def test_add_sub(self):
        a = Interval(1, 2)
        b = Interval(10, 20)
        assert (a + b) == Interval(11, 22)
        assert (b - a) == Interval(8, 19)

    def test_mul_with_signs(self):
        assert Interval(-2, 3) * Interval(4, 5) == Interval(-10, 15)
        assert Interval(-2, -1) * Interval(-3, -2) == Interval(2, 6)

    def test_mul_with_infinity_and_zero(self):
        product = Interval(0, 1) * Interval(0, INF)
        assert product.low == 0
        assert product.high == INF

    def test_neg(self):
        assert -Interval(1, 2) == Interval(-2, -1)

    def test_divide(self):
        assert Interval(4, 8).divide(Interval(2, 4)) == Interval(1, 4)

    def test_divide_straddling_zero_is_unknown(self):
        assert Interval(1, 2).divide(Interval(-1, 1)) is None

    def test_intersects_contains(self):
        assert Interval(1, 5).intersects(Interval(5, 9))
        assert not Interval(1, 4).intersects(Interval(5, 9))
        assert Interval(1, 5).contains(3)
        assert not Interval(1, 5).contains(6)


class TestDomain:
    def test_of_values_numeric_gets_interval(self):
        domain = Domain.of_values([3, 1, 7])
        assert domain.interval == Interval(1, 7)
        assert domain.values == frozenset([1, 3, 7])

    def test_of_values_strings_unbounded_interval(self):
        domain = Domain.of_values(["a", "b"])
        assert domain.interval == Interval.unbounded()

    def test_intersect_value_sets(self):
        left = Domain.of_values([1, 2, 3])
        right = Domain.of_values([2, 3, 4])
        assert left.intersect(right).values == frozenset([2, 3])

    def test_intersect_values_with_interval(self):
        values = Domain.of_values([1, 5, 10])
        interval = Domain.of_interval(4, 11)
        assert values.intersect(interval).values == frozenset([5, 10])

    def test_intersect_disjoint_intervals_is_empty(self):
        result = Domain.of_interval(0, 1).intersect(Domain.of_interval(2, 3))
        assert result.is_empty

    def test_empty(self):
        assert Domain.of_values([]).is_empty
        assert not Domain.of_interval(0, 1).is_empty


class TestDomainsFromPredicate:
    def test_in_set(self):
        domains = domains_from_predicate(detail.a.is_in([1, 2]), DETAIL_VAR)
        assert domains["a"].values == frozenset([1, 2])

    def test_between(self):
        domains = domains_from_predicate(detail.a.between(1, 25), DETAIL_VAR)
        assert domains["a"].interval == Interval(1, 25)

    def test_equality_with_constant(self):
        domains = domains_from_predicate(detail.a == 7, DETAIL_VAR)
        assert domains["a"].values == frozenset([7])

    def test_mirrored_comparison(self):
        domains = domains_from_predicate(Const(10) >= detail.a, DETAIL_VAR)
        assert domains["a"].interval.high == 10

    def test_range_comparisons(self):
        phi = (detail.a > 3) & (detail.a <= 9)
        domains = domains_from_predicate(phi, DETAIL_VAR)
        assert domains["a"].interval == Interval(3, 9)

    def test_conjunction_narrows(self):
        phi = detail.a.is_in([1, 2, 3, 50]) & (detail.a < 10)
        domains = domains_from_predicate(phi, DETAIL_VAR)
        assert domains["a"].values == frozenset([1, 2, 3])

    def test_wrong_relvar_ignored(self):
        domains = domains_from_predicate(base.a == 3, DETAIL_VAR)
        assert domains == {}

    def test_unparseable_conjunct_ignored(self):
        phi = (detail.a + detail.b < 10) & (detail.a <= 5)
        domains = domains_from_predicate(phi, DETAIL_VAR)
        assert domains["a"].interval.high == 5
        assert "b" not in domains


class TestIntervalOf:
    DOMAINS = {"a": Domain.of_interval(1, 25), "b": Domain.of_values([2, 4])}

    def test_field(self):
        assert interval_of(detail.a, DETAIL_VAR, self.DOMAINS) == Interval(1, 25)

    def test_unknown_field_is_unbounded(self):
        assert interval_of(detail.z, DETAIL_VAR, self.DOMAINS) == Interval.unbounded()

    def test_wrong_relvar_is_none(self):
        assert interval_of(base.a, DETAIL_VAR, self.DOMAINS) is None

    def test_const(self):
        assert interval_of(Const(5), DETAIL_VAR, {}) == Interval.point(5)

    def test_non_numeric_const_is_none(self):
        assert interval_of(Const("x"), DETAIL_VAR, {}) is None

    def test_arithmetic(self):
        # The paper's example: Flow.SourceAS * 2 with SourceAS in [1, 25].
        assert interval_of(detail.a * 2, DETAIL_VAR, self.DOMAINS) == Interval(2, 50)
        assert interval_of(detail.a + detail.b, DETAIL_VAR, self.DOMAINS) == Interval(3, 29)
        assert interval_of(-detail.a, DETAIL_VAR, self.DOMAINS) == Interval(-25, -1)

    def test_division_by_straddling_interval(self):
        domains = {"a": Domain.of_interval(-1, 1)}
        assert interval_of(Const(1) / detail.a, DETAIL_VAR, domains) is None
