"""Unit tests for the scalar expression AST."""

import pytest

from repro.errors import ExpressionError
from repro.relalg.compiler import compile_predicate, compile_scalar
from repro.relalg.expressions import (
    BASE_VAR,
    DETAIL_VAR,
    And,
    Arith,
    Between,
    Comparison,
    Const,
    Expr,
    Field,
    InSet,
    IsNull,
    Neg,
    Not,
    Or,
    and_all,
    base,
    col,
    detail,
    expr_equals,
    or_all,
    rebind,
    rename_fields,
    wrap,
)
from repro.relalg.schema import FLOAT, INT, Schema


def evaluate(expression, **rows):
    """Evaluate with keyword relvars; ``r_`` maps to detail, ``b_`` to base."""
    bindings = {}
    for key, value in rows.items():
        bindings[{"b": BASE_VAR, "r": DETAIL_VAR, "u": None}[key]] = value
    return expression.eval(bindings)


class TestBuilders:
    def test_namespace_builds_fields(self):
        field = base.SourceAS
        assert isinstance(field, Field)
        assert field.relvar == BASE_VAR
        assert field.name == "SourceAS"
        assert detail.X.relvar == DETAIL_VAR
        assert col.X.relvar is None

    def test_namespace_getitem(self):
        assert base["weird name"].name == "weird name"

    def test_wrap_constants(self):
        assert isinstance(wrap(5), Const)
        wrapped = wrap(Const(5))
        assert isinstance(wrapped, Const)

    def test_operator_overloads_build_nodes(self):
        assert isinstance(col.a + 1, Arith)
        assert isinstance(col.a == col.b, Comparison)
        assert isinstance((col.a > 1) & (col.b < 2), And)
        assert isinstance((col.a > 1) | (col.b < 2), Or)
        assert isinstance(~(col.a > 1), Not)
        assert isinstance(-col.a, Neg)
        assert isinstance(col.a.is_in([1, 2]), InSet)
        assert isinstance(col.a.between(0, 1), Between)
        assert isinstance(col.a.is_null(), IsNull)

    def test_reflected_operators(self):
        assert evaluate(1 + col.a, u={"a": 2}) == 3
        assert evaluate(10 - col.a, u={"a": 4}) == 6
        assert evaluate(3 * col.a, u={"a": 4}) == 12
        assert evaluate(8 / col.a, u={"a": 4}) == 2

    def test_truthiness_is_an_error(self):
        with pytest.raises(ExpressionError):
            bool(col.a == col.b)

    def test_field_requires_name(self):
        with pytest.raises(ExpressionError):
            Field("")


class TestEvaluation:
    def test_arithmetic(self):
        expression = (col.a + col.b) * 2 - col.a / 2
        assert evaluate(expression, u={"a": 4, "b": 1}) == 8.0

    def test_modulo(self):
        assert evaluate(col.a % 3, u={"a": 7}) == 1

    def test_arithmetic_null_propagates(self):
        assert evaluate(col.a + 1, u={"a": None}) is None
        assert evaluate(-col.a, u={"a": None}) is None

    def test_division_by_zero_is_null(self):
        assert evaluate(col.a / col.b, u={"a": 1, "b": 0}) is None
        assert evaluate(col.a % col.b, u={"a": 1, "b": 0}) is None
        # ... and the null disqualifies any comparison built on it.
        assert evaluate(col.a / col.b > 0, u={"a": 1, "b": 0}) is False

    def test_division_by_zero_compiled(self):
        from repro.relalg.schema import Schema, FLOAT

        schema = Schema.of(("a", FLOAT), ("b", FLOAT))
        func = compile_scalar(col.a / col.b, {None: schema}, (None,))
        assert func((1.0, 0.0)) is None
        assert func((1.0, 2.0)) == 0.5

    def test_comparison_null_is_false(self):
        assert evaluate(col.a > 1, u={"a": None}) is False
        assert evaluate(col.a == col.a, u={"a": None}) is False

    def test_comparisons(self):
        row = {"a": 2, "b": 3}
        assert evaluate(col.a < col.b, u=row)
        assert evaluate(col.a <= 2, u=row)
        assert evaluate(col.b >= 3, u=row)
        assert evaluate(col.a != col.b, u=row)
        assert not evaluate(col.a == col.b, u=row)

    def test_boolean_connectives(self):
        row = {"a": 1}
        assert evaluate((col.a == 1) & (col.a < 2), u=row)
        assert evaluate((col.a == 9) | (col.a == 1), u=row)
        assert evaluate(~(col.a == 9), u=row)

    def test_in_set(self):
        assert evaluate(col.a.is_in([1, 2]), u={"a": 2})
        assert not evaluate(col.a.is_in([1, 2]), u={"a": 3})
        assert not evaluate(col.a.is_in([1, 2]), u={"a": None})

    def test_between(self):
        assert evaluate(col.a.between(1, 3), u={"a": 2})
        assert evaluate(col.a.between(1, 3), u={"a": 3})
        assert not evaluate(col.a.between(1, 3), u={"a": 4})
        assert not evaluate(col.a.between(1, 3), u={"a": None})

    def test_is_null(self):
        assert evaluate(col.a.is_null(), u={"a": None})
        assert not evaluate(col.a.is_null(), u={"a": 0})

    def test_cross_relvar_condition(self):
        theta = (base.k == detail.k) & (detail.v > base.threshold)
        assert evaluate(theta, b={"k": 1, "threshold": 5}, r={"k": 1, "v": 6})
        assert not evaluate(theta, b={"k": 1, "threshold": 5}, r={"k": 2, "v": 6})

    def test_missing_binding_raises(self):
        with pytest.raises(ExpressionError):
            (base.k == detail.k).eval({BASE_VAR: {"k": 1}})


class TestCompile:
    def test_compile_matches_eval(self):
        base_schema = Schema.of(("k", INT), ("t", FLOAT))
        detail_schema = Schema.of(("k", INT), ("v", FLOAT))
        theta = (base.k == detail.k) & (detail.v >= base.t * 2)
        compiled = compile_predicate(
            theta, {BASE_VAR: base_schema, DETAIL_VAR: detail_schema}, (BASE_VAR, DETAIL_VAR)
        )
        cases = [
            ((1, 2.0), (1, 4.0), True),
            ((1, 2.0), (1, 3.0), False),
            ((1, 2.0), (2, 9.0), False),
            ((1, None), (1, 4.0), False),
        ]
        for base_row, detail_row, expected in cases:
            assert compiled(base_row, detail_row) is expected
            bindings = {
                BASE_VAR: dict(zip(("k", "t"), base_row)),
                DETAIL_VAR: dict(zip(("k", "v"), detail_row)),
            }
            assert theta.eval(bindings) is expected

    def test_compile_null_arith(self):
        schema = Schema.of(("a", FLOAT),)
        func = compile_scalar(col.a * 2, {None: schema}, (None,))
        assert func((None,)) is None

    def test_compile_unknown_relvar_raises(self):
        with pytest.raises(ExpressionError):
            compile_scalar(base.k, {DETAIL_VAR: Schema.of("k")}, (DETAIL_VAR,))

    def test_compile_all_node_kinds(self):
        schema = Schema.of(("a", FLOAT),)
        expressions = [
            col.a.between(0, 10),
            col.a.is_in([1.0]),
            col.a.is_null(),
            ~(col.a > 0),
            -col.a,
            (col.a > 0) | (col.a < -5),
        ]
        for expression in expressions:
            compiled = compile_scalar(expression, {None: schema}, (None,))
            for value in (1.0, -10.0, None):
                bound = compiled((value,))
                direct = expression.eval({None: {"a": value}})
                assert bound == direct


class TestStructural:
    def test_expr_equals(self):
        assert expr_equals(base.a + 1, base.a + 1)
        assert not expr_equals(base.a + 1, base.a + 2)
        assert not expr_equals(base.a, detail.a)

    def test_key_is_hashable(self):
        mapping = {(base.a == detail.a).key(): "x"}
        assert mapping[(base.a == detail.a).key()] == "x"

    def test_fields_and_relvars(self):
        theta = (base.k == detail.k) & (detail.v > 1)
        names = {(field.relvar, field.name) for field in theta.fields()}
        assert names == {(BASE_VAR, "k"), (DETAIL_VAR, "k"), (DETAIL_VAR, "v")}
        assert theta.relvars() == frozenset([BASE_VAR, DETAIL_VAR])

    def test_attrs_filtered_by_relvar(self):
        theta = (base.k == detail.j) & (detail.v > 1)
        assert theta.attrs(BASE_VAR) == frozenset(["k"])
        assert theta.attrs(DETAIL_VAR) == frozenset(["j", "v"])
        assert theta.attrs() == frozenset(["k", "j", "v"])

    def test_comparison_mirrored_and_negated(self):
        comparison = base.a < detail.b
        mirrored = comparison.mirrored()
        assert mirrored.op == ">"
        assert expr_equals(mirrored.left, detail.b)
        negated = comparison.negated()
        assert negated.op == ">="

    def test_rebind(self):
        theta = (base.k == detail.k) & (detail.v > 1)
        rebound = rebind(theta, {BASE_VAR: None})
        assert rebound.attrs(None) == frozenset(["k"])
        assert rebound.attrs(DETAIL_VAR) == frozenset(["k", "v"])

    def test_rename_fields(self):
        theta = (base.k == detail.k) & (base.v > 1)
        renamed = rename_fields(theta, BASE_VAR, {"k": "key"})
        assert renamed.attrs(BASE_VAR) == frozenset(["key", "v"])
        assert renamed.attrs(DETAIL_VAR) == frozenset(["k"])


class TestConjunctionHelpers:
    def test_and_all_empty_is_true(self):
        assert and_all([]).eval({}) is True

    def test_or_all_empty_is_false(self):
        assert or_all([]).eval({}) is False

    def test_and_all(self):
        expression = and_all([col.a > 0, col.a < 10])
        assert evaluate(expression, u={"a": 5})
        assert not evaluate(expression, u={"a": 50})

    def test_or_all(self):
        expression = or_all([col.a == 1, col.a == 2])
        assert evaluate(expression, u={"a": 2})
        assert not evaluate(expression, u={"a": 3})


class TestRepr:
    def test_reprs_are_readable(self):
        assert repr(base.k) == "b.k"
        assert repr(col.k) == "k"
        assert "BETWEEN" in repr(col.a.between(1, 2))
        assert "IN" in repr(col.a.is_in([1]))
        assert "IS NULL" in repr(col.a.is_null())
