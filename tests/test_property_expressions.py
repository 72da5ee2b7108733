"""Property test: compiled expressions agree with interpreted evaluation.

Random expression trees over two relations are evaluated both ways —
``Expr.eval`` with dict bindings and ``Expr.compile`` against row tuples
— on random rows including NULLs. The two paths share no evaluation
code, so agreement pins down the semantics (NULL propagation, NULL
comparisons, division by zero) across every node kind.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relalg.compiler import compile_scalar
from repro.relalg.expressions import (
    BASE_VAR,
    Const,
    DETAIL_VAR,
    Field,
    Not,
)
from repro.relalg.schema import FLOAT, Schema

BASE_SCHEMA = Schema.of(("x", FLOAT), ("y", FLOAT))
DETAIL_SCHEMA = Schema.of(("u", FLOAT), ("v", FLOAT))

_values = st.none() | st.floats(
    min_value=-100, max_value=100, allow_nan=False
).map(lambda value: round(value, 2))


@st.composite
def numeric_exprs(draw, depth=0):
    choice = draw(st.integers(min_value=0, max_value=5 if depth < 3 else 2))
    if choice == 0:
        return Const(draw(_values))
    if choice == 1:
        name, relvar = draw(
            st.sampled_from(
                [("x", BASE_VAR), ("y", BASE_VAR), ("u", DETAIL_VAR), ("v", DETAIL_VAR)]
            )
        )
        return Field(name, relvar)
    if choice == 2:
        return -draw(numeric_exprs(depth=depth + 1))
    left = draw(numeric_exprs(depth=depth + 1))
    right = draw(numeric_exprs(depth=depth + 1))
    operator = draw(st.sampled_from(["+", "-", "*", "/"]))
    if operator == "+":
        return left + right
    if operator == "-":
        return left - right
    if operator == "*":
        return left * right
    return left / right


@st.composite
def condition_exprs(draw, depth=0):
    choice = draw(st.integers(min_value=0, max_value=6 if depth < 2 else 3))
    if choice <= 1:
        left = draw(numeric_exprs(depth=2))
        right = draw(numeric_exprs(depth=2))
        operator = draw(st.sampled_from(["==", "!=", "<", "<=", ">", ">="]))
        from repro.relalg.expressions import Comparison

        return Comparison(operator, left, right)
    if choice == 2:
        return draw(numeric_exprs(depth=2)).is_null()
    if choice == 3:
        values = draw(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), max_size=4))
        return draw(numeric_exprs(depth=2)).is_in(values)
    if choice == 4:
        return Not(draw(condition_exprs(depth=depth + 1)))
    left = draw(condition_exprs(depth=depth + 1))
    right = draw(condition_exprs(depth=depth + 1))
    return (left & right) if choice == 5 else (left | right)


_rows = st.tuples(_values, _values)


def both_ways(expression, base_row, detail_row):
    bindings = {
        BASE_VAR: dict(zip(("x", "y"), base_row)),
        DETAIL_VAR: dict(zip(("u", "v"), detail_row)),
        None: dict(zip(("u", "v"), detail_row)),
    }
    interpreted = expression.eval(bindings)
    compiled = compile_scalar(
        expression,
        {BASE_VAR: BASE_SCHEMA, DETAIL_VAR: DETAIL_SCHEMA, None: DETAIL_SCHEMA},
        (BASE_VAR, DETAIL_VAR),
        {None: DETAIL_VAR},
    )
    direct = compiled(base_row, detail_row)
    return interpreted, direct


@given(expression=numeric_exprs(), base_row=_rows, detail_row=_rows)
@settings(max_examples=200, deadline=None)
def test_numeric_eval_equals_compile(expression, base_row, detail_row):
    interpreted, direct = both_ways(expression, base_row, detail_row)
    if interpreted is None or direct is None:
        assert interpreted is None and direct is None
    elif math.isinf(interpreted) or math.isnan(interpreted):
        assert math.isinf(direct) or math.isnan(direct) or direct == interpreted
    else:
        assert direct == pytest.approx(interpreted, rel=1e-12, abs=1e-12)


@given(expression=condition_exprs(), base_row=_rows, detail_row=_rows)
@settings(max_examples=200, deadline=None)
def test_condition_eval_equals_compile(expression, base_row, detail_row):
    interpreted, direct = both_ways(expression, base_row, detail_row)
    assert bool(interpreted) == bool(direct)


@given(expression=condition_exprs(), base_row=_rows, detail_row=_rows)
@settings(max_examples=100, deadline=None)
def test_rebuild_preserves_semantics(expression, base_row, detail_row):
    rebuilt = expression.rebuild(expression.children()) if expression.children() else expression
    original, _direct = both_ways(expression, base_row, detail_row)
    copied, _direct = both_ways(rebuilt, base_row, detail_row)
    assert bool(original) == bool(copied)
