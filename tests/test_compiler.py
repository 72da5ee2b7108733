"""Differential tests: row and vector kernels vs the AST interpreter oracle.

The kernels of :mod:`repro.relalg.compiler` share no evaluation code
with :meth:`Expr.eval`; running both over the property-test
expression corpus (random trees, random rows including NULLs) pins down
NULL propagation, NULL comparisons, division by zero, and the lazy
short-circuit behaviour of ``&``/``|``.
"""

import math

import pytest
from hypothesis import given, settings

from test_property_expressions import (
    BASE_SCHEMA,
    DETAIL_SCHEMA,
    _rows,
    condition_exprs,
    numeric_exprs,
)

from repro.relalg.compiler import (
    compile_batch_scalar,
    compile_mask,
    compile_predicate,
    compile_scalar,
    compile_values,
    kernel_cache_size,
)
from repro.relalg.expressions import (
    BASE_VAR,
    Comparison,
    Const,
    DETAIL_VAR,
    base,
    col,
    detail,
)
from repro.relalg.predicates import conjuncts
from repro.relalg.relation import Relation
from repro.relalg.schema import FLOAT, STR, Schema

_SCHEMAS = {BASE_VAR: BASE_SCHEMA, DETAIL_VAR: DETAIL_SCHEMA}
_PARAMS = (BASE_VAR, DETAIL_VAR)


def _oracle(expression, base_row, detail_row):
    bindings = {
        BASE_VAR: dict(zip(("x", "y"), base_row)),
        DETAIL_VAR: dict(zip(("u", "v"), detail_row)),
    }
    return expression.eval(bindings)


@given(expression=numeric_exprs(), base_row=_rows, detail_row=_rows)
@settings(max_examples=200, deadline=None)
def test_scalar_kernel_matches_interpreter(expression, base_row, detail_row):
    kernel = compile_scalar(expression, _SCHEMAS, _PARAMS)
    interpreted = _oracle(expression, base_row, detail_row)
    compiled = kernel(base_row, detail_row)
    if interpreted is None or compiled is None:
        assert interpreted is None and compiled is None
    elif math.isinf(interpreted) or math.isnan(interpreted):
        assert math.isinf(compiled) or math.isnan(compiled) or compiled == interpreted
    else:
        assert compiled == pytest.approx(interpreted, rel=1e-12, abs=1e-12)


@given(expression=condition_exprs(), base_row=_rows, detail_row=_rows)
@settings(max_examples=200, deadline=None)
def test_predicate_kernel_matches_interpreter(expression, base_row, detail_row):
    kernel = compile_predicate(expression, _SCHEMAS, _PARAMS)
    assert kernel(base_row, detail_row) == bool(
        _oracle(expression, base_row, detail_row)
    )


@given(expression=condition_exprs(), base_row=_rows, detail_row=_rows)
@settings(max_examples=100, deadline=None)
def test_conjunct_list_matches_whole_condition(expression, base_row, detail_row):
    """Splitting into conjuncts then early-exiting is semantics-preserving."""
    whole = compile_predicate(expression, _SCHEMAS, _PARAMS)
    split = compile_predicate(conjuncts(expression), _SCHEMAS, _PARAMS)
    assert whole(base_row, detail_row) == split(base_row, detail_row)


@given(expression=numeric_exprs(), base_row=_rows, detail_row=_rows)
@settings(max_examples=100, deadline=None)
def test_values_kernel_matches_scalars(expression, base_row, detail_row):
    pair = compile_values((expression, expression + 1.0), _SCHEMAS, _PARAMS)
    single = compile_scalar(expression, _SCHEMAS, _PARAMS)
    first, second = pair(base_row, detail_row)
    assert first == single(base_row, detail_row)
    if first is None:
        assert second is None
    else:
        assert second == pytest.approx(first + 1.0)


# ---------------------------------------------------------------------------
# Targeted semantics the corpus cannot reach, in both lowerings
# ---------------------------------------------------------------------------

_MIXED = Schema.of(("name", STR), ("score", FLOAT))


def _sources(schemas, params, rows):
    """One row per relation variable, as the vector kernels' sources."""
    return {
        relvar: (Relation(schemas[relvar], [row]).to_columnar(), None)
        for relvar, row in zip(params, rows)
    }


def _vector_predicate(condition, schemas, params):
    """:func:`compile_mask` behind the row kernel's signature."""
    mask = compile_mask(condition, schemas)
    return lambda *rows: len(mask(1, _sources(schemas, params, rows))) == 1


def _vector_scalar(expression, schemas, params):
    """:func:`compile_batch_scalar` behind the row kernel's signature."""
    batch = compile_batch_scalar(expression, schemas)
    return lambda *rows: batch(1, _sources(schemas, params, rows))[0]


#: Each targeted case runs against the row kernels and the vector kernels.
PREDICATE_LOWERINGS = (compile_predicate, _vector_predicate)
SCALAR_LOWERINGS = (compile_scalar, _vector_scalar)


def test_and_short_circuits_lazily():
    """The right operand must not be evaluated when the left decides.

    ``name < 5`` is a type error for string names; the interpreter never
    evaluates it when the guard is false, and neither may a kernel.
    """
    guarded = (col.score > 100.0) & (col.name < 5)
    for lower in PREDICATE_LOWERINGS:
        kernel = lower(guarded, {None: _MIXED}, (None,))
        assert kernel(("alice", 1.0)) is False
        with pytest.raises(TypeError):
            kernel(("alice", 200.0))  # the interpreter raises here too
    with pytest.raises(TypeError):
        guarded.eval({None: {"name": "alice", "score": 200.0}})


def test_or_short_circuits_lazily():
    guarded = (col.score > 100.0) | (col.name < 5)
    for lower in PREDICATE_LOWERINGS:
        kernel = lower(guarded, {None: _MIXED}, (None,))
        assert kernel(("bob", 200.0)) is True
        with pytest.raises(TypeError):
            kernel(("bob", 1.0))


def test_division_and_modulo_by_zero_yield_null():
    expr = (detail.u / base.x) + (detail.v % base.y)
    for lower in SCALAR_LOWERINGS:
        kernel = lower(expr, _SCHEMAS, _PARAMS)
        assert kernel((0.0, 1.0), (3.0, 4.0)) is None  # u / 0
        assert kernel((2.0, 0.0), (3.0, 4.0)) is None  # v % 0
        assert kernel((2.0, 3.0), (4.0, 5.0)) == pytest.approx(4.0)


def test_null_comparisons_are_false_and_between_needs_all_operands():
    condition = detail.u.between(base.x, base.y)
    for lower in PREDICATE_LOWERINGS:
        kernel = lower(condition, _SCHEMAS, _PARAMS)
        assert kernel((1.0, 5.0), (3.0, 0.0)) is True
        assert kernel((None, 5.0), (3.0, 0.0)) is False
        assert kernel((1.0, 5.0), (None, 0.0)) is False


def test_in_set_never_admits_null():
    for lower in PREDICATE_LOWERINGS:
        kernel = lower(detail.u.is_in([1.0, 2.0]), _SCHEMAS, _PARAMS)
        assert kernel((0.0, 0.0), (1.0, 9.0)) is True
        assert kernel((0.0, 0.0), (None, 9.0)) is False


def test_aliases_bind_unqualified_fields_to_a_parameter():
    expr = col.u + detail.v
    kernel = compile_scalar(
        expr,
        {DETAIL_VAR: DETAIL_SCHEMA, None: DETAIL_SCHEMA},
        (DETAIL_VAR,),
        aliases={None: DETAIL_VAR},
    )
    assert kernel((2.0, 3.0)) == pytest.approx(5.0)


def test_non_finite_constants_are_not_inlined():
    for lower in SCALAR_LOWERINGS:
        kernel = lower(Const(float("nan")) + detail.u, _SCHEMAS, _PARAMS)
        assert math.isnan(kernel((0.0, 0.0), (1.0, 1.0)))


def test_kernel_cache_reuses_compiled_functions():
    """A vector kernel is cached by shape: a second condition differing
    only in its constant reuses the first's plan, its own constant bound."""
    first = _vector_predicate((base.x == detail.u) & (detail.v >= 10.0), _SCHEMAS, _PARAMS)
    before = kernel_cache_size()
    second = _vector_predicate((base.x == detail.u) & (detail.v >= 20.0), _SCHEMAS, _PARAMS)
    assert kernel_cache_size() == before
    assert first((1.0, 0.0), (1.0, 15.0)) is True
    assert second((1.0, 0.0), (1.0, 15.0)) is False


def test_new_literals_do_not_grow_the_kernel_cache():
    """A server that sees a new literal in every statement keeps a bounded
    cache: vector kernels are cached by shape, distinct shapes are capped,
    and the coordinator's fold is not a kernel."""
    from repro.data.flows import FlowConfig, generate_flows, router_partitioner
    from repro.distributed import ExecutionConfig, SimulatedCluster
    from repro.gmdj.blocks import MDBlock
    from repro.gmdj.operator import super_aggregate
    from repro.relalg import compiler
    from repro.relalg.aggregates import AggSpec
    from repro.relalg.schema import INT, Attribute
    from repro.service import QueryService

    config = FlowConfig(flow_count=300, router_count=2)
    cluster = SimulatedCluster.with_sites(2)
    cluster.load_partitioned("FlowSmall", generate_flows(config), router_partitioner(config))
    compiler.clear_kernel_cache()
    with QueryService(cluster, ExecutionConfig()) as service:
        for literal in range(400):
            service.submit(
                "SELECT SourceAS, COUNT(*) AS cnt, SUM(NumBytes) AS volume FROM FlowSmall "
                f"WHERE StartTime >= {literal} GROUP BY SourceAS"
            )
    assert kernel_cache_size() < 32
    for index in range(2 * compiler.MAX_CACHED_KERNELS):
        name = f"a{index}"  # a new attribute: a new shape
        compile_mask(col[name] >= 1.0, {None: Schema.of((name, FLOAT))})
    assert kernel_cache_size() <= compiler.MAX_CACHED_KERNELS
    # The coordinator's fold compiles nothing: 300 layouts of shipped
    # columns leave the cache as it was.
    before = kernel_cache_size()
    blocks = [MDBlock([AggSpec("sum", detail.v, "s")], base.k == detail.k)]
    x = Relation(Schema.of(("k", INT)), [(1,), (2,)])
    for width in range(300):
        pads = [Attribute(f"p{index}", INT) for index in range(width)]
        h = Relation(Schema([*pads, Attribute("k", INT), Attribute("s", INT)]), [(0,) * width + (2, 5)])
        assert super_aggregate(x, h, ("k",), blocks).rows == [(1, None), (2, 5)]
    assert kernel_cache_size() == before
