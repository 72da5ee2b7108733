"""The expression interpreter: one Python call per node, over dict bindings.

This is the reference semantics of :mod:`repro.relalg.expressions`, which
both lowerings of :mod:`repro.relalg.compiler` (row kernels and numpy
vector kernels) must match value for value:

- arithmetic over ``None``, and ``/`` or ``%`` by zero, yield ``None``;
- comparisons, ``BETWEEN`` and ``IN`` with a ``None`` operand are ``False``;
- ``&`` / ``|`` evaluate their right operand only where the left does not
  decide, so a type-incompatible comparison guarded by the left raises in
  neither form;
- ``IS NULL`` is the one test that sees a ``None`` as true.

``bindings`` maps each relation variable (``None`` for unqualified fields)
to a mapping of attribute name to value.
"""

from __future__ import annotations

from repro.errors import ExpressionError, UnknownAttributeError
from repro.relalg.expressions import (
    _ARITH_OPS,
    _CMP_OPS,
    And,
    Arith,
    Between,
    Comparison,
    Const,
    Field,
    InSet,
    IsNull,
    Neg,
    Not,
    Or,
)


def evaluate(expr, bindings: dict):
    """The value of ``expr`` under ``bindings`` (see the module docstring)."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Field):
        try:
            row = bindings[expr.relvar]
        except KeyError:
            raise ExpressionError(f"no binding for relation variable {expr.relvar!r}") from None
        try:
            return row[expr.name]
        except KeyError:
            raise UnknownAttributeError(expr.name, row.keys()) from None
    if isinstance(expr, And):
        return bool(evaluate(expr.left, bindings)) and bool(evaluate(expr.right, bindings))
    if isinstance(expr, Or):
        return bool(evaluate(expr.left, bindings)) or bool(evaluate(expr.right, bindings))
    if isinstance(expr, Not):
        return not evaluate(expr.operand, bindings)
    if isinstance(expr, IsNull):
        return evaluate(expr.operand, bindings) is None
    values = [evaluate(child, bindings) for child in expr.children()]
    if isinstance(expr, Neg):
        return None if values[0] is None else -values[0]
    if isinstance(expr, InSet):
        return values[0] is not None and values[0] in expr.values
    if isinstance(expr, Arith):
        left, right = values
        if left is None or right is None or (right == 0 and expr.op in ("/", "%")):
            return None
        return _ARITH_OPS[expr.op](left, right)
    if any(value is None for value in values):
        return False
    if isinstance(expr, Comparison):
        return _CMP_OPS[expr.op](*values)
    if isinstance(expr, Between):
        value, low, high = values
        return low <= value <= high
    raise ExpressionError(f"cannot evaluate expression node {expr!r}")
