"""Scalar expression AST used for predicates, conditions and computed columns.

Expressions reference attributes through :class:`Field` nodes. A field can
be *qualified* by a relation variable — in GMDJ conditions the base-values
relation is bound to ``"b"`` and the detail relation to ``"r"`` — or
unqualified (single-relation contexts such as ``select``).

Ergonomic builders let callers write conditions in plain Python::

    from repro.relalg.expressions import base, detail

    theta = (detail.SourceAS == base.SourceAS) & (detail.NumBytes >= 1024)

Because ``__eq__`` is overloaded to build comparison expressions,
*structural* equality between expressions uses :func:`expr_equals` /
``Expr.key()`` instead of ``==``.

Null semantics follow SQL's three-valued logic collapsed to two values:
arithmetic over ``None`` yields ``None``; comparisons involving ``None``
are ``False``; ``&``/``|`` treat their operands as plain booleans.

This module only defines the AST. :mod:`repro.relalg.compiler` is the one
module that lowers it, to numpy vector kernels and to row kernels. The
reference semantics both must match is the tests' interpreter,
``tests/oracle/interp.py`` (one Python call per node over dict bindings).
"""

from __future__ import annotations

import operator
from typing import Iterable, Optional

from repro.errors import ExpressionError

#: Relation-variable names conventionally used in GMDJ conditions.
BASE_VAR = "b"
DETAIL_VAR = "r"


class Expr:
    """Base class for all scalar expression nodes."""

    __slots__ = ()

    # -- construction sugar -------------------------------------------------

    def __add__(self, other):
        return Arith("+", self, wrap(other))

    def __radd__(self, other):
        return Arith("+", wrap(other), self)

    def __sub__(self, other):
        return Arith("-", self, wrap(other))

    def __rsub__(self, other):
        return Arith("-", wrap(other), self)

    def __mul__(self, other):
        return Arith("*", self, wrap(other))

    def __rmul__(self, other):
        return Arith("*", wrap(other), self)

    def __truediv__(self, other):
        return Arith("/", self, wrap(other))

    def __rtruediv__(self, other):
        return Arith("/", wrap(other), self)

    def __mod__(self, other):
        return Arith("%", self, wrap(other))

    def __neg__(self):
        return Neg(self)

    def __eq__(self, other):  # noqa: D105 - builds a Comparison, see module doc
        return Comparison("==", self, wrap(other))

    def __ne__(self, other):
        return Comparison("!=", self, wrap(other))

    def __lt__(self, other):
        return Comparison("<", self, wrap(other))

    def __le__(self, other):
        return Comparison("<=", self, wrap(other))

    def __gt__(self, other):
        return Comparison(">", self, wrap(other))

    def __ge__(self, other):
        return Comparison(">=", self, wrap(other))

    def __and__(self, other):
        return And(self, wrap(other))

    def __rand__(self, other):
        return And(wrap(other), self)

    def __or__(self, other):
        return Or(self, wrap(other))

    def __ror__(self, other):
        return Or(wrap(other), self)

    def __invert__(self):
        return Not(self)

    def is_in(self, values: Iterable) -> "InSet":
        """Membership test: ``expr.is_in([1, 2, 3])``."""
        return InSet(self, values)

    def between(self, low, high) -> "Between":
        """Closed-interval test: ``low <= expr <= high``."""
        return Between(self, wrap(low), wrap(high))

    def is_null(self) -> "IsNull":
        return IsNull(self)

    # -- structural protocol -------------------------------------------------

    def key(self):
        """Canonical hashable identity tuple (structural equality)."""
        raise NotImplementedError

    def children(self) -> tuple:
        """Direct sub-expressions."""
        raise NotImplementedError

    def rebuild(self, children: tuple) -> "Expr":
        """Construct the same node kind over new children."""
        raise NotImplementedError

    def fields(self) -> tuple:
        """Unique :class:`Field` nodes appearing in the expression.

        Collected via their structural keys: ``Field`` inherits the
        comparison-building ``__eq__``, so fields must never be put in a
        plain set (membership tests would build expressions instead of
        comparing them).
        """
        collected = {}
        stack = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Field):
                collected.setdefault(node.key(), node)
            stack.extend(node.children())
        return tuple(collected.values())

    def relvars(self) -> frozenset:
        """The set of relation variables referenced (``None`` = unqualified)."""
        return frozenset(field.relvar for field in self.fields())

    def attrs(self, relvar: Optional[str] = "*") -> frozenset:
        """Attribute names referenced; restrict to one relvar unless ``"*"``."""
        if relvar == "*":
            return frozenset(field.name for field in self.fields())
        return frozenset(field.name for field in self.fields() if field.relvar == relvar)

    # -- misc ------------------------------------------------------------------

    def __hash__(self):
        return hash(self.key())

    def __bool__(self):
        raise ExpressionError(
            "expression has no truth value; use & | ~ to combine conditions "
            "and expr_equals() for structural comparison"
        )


def wrap(value) -> Expr:
    """Lift a Python value to an expression (idempotent on Expr)."""
    if isinstance(value, Expr):
        return value
    return Const(value)


def expr_equals(left: Expr, right: Expr) -> bool:
    """Structural equality between two expressions."""
    return left.key() == right.key()


class Const(Expr):
    """A literal value."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def key(self):
        return ("const", self.value)

    def children(self):
        return ()

    def rebuild(self, children):
        return self

    def __repr__(self):
        return repr(self.value)


class Field(Expr):
    """An attribute reference, optionally qualified by a relation variable."""

    __slots__ = ("relvar", "name")

    def __init__(self, name: str, relvar: Optional[str] = None):
        if not isinstance(name, str) or not name:
            raise ExpressionError(f"field name must be a non-empty string, got {name!r}")
        self.relvar = relvar
        self.name = name

    def key(self):
        return ("field", self.relvar, self.name)

    def children(self):
        return ()

    def rebuild(self, children):
        return self

    def with_relvar(self, relvar: Optional[str]) -> "Field":
        return Field(self.name, relvar)

    def __repr__(self):
        if self.relvar is None:
            return self.name
        return f"{self.relvar}.{self.name}"


_ARITH_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
}


class Arith(Expr):
    """Binary arithmetic; ``None`` operands propagate to ``None``.

    Division and modulo by zero also yield ``None`` (NULL) rather than
    raising: OLAP conditions routinely divide by computed aggregates
    (e.g. ``sum1 / cnt1``), and a zero denominator must disqualify the
    comparison — which NULL does, since comparisons against NULL are
    false — not abort the whole distributed query.
    """

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _ARITH_OPS:
            raise ExpressionError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def key(self):
        return ("arith", self.op, self.left.key(), self.right.key())

    def children(self):
        return (self.left, self.right)

    def rebuild(self, children):
        return Arith(self.op, *children)

    def __repr__(self):
        return f"({self.left!r} {self.op} {self.right!r})"


class Neg(Expr):
    """Unary negation; ``None`` propagates."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        self.operand = operand

    def key(self):
        return ("neg", self.operand.key())

    def children(self):
        return (self.operand,)

    def rebuild(self, children):
        return Neg(children[0])

    def __repr__(self):
        return f"(-{self.operand!r})"


_CMP_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Mapping of each comparison operator to its logical negation.
NEGATED_CMP = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}

#: Mapping of each comparison operator to its mirror (operands swapped).
MIRRORED_CMP = {"==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class Comparison(Expr):
    """Binary comparison; any ``None`` operand makes the result ``False``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _CMP_OPS:
            raise ExpressionError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def key(self):
        return ("cmp", self.op, self.left.key(), self.right.key())

    def children(self):
        return (self.left, self.right)

    def rebuild(self, children):
        return Comparison(self.op, *children)

    def mirrored(self) -> "Comparison":
        """The same predicate with operands swapped (``a < b`` -> ``b > a``)."""
        return Comparison(MIRRORED_CMP[self.op], self.right, self.left)

    def negated(self) -> "Comparison":
        return Comparison(NEGATED_CMP[self.op], self.left, self.right)

    def __repr__(self):
        return f"({self.left!r} {self.op} {self.right!r})"


class And(Expr):
    """Logical conjunction."""

    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right

    def key(self):
        return ("and", self.left.key(), self.right.key())

    def children(self):
        return (self.left, self.right)

    def rebuild(self, children):
        return And(*children)

    def __repr__(self):
        return f"({self.left!r} & {self.right!r})"


class Or(Expr):
    """Logical disjunction."""

    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right

    def key(self):
        return ("or", self.left.key(), self.right.key())

    def children(self):
        return (self.left, self.right)

    def rebuild(self, children):
        return Or(*children)

    def __repr__(self):
        return f"({self.left!r} | {self.right!r})"


class Not(Expr):
    """Logical negation."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        self.operand = operand

    def key(self):
        return ("not", self.operand.key())

    def children(self):
        return (self.operand,)

    def rebuild(self, children):
        return Not(children[0])

    def __repr__(self):
        return f"(~{self.operand!r})"


class InSet(Expr):
    """Membership in a literal set of values; ``None`` is never a member."""

    __slots__ = ("operand", "values")

    def __init__(self, operand: Expr, values: Iterable):
        self.operand = operand
        self.values = frozenset(values)

    def key(self):
        return ("in", self.operand.key(), tuple(sorted(map(repr, self.values))))

    def children(self):
        return (self.operand,)

    def rebuild(self, children):
        return InSet(children[0], self.values)

    def __repr__(self):
        return f"({self.operand!r} IN {sorted(map(repr, self.values))})"


class Between(Expr):
    """Closed-interval membership; ``None`` anywhere makes it ``False``."""

    __slots__ = ("operand", "low", "high")

    def __init__(self, operand: Expr, low: Expr, high: Expr):
        self.operand = operand
        self.low = low
        self.high = high

    def key(self):
        return ("between", self.operand.key(), self.low.key(), self.high.key())

    def children(self):
        return (self.operand, self.low, self.high)

    def rebuild(self, children):
        return Between(*children)

    def __repr__(self):
        return f"({self.operand!r} BETWEEN {self.low!r} AND {self.high!r})"


class IsNull(Expr):
    """SQL ``IS NULL`` test."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        self.operand = operand

    def key(self):
        return ("isnull", self.operand.key())

    def children(self):
        return (self.operand,)

    def rebuild(self, children):
        return IsNull(children[0])

    def __repr__(self):
        return f"({self.operand!r} IS NULL)"


TRUE = Const(True)
FALSE = Const(False)


def rebind(expr: Expr, mapping: dict) -> Expr:
    """Return ``expr`` with field relvars replaced per ``mapping``.

    ``mapping`` maps old relvar (possibly ``None``) to new relvar. Fields
    whose relvar is not in the mapping are left untouched.
    """
    if isinstance(expr, Field):
        if expr.relvar in mapping:
            return expr.with_relvar(mapping[expr.relvar])
        return expr
    children = expr.children()
    if not children:
        return expr
    return expr.rebuild(tuple(rebind(child, mapping) for child in children))


def rename_fields(expr: Expr, relvar, mapping: dict) -> Expr:
    """Return ``expr`` with attribute names of fields on ``relvar`` renamed."""
    if isinstance(expr, Field):
        if expr.relvar == relvar and expr.name in mapping:
            return Field(mapping[expr.name], relvar)
        return expr
    children = expr.children()
    if not children:
        return expr
    return expr.rebuild(tuple(rename_fields(child, relvar, mapping) for child in children))


class _Namespace:
    """Attribute-access factory for qualified fields: ``base.SourceAS``."""

    __slots__ = ("_relvar",)

    def __init__(self, relvar: Optional[str]):
        object.__setattr__(self, "_relvar", relvar)

    def __getattr__(self, name: str) -> Field:
        if name.startswith("_"):
            raise AttributeError(name)
        return Field(name, object.__getattribute__(self, "_relvar"))

    def __getitem__(self, name: str) -> Field:
        return Field(name, object.__getattribute__(self, "_relvar"))


#: Field factory for the base-values relation in GMDJ conditions.
base = _Namespace(BASE_VAR)
#: Field factory for the detail relation in GMDJ conditions.
detail = _Namespace(DETAIL_VAR)
#: Field factory for unqualified (single-relation) expressions.
col = _Namespace(None)


def and_all(conditions) -> Expr:
    """Conjunction of a sequence of conditions (``TRUE`` if empty)."""
    result = None
    for condition in conditions:
        result = condition if result is None else And(result, condition)
    return TRUE if result is None else result


def or_all(conditions) -> Expr:
    """Disjunction of a sequence of conditions (``FALSE`` if empty)."""
    result = None
    for condition in conditions:
        result = condition if result is None else Or(result, condition)
    return FALSE if result is None else result
