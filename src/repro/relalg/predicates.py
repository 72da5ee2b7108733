"""Structural analysis of predicate expressions.

This module provides the reasoning primitives used by the Skalla
optimizer (``repro.gmdj.analysis``):

- decomposition of conditions into conjuncts;
- classification of which relation variables an expression touches;
- extraction of base/detail *equality atoms* from GMDJ conditions (these
  drive hash-based GMDJ evaluation and key-entailment checks);
- a small interval-arithmetic engine and attribute-domain extraction from
  site predicates φᵢ (these drive distribution-aware group reduction,
  Theorem 4 of the paper).

All analyses are conservative: when an expression is too complex to
analyze the functions return "don't know" (``None`` / empty results), and
callers fall back to unoptimized-but-correct behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.relalg.expressions import (
    And,
    Arith,
    Between,
    Comparison,
    Const,
    Expr,
    Field,
    InSet,
    Neg,
)

# ---------------------------------------------------------------------------
# Boolean structure
# ---------------------------------------------------------------------------


def conjuncts(expression: Expr) -> list:
    """Flatten a tree of ``And`` nodes into a list of conjuncts, in written
    order: a left-hand guard stays ahead of what it guards, as ``&``
    evaluates left to right."""
    result = []
    stack = [expression]
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            stack.append(node.right)
            stack.append(node.left)
        else:
            result.append(node)
    return result


def is_trivially_true(expression: Expr) -> bool:
    return isinstance(expression, Const) and expression.value is True


def is_trivially_false(expression: Expr) -> bool:
    return isinstance(expression, Const) and expression.value is False


def sides(expression: Expr) -> frozenset:
    """Relation variables an expression references (``frozenset`` of relvars)."""
    return expression.relvars()


def references_only(expression: Expr, relvar) -> bool:
    """True if every field of ``expression`` is on ``relvar`` (or none at all)."""
    return sides(expression) <= frozenset([relvar])


# ---------------------------------------------------------------------------
# Equality atoms of GMDJ conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EqualityAtom:
    """A conjunct ``base_expr == detail_expr`` (sides already oriented)."""

    base_expr: Expr
    detail_expr: Expr


@dataclass(frozen=True)
class ConditionSplit:
    """A GMDJ condition split for hash evaluation.

    ``atoms`` are the base/detail equality atoms; ``base_only`` are
    conjuncts touching only the base relation; ``detail_only`` touch only
    the detail relation; ``residual`` are the remaining mixed conjuncts
    that must be checked per candidate pair.
    """

    atoms: tuple
    base_only: tuple
    detail_only: tuple
    residual: tuple

    @property
    def hashable(self) -> bool:
        return bool(self.atoms)


def split_condition(theta: Expr, base_var: str, detail_var: str) -> ConditionSplit:
    """Split a GMDJ condition into equality atoms and residual conjuncts."""
    atoms = []
    base_only = []
    detail_only = []
    residual = []
    for conjunct in conjuncts(theta):
        atom = _orient_equality(conjunct, base_var, detail_var)
        if atom is not None:
            atoms.append(atom)
            continue
        vars_used = sides(conjunct)
        if vars_used <= frozenset([base_var]):
            base_only.append(conjunct)
        elif vars_used <= frozenset([detail_var]):
            detail_only.append(conjunct)
        elif not vars_used:
            base_only.append(conjunct)  # constant condition, cheap either way
        else:
            residual.append(conjunct)
    return ConditionSplit(tuple(atoms), tuple(base_only), tuple(detail_only), tuple(residual))


def _orient_equality(conjunct: Expr, base_var: str, detail_var: str) -> Optional[EqualityAtom]:
    if not (isinstance(conjunct, Comparison) and conjunct.op == "=="):
        return None
    left_vars = sides(conjunct.left)
    right_vars = sides(conjunct.right)
    base_set = frozenset([base_var])
    detail_set = frozenset([detail_var])
    if left_vars <= base_set and right_vars == detail_set and left_vars:
        return EqualityAtom(conjunct.left, conjunct.right)
    if left_vars == detail_set and right_vars <= base_set and right_vars:
        return EqualityAtom(conjunct.right, conjunct.left)
    return None


def key_equality_condition(key_attrs: Sequence[str], base_var: str, detail_var: str) -> Expr:
    """Build θ_K: pairwise equality on the key attributes (Theorem 1)."""
    condition = None
    for name in key_attrs:
        atom = Comparison("==", Field(name, base_var), Field(name, detail_var))
        condition = atom if condition is None else And(condition, atom)
    if condition is None:
        raise ValueError("key attribute list must not be empty")
    return condition


def entails_key_equality(theta: Expr, key_attrs: Sequence[str], base_var: str, detail_var: str) -> bool:
    """Check (syntactically) that θ entails equality on all key attributes.

    True when for every key attribute ``k`` the condition contains the
    conjunct ``b.k == r.k`` (either orientation). This is the sufficient
    test used for Proposition 2 and Corollary 1; it is conservative.
    """
    split = split_condition(theta, base_var, detail_var)
    equal_attr_pairs = set()
    for atom in split.atoms:
        if isinstance(atom.base_expr, Field) and isinstance(atom.detail_expr, Field):
            equal_attr_pairs.add((atom.base_expr.name, atom.detail_expr.name))
    return all((key, key) in equal_attr_pairs for key in key_attrs)


# ---------------------------------------------------------------------------
# Intervals and attribute domains
# ---------------------------------------------------------------------------

_INF = math.inf


@dataclass(frozen=True)
class Interval:
    """A closed numeric interval ``[low, high]`` (∞ endpoints allowed).

    Only closed endpoints are modelled; open bounds are widened to closed
    ones, which keeps all derived conditions *necessary* (safe for group
    reduction — we may ship slightly more than needed, never less).
    """

    low: float = -_INF
    high: float = _INF

    def __post_init__(self):
        if self.low > self.high:
            raise ValueError(f"empty interval [{self.low}, {self.high}]")

    @classmethod
    def point(cls, value) -> "Interval":
        return cls(value, value)

    @classmethod
    def unbounded(cls) -> "Interval":
        return cls()

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.low + other.low, self.high + other.high)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.low - other.high, self.high - other.low)

    def __mul__(self, other: "Interval") -> "Interval":
        products = []
        for a in (self.low, self.high):
            for b in (other.low, other.high):
                products.append(_mul_bound(a, b))
        return Interval(min(products), max(products))

    def __neg__(self) -> "Interval":
        return Interval(-self.high, -self.low)

    def divide(self, other: "Interval") -> Optional["Interval"]:
        """Interval division; ``None`` when the divisor straddles zero."""
        if other.low <= 0 <= other.high:
            return None
        quotients = []
        for a in (self.low, self.high):
            for b in (other.low, other.high):
                quotients.append(a / b)
        return Interval(min(quotients), max(quotients))

    def intersects(self, other: "Interval") -> bool:
        return self.low <= other.high and other.low <= self.high

    def contains(self, value) -> bool:
        return self.low <= value <= self.high


def _mul_bound(a: float, b: float) -> float:
    # inf * 0 is nan under IEEE; for interval bounds the correct limit is 0.
    if a == 0 or b == 0:
        return 0.0
    return a * b


@dataclass(frozen=True)
class Domain:
    """Known domain of a detail attribute at one site.

    Either a finite ``values`` set (from equality / IN predicates) or an
    ``interval`` (from range predicates). A finite set also induces an
    interval when all its members are numeric.
    """

    values: Optional[frozenset] = None
    interval: Interval = Interval.unbounded()

    @classmethod
    def of_values(cls, values) -> "Domain":
        values = frozenset(values)
        numeric = [value for value in values if isinstance(value, (int, float))]
        if numeric and len(numeric) == len(values):
            return cls(values, Interval(min(numeric), max(numeric)))
        return cls(values, Interval.unbounded())

    @classmethod
    def of_interval(cls, low, high) -> "Domain":
        return cls(None, Interval(low, high))

    def intersect(self, other: "Domain") -> "Domain":
        if self.values is not None and other.values is not None:
            return Domain.of_values(self.values & other.values)
        values = self.values if self.values is not None else other.values
        low = max(self.interval.low, other.interval.low)
        high = min(self.interval.high, other.interval.high)
        if low > high:
            return Domain.of_values(frozenset())
        if values is not None:
            kept = frozenset(
                value
                for value in values
                if not isinstance(value, (int, float)) or low <= value <= high
            )
            return Domain.of_values(kept)
        return Domain(None, Interval(low, high))

    @property
    def is_empty(self) -> bool:
        return self.values is not None and not self.values


def domains_from_predicate(phi: Expr, relvar) -> dict:
    """Extract per-attribute domains implied by a site predicate φ.

    Handles conjunctions of: ``attr == const``, ``attr IN (...)``,
    ``attr BETWEEN lo AND hi``, and ``attr <op> const`` range comparisons.
    Attributes constrained in ways this cannot parse simply get no entry
    (unbounded), which is conservative.
    """
    domains: dict = {}

    def narrow(name: str, domain: Domain) -> None:
        current = domains.get(name)
        domains[name] = domain if current is None else current.intersect(domain)

    for conjunct in conjuncts(phi):
        parsed = _parse_attr_constraint(conjunct, relvar)
        if parsed is not None:
            name, domain = parsed
            narrow(name, domain)
    return domains


def _parse_attr_constraint(conjunct: Expr, relvar) -> Optional[tuple]:
    if isinstance(conjunct, InSet):
        operand = conjunct.operand
        if isinstance(operand, Field) and operand.relvar == relvar:
            return operand.name, Domain.of_values(conjunct.values)
        return None
    if isinstance(conjunct, Between):
        operand = conjunct.operand
        if (
            isinstance(operand, Field)
            and operand.relvar == relvar
            and isinstance(conjunct.low, Const)
            and isinstance(conjunct.high, Const)
        ):
            return operand.name, Domain.of_interval(conjunct.low.value, conjunct.high.value)
        return None
    if isinstance(conjunct, Comparison):
        comparison = conjunct
        if isinstance(comparison.right, Field) and isinstance(comparison.left, Const):
            comparison = comparison.mirrored()
        if not (
            isinstance(comparison.left, Field)
            and comparison.left.relvar == relvar
            and isinstance(comparison.right, Const)
        ):
            return None
        name = comparison.left.name
        value = comparison.right.value
        if comparison.op == "==":
            return name, Domain.of_values([value])
        if not isinstance(value, (int, float)):
            return None
        if comparison.op in ("<", "<="):
            return name, Domain.of_interval(-_INF, value)
        if comparison.op in (">", ">="):
            return name, Domain.of_interval(value, _INF)
        return None
    return None


def interval_of(expression: Expr, relvar, domains: dict) -> Optional[Interval]:
    """Interval of a numeric expression over ``relvar`` under ``domains``.

    Returns ``None`` when the expression involves operations or attributes
    whose range cannot be bounded.
    """
    if isinstance(expression, Const):
        value = expression.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        return Interval.point(value)
    if isinstance(expression, Field):
        if expression.relvar != relvar:
            return None
        domain = domains.get(expression.name)
        if domain is None:
            return Interval.unbounded()
        return domain.interval
    if isinstance(expression, Neg):
        inner = interval_of(expression.operand, relvar, domains)
        return None if inner is None else -inner
    if isinstance(expression, Arith):
        left = interval_of(expression.left, relvar, domains)
        right = interval_of(expression.right, relvar, domains)
        if left is None or right is None:
            return None
        if expression.op == "+":
            return left + right
        if expression.op == "-":
            return left - right
        if expression.op == "*":
            return left * right
        if expression.op == "/":
            return left.divide(right)
        return None
    return None
