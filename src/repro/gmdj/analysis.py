"""Condition analysis for the Skalla optimizer.

Implements the reasoning behind the paper's optimization theorems:

- :func:`derive_ship_filter` — Theorem 4 (distribution-aware group
  reduction): from a site predicate φᵢ and the GMDJ conditions, derive
  the base-only condition ¬ψᵢ such that base tuples failing it cannot
  match any detail tuple at site *i* and need not be shipped there.
- :func:`conditions_entail` — Theorem 4 with an *observed* φᵢ: every
  condition of round k+1 entails some condition of round k, so a group a
  site did not answer with in round k cannot be touched by it in round
  k+1 and need not be shipped there.
- :func:`theta_entails_key` — Proposition 2's hypothesis: every condition
  entails equality on the base key attributes K.
- :func:`entailed_partition_attribute` — Corollary 1's hypothesis: every
  condition entails equality on a partition attribute (with the identity
  bijection), enabling inter-GMDJ synchronization elimination.
- :func:`site_can_match` — satisfiability of detail-only conjuncts under
  φᵢ, used to skip sites entirely (S_MD ⊂ S_B footnote 2 in the paper).

All derivations are *necessary-condition* relaxations: the returned
filters may admit more base tuples than strictly needed but never reject
a tuple that could contribute, so correctness never depends on the
precision of the analysis.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.relalg.expressions import (
    BASE_VAR,
    Between,
    Comparison,
    Const,
    DETAIL_VAR,
    Expr,
    Field,
    InSet,
    and_all,
    or_all,
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
    references_only,
    sides,
    split_condition,
)

_INF = math.inf


# ---------------------------------------------------------------------------
# Theorem 4: distribution-aware group reduction
# ---------------------------------------------------------------------------


def derive_ship_filter(
    conditions: Sequence[Expr], phi: Expr, generated: Sequence[str] = ()
) -> Optional[Expr]:
    """Derive ¬ψᵢ: a base-only filter for tuples worth shipping to site i.

    ``conditions`` are the θ₁..θₘ of the GMDJ (or of all GMDJs covered by
    the shipment); ``phi`` is the site predicate φᵢ over detail
    attributes. ``generated`` names the base attributes the shipment's
    own GMDJs produce (the outputs of a sync-reduced chain's steps): they
    do not exist yet when the fragment is cut, so a conjunct reading one
    cannot be decided at ship time and relaxes to TRUE. Returns an
    expression over base fields (relvar ``"b"``), or ``None`` when no
    useful restriction can be derived (ship all of B).
    """
    domains = domains_from_predicate(phi, DETAIL_VAR)
    if not domains:
        return None
    generated = frozenset(generated)
    restrictions = []
    for theta in conditions:
        restriction = _restrict_condition(theta, domains, generated)
        if restriction is None:
            # One un-analyzable condition forces shipping everything.
            return None
        restrictions.append(restriction)
    combined = or_all(restrictions)
    if is_trivially_true(combined):
        return None
    return combined


def _restrict_condition(
    theta: Expr, domains: dict, generated: frozenset
) -> Optional[Expr]:
    """Necessary base-only condition for θ to match under the domains.

    Returns ``None`` when nothing restrictive can be derived (equivalent
    to TRUE — but distinguished so the caller can give up early).
    """
    parts = []
    found_restriction = False
    for conjunct in conjuncts(theta):
        if any(
            field.relvar == BASE_VAR and field.name in generated
            for field in conjunct.fields()
        ):
            # Undecidable when the fragment is cut: TRUE (ship the row).
            continue
        relvars = sides(conjunct)
        if relvars <= frozenset([BASE_VAR]):
            # Base-only conjunct: itself a necessary condition on b.
            parts.append(conjunct)
            found_restriction = True
            continue
        if relvars <= frozenset([DETAIL_VAR]):
            # Detail-only conjunct: if unsatisfiable at this site, theta
            # can never match there.
            if not _detail_conjunct_satisfiable(conjunct, domains):
                return Const(False)
            continue
        relaxed = _relax_mixed_conjunct(conjunct, domains)
        if relaxed is not None:
            parts.append(relaxed)
            found_restriction = True
    if not found_restriction:
        return None
    return and_all(parts)


def _detail_conjunct_satisfiable(conjunct: Expr, domains: dict) -> bool:
    """Conservatively check a detail-only conjunct against the domains.

    When the conjunct touches a single attribute with a *finite* known
    domain, satisfiability is decided exactly by evaluating the conjunct
    on every candidate value; otherwise interval/set reasoning applies
    (widened, hence conservative).
    """
    referenced = [field for field in conjunct.fields() if field.relvar == DETAIL_VAR]
    if len(referenced) == 1:
        domain = domains.get(referenced[0].name)
        if domain is not None and domain.values is not None:
            name = referenced[0].name
            return any(
                bool(conjunct.eval({DETAIL_VAR: {name: value}}))
                for value in domain.values
            )
    single = domains_from_predicate(conjunct, DETAIL_VAR)
    for name, constraint in single.items():
        known = domains.get(name)
        if known is None:
            continue
        if known.intersect(constraint).is_empty:
            return False
        if known.values is None and constraint.values is None:
            if not known.interval.intersects(constraint.interval):
                return False
    return True


def _relax_mixed_conjunct(conjunct: Expr, domains: dict) -> Optional[Expr]:
    """Relax a base/detail comparison into a base-only necessary condition.

    For ``base_expr OP detail_expr`` with the detail expression's interval
    ``[lo, hi]`` known from φ: a match requires e.g. ``base_expr <= hi``
    for OP ``<``/``<=``, ``base_expr >= lo`` for ``>``/``>=``, and
    ``lo <= base_expr <= hi`` (or set membership) for ``==``.
    """
    if not isinstance(conjunct, Comparison):
        return None
    comparison = conjunct
    if references_only(comparison.left, DETAIL_VAR) and references_only(
        comparison.right, BASE_VAR
    ):
        comparison = comparison.mirrored()
    if not (
        references_only(comparison.left, BASE_VAR)
        and references_only(comparison.right, DETAIL_VAR)
    ):
        return None
    base_expr = comparison.left
    detail_expr = comparison.right

    if comparison.op == "==":
        if isinstance(detail_expr, Field):
            domain = domains.get(detail_expr.name)
            if domain is not None and domain.values is not None:
                return InSet(base_expr, domain.values)
        interval = interval_of(detail_expr, DETAIL_VAR, domains)
        return _interval_membership(base_expr, interval)

    if comparison.op == "!=":
        return None

    interval = interval_of(detail_expr, DETAIL_VAR, domains)
    if interval is None:
        return None
    if comparison.op in ("<", "<="):
        if interval.high == _INF:
            return None
        return Comparison(comparison.op, base_expr, Const(_const_value(interval.high)))
    if comparison.op in (">", ">="):
        if interval.low == -_INF:
            return None
        return Comparison(comparison.op, base_expr, Const(_const_value(interval.low)))
    return None


def _interval_membership(base_expr: Expr, interval: Optional[Interval]) -> Optional[Expr]:
    if interval is None:
        return None
    low_bounded = interval.low != -_INF
    high_bounded = interval.high != _INF
    if low_bounded and high_bounded:
        return Between(base_expr, Const(_const_value(interval.low)), Const(_const_value(interval.high)))
    if low_bounded:
        return Comparison(">=", base_expr, Const(_const_value(interval.low)))
    if high_bounded:
        return Comparison("<=", base_expr, Const(_const_value(interval.high)))
    return None


def _const_value(bound: float):
    """Render an interval bound as a clean literal (int when exact)."""
    if isinstance(bound, float) and bound.is_integer():
        return int(bound)
    return bound


# ---------------------------------------------------------------------------
# Theorem 4 with an observed φᵢ: entailment between consecutive rounds
# ---------------------------------------------------------------------------


def conditions_entail(later: Sequence[Expr], earlier: Sequence[Expr]) -> bool:
    """True when every condition of ``later`` entails one of ``earlier``.

    The test is syntactic and proved-or-not-applied: θ′ entails θ when
    the conjuncts of θ are a subset of the conjuncts of θ′ (by structural
    identity, so ``b.K == r.K`` and ``r.K == b.K`` do not match). A
    superset of conjuncts is entailment also under three-valued logic: θ′
    true makes each of its conjuncts true, θ's among them. A disjunctive
    θ′ that merely *contains* θ as a disjunct is one opaque conjunct and
    entails nothing here.

    With ``later`` the conditions of round k+1 and ``earlier`` those of
    round k over the same detail table, a detail tuple that satisfies no
    θ of round k for a group b satisfies no θ′ of round k+1 for it
    either: the groups site i left out of its round-k Hᵢ stay untouched
    by it in round k+1.
    """
    earlier_conjuncts = [
        frozenset(conjunct.key() for conjunct in conjuncts(theta))
        for theta in earlier
    ]
    if not earlier_conjuncts:
        return False
    for theta in later:
        held = {conjunct.key() for conjunct in conjuncts(theta)}
        if not any(required <= held for required in earlier_conjuncts):
            return False
    return True


# ---------------------------------------------------------------------------
# Proposition 2 / Corollary 1: synchronization reduction hypotheses
# ---------------------------------------------------------------------------


def theta_entails_key(conditions: Sequence[Expr], key_attrs: Sequence[str]) -> bool:
    """True when every condition entails equality on all key attributes."""
    return all(
        entails_key_equality(theta, key_attrs, BASE_VAR, DETAIL_VAR)
        for theta in conditions
    )


def entailed_partition_attribute(
    conditions: Sequence[Expr], partition_attrs: Sequence[str]
) -> Optional[str]:
    """Find a partition attribute on which every condition entails equality.

    Implements the sufficient (identity-bijection) case of Corollary 1:
    every θ contains the conjunct ``b.A == r.A`` for the same partition
    attribute A. Returns the attribute name, or ``None``.
    """
    for attribute in partition_attrs:
        if theta_entails_key(conditions, [attribute]):
            return attribute
    return None


# ---------------------------------------------------------------------------
# Site participation (footnote 2: S_MD may be a strict subset of S_B)
# ---------------------------------------------------------------------------


def site_can_match(conditions: Sequence[Expr], phi: Expr) -> bool:
    """False when φᵢ makes every θ unsatisfiable, so site i can be skipped."""
    domains = domains_from_predicate(phi, DETAIL_VAR)
    if not domains:
        return True
    for theta in conditions:
        split = split_condition(theta, BASE_VAR, DETAIL_VAR)
        possible = all(
            _detail_conjunct_satisfiable(conjunct, domains)
            for conjunct in split.detail_only
        )
        if possible and not is_trivially_false(theta):
            return True
    return False
